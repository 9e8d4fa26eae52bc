//! The compile driver: checkpoint → five passes → [`ChipImage`].
//!
//! [`compile`] wires the passes together and — crucially for the serving
//! contract — *predicts* the chip's outputs on a deterministic probe set
//! using the exact executor a server reconstructs from the image
//! ([`ChipImage::to_network`]). The predicted logits go into the
//! manifest; `imc-serve --image` must reproduce them bit-for-bit, which
//! is what `loadgen --image` checks. The probe set also scores the image
//! against a fault-free oracle (same weights, no stuck cells), giving the
//! manifest's expected accuracy delta.

use crate::image::{
    ChipImage, DeltaStats, ImcSettings, LayerImage, MacroGeometry, Manifest, MlpArch,
    IMAGE_FORMAT_VERSION,
};
use crate::placement::{place, ChipGeometry};
use crate::programming::{
    cells_per_weight, changed_cells, program_pass, ProgramOptions, ProgramTotals,
};
use crate::remap::{remap_pass, RemapOptions};
use crate::wear::{wear_pass, WearLedger};
use crate::CompileError;
use fefet_device::endurance::EnduranceParams;
use fefet_device::retention::RetentionParams;
use imc_core::faults::FaultModel;
use imc_obs::{counter, span};
use neural::checkpoint::{load, Checkpoint};
use neural::imc_exec::{argmax_total, ImcConfig, ImcDesign, QNetwork};
use neural::layers::Linear;
use neural::quant::{quantize_weights, QuantizedWeights};
use neural::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Default weight-init seed — matches `imc-serve`'s synthetic model so a
/// default-compiled image serves the same network family.
pub const DEFAULT_WEIGHT_SEED: u64 = 0x5E44_E001;

/// Everything the compile driver needs.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Network architecture.
    pub arch: MlpArch,
    /// Weight-init seed of the float network.
    pub weight_seed: u64,
    /// Optional `neural::checkpoint` JSON with trained weights.
    pub checkpoint: Option<String>,
    /// Macro design.
    pub design: ImcDesign,
    /// Chip geometry.
    pub geometry: ChipGeometry,
    /// Programming-pass options (ISPP, variation, stride).
    pub program: ProgramOptions,
    /// Per-cell fault probabilities.
    pub fault_model: FaultModel,
    /// Fault-map seed.
    pub fault_seed: u64,
    /// Run relocation + clamping (false = ablation baseline: faults land
    /// raw on the weights).
    pub remap: bool,
    /// Endurance corner for the wear pass.
    pub endurance: EnduranceParams,
    /// Retention corner for the refresh schedule.
    pub retention: RetentionParams,
    /// Probe-set seed.
    pub probe_seed: u64,
    /// Probe-set size.
    pub probe_count: usize,
    /// Free-form model description for the manifest.
    pub model_name: String,
    /// `Some(path)` runs an **incremental** compile: the base image's
    /// placement is reused, the new stored codes are diffed against the
    /// base's, and only cells whose bit changed are reprogrammed (and
    /// only their tiles charge the wear ledger). The manifest records
    /// [`DeltaStats`].
    pub base: Option<String>,
}

impl CompileOptions {
    /// Sensible defaults: fresh paper chip, paper programming conditions,
    /// no faults, typical HfO₂ wear/retention corners, 64 probes.
    #[must_use]
    pub fn new(arch: MlpArch, design: ImcDesign) -> Self {
        Self {
            arch,
            weight_seed: DEFAULT_WEIGHT_SEED,
            checkpoint: None,
            design,
            geometry: ChipGeometry::paper(),
            program: ProgramOptions::paper(0xC0_FFEE),
            fault_model: FaultModel::none(),
            fault_seed: 42,
            remap: true,
            endurance: EnduranceParams::hfo2_typical(),
            retention: RetentionParams::hfo2_typical(),
            probe_seed: 0x0B5E_55ED,
            probe_count: 64,
            model_name: format!(
                "mlp {}x{}x{} ({design:?})",
                arch.features, arch.hidden, arch.classes
            ),
            base: None,
        }
    }
}

/// Wall-clock seconds per pass (perfbench reports them as `compile.*_ms`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct PassTimings {
    /// Placement pass.
    pub placement_s: f64,
    /// Programming pass.
    pub programming_s: f64,
    /// Fault-aware remapping pass.
    pub remap_s: f64,
    /// Wear/retention pass.
    pub wear_s: f64,
    /// Probe prediction + scoring.
    pub predict_s: f64,
}

/// What [`compile`] returns.
pub struct CompileOutput {
    /// The deployable image.
    pub image: ChipImage,
    /// Per-pass wall times.
    pub timings: PassTimings,
    /// Chip-wide programming totals.
    pub totals: ProgramTotals,
}

/// The deterministic probe set: `count` inputs of `features` values in
/// `[0, 1)`, regenerable from the seed alone (both compiler and verifier
/// call this).
#[must_use]
pub fn probe_inputs(features: usize, count: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((state >> 40) & 0xFF_FFFF) as f32 / (1u64 << 24) as f32
    };
    (0..count)
        .map(|_| (0..features).map(|_| next()).collect())
        .collect()
}

/// Index of the largest logit (ties break low, matching a hardware
/// priority encoder).
///
/// **Not** the scoring rule: the predict pass classifies with
/// [`neural::imc_exec::argmax_total`] — the same NaN-safe, ties-last
/// rule `imc-serve` answers with — so a manifest and a server can never
/// disagree on a tied or non-finite logit row. This helper remains for
/// callers modeling the on-chip priority encoder.
#[must_use]
pub fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in xs.iter().enumerate().skip(1) {
        if v > xs[best] {
            best = i;
        }
    }
    best
}

/// Extracts per-layer intended codes and biases from the float network.
fn quantize_layers(
    seq: &mut neural::models::Sequential,
    weight_bits: u32,
    expected: usize,
) -> Result<(Vec<QuantizedWeights>, Vec<Vec<f32>>), CompileError> {
    let mut intended = Vec::new();
    let mut biases = Vec::new();
    for l in seq.layers_mut() {
        if let Some(lin) = l.as_any_mut().downcast_mut::<Linear>() {
            intended.push(quantize_weights(&lin.weight.value, weight_bits));
            biases.push(lin.bias.value.data().to_vec());
        }
    }
    if intended.len() != expected {
        return Err(CompileError::UnsupportedLayer(format!(
            "found {} Linear layers, architecture declares {expected} \
             (only MLPs compile today)",
            intended.len()
        )));
    }
    Ok((intended, biases))
}

/// Compiles a model into a deployable chip image, charging `ledger` with
/// this image's program/erase cycles.
///
/// # Errors
///
/// Returns [`CompileError`] on an invalid fault model, a checkpoint that
/// doesn't fit the architecture, or an architecture the compiler cannot
/// place.
pub fn compile(
    opts: &CompileOptions,
    ledger: &mut WearLedger,
) -> Result<CompileOutput, CompileError> {
    let cfg = ImcConfig::paper(opts.design, 4, 8);
    let shapes = opts.arch.layer_shapes();

    // Float network, optionally with trained weights restored.
    let mut seq = opts.arch.build(opts.weight_seed);
    if let Some(path) = &opts.checkpoint {
        let json =
            std::fs::read_to_string(path).map_err(|e| CompileError::Io(format!("{path}: {e}")))?;
        let ckpt: Checkpoint = serde_json::from_str(&json)
            .map_err(|e| CompileError::BadImage(format!("checkpoint {path}: {e}")))?;
        let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            load(&mut seq, &ckpt);
        }));
        if ok.is_err() {
            return Err(CompileError::BadImage(format!(
                "checkpoint {path} does not fit a {} architecture",
                opts.model_name
            )));
        }
    }
    let (intended, biases) = quantize_layers(&mut seq, cfg.weight_bits, shapes.len())?;

    counter!("imc_compile_runs_total", "Compile pipeline invocations").inc();

    // Incremental mode: load and vet the base image before any pass runs.
    let base = match &opts.base {
        None => None,
        Some(path) => {
            let img = ChipImage::load(path)?;
            let want_imc = ImcSettings::from_config(&cfg);
            if img.arch != opts.arch {
                return Err(CompileError::BadImage(format!(
                    "base image is a {:?}, compiling a {:?}",
                    img.arch, opts.arch
                )));
            }
            if img.imc != want_imc {
                return Err(CompileError::BadImage(
                    "base image executor settings differ — delta compile \
                     needs the same design/precision/noise configuration"
                        .into(),
                ));
            }
            if img.placement.banks != opts.geometry.banks {
                return Err(CompileError::BadImage(format!(
                    "base image spans {} banks, chip has {}",
                    img.placement.banks, opts.geometry.banks
                )));
            }
            Some(img)
        }
    };

    // Pass 1 — placement. Each pass is wrapped in an obs span, so pass
    // timings land in `span_us{span="pass.*"}` for scrapers while the
    // same wall times still populate `PassTimings` for callers. A delta
    // compile reuses the base placement verbatim: unchanged weights must
    // stay on the cells that already hold them.
    let t = span!("pass.placement");
    let (placement, tiles) = match &base {
        Some(img) => (img.placement.clone(), img.manifest.tiles),
        None => {
            let (placement, mappings) =
                place(&shapes, &opts.geometry, &ledger.cycles, cfg.weight_bits);
            debug_assert_eq!(
                placement.entries.len(),
                mappings.iter().map(|m| m.macros).sum::<usize>()
            );
            let tiles = mappings.iter().map(|m| m.macros).sum();
            (placement, tiles)
        }
    };
    let mut timings = PassTimings {
        placement_s: t.finish().as_secs_f64(),
        ..PassTimings::default()
    };

    // Pass 3 runs before pass 2 on purpose: programming drives the
    // *stored* codes, which remapping decides (clamped weights are stored
    // clamped; relocated columns store their intended codes on spares).
    let t = span!("pass.remap");
    let remapped = remap_pass(
        &intended,
        &placement,
        &RemapOptions {
            model: opts.fault_model,
            seed: opts.fault_seed,
            enable: opts.remap,
        },
    )?;
    timings.remap_s = t.finish().as_secs_f64();

    // Delta diff: which stored codes (and how many physical cells)
    // actually changed relative to the base image.
    let dims: Vec<[usize; 2]> = shapes.iter().map(|s| [s.out_ch, s.in_ch]).collect();
    let base_stored: Option<Vec<Vec<i8>>> = base
        .as_ref()
        .map(|img| img.layers.iter().map(|l| l.stored.clone()).collect());
    let changed: Option<Vec<Vec<bool>>> = base_stored.as_ref().map(|bs| {
        remapped
            .stored
            .iter()
            .zip(bs)
            .map(|(new, old)| new.iter().zip(old).map(|(a, b)| a != b).collect())
            .collect()
    });
    let tile_cols = if cfg.weight_bits == 8 {
        placement.tile_cols_w8
    } else {
        placement.tile_cols_w8 * 2
    };
    let tile_touched = |ch: &[Vec<bool>], layer: usize, row_tile: usize, col_tile: usize| {
        let [oc, fan] = dims[layer];
        let r0 = row_tile * placement.tile_rows;
        let r1 = (r0 + placement.tile_rows).min(fan);
        let c0 = col_tile * tile_cols;
        let c1 = (c0 + tile_cols).min(oc);
        (c0..c1).any(|o| (r0..r1).any(|r| ch[layer][o * fan + r]))
    };
    let tile_mask: Option<Vec<bool>> = changed.as_ref().map(|ch| {
        placement
            .entries
            .iter()
            .map(|e| tile_touched(ch, e.layer, e.row_tile, e.col_tile))
            .collect()
    });

    // Pass 2 — ISPP programming of the stored codes (only the changed
    // cells, in delta mode).
    let t = span!("pass.programming");
    let (bank_stats, totals) = program_pass(
        &remapped.stored,
        base_stored.as_deref(),
        &dims,
        &placement,
        opts.design,
        cfg.weight_bits,
        &opts.program,
    );
    timings.programming_s = t.finish().as_secs_f64();
    counter!(
        "imc_compile_programmed_cells_total",
        "Cells physically programmed by ISPP write-verify"
    )
    .add(totals.cells);
    counter!("imc_compile_ispp_pulses_total", "ISPP pulses issued").add(totals.pulses);
    counter!(
        "imc_compile_unconverged_cells_total",
        "Cells whose ISPP never converged within the pulse budget"
    )
    .add(totals.unconverged);

    // Pass 4 — wear accounting + refresh schedule. Relocated columns
    // charge the spare's physical bank; a delta compile charges only the
    // tiles (and spares) it actually re-pulsed.
    let t = span!("pass.wear");
    let relocated_charged: Vec<crate::image::RelocatedColumn> = match &changed {
        None => remapped.ledger.relocated.clone(),
        Some(ch) => remapped
            .ledger
            .relocated
            .iter()
            .filter(|r| {
                let fan = dims[r.layer][1];
                let r0 = r.row_tile * placement.tile_rows;
                let r1 = (r0 + placement.tile_rows).min(fan);
                (r0..r1).any(|row| ch[r.layer][r.out_col * fan + row])
            })
            .copied()
            .collect(),
    };
    let (wear, refresh) = wear_pass(
        &placement,
        opts.design,
        &opts.endurance,
        &opts.retention,
        &relocated_charged,
        tile_mask.as_deref(),
        ledger,
    );
    timings.wear_s = t.finish().as_secs_f64();

    // Pass 5 — image assembly and probe prediction.
    let layers: Vec<LayerImage> = shapes
        .iter()
        .enumerate()
        .map(|(i, s)| LayerImage {
            name: s.name.clone(),
            effective: QuantizedWeights {
                q: remapped.effective[i].clone(),
                scale: intended[i].scale,
                bits: intended[i].bits,
                shape: intended[i].shape,
            },
            stored: remapped.stored[i].clone(),
            bias: biases[i].clone(),
        })
        .collect();
    let banks_used = {
        let mut seen = vec![false; placement.banks];
        placement.entries.iter().for_each(|e| seen[e.bank] = true);
        seen.iter().filter(|&&b| b).count()
    };
    let mut image = ChipImage {
        version: IMAGE_FORMAT_VERSION,
        arch: opts.arch,
        weight_seed: opts.weight_seed,
        imc: ImcSettings::from_config(&cfg),
        geometry: MacroGeometry {
            banks: opts.geometry.banks,
            rows: cfg.rows,
            ..MacroGeometry::paper()
        },
        layers,
        placement,
        manifest: Manifest {
            model: opts.model_name.clone(),
            total_weights: shapes.iter().map(|s| s.weight_count()).sum(),
            tiles,
            banks_used,
            slots: 1,
            program: bank_stats,
            program_stride: opts.program.stride,
            faults: remapped.ledger,
            wear,
            refresh,
            probe_seed: opts.probe_seed,
            // Filled in below once predictions exist (validate() ties the
            // probe count to the predicted logits).
            probe_count: 0,
            predicted_logits: Vec::new(),
            oracle_agreement: None,
            expected_accuracy_delta: None,
            noise_flip_rate: None,
            delta: None,
        },
        shard: None,
    };
    image.manifest.slots = image.placement.slots();
    if let (Some(ch), Some(img)) = (&changed, &base) {
        let cpw = cells_per_weight(cfg.weight_bits);
        let touched_cells: u64 = remapped
            .stored
            .iter()
            .zip(base_stored.as_ref().expect("delta has base codes"))
            .map(|(new, old)| {
                new.iter()
                    .zip(old)
                    .map(|(a, b)| changed_cells(*a, *b, cfg.weight_bits))
                    .sum::<u64>()
            })
            .sum();
        let total_cells = image.manifest.total_weights * cpw;
        image.manifest.delta = Some(DeltaStats {
            base_digest: img.digest(),
            touched_cells,
            total_cells,
            touched_fraction: if total_cells == 0 {
                0.0
            } else {
                touched_cells as f64 / total_cells as f64
            },
            reprogrammed_tiles: tile_mask
                .as_ref()
                .map_or(0, |m| m.iter().filter(|&&t| t).count()),
        });
        debug_assert_eq!(ch.len(), remapped.stored.len());
    }

    // Pass 5 — probe prediction and scoring. The *contract* logits are
    // computed under serving noise (`imc-serve` must reproduce them
    // bit-for-bit). The *score* is computed with read noise off on both
    // sides, so `oracle_agreement` measures fault damage alone; the
    // residual serving-noise chaos is quantified separately as
    // `noise_flip_rate` (DESIGN §17 has the decomposition).
    let t = span!("pass.predict");
    let compiled = image.to_network()?;
    let mut cfg0 = cfg;
    cfg0.noise_scale = 0.0;
    let eff_layers: Vec<QuantizedWeights> =
        image.layers.iter().map(|l| l.effective.clone()).collect();
    let compiled0 = QNetwork::from_sequential_with(&seq, cfg0, |i, _| eff_layers[i].clone());
    let oracle0 = QNetwork::from_sequential_with(&seq, cfg0, |i, _| intended[i].clone());
    let probes = probe_inputs(opts.arch.features, opts.probe_count, opts.probe_seed);
    let mut agree = 0usize;
    let mut flips = 0usize;
    for p in &probes {
        let x = Tensor::from_vec(&[1, opts.arch.features], p.clone());
        let got = compiled.forward(&x).data().to_vec();
        let got0 = compiled0.forward(&x).data().to_vec();
        let want0 = oracle0.forward(&x).data().to_vec();
        if argmax_total(&got0) == argmax_total(&want0) {
            agree += 1;
        }
        if argmax_total(&got) != argmax_total(&got0) {
            flips += 1;
        }
        image.manifest.predicted_logits.push(got);
    }
    image.manifest.probe_count = probes.len();
    if !probes.is_empty() {
        let n = probes.len() as f64;
        image.manifest.oracle_agreement = Some(agree as f64 / n);
        image.manifest.expected_accuracy_delta = Some(1.0 - agree as f64 / n);
        image.manifest.noise_flip_rate = Some(flips as f64 / n);
    }
    timings.predict_s = t.finish().as_secs_f64();

    image.validate()?;
    Ok(CompileOutput {
        image,
        timings,
        totals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CompileOptions {
        let mut o = CompileOptions::new(
            MlpArch {
                features: 24,
                hidden: 12,
                classes: 6,
            },
            ImcDesign::CurFe,
        );
        o.probe_count = 16;
        o
    }

    #[test]
    fn fault_free_compile_matches_the_oracle_exactly() {
        let opts = tiny();
        let mut ledger = WearLedger::fresh(opts.geometry.banks);
        let out = compile(&opts, &mut ledger).unwrap();
        assert_eq!(out.image.manifest.oracle_agreement, Some(1.0));
        assert_eq!(out.image.manifest.expected_accuracy_delta, Some(0.0));
        assert_eq!(out.image.manifest.predicted_logits.len(), 16);
        assert!(out.totals.cells > 0);
        // The ledger was charged.
        assert!(ledger.cycles.iter().sum::<u64>() > 0);
    }

    #[test]
    fn empty_probe_set_reports_unmeasured_not_perfect() {
        // Regression: an empty probe set used to report a vacuous
        // oracle_agreement = 1.0 — indistinguishable from a genuinely
        // perfect compile. It must now be explicit about not measuring.
        let mut opts = tiny();
        opts.probe_count = 0;
        let mut ledger = WearLedger::fresh(opts.geometry.banks);
        let out = compile(&opts, &mut ledger).unwrap();
        assert_eq!(out.image.manifest.oracle_agreement, None);
        assert_eq!(out.image.manifest.expected_accuracy_delta, None);
        assert_eq!(out.image.manifest.noise_flip_rate, None);
        assert!(out.image.manifest.predicted_logits.is_empty());
        out.image.validate().unwrap();
    }

    /// Regression for the predict-pass disagreement (ISSUE 10, DESIGN
    /// §17): at the BENCH-like faulty operating point the manifest used
    /// to report ≈0.81 agreement. Root cause was twofold — the score
    /// mixed analog-noise chaos at tiny logit margins into what claimed
    /// to be a *fault* metric, and the all-or-nothing spare rule threw
    /// away nearly the whole spare pool (a 1024-cell spare is rarely
    /// perfectly clean), leaving worst-case sign-cell clamps in place.
    /// With noise-free scoring and best-fit spares the agreement must
    /// clear the ≥0.99 bar; the residual serving-noise chaos is reported
    /// separately as `noise_flip_rate`.
    #[test]
    fn faulty_chgfe_point_clears_the_agreement_bar() {
        let mut opts = CompileOptions::new(
            MlpArch {
                features: 256,
                hidden: 32,
                classes: 10,
            },
            ImcDesign::ChgFe,
        );
        opts.fault_model = imc_core::faults::FaultModel {
            p_stuck_on: 1e-3,
            p_stuck_off: 1e-3,
        };
        opts.probe_count = 32;
        let mut ledger = WearLedger::fresh(opts.geometry.banks);
        let out = compile(&opts, &mut ledger).unwrap();
        let m = &out.image.manifest;
        assert!(m.faults.total_faults > 0, "the point must exercise faults");
        let agreement = m.oracle_agreement.expect("probes ran");
        assert!(
            agreement >= 0.99,
            "predict-pass agreement regressed: {agreement} (faults {}, \
             relocated {}, clamped {})",
            m.faults.total_faults,
            m.faults.relocated.len(),
            m.faults.clamped.len()
        );
        // The physics gap is quantified, not silently folded in.
        assert!(m.noise_flip_rate.is_some());
    }

    #[test]
    fn serial_and_parallel_compiles_are_identical() {
        let mut opts = tiny();
        opts.design = ImcDesign::ChgFe;
        opts.fault_model = imc_core::faults::FaultModel {
            p_stuck_on: 0.002,
            p_stuck_off: 0.002,
        };
        let mut l1 = WearLedger::fresh(16);
        let par = compile(&opts, &mut l1).unwrap();
        opts.program.force_serial = true;
        let mut l2 = WearLedger::fresh(16);
        let ser = compile(&opts, &mut l2).unwrap();
        assert_eq!(par.image, ser.image, "images must match bit-for-bit");
        assert_eq!(l1, l2);
        let a = serde_json::to_string(&par.image).unwrap();
        let b = serde_json::to_string(&ser.image).unwrap();
        assert_eq!(a, b, "serialized ChipImage JSON must be identical");
    }

    #[test]
    fn predictions_are_reproducible_from_the_image() {
        let opts = tiny();
        let mut ledger = WearLedger::fresh(opts.geometry.banks);
        let out = compile(&opts, &mut ledger).unwrap();
        let net = out.image.to_network().unwrap();
        let probes = probe_inputs(24, 16, opts.probe_seed);
        for (p, want) in probes.iter().zip(&out.image.manifest.predicted_logits) {
            let x = Tensor::from_vec(&[1, 24], p.clone());
            assert_eq!(&net.forward(&x).data().to_vec(), want, "bit-identical");
        }
    }

    #[test]
    fn compile_is_deterministic() {
        let opts = tiny();
        let mut l1 = WearLedger::fresh(16);
        let mut l2 = WearLedger::fresh(16);
        let a = compile(&opts, &mut l1).unwrap();
        let b = compile(&opts, &mut l2).unwrap();
        assert_eq!(a.image, b.image);
        assert_eq!(l1, l2);
    }

    #[test]
    fn remap_beats_raw_faults_on_the_same_seed() {
        let mut opts = tiny();
        opts.design = ImcDesign::ChgFe;
        opts.fault_model = imc_core::faults::FaultModel {
            p_stuck_on: 0.004,
            p_stuck_off: 0.004,
        };
        let mut l1 = WearLedger::fresh(16);
        let with = compile(&opts, &mut l1).unwrap();
        opts.remap = false;
        let mut l2 = WearLedger::fresh(16);
        let without = compile(&opts, &mut l2).unwrap();
        let (wa, ra) = (
            with.image.manifest.oracle_agreement.unwrap(),
            without.image.manifest.oracle_agreement.unwrap(),
        );
        assert!(wa >= ra, "remap {wa} vs raw {ra}");
        assert!(with.image.manifest.faults.total_faults > 0);
    }

    #[test]
    fn delta_recompile_of_identical_checkpoint_is_a_noop() {
        let opts = tiny();
        let mut ledger = WearLedger::fresh(opts.geometry.banks);
        let full = compile(&opts, &mut ledger).unwrap();
        let dir = std::env::temp_dir().join("imc_compile_delta_noop");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("base.json");
        full.image.save(path.to_str().unwrap()).unwrap();

        let cycles_before = ledger.cycles.clone();
        let mut delta_opts = opts.clone();
        delta_opts.base = Some(path.to_str().unwrap().to_string());
        let delta = compile(&delta_opts, &mut ledger).unwrap();
        std::fs::remove_file(&path).ok();

        // Exactly zero cells reprogrammed, zero wear charged.
        let d = delta.image.manifest.delta.expect("delta stats recorded");
        assert_eq!(d.base_digest, full.image.digest());
        assert_eq!(d.touched_cells, 0);
        assert_eq!(d.touched_fraction, 0.0);
        assert_eq!(d.reprogrammed_tiles, 0);
        assert_eq!(delta.totals.cells, 0, "no ISPP pulses for a no-op");
        assert_eq!(ledger.cycles, cycles_before, "wear ledger untouched");

        // The image is byte-identical modulo the delta record and the
        // (now-subsampled-to-nothing) program stats.
        assert_eq!(delta.image.digest(), full.image.digest());
        let mut normalized = delta.image.clone();
        normalized.manifest.delta = None;
        normalized.manifest.program = full.image.manifest.program.clone();
        assert_eq!(normalized, full.image);
        assert_eq!(
            delta.image.manifest.predicted_logits, full.image.manifest.predicted_logits,
            "served outputs are bit-identical across the no-op recompile"
        );
    }

    #[test]
    fn delta_recompile_touches_only_changed_cells() {
        // Full-compile a base, then recompile with a different weight
        // seed (a "training step" standing in for a new checkpoint).
        let opts = tiny();
        let mut ledger = WearLedger::fresh(opts.geometry.banks);
        let full = compile(&opts, &mut ledger).unwrap();
        let dir = std::env::temp_dir().join("imc_compile_delta_changed");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("base.json");
        full.image.save(path.to_str().unwrap()).unwrap();

        let mut next = opts.clone();
        next.weight_seed ^= 0xBEEF;
        next.base = Some(path.to_str().unwrap().to_string());
        let delta = compile(&next, &mut ledger).unwrap();
        std::fs::remove_file(&path).ok();

        let d = delta.image.manifest.delta.expect("delta stats recorded");
        assert!(d.touched_cells > 0, "different weights must touch cells");
        assert!(
            d.touched_cells < d.total_cells,
            "random re-init still leaves ~half the bits in place: {} of {}",
            d.touched_cells,
            d.total_cells
        );
        assert!(d.touched_fraction > 0.0 && d.touched_fraction < 1.0);
        // Placement is pinned to the base so unchanged weights stay put.
        assert_eq!(delta.image.placement, full.image.placement);
    }

    #[test]
    fn probe_inputs_are_stable_and_bounded() {
        let a = probe_inputs(8, 4, 7);
        let b = probe_inputs(8, 4, 7);
        assert_eq!(a, b);
        assert_ne!(a, probe_inputs(8, 4, 8));
        assert!(a.iter().flatten().all(|&v| (0.0..1.0).contains(&v)));
    }
}
