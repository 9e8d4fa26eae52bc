//! The versioned, serialized chip-image artifact and its manifest.
//!
//! A [`ChipImage`] is everything a server needs to reproduce the compiled
//! chip *exactly*: the architecture, the executor settings, the effective
//! (post-remap, post-fault) weight codes per layer, the placement table,
//! and a manifest of what compilation did (program stats, fault ledger,
//! wear, refresh schedule, predicted probe outputs). Loading the image and
//! calling [`ChipImage::to_network`] yields a `QNetwork` bit-identical to
//! the one the compiler used for its predictions.

use crate::CompileError;
use neural::imc_exec::{ImcConfig, ImcDesign, QNetwork};
use neural::models::{mlp, LayerShape, Sequential};
use neural::quant::QuantizedWeights;
use serde::{Deserialize, Serialize};

/// Current on-disk format version; bumped on breaking manifest changes.
/// v2 added the physical [`MacroGeometry`] block the analytical cost
/// model prices (`imc-cost`, DESIGN §15). v3 made the predict-pass
/// scores `Option` (empty probe sets no longer report a vacuous 1.0),
/// added the noise-flip rate, and added [`DeltaStats`] for incremental
/// (`--base`) compiles (DESIGN §17).
pub const IMAGE_FORMAT_VERSION: u32 = 3;

/// The MLP architecture a chip image carries (the serving default shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MlpArch {
    /// Input features.
    pub features: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Output classes.
    pub classes: usize,
}

impl MlpArch {
    /// Builds the float network with the given weight-init seed.
    #[must_use]
    pub fn build(&self, seed: u64) -> Sequential {
        mlp(self.features, self.hidden, self.classes, seed)
    }

    /// The MAC-layer shapes, in network order (what `system_perf::mapping`
    /// consumes).
    #[must_use]
    pub fn layer_shapes(&self) -> Vec<LayerShape> {
        vec![
            LayerShape {
                name: "fc1".into(),
                in_ch: self.features,
                out_ch: self.hidden,
                kernel: 1,
                out_positions: 1,
            },
            LayerShape {
                name: "fc2".into(),
                in_ch: self.hidden,
                out_ch: self.classes,
                kernel: 1,
                out_positions: 1,
            },
        ]
    }
}

/// Physical macro geometry the image was compiled for — the knobs the
/// analytical cost model (`imc-cost`) prices: energy and latency are
/// linear in `banks × rows`, and the charge-share/TIA frontend count
/// scales with `block_pairs_per_bank`. `rows` mirrors
/// [`ImcSettings::rows`] (the analog accumulation depth); `validate`
/// enforces the equality so the executor and the cost model can never
/// disagree about the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MacroGeometry {
    /// Physical banks on the chip.
    pub banks: usize,
    /// Simultaneously-active rows per bank (accumulation depth).
    pub rows: usize,
    /// H4B/L4B block-pair columns per bank.
    pub block_pairs_per_bank: usize,
}

impl MacroGeometry {
    /// The paper's macro: 16 banks × 32 rows × 4 block pairs.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            banks: 16,
            rows: 32,
            block_pairs_per_bank: 4,
        }
    }
}

/// Serializable mirror of [`ImcConfig`] (the design is stored by name —
/// the offline serde stubs do not derive on cross-crate enums).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImcSettings {
    /// `"CurFe"` or `"ChgFe"`.
    pub design: String,
    /// ADC resolution (bits).
    pub adc_bits: u32,
    /// Activation precision (bits).
    pub input_bits: u32,
    /// Weight precision (bits).
    pub weight_bits: u32,
    /// Accumulation rows per chunk.
    pub rows: usize,
    /// Noise seed.
    pub seed: u64,
    /// Noise-profile scale.
    pub noise_scale: f64,
    /// Cycle-to-cycle fraction of the device σ.
    pub read_noise_fraction: f64,
}

impl ImcSettings {
    /// Captures an executor config.
    #[must_use]
    pub fn from_config(cfg: &ImcConfig) -> Self {
        Self {
            design: format!("{:?}", cfg.design),
            adc_bits: cfg.adc_bits,
            input_bits: cfg.input_bits,
            weight_bits: cfg.weight_bits,
            rows: cfg.rows,
            seed: cfg.seed,
            noise_scale: cfg.noise_scale,
            read_noise_fraction: cfg.read_noise_fraction,
        }
    }

    /// Reconstructs the executor config.
    ///
    /// # Errors
    ///
    /// Fails on an unknown design name.
    pub fn to_config(&self) -> Result<ImcConfig, CompileError> {
        let design = match self.design.as_str() {
            "CurFe" => ImcDesign::CurFe,
            "ChgFe" => ImcDesign::ChgFe,
            other => {
                return Err(CompileError::BadImage(format!(
                    "unknown design `{other}` in image"
                )))
            }
        };
        Ok(ImcConfig {
            design,
            adc_bits: self.adc_bits,
            input_bits: self.input_bits,
            weight_bits: self.weight_bits,
            rows: self.rows,
            seed: self.seed,
            noise_scale: self.noise_scale,
            read_noise_fraction: self.read_noise_fraction,
        })
    }
}

/// One MAC layer of the image.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerImage {
    /// Layer name (`fc1`, `fc2`, ...).
    pub name: String,
    /// The **effective** codes the analog array realizes after remapping
    /// and residual faults — what the executor must be built from.
    pub effective: QuantizedWeights,
    /// The codes actually driven into the cells by the programming pass
    /// (pre-fault; differs from `effective` only on clamped weights under
    /// residual stuck cells).
    pub stored: Vec<i8>,
    /// Bias values (float, digital domain).
    pub bias: Vec<f32>,
}

/// Where one weight tile of one layer physically lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementEntry {
    /// MAC-layer index.
    pub layer: usize,
    /// Row tile (along the fan/input dimension, 128 rows each).
    pub row_tile: usize,
    /// Column tile (along the output dimension, 16 w8-columns each).
    pub col_tile: usize,
    /// Physical bank holding the tile.
    pub bank: usize,
    /// Time-multiplex slot within the bank (0 = resident; >0 means the
    /// bank is reprogrammed between rounds because demand exceeded the
    /// bank count).
    pub slot: usize,
}

/// The full placement table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct PlacementTable {
    /// Rows per tile (128).
    pub tile_rows: usize,
    /// 8-bit weight columns per tile (16).
    pub tile_cols_w8: usize,
    /// Physical banks on the chip.
    pub banks: usize,
    /// Spare w8 columns per bank (beyond the logical 16).
    pub spare_cols_w8: usize,
    /// One entry per (layer, row_tile, col_tile), in deterministic order.
    pub entries: Vec<PlacementEntry>,
}

impl PlacementTable {
    /// Number of time-multiplex rounds needed (1 = fully resident).
    #[must_use]
    pub fn slots(&self) -> usize {
        self.entries.iter().map(|e| e.slot + 1).max().unwrap_or(1)
    }
}

/// Aggregated ISPP statistics for one bank.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct BankProgramStats {
    /// Bank index.
    pub bank: usize,
    /// Cells physically programmed (after sampling stride).
    pub cells: u64,
    /// Total ISPP pulses.
    pub pulses: u64,
    /// Worst single-cell pulse count.
    pub max_pulses: u64,
    /// Cells whose verify loop did not converge.
    pub unconverged: u64,
    /// Mean |achieved − target| V_TH over programmed cells (V).
    pub mean_abs_residual_v: f64,
    /// Worst |achieved − target| (V).
    pub max_abs_residual_v: f64,
    /// Total write energy (J).
    pub energy_j: f64,
}

/// One column relocated onto a spare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RelocatedColumn {
    /// MAC-layer index.
    pub layer: usize,
    /// Row tile of the faulty column.
    pub row_tile: usize,
    /// Output channel (column) within the layer.
    pub out_col: usize,
    /// Bank providing the spare.
    pub spare_bank: usize,
    /// Spare slot index within that bank.
    pub spare_col: usize,
    /// Stuck cells the relocation dodged.
    pub stuck_cells: usize,
}

/// One weight clamped in place because no clean spare was left.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClampedWeight {
    /// MAC-layer index.
    pub layer: usize,
    /// Flat weight index within the layer.
    pub index: usize,
    /// The code quantization wanted.
    pub intended: i8,
    /// The code actually driven into the cells.
    pub stored: i8,
    /// What the faulty cells make the array read back.
    pub effective: i8,
}

/// Everything the fault-aware remapping pass did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FaultLedger {
    /// Fault-map seed.
    pub seed: u64,
    /// Stuck-on probability per cell.
    pub p_stuck_on: f64,
    /// Stuck-off probability per cell.
    pub p_stuck_off: f64,
    /// Faulty cells drawn across all layers.
    pub total_faults: usize,
    /// Whether relocation + clamping ran at all (false = faults applied
    /// raw, the ablation baseline).
    pub remap_enabled: bool,
    /// Spare columns available chip-wide.
    pub spares_total: usize,
    /// Spares that tested clean (usable).
    pub spares_clean: usize,
    /// Columns moved onto spares.
    pub relocated: Vec<RelocatedColumn>,
    /// Weights clamped under residual faults.
    pub clamped: Vec<ClampedWeight>,
    /// Faulty cells left in active (non-relocated) columns.
    pub residual_faulty_cells: usize,
}

/// Wear state of one bank after this compile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WearSummary {
    /// Bank index.
    pub bank: usize,
    /// Lifetime program/erase cycles (including this compile).
    pub cycles: u64,
    /// Relative memory window at that cycle count (1.0 = pristine).
    pub window_factor: f64,
}

/// Refresh requirement of one bank.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RefreshEntry {
    /// Bank index.
    pub bank: usize,
    /// The programmed V_TH state that drifts out of budget first.
    pub limiting_vth: f64,
    /// Reprogram interval (s); `None` = no refresh needed within the
    /// 12-decade horizon.
    pub interval_s: Option<f64>,
    /// First refresh deadline (s), staggered across banks so the chip
    /// never refreshes everything at once.
    pub first_refresh_s: Option<f64>,
}

/// What an incremental (`--base`) compile touched, relative to the base
/// image it was diffed against (DESIGN §17). `None` in the manifest
/// means the image came from a full compile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeltaStats {
    /// [`ChipImage::digest`] of the base image the diff ran against.
    pub base_digest: u64,
    /// Physical cells whose stored bit changed and were re-pulsed.
    pub touched_cells: u64,
    /// Total physical cells the model occupies (8 per weight).
    pub total_cells: u64,
    /// `touched_cells / total_cells` (0.0 when the model is empty).
    pub touched_fraction: f64,
    /// Placement tiles containing at least one touched cell — only these
    /// went through the ISPP programming pass and charged the wear ledger.
    pub reprogrammed_tiles: usize,
}

/// The human- and machine-readable compile record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Manifest {
    /// Free-form model description.
    pub model: String,
    /// Total logical weights placed.
    pub total_weights: u64,
    /// Macro tiles used.
    pub tiles: usize,
    /// Banks touched.
    pub banks_used: usize,
    /// Time-multiplex rounds (1 = resident).
    pub slots: usize,
    /// Per-bank ISPP statistics.
    pub program: Vec<BankProgramStats>,
    /// Every 1/`program_stride`-th cell was physically programmed (1 =
    /// all; larger strides sample the statistics for speed).
    pub program_stride: usize,
    /// What remapping did.
    pub faults: FaultLedger,
    /// Per-bank wear after this compile.
    pub wear: Vec<WearSummary>,
    /// Per-bank refresh schedule.
    pub refresh: Vec<RefreshEntry>,
    /// Probe-set seed (inputs are regenerated deterministically).
    pub probe_seed: u64,
    /// Number of probe inputs.
    pub probe_count: usize,
    /// Predicted logits of the compiled (effective) network on the probe
    /// set — the served outputs must match these bit-for-bit. These are
    /// computed *under serving noise* (the serving contract), unlike the
    /// noise-free scoring fields below.
    pub predicted_logits: Vec<Vec<f32>>,
    /// Argmax agreement between the compiled network and the fault-free
    /// oracle on the probe set, scored with analog read noise disabled on
    /// both sides so the number isolates *fault* damage (clamp errors,
    /// residual stuck cells) from noise chaos at tiny logit margins.
    /// `None` when the probe set is empty — an unmeasured image must not
    /// claim a vacuously perfect 1.0 (DESIGN §17).
    pub oracle_agreement: Option<f64>,
    /// `1 − oracle_agreement`: the accuracy the faults are expected to
    /// cost. `None` when unmeasured.
    pub expected_accuracy_delta: Option<f64>,
    /// Fraction of probes whose argmax under serving noise differs from
    /// the same compiled network's noise-free argmax — the quantified
    /// "physics gap": chaos the analog read noise injects at tiny logit
    /// margins, orthogonal to fault damage. `None` when unmeasured.
    pub noise_flip_rate: Option<f64>,
    /// `Some` on an image produced by an incremental compile
    /// (`imc-compile --base`).
    pub delta: Option<DeltaStats>,
}

/// Which slice of the model's accumulation chunks one fleet replica
/// owns (DESIGN §14). Chunks — the macro's 32-row partial-sum unit —
/// are the natural shard boundary: the packed kernel's noise streams
/// and popcounts never cross one, so a replica computing only its
/// chunk ranges produces i64 partial sums that recombine bit-exactly
/// at the router.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// This shard's index (`0..count`).
    pub index: usize,
    /// Total shards the model was split into.
    pub count: usize,
    /// Per MAC layer: the `[start, end)` global chunk range this shard
    /// executes (`start == end` = this shard has no work in the layer).
    pub layer_chunks: Vec<[usize; 2]>,
}

impl ShardSpec {
    /// The contiguous even chunk partition of MAC layers with
    /// `layer_chunks` chunks each: shard `index` of `count` gets chunks
    /// `⌊index·C/count⌋ .. ⌊(index+1)·C/count⌋` of each layer — ranges
    /// tile every layer exactly, and a layer with fewer chunks than
    /// shards leaves the surplus shards empty there. Compiled shard
    /// images, synthetic replicas and the router's synthetic plan all
    /// cut with this one rule, so they agree without a manifest.
    #[must_use]
    pub fn even(layer_chunks: impl IntoIterator<Item = usize>, index: usize, count: usize) -> Self {
        let layer_chunks = layer_chunks
            .into_iter()
            .map(|c| [index * c / count, (index + 1) * c / count])
            .collect();
        Self {
            index,
            count,
            layer_chunks,
        }
    }
}

/// The deployable artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipImage {
    /// Format version ([`IMAGE_FORMAT_VERSION`]).
    pub version: u32,
    /// Network architecture.
    pub arch: MlpArch,
    /// Weight-init seed of the float network (provenance; the effective
    /// codes and biases below are authoritative).
    pub weight_seed: u64,
    /// Executor settings.
    pub imc: ImcSettings,
    /// Physical macro geometry (v2; priced by `imc-cost`).
    pub geometry: MacroGeometry,
    /// MAC layers, in network order.
    pub layers: Vec<LayerImage>,
    /// Placement table.
    pub placement: PlacementTable,
    /// Compile record.
    pub manifest: Manifest,
    /// `Some` on a per-chip shard image emitted by `imc-compile fleet`:
    /// the replica carries the full weights (they are small — packing is
    /// content-addressed anyway) but answers partial-MAC requests only
    /// for the chunk ranges listed here. `None` = a whole-model image.
    pub shard: Option<ShardSpec>,
}

impl ChipImage {
    /// Structural validation: version, layer shapes vs architecture,
    /// placement/probe consistency.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::BadImage`] describing the first violation.
    pub fn validate(&self) -> Result<(), CompileError> {
        if self.version != IMAGE_FORMAT_VERSION {
            return Err(CompileError::BadImage(format!(
                "format version {} (this build reads {})",
                self.version, IMAGE_FORMAT_VERSION
            )));
        }
        let shapes = self.arch.layer_shapes();
        if self.layers.len() != shapes.len() {
            return Err(CompileError::BadImage(format!(
                "{} layers for a {}-layer architecture",
                self.layers.len(),
                shapes.len()
            )));
        }
        for (li, (layer, shape)) in self.layers.iter().zip(&shapes).enumerate() {
            let want = [shape.out_ch, shape.in_ch];
            if layer.effective.shape != want {
                return Err(CompileError::BadImage(format!(
                    "layer {li} shape {:?} != architecture {want:?}",
                    layer.effective.shape
                )));
            }
            if layer.stored.len() != layer.effective.q.len() {
                return Err(CompileError::BadImage(format!(
                    "layer {li} stored/effective length mismatch"
                )));
            }
            if layer.bias.len() != shape.out_ch {
                return Err(CompileError::BadImage(format!(
                    "layer {li} bias length {} != {}",
                    layer.bias.len(),
                    shape.out_ch
                )));
            }
        }
        if self.geometry.banks == 0
            || self.geometry.rows == 0
            || self.geometry.block_pairs_per_bank == 0
        {
            return Err(CompileError::BadImage(format!(
                "degenerate macro geometry {:?}",
                self.geometry
            )));
        }
        if self.geometry.rows != self.imc.rows {
            return Err(CompileError::BadImage(format!(
                "geometry rows {} != executor accumulation rows {}",
                self.geometry.rows, self.imc.rows
            )));
        }
        if self.manifest.predicted_logits.len() != self.manifest.probe_count {
            return Err(CompileError::BadImage(
                "predicted logits don't cover the probe set".into(),
            ));
        }
        // Scoring is measured iff probes ran: a populated agreement on an
        // empty probe set would be the vacuous-1.0 bug in disguise, and a
        // missing one on a real probe set means the predict pass was
        // skipped.
        if (self.manifest.probe_count == 0) != self.manifest.oracle_agreement.is_none() {
            return Err(CompileError::BadImage(format!(
                "oracle_agreement {:?} inconsistent with probe_count {}",
                self.manifest.oracle_agreement, self.manifest.probe_count
            )));
        }
        if let Some(a) = self.manifest.oracle_agreement {
            if !(0.0..=1.0).contains(&a) {
                return Err(CompileError::BadImage(format!(
                    "oracle_agreement {a} outside [0, 1]"
                )));
            }
        }
        if let Some(shard) = &self.shard {
            if shard.count == 0 || shard.index >= shard.count {
                return Err(CompileError::BadImage(format!(
                    "shard {}/{} out of range",
                    shard.index, shard.count
                )));
            }
            if shard.layer_chunks.len() != shapes.len() {
                return Err(CompileError::BadImage(format!(
                    "shard covers {} layers, architecture has {}",
                    shard.layer_chunks.len(),
                    shapes.len()
                )));
            }
            for (li, (range, shape)) in shard.layer_chunks.iter().zip(&shapes).enumerate() {
                let chunks = shape.in_ch.div_ceil(self.imc.rows.max(1));
                if range[0] > range[1] || range[1] > chunks {
                    return Err(CompileError::BadImage(format!(
                        "shard layer {li} chunk range {}..{} invalid ({chunks} chunks)",
                        range[0], range[1]
                    )));
                }
            }
        }
        self.imc.to_config().map(|_| ())
    }

    /// Content digest of everything serving-relevant: format version,
    /// architecture, executor settings, effective + stored codes,
    /// biases, and the shard assignment. Two images with equal digests
    /// serve bit-identically (and interchangeable shards never collide
    /// with the wrong slice, since the shard spec is hashed) — the
    /// fleet router quarantines replicas whose reported digest differs
    /// from the manifest's expectation (DESIGN §14).
    #[must_use]
    pub fn digest(&self) -> u64 {
        // FNV-1a over a canonical byte stream; stable across runs and
        // platforms (all multi-byte values are folded little-endian).
        fn eat(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        fn eat_u64(h: &mut u64, v: u64) {
            eat(h, &v.to_le_bytes());
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        eat(&mut h, &self.version.to_le_bytes());
        eat_u64(&mut h, self.arch.features as u64);
        eat_u64(&mut h, self.arch.hidden as u64);
        eat_u64(&mut h, self.arch.classes as u64);
        eat_u64(&mut h, self.weight_seed);
        eat(&mut h, self.imc.design.as_bytes());
        eat(&mut h, &self.imc.adc_bits.to_le_bytes());
        eat(&mut h, &self.imc.input_bits.to_le_bytes());
        eat(&mut h, &self.imc.weight_bits.to_le_bytes());
        eat_u64(&mut h, self.imc.rows as u64);
        eat_u64(&mut h, self.imc.seed);
        eat_u64(&mut h, self.imc.noise_scale.to_bits());
        eat_u64(&mut h, self.imc.read_noise_fraction.to_bits());
        eat_u64(&mut h, self.geometry.banks as u64);
        eat_u64(&mut h, self.geometry.rows as u64);
        eat_u64(&mut h, self.geometry.block_pairs_per_bank as u64);
        for layer in &self.layers {
            eat(&mut h, layer.name.as_bytes());
            eat_u64(&mut h, layer.effective.scale.to_bits().into());
            eat(&mut h, &layer.effective.bits.to_le_bytes());
            eat_u64(&mut h, layer.effective.shape[0] as u64);
            eat_u64(&mut h, layer.effective.shape[1] as u64);
            for &q in &layer.effective.q {
                eat(&mut h, &q.to_le_bytes());
            }
            for &s in &layer.stored {
                eat(&mut h, &s.to_le_bytes());
            }
            for &b in &layer.bias {
                eat(&mut h, &b.to_bits().to_le_bytes());
            }
        }
        match &self.shard {
            None => eat(&mut h, &[0]),
            Some(s) => {
                eat(&mut h, &[1]);
                eat_u64(&mut h, s.index as u64);
                eat_u64(&mut h, s.count as u64);
                for r in &s.layer_chunks {
                    eat_u64(&mut h, r[0] as u64);
                    eat_u64(&mut h, r[1] as u64);
                }
            }
        }
        h
    }

    /// Rebuilds the executor exactly as the compiler ran it: same config,
    /// same effective codes, same biases ⇒ bit-identical `forward`.
    ///
    /// # Errors
    ///
    /// Fails if the image is invalid.
    pub fn to_network(&self) -> Result<QNetwork, CompileError> {
        self.validate()?;
        let cfg = self.imc.to_config()?;
        let mut seq = self.arch.build(self.weight_seed);
        // Biases live in the digital domain; restore them on the float net
        // so conversion picks them up.
        let mut li = 0usize;
        for l in seq.layers_mut() {
            if let Some(lin) = l.as_any_mut().downcast_mut::<neural::layers::Linear>() {
                lin.bias
                    .value
                    .data_mut()
                    .copy_from_slice(&self.layers[li].bias);
                li += 1;
            }
        }
        let layers = &self.layers;
        Ok(QNetwork::from_sequential_with(&seq, cfg, |i, _original| {
            layers[i].effective.clone()
        }))
    }

    /// Pre-packs the image's weight bit-planes into the process-wide
    /// weight-stationary cache and reports the resident footprint.
    ///
    /// The cache is content-addressed on the effective codes, so a
    /// served [`to_network`](Self::to_network) of the same image hits
    /// the warmed entries instead of re-packing — and a *different*
    /// image (new faults, new remap) misses by construction.
    ///
    /// # Errors
    ///
    /// Fails if the image is invalid.
    pub fn prepack(&self) -> Result<neural::imc_exec::PrepackSummary, CompileError> {
        Ok(self.to_network()?.prepack())
    }

    /// Serializes to pretty JSON and writes `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: &str) -> Result<(), CompileError> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| CompileError::Io(format!("serialize image: {e}")))?;
        std::fs::write(path, format!("{json}\n"))
            .map_err(|e| CompileError::Io(format!("write {path}: {e}")))
    }

    /// Loads and validates an image from `path`.
    ///
    /// # Errors
    ///
    /// Fails on unreadable files, malformed JSON, or invariant violations.
    pub fn load(path: &str) -> Result<Self, CompileError> {
        let json = std::fs::read_to_string(path)
            .map_err(|e| CompileError::Io(format!("read {path}: {e}")))?;
        let img: Self = serde_json::from_str(&json)
            .map_err(|e| CompileError::BadImage(format!("parse {path}: {e}")))?;
        img.validate()?;
        Ok(img)
    }

    /// Structural differences between two images, as human-readable lines
    /// (empty = images are equivalent for serving purposes).
    #[must_use]
    pub fn diff(&self, other: &Self) -> Vec<String> {
        let mut out = Vec::new();
        if self.version != other.version {
            out.push(format!("version: {} vs {}", self.version, other.version));
        }
        if self.arch != other.arch {
            out.push(format!("arch: {:?} vs {:?}", self.arch, other.arch));
        }
        if self.imc != other.imc {
            out.push("imc settings differ".into());
        }
        if self.geometry != other.geometry {
            out.push(format!(
                "geometry: {:?} vs {:?}",
                self.geometry, other.geometry
            ));
        }
        if self.placement != other.placement {
            out.push(format!(
                "placement: {} vs {} entries (or table geometry differs)",
                self.placement.entries.len(),
                other.placement.entries.len()
            ));
        }
        for (i, (a, b)) in self.layers.iter().zip(&other.layers).enumerate() {
            if a.effective != b.effective {
                let n = a
                    .effective
                    .q
                    .iter()
                    .zip(&b.effective.q)
                    .filter(|(x, y)| x != y)
                    .count();
                out.push(format!("layer {i} effective codes: {n} differ"));
            }
            if a.stored != b.stored {
                out.push(format!("layer {i} stored codes differ"));
            }
            if a.bias != b.bias {
                out.push(format!("layer {i} biases differ"));
            }
        }
        if self.layers.len() != other.layers.len() {
            out.push(format!(
                "layer count: {} vs {}",
                self.layers.len(),
                other.layers.len()
            ));
        }
        if self.manifest.faults.total_faults != other.manifest.faults.total_faults {
            out.push(format!(
                "fault count: {} vs {}",
                self.manifest.faults.total_faults, other.manifest.faults.total_faults
            ));
        }
        if self.manifest.predicted_logits != other.manifest.predicted_logits {
            out.push("predicted logits differ".into());
        }
        match (&self.shard, &other.shard) {
            (None, None) => {}
            (Some(a), Some(b)) if a == b => {}
            (Some(a), Some(b)) => {
                if a.count != b.count {
                    out.push(format!("shard count: {} vs {}", a.count, b.count));
                }
                if a.index != b.index {
                    out.push(format!("shard index: {} vs {}", a.index, b.index));
                }
                if a.layer_chunks != b.layer_chunks {
                    out.push(format!(
                        "shard chunk coverage: {:?} vs {:?}",
                        a.layer_chunks, b.layer_chunks
                    ));
                }
            }
            (Some(a), None) => out.push(format!(
                "shard {}/{} vs whole-model image",
                a.index, a.count
            )),
            (None, Some(b)) => out.push(format!(
                "whole-model image vs shard {}/{}",
                b.index, b.count
            )),
        }
        out
    }
}
