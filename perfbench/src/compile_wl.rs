//! The `compile` workload: back-to-back full compiles of a ChgFe
//! 256→32→10 MLP with stuck-cell faults, each image verified.

use std::time::Instant;

use imc_compile::image::MlpArch;
use imc_compile::pipeline::{compile, probe_inputs, CompileOptions, CompileOutput};
use imc_compile::placement::place;
use imc_compile::programming::{program_pass, ProgramTotals};
use imc_compile::remap::{remap_pass, RemapOptions};
use imc_compile::wear::{wear_pass, WearLedger};
use imc_core::faults::FaultModel;
use neural::imc_exec::ImcConfig;
use neural::layers::Linear;
use neural::quant::quantize_weights;
use neural::tensor::Tensor;

use crate::inputs::{splitmix64, DESIGN};

/// Compile settings: the mid-sized MLP at stride-4 ISPP sampling,
/// 1e-3/1e-3 stuck faults and 32 probes. The seed picks the fault map
/// and the probe set; the weights stay at the default seed.
#[must_use]
pub fn options(seed: u64) -> CompileOptions {
    let arch = MlpArch {
        features: 256,
        hidden: 32,
        classes: 10,
    };
    let mut o = CompileOptions::new(arch, DESIGN);
    o.fault_model = FaultModel {
        p_stuck_on: 1e-3,
        p_stuck_off: 1e-3,
    };
    o.program.stride = 4;
    o.probe_count = 32;
    o.fault_seed = splitmix64(seed ^ 0xFA17);
    o.probe_seed = splitmix64(seed ^ 0x9B0B);
    o
}

/// One full compile on a fresh chip, so every compile places the same.
///
/// # Errors
///
/// The compiler's error, as text.
pub fn compile_fresh(opts: &CompileOptions) -> Result<CompileOutput, String> {
    let mut ledger = WearLedger::fresh(opts.geometry.banks);
    compile(opts, &mut ledger).map_err(|e| e.to_string())
}

/// Checks an image: it validates, and the network it rebuilds answers
/// every probe bit for bit as its manifest predicts.
#[must_use]
pub fn verify(opts: &CompileOptions, out: &CompileOutput) -> bool {
    let image = &out.image;
    if image.validate().is_err() {
        return false;
    }
    let Ok(net) = image.to_network() else {
        return false;
    };
    let probes = probe_inputs(opts.arch.features, opts.probe_count, opts.probe_seed);
    probes.len() == image.manifest.predicted_logits.len()
        && probes
            .into_iter()
            .zip(&image.manifest.predicted_logits)
            .all(|(p, want)| {
                let got = net.forward(&Tensor::from_vec(&[1, opts.arch.features], p));
                got.data().len() == want.len()
                    && got
                        .data()
                        .iter()
                        .zip(want)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            })
}

/// Wall times (s) of the four public passes run one after another from
/// outside the pipeline, plus the programming totals they produced.
pub struct PassTimes {
    /// `placement::place`.
    pub placement_s: f64,
    /// `remap::remap_pass`.
    pub remap_s: f64,
    /// `programming::program_pass`.
    pub programming_s: f64,
    /// `wear::wear_pass`.
    pub wear_s: f64,
    /// Totals of the programming pass.
    pub totals: ProgramTotals,
}

/// Runs placement, remapping, programming and wear the way the pipeline
/// composes them for a full compile on a fresh chip.
///
/// # Errors
///
/// An invalid fault model.
pub fn composed_passes(opts: &CompileOptions) -> Result<PassTimes, String> {
    let weight_bits = ImcConfig::paper(opts.design, 4, 8).weight_bits;
    let shapes = opts.arch.layer_shapes();
    let mut seq = opts.arch.build(opts.weight_seed);
    let intended: Vec<_> = seq
        .layers_mut()
        .iter_mut()
        .filter_map(|l| l.as_any_mut().downcast_mut::<Linear>())
        .map(|lin| quantize_weights(&lin.weight.value, weight_bits))
        .collect();
    let dims: Vec<[usize; 2]> = shapes.iter().map(|s| [s.out_ch, s.in_ch]).collect();
    let mut ledger = WearLedger::fresh(opts.geometry.banks);

    let t = Instant::now();
    let (placement, _) = place(&shapes, &opts.geometry, &ledger.cycles, weight_bits);
    let placement_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let remap = RemapOptions {
        model: opts.fault_model,
        seed: opts.fault_seed,
        enable: opts.remap,
    };
    let remapped = remap_pass(&intended, &placement, &remap).map_err(|e| e.to_string())?;
    let remap_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let (_, totals) = program_pass(
        &remapped.stored,
        None,
        &dims,
        &placement,
        opts.design,
        weight_bits,
        &opts.program,
    );
    let programming_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let _ = wear_pass(
        &placement,
        opts.design,
        &opts.endurance,
        &opts.retention,
        &remapped.ledger.relocated,
        None,
        &mut ledger,
    );
    let wear_s = t.elapsed().as_secs_f64();

    Ok(PassTimes {
        placement_s,
        remap_s,
        programming_s,
        wear_s,
        totals,
    })
}
