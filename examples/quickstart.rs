//! Quickstart: program a weight matrix into a CurFe macro, run a
//! multi-bit MAC, and inspect its energy cost.
//!
//! Run with `cargo run --example quickstart`.

use fefet_imc::imc::array::CurFeMacro;
use fefet_imc::imc::energy::{DesignPoint, Variant};
use fefet_imc::imc::reference::ideal_mac;
use fefet_imc::imc::weights::InputPrecision;

fn main() {
    // 1. A paper-default macro (128x128, 16 banks, 5-bit ADCs) with
    //    deterministic device variation.
    let mut macro_ = CurFeMacro::paper(42);

    // 2. Program 32 signed 8-bit weights into bank 0, block pair 0. The
    //    API models the FeFET write path: each weight is split into its
    //    H4B/L4B nibbles and the cells get sigma = 40 mV Vth perturbations.
    let weights: Vec<i8> = (0..32).map(|i| (i * 11 % 127) as i8 - 63).collect();
    macro_.program_bank(0, 0, &weights);

    // 3. Run a 4-bit-input MAC: bit-serial cycles, per-cycle 2CM/N2CM ADC
    //    conversion, digital nibble combine and input shift-add.
    let inputs: Vec<u32> = (0..32).map(|i| (i * 3) as u32 % 16).collect();
    let out = macro_.mac(0, 0, &inputs, InputPrecision::new(4));
    let ideal = ideal_mac(&inputs, &weights);
    println!("hardware MAC : {:.1}", out.value);
    println!("ideal MAC    : {ideal}");
    println!(
        "|error|      : {:.1} (quantization bound: {:.1})",
        (out.value - ideal as f64).abs(),
        out.error_bound
    );

    // 4. What does it cost? The calibrated circuit-level energy model
    //    at the paper geometry, 4-bit inputs and 8-bit weights:
    let cost = DesignPoint {
        input_bits: 4,
        ..DesignPoint::paper(Variant::CurFe)
    }
    .evaluate();
    println!(
        "CurFe @(4b,8b): {:.2} TOPS/W, {:.1} GOPS peak",
        cost.tops_per_watt,
        cost.peak_tops * 1e3
    );
}
