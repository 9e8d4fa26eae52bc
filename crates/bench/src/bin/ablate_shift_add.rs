//! Ablation: inherent vs analog vs digital shift-add on the SAME array
//! and ADC energy budget — where the paper's 1.56x/1.37x headline comes
//! from.

use imc_baselines::analog::AnalogShiftAddModel;
use imc_baselines::digital::DigitalShiftAddModel;
use imc_core::energy::{Activity, DesignPoint, Variant, WeightBits};

fn main() {
    println!("=== Ablation: multi-bit weight shift-add organization ===\n");
    let a = Activity::average();
    let analog = AnalogShiftAddModel::paper();
    let digital = DigitalShiftAddModel::paper();
    println!(
        "{:>10} {:>22} {:>22} {:>16}",
        "xb-IN", "organization", "TOPS/W @(x,8b)", "rel. GOPS"
    );
    for ib in [1u32, 4, 8] {
        let inherent = DesignPoint {
            input_bits: ib,
            ..DesignPoint::paper(Variant::CurFe)
        }
        .evaluate_with_activity(a);
        let rows: [(&str, f64, f64); 3] = [
            (
                "inherent (ours)",
                inherent.tops_per_watt,
                inherent.peak_tops * 1.0e12,
            ),
            (
                "analog shift-add",
                analog.tops_per_watt(ib, WeightBits::W8, a),
                analog.throughput_ops(ib, WeightBits::W8),
            ),
            (
                "digital shift-add",
                digital.tops_per_watt(ib, WeightBits::W8, a),
                digital.throughput_ops(ib, WeightBits::W8),
            ),
        ];
        let base_tp = rows[0].2;
        for (name, eff, tp) in rows {
            println!("{ib:>9}b {name:>22} {eff:>22.2} {:>15.2}x", tp / base_tp);
        }
        println!();
    }
    println!("Why: digital shift-add time-multiplexes the ADC (4 conversions per input");
    println!("bit) while the array burns static power; analog shift-add converts once but");
    println!("pays the binary-weighted combining capacitors. Inherent shift-add does the");
    println!("combine inside the array for free.");
}
