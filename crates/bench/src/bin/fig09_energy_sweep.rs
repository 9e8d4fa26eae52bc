//! Fig. 9: average circuit-level energy efficiency for 32 accumulations
//! vs input/weight precision, CurFe and ChgFe, 5-bit ADC.

use imc_core::energy::{Activity, DesignPoint, Variant, WeightBits};

/// TOPS/W of the paper macro at (`input_bits`, `weight_bits`).
fn tops_per_watt(variant: Variant, input_bits: u32, weight_bits: WeightBits) -> f64 {
    DesignPoint {
        input_bits,
        weight_bits,
        ..DesignPoint::paper(variant)
    }
    .evaluate()
    .tops_per_watt
}

fn main() {
    println!("=== Fig. 9: circuit-level energy efficiency vs precision (5-bit ADC) ===\n");
    let a = Activity::average();
    println!(
        "{:>10} {:>16} {:>16}",
        "xb-IN/yb-W", "CurFe (TOPS/W)", "ChgFe (TOPS/W)"
    );
    for wb in [WeightBits::W4, WeightBits::W8] {
        for ib in [1u32, 2, 4, 8] {
            println!(
                "{:>7}b/{}b {:>16.2} {:>16.2}",
                ib,
                wb.bits(),
                tops_per_watt(Variant::CurFe, ib, wb),
                tops_per_watt(Variant::ChgFe, ib, wb)
            );
        }
    }
    println!("\nPer-cycle energy breakdown (whole macro):");
    let cb = DesignPoint::paper(Variant::CurFe).cycle_breakdown(a);
    let qb = DesignPoint::paper(Variant::ChgFe).cycle_breakdown(a);
    println!(
        "{:>14} {:>12} {:>12}",
        "component", "CurFe (pJ)", "ChgFe (pJ)"
    );
    for (name, c, q) in [
        ("array", cb.array, qb.array),
        ("frontend", cb.frontend, qb.frontend),
        ("adc", cb.adc, qb.adc),
        ("wordline", cb.wordline, qb.wordline),
        ("accumulator", cb.accumulator, qb.accumulator),
        ("other", cb.other, qb.other),
        ("TOTAL", cb.total(), qb.total()),
    ] {
        println!("{name:>14} {:>12.3} {:>12.3}", c * 1e12, q * 1e12);
    }
    println!(
        "\nAnchors: {}",
        imc_bench::compare_row(
            "CurFe @(8b,8b)",
            tops_per_watt(Variant::CurFe, 8, WeightBits::W8),
            12.18
        )
    );
    println!(
        "         {}",
        imc_bench::compare_row(
            "ChgFe @(8b,8b)",
            tops_per_watt(Variant::ChgFe, 8, WeightBits::W8),
            14.47
        )
    );
    println!("\nExpected shape: efficiency falls ~1/input-bits; 4-bit weights double it;");
    println!("ChgFe above CurFe at every point (TIA bias vs pre-charge energy).");
}
