//! Interactive-style energy exploration: sweep precision, ADC resolution
//! and activity, printing TOPS/W tables for both designs (the Fig. 9
//! design space). The ADC sweep moves the cycle time with the
//! resolution (one SAR bit per comparator cycle), so CurFe's static
//! array and TIA energy grow with it too.
//!
//! Run with `cargo run --example energy_explorer`.

use fefet_imc::imc::energy::{Activity, DesignPoint, Variant, WeightBits};

/// The paper macro at (`input_bits`, `weight_bits`).
fn point(variant: Variant, input_bits: u32, weight_bits: WeightBits) -> DesignPoint {
    DesignPoint {
        input_bits,
        weight_bits,
        ..DesignPoint::paper(variant)
    }
}

fn main() {
    println!("== precision sweep (5-bit ADC, 50% activity) ==");
    println!(
        "{:>10} {:>14} {:>14} {:>9}",
        "in/w bits", "CurFe TOPS/W", "ChgFe TOPS/W", "ChgFe/CurFe"
    );
    for wb in [WeightBits::W4, WeightBits::W8] {
        for ib in [1u32, 2, 4, 6, 8] {
            let c = point(Variant::CurFe, ib, wb).evaluate().tops_per_watt;
            let q = point(Variant::ChgFe, ib, wb).evaluate().tops_per_watt;
            println!(
                "{:>7}b/{}b {c:>14.2} {q:>14.2} {:>9.2}",
                ib,
                wb.bits(),
                q / c
            );
        }
    }

    println!("\n== ADC resolution sweep @(8b,8b) ==");
    println!(
        "{:>10} {:>14} {:>14}",
        "ADC bits", "CurFe TOPS/W", "ChgFe TOPS/W"
    );
    for bits in 3..=8u32 {
        let at_bits = |variant| {
            DesignPoint {
                adc_bits: bits,
                ..DesignPoint::paper(variant)
            }
            .evaluate()
            .tops_per_watt
        };
        println!(
            "{bits:>10} {:>14.2} {:>14.2}",
            at_bits(Variant::CurFe),
            at_bits(Variant::ChgFe)
        );
    }

    println!("\n== activity sensitivity @(8b,8b) ==");
    println!(
        "{:>18} {:>14} {:>14}",
        "input density", "CurFe TOPS/W", "ChgFe TOPS/W"
    );
    for d in [0.1, 0.25, 0.5, 0.75, 0.9] {
        let act = Activity {
            input_density: d,
            weight_density: 0.5,
        };
        println!(
            "{d:>18} {:>14.2} {:>14.2}",
            DesignPoint::paper(Variant::CurFe)
                .evaluate_with_activity(act)
                .tops_per_watt,
            DesignPoint::paper(Variant::ChgFe)
                .evaluate_with_activity(act)
                .tops_per_watt
        );
    }
}
