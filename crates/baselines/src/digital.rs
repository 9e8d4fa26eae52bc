//! Digital shift-add baseline macro.
//!
//! The conventional multi-bit-weight flow (Table 1's "digital shift-add"
//! entries, e.g. Si et al. ISSCC'20): each weight bit lives in its own
//! column, columns share an ADC through a MUX, and the per-column digital
//! codes are shifted and added *after* conversion. Converting the `y`
//! columns of a `y`-bit weight therefore takes `y` sequential ADC cycles
//! per input bit — the throughput bottleneck the paper's inherent
//! shift-add removes — while the array keeps burning static power the
//! whole time.

use imc_core::energy::{Activity, DesignPoint, EnergyBreakdown, Variant, WeightBits};
use serde::{Deserialize, Serialize};

/// Digital shift-add macro model, built on the *same* array and ADC
/// component energies as CurFe so the comparison isolates the shift-add
/// organization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DigitalShiftAddModel {
    /// The underlying array/periphery model (the CurFe paper macro).
    pub base: DesignPoint,
    /// Columns multiplexed onto one ADC (the paper's baseline flow
    /// converts one weight-bit column per cycle).
    pub cols_per_adc: u32,
    /// Energy of the digital shift-add logic per conversion (J):
    /// registers + adder, a few tens of fJ at 40 nm.
    pub shift_add_e: f64,
}

impl DigitalShiftAddModel {
    /// The 40 nm baseline used for the ablation benches.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            base: DesignPoint::paper(Variant::CurFe),
            cols_per_adc: 4,
            shift_add_e: 60.0e-15,
        }
    }

    /// Sequential ADC cycles needed per input bit for a `weight`-bit MAC.
    #[must_use]
    pub fn conversion_cycles(&self, weight: WeightBits) -> u32 {
        // One column per conversion: a 4-bit nibble needs all 4 columns
        // through its ADC; an 8-bit weight needs both nibbles' 4 columns
        // through their respective (2CM/N2CM) ADCs, which run in parallel
        // pairs — so 4 serial conversions either way per the MUX depth.
        let _ = weight;
        self.cols_per_adc
    }

    /// Per-input-bit energy of the whole macro (J): the array and TIAs
    /// stay biased for all `conversion_cycles` ADC slots, every column
    /// conversion costs a full SAR conversion, and the digital shift-add
    /// logic fires once per conversion.
    #[must_use]
    pub fn per_input_bit_energy(&self, weight: WeightBits, activity: Activity) -> f64 {
        let b: EnergyBreakdown = self.base.cycle_breakdown(activity);
        let cycles = f64::from(self.conversion_cycles(weight));
        let banks = self.base.banks as f64;
        // Static parts (array, TIA, wordline hold) scale with occupancy
        // time; ADC energy is per conversion and each cycle converts on
        // every ADC; digital shift-add adds per conversion.
        let static_part = (b.array + b.frontend + b.wordline + b.other) * cycles;
        let adc_part = b.adc * cycles;
        let acc_part = b.accumulator + banks * 2.0 * self.shift_add_e * cycles;
        static_part + adc_part + acc_part
    }

    /// Average energy efficiency (TOPS/W), comparable to the inherent
    /// design's [`MacroCost::tops_per_watt`](imc_core::energy::MacroCost::tops_per_watt).
    #[must_use]
    pub fn tops_per_watt(&self, input_bits: u32, weight: WeightBits, activity: Activity) -> f64 {
        assert!((1..=8).contains(&input_bits));
        let ops = 2.0
            * DesignPoint {
                weight_bits: weight,
                ..self.base
            }
            .macs_per_cycle();
        let energy = f64::from(input_bits) * self.per_input_bit_energy(weight, activity);
        ops / energy / 1.0e12
    }

    /// Peak throughput (OPS): serialized by the ADC multiplexing.
    #[must_use]
    pub fn throughput_ops(&self, input_bits: u32, weight: WeightBits) -> f64 {
        let macs = DesignPoint {
            weight_bits: weight,
            ..self.base
        }
        .macs_per_cycle();
        let t = f64::from(input_bits)
            * f64::from(self.conversion_cycles(weight))
            * self.base.t_cycle_s();
        2.0 * macs / t
    }
}

impl Default for DigitalShiftAddModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digital_baseline_is_much_less_efficient_than_inherent() {
        let dig = DigitalShiftAddModel::paper();
        let a = Activity::average();
        let ours = DesignPoint::paper(Variant::CurFe)
            .evaluate_with_activity(a)
            .tops_per_watt;
        let theirs = dig.tops_per_watt(8, WeightBits::W8, a);
        assert!(
            ours / theirs > 2.0,
            "inherent {ours:.2} vs digital {theirs:.2} TOPS/W"
        );
    }

    #[test]
    fn digital_baseline_throughput_is_divided_by_mux_depth() {
        let dig = DigitalShiftAddModel::paper();
        let ours = DesignPoint::paper(Variant::CurFe).evaluate().peak_tops * 1.0e12;
        let r = ours / dig.throughput_ops(8, WeightBits::W8);
        assert!((r - 4.0).abs() < 1e-9, "throughput ratio {r}");
    }

    #[test]
    fn efficiency_still_decreases_with_input_precision() {
        let dig = DigitalShiftAddModel::paper();
        let a = Activity::average();
        let e1 = dig.tops_per_watt(1, WeightBits::W8, a);
        let e8 = dig.tops_per_watt(8, WeightBits::W8, a);
        assert!(e1 > e8);
    }

    #[test]
    fn shift_add_logic_energy_is_visible_but_not_dominant() {
        let mut dig = DigitalShiftAddModel::paper();
        let a = Activity::average();
        let with = dig.per_input_bit_energy(WeightBits::W8, a);
        dig.shift_add_e = 0.0;
        let without = dig.per_input_bit_energy(WeightBits::W8, a);
        assert!(with > without);
        assert!((with - without) / with < 0.3);
    }
}
