//! Analog shift-add baseline macro (Yue et al. ISSCC'20 style).
//!
//! The partial MAC voltages of all weight-bit columns are generated in
//! parallel and combined *before* conversion by a binary-weighted
//! capacitor array (1C/2C/4C/8C) feeding the ADC. Throughput matches the
//! inherent design (one conversion per input bit), but every conversion
//! pays the extra charge/discharge of the combining capacitors — the
//! "energy and area overhead" the paper's Section 2.3 calls out — and
//! the MSB/LSB capacitor ratio limits scalability to wider weights.

use imc_core::energy::{Activity, DesignPoint, Variant, WeightBits};
use serde::{Deserialize, Serialize};

/// Analog shift-add baseline model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalogShiftAddModel {
    /// The underlying array/periphery model (the CurFe paper macro).
    pub base: DesignPoint,
    /// Unit capacitor of the binary-weighted combiner (F).
    pub c_unit: f64,
    /// Voltage swing across the combining capacitors (V).
    pub v_swing: f64,
    /// Extra settling time the combine phase adds to each cycle (s).
    pub t_combine: f64,
}

impl AnalogShiftAddModel {
    /// The 40 nm baseline used for the ablation benches: 4 fF unit cap
    /// (matching kT/C noise at 5-bit precision), full-rail swing.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            base: DesignPoint::paper(Variant::CurFe),
            c_unit: 4.0e-15,
            v_swing: 0.9,
            t_combine: 1.0e-9,
        }
    }

    /// Total combining capacitance per 4-column block (F):
    /// `C·(1+2+4+8) = 15·C`.
    #[must_use]
    pub fn combine_capacitance(&self) -> f64 {
        15.0 * self.c_unit
    }

    /// Per-input-bit energy of the whole macro (J): one parallel cycle
    /// plus the capacitor-combiner charge on every block.
    #[must_use]
    pub fn per_input_bit_energy(&self, weight: WeightBits, activity: Activity) -> f64 {
        let _ = weight;
        let b = self.base.cycle_breakdown(activity);
        let banks = self.base.banks as f64;
        // Two blocks (H4B+L4B) per bank each flip their combiner once per
        // cycle; average half-swing activity.
        let combiner = banks
            * 2.0
            * self.combine_capacitance()
            * self.v_swing
            * self.v_swing
            * activity.input_density;
        b.total() + combiner
    }

    /// Average energy efficiency (TOPS/W).
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

    /// Peak throughput (OPS): parallel conversions, slightly slower cycle
    /// due to the combine phase.
    #[must_use]
    pub fn throughput_ops(&self, input_bits: u32, weight: WeightBits) -> f64 {
        let macs = DesignPoint {
            weight_bits: weight,
            ..self.base
        }
        .macs_per_cycle();
        let t = f64::from(input_bits) * (self.base.t_cycle_s() + self.t_combine);
        2.0 * macs / t
    }

    /// The MSB/LSB capacitance ratio needed for `weight_bits` of analog
    /// shift-add — the scalability limit noted for Dong et al. (ISSCC'20).
    #[must_use]
    pub fn msb_lsb_cap_ratio(weight_bits: u32) -> f64 {
        (1u64 << (weight_bits.saturating_sub(1))) as f64
    }
}

impl Default for AnalogShiftAddModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digital::DigitalShiftAddModel;

    #[test]
    fn analog_sits_between_digital_and_inherent() {
        let a = Activity::average();
        let inherent = DesignPoint::paper(Variant::CurFe)
            .evaluate_with_activity(a)
            .tops_per_watt;
        let analog = AnalogShiftAddModel::paper().tops_per_watt(8, WeightBits::W8, a);
        let digital = DigitalShiftAddModel::paper().tops_per_watt(8, WeightBits::W8, a);
        assert!(
            inherent > analog && analog > digital,
            "inherent {inherent:.2} > analog {analog:.2} > digital {digital:.2}"
        );
    }

    #[test]
    fn analog_throughput_nearly_matches_inherent() {
        let inherent = DesignPoint::paper(Variant::CurFe).evaluate().peak_tops * 1.0e12;
        let analog = AnalogShiftAddModel::paper().throughput_ops(8, WeightBits::W8);
        let digital = DigitalShiftAddModel::paper().throughput_ops(8, WeightBits::W8);
        assert!(analog > digital * 2.0);
        assert!(analog > 0.5 * inherent);
        assert!(analog < inherent);
    }

    #[test]
    fn combiner_energy_overhead_is_material() {
        let m = AnalogShiftAddModel::paper();
        let a = Activity::average();
        let with = m.per_input_bit_energy(WeightBits::W8, a);
        let base = m.base.cycle_breakdown(a).total();
        assert!(with / base > 1.05, "overhead factor {}", with / base);
    }

    #[test]
    fn cap_ratio_explodes_with_weight_width() {
        assert_eq!(AnalogShiftAddModel::msb_lsb_cap_ratio(4), 8.0);
        assert_eq!(AnalogShiftAddModel::msb_lsb_cap_ratio(8), 128.0);
    }
}
