//! Per-inference pricing: maps a model's MAC-layer shapes onto a
//! [`DesignPoint`] and prices one forward pass in joules and seconds.
//!
//! The mapping mirrors the statistical executor's chunking: a layer
//! with fan-in `fan` splits each output column into
//! `ceil(fan / rows)` row chunks; every chunk occupies one bank for
//! `input_bits` bit-serial cycles. Energy charges each bank-cycle its
//! share of the macro's per-cycle energy; latency assumes the macro's
//! `banks` banks drain the chunk jobs of one layer in parallel waves,
//! with layers strictly sequential (each consumes the previous one's
//! activations).

use imc_core::energy::{Activity, DesignPoint, MacroCost};
use serde::{Deserialize, Serialize};

/// One MAC layer's shape, the only thing pricing needs from a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerShape {
    /// Fan-in (rows of the weight matrix).
    pub fan: usize,
    /// Output columns.
    pub out: usize,
}

/// The MLP layer shapes for a `features → hidden → classes` checkpoint
/// (the repo's serving architecture).
#[must_use]
pub fn mlp_shapes(features: usize, hidden: usize, classes: usize) -> Vec<LayerShape> {
    vec![
        LayerShape {
            fan: features,
            out: hidden,
        },
        LayerShape {
            fan: hidden,
            out: classes,
        },
    ]
}

/// Cost of one forward pass on a design point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferenceCost {
    /// Bank-cycles consumed (one bank, one bit-serial cycle).
    pub bank_cycles: u64,
    /// MAC operations in the pass.
    pub macs: u64,
    /// Energy for the pass (J).
    pub energy_j: f64,
    /// Latency of the pass (s), layers sequential, banks parallel.
    pub latency_s: f64,
}

impl InferenceCost {
    /// Energy in picojoules, rounded — the unit the serving metrics
    /// accumulate in (u64 counters).
    #[must_use]
    pub fn energy_pj(&self) -> u64 {
        (self.energy_j * 1.0e12).round() as u64
    }
}

/// Prices one forward pass of `layers` on `point` at average activity.
#[must_use]
pub fn inference_cost(point: &DesignPoint, layers: &[LayerShape]) -> InferenceCost {
    inference_cost_with(point, layers, Activity::average())
}

/// Prices one forward pass at an explicit switching activity.
#[must_use]
pub fn inference_cost_with(
    point: &DesignPoint,
    layers: &[LayerShape],
    activity: Activity,
) -> InferenceCost {
    let macro_cost: MacroCost = point.evaluate_with_activity(activity);
    let per_bank_cycle_j = macro_cost.cycle_energy_j / point.banks as f64;
    let bits = u64::from(point.input_bits);
    let mut bank_cycles = 0u64;
    let mut macs = 0u64;
    let mut latency = 0.0f64;
    for l in layers {
        let chunks = l.fan.div_ceil(point.rows) as u64;
        let jobs = chunks * l.out as u64;
        bank_cycles += jobs * bits;
        macs += (l.fan * l.out) as u64;
        let waves = jobs.div_ceil(point.banks as u64);
        latency += waves as f64 * bits as f64 * macro_cost.t_cycle_s;
    }
    InferenceCost {
        bank_cycles,
        macs,
        energy_j: bank_cycles as f64 * per_bank_cycle_j,
        latency_s: latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imc_core::energy::Variant;

    fn default_mlp() -> Vec<LayerShape> {
        mlp_shapes(784, 64, 10)
    }

    #[test]
    fn default_mlp_bank_cycle_accounting() {
        // fc1: ceil(784/32)=25 chunks × 64 outs; fc2: 2 × 10. At 4-bit
        // inputs: (1600 + 20) × 4 = 6480 bank-cycles.
        let p = DesignPoint::serving_default(Variant::CurFe);
        let c = inference_cost(&p, &default_mlp());
        assert_eq!(c.bank_cycles, 6480);
        assert_eq!(c.macs, (784 * 64 + 64 * 10) as u64);
    }

    #[test]
    fn serving_energy_is_nanojoule_scale_and_chgfe_wins() {
        let cur = inference_cost(
            &DesignPoint::serving_default(Variant::CurFe),
            &default_mlp(),
        );
        let chg = inference_cost(
            &DesignPoint::serving_default(Variant::ChgFe),
            &default_mlp(),
        );
        assert!(cur.energy_j > 1.0e-9 && cur.energy_j < 100.0e-9, "{cur:?}");
        assert!(chg.energy_j < cur.energy_j, "charge-domain must be cheaper");
        // Same bank-cycle count ⇒ the ratio is exactly the per-cycle
        // energy ratio, i.e. the inverse of the TOPS/W ratio.
        let eff_ratio = DesignPoint::serving_default(Variant::ChgFe)
            .evaluate()
            .tops_per_watt
            / DesignPoint::serving_default(Variant::CurFe)
                .evaluate()
                .tops_per_watt;
        assert!((cur.energy_j / chg.energy_j - eff_ratio).abs() / eff_ratio < 1e-9);
    }

    #[test]
    fn latency_respects_bank_parallelism() {
        let p = DesignPoint::serving_default(Variant::CurFe);
        let wide = DesignPoint { banks: 32, ..p };
        let narrow = inference_cost(&p, &default_mlp());
        let parallel = inference_cost(&wide, &default_mlp());
        assert!(parallel.latency_s < narrow.latency_s);
        // Energy is geometry-shared overhead divided across more banks;
        // it must not grow.
        assert!(parallel.energy_j <= narrow.energy_j * 1.01);
    }

    #[test]
    fn more_input_bits_cost_proportionally_more() {
        let p4 = DesignPoint::serving_default(Variant::ChgFe);
        let p8 = DesignPoint {
            input_bits: 8,
            ..p4
        };
        let c4 = inference_cost(&p4, &default_mlp());
        let c8 = inference_cost(&p8, &default_mlp());
        assert_eq!(c8.bank_cycles, 2 * c4.bank_cycles);
        assert!((c8.energy_j / c4.energy_j - 2.0).abs() < 1e-12);
    }

    #[test]
    fn energy_pj_rounds_to_picojoules() {
        let c = InferenceCost {
            bank_cycles: 1,
            macs: 1,
            energy_j: 1.25e-9,
            latency_s: 1e-6,
        };
        assert_eq!(c.energy_pj(), 1250);
    }
}
