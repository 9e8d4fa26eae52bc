//! ChgFe: the charge-mode FeFET IMC bank (Section 3.2).
//!
//! Each bitline carries a 50 fF capacitor pre-charged to `V_pre = 1.5 V`.
//! During the 0.5 ns input window the activated MLC nFeFETs discharge
//! their bitline with binary-weighted saturation currents, while the
//! pFeFET sign column charges its bitline from `VDD_q`. Charge sharing
//! across the four equal capacitors of a nibble block then performs the
//! shift-add with an inherent ÷4 (Eq. 5/6):
//!
//! ```text
//! V_H4 = V_pre + (ΣΔV₇ + ΣΔV₆ + ΣΔV₅ + ΣΔV₄)/4
//! V_L4 = V_pre + (ΣΔV₃ + ΣΔV₂ + ΣΔV₁ + ΣΔV₀)/4
//! ```
//!
//! No extra binary-weighted computation capacitors are needed — the MAC
//! and the weight shift-add use the *same* bitline capacitors.

use crate::cell::ChgFeCell;
use crate::config::ChgFeConfig;
use crate::curfe::PartialMacVoltages;
use crate::weights::{SignedNibble, SplitWeight, UnsignedNibble};
use fefet_device::variation::VariationSampler;

/// One programmed ChgFe H4B+L4B block pair.
#[derive(Debug, Clone)]
pub struct ChgFeBlockPair {
    config: ChgFeConfig,
    /// `cells[row][col]`: col 0–3 = L4B bits 0–3 (nFeFET), col 4–6 = H4B
    /// bits 0–2 (nFeFET), col 7 = H4B sign (pFeFET).
    cells: Vec<[ChgFeCell; 8]>,
    /// Per-bitline capacitor values after mismatch (F).
    c_bl: [f64; 8],
    weights: Vec<SplitWeight>,
}

/// Detailed per-bitline result of one MAC cycle, exposed for the
/// transient-shape studies of Fig. 6 (C-INTERMEDIATE).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitlineOutcome {
    /// Bitline voltages after the input window, before charge sharing (V).
    pub v_bl: [f64; 8],
    /// Shared nibble-block voltages `(v_h4, v_l4)` after charge sharing.
    pub shared: PartialMacVoltages,
    /// Total charge drawn from the pre-charge supply to restore the
    /// bitlines next cycle (C).
    pub precharge_charge: f64,
    /// Charge delivered by `VDD_q` through the sign column (C).
    pub sign_charge: f64,
}

impl ChgFeBlockPair {
    /// Programs `weights` (one 8-bit signed weight per row).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the configured row count.
    #[must_use]
    pub fn program(config: &ChgFeConfig, weights: &[i8], sampler: &mut VariationSampler) -> Self {
        assert_eq!(weights.len(), config.geometry.rows, "one weight per row");
        let split: Vec<SplitWeight> = weights.iter().map(|&w| SplitWeight::split(w)).collect();
        Self::build(config, split, sampler)
    }

    /// Programs independent nibble pairs (4-bit weight mode).
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from the configured row count.
    #[must_use]
    pub fn program_nibbles(
        config: &ChgFeConfig,
        nibbles: &[(SignedNibble, UnsignedNibble)],
        sampler: &mut VariationSampler,
    ) -> Self {
        assert_eq!(nibbles.len(), config.geometry.rows);
        let split = nibbles
            .iter()
            .map(|&(high, low)| SplitWeight { high, low })
            .collect();
        Self::build(config, split, sampler)
    }

    fn build(
        config: &ChgFeConfig,
        split: Vec<SplitWeight>,
        sampler: &mut VariationSampler,
    ) -> Self {
        let cells = split
            .iter()
            .map(|sw| {
                let lo = sw.low.bits();
                let hi = sw.high.bits();
                let mut row: Vec<ChgFeCell> = Vec::with_capacity(8);
                for col in 0..8 {
                    let cell = if col < 4 {
                        ChgFeCell::program_data(
                            config.nfefet,
                            &config.ladder,
                            col,
                            lo[col],
                            sampler,
                        )
                    } else if col < 7 {
                        ChgFeCell::program_data(
                            config.nfefet,
                            &config.ladder,
                            col - 4,
                            hi[col - 4],
                            sampler,
                        )
                    } else {
                        ChgFeCell::program_sign(
                            config.pfefet,
                            config.pfet_vth_on,
                            config.pfet_vth_off,
                            hi[3],
                            sampler,
                        )
                    };
                    row.push(cell);
                }
                row.try_into().expect("eight columns")
            })
            .collect();
        let mut c_bl = [0.0; 8];
        for c in &mut c_bl {
            *c = config.c_bl * sampler.c_factor();
        }
        Self {
            config: config.clone(),
            cells,
            c_bl,
            weights: split,
        }
    }

    /// The configuration this block pair was built with.
    #[must_use]
    pub fn config(&self) -> &ChgFeConfig {
        &self.config
    }

    /// The stored weights.
    #[must_use]
    pub fn weights(&self) -> &[SplitWeight] {
        &self.weights
    }

    /// Volts per unit count at the shared nibble output. Negative: more
    /// units means a *lower* voltage (net discharge). The sign column
    /// inverts its own contribution physically, so both blocks share the
    /// same scale.
    #[must_use]
    pub fn volts_per_unit(&self) -> f64 {
        -self.config.unit_delta_v() / 4.0
    }

    /// Executes one 1-bit-input partial MAC (pre-charge → discharge →
    /// charge share), returning the per-bitline detail.
    ///
    /// The bitline discharge integrates the actual device currents in
    /// `discharge_substeps` forward-Euler steps, capturing the droop
    /// nonlinearity near full scale.
    ///
    /// # Panics
    ///
    /// Panics if `active.len()` differs from the row count.
    #[must_use]
    pub fn mac_cycle(&self, active: &[bool]) -> BitlineOutcome {
        assert_eq!(active.len(), self.cells.len(), "one flag per row");
        let cfg = &self.config;
        let substeps = cfg.discharge_substeps.max(1);
        let dt = cfg.t_in / substeps as f64;

        let mut v_bl = [cfg.v_pre; 8];
        let mut sign_charge = 0.0;
        for (col, v) in v_bl.iter_mut().enumerate() {
            for _ in 0..substeps {
                // Net discharge current on this bitline at its current
                // voltage (positive discharges; the sign column's pFeFET
                // returns negative = charging).
                let v_gate_on = if col == 7 { cfg.v_wls_low } else { cfg.v_wl };
                let mut i_net = 0.0;
                for (row, on) in self.cells.iter().zip(active) {
                    i_net += row[col].bitline_current(*v, v_gate_on, cfg.vdd_q, *on);
                }
                if col == 7 && i_net < 0.0 {
                    sign_charge += -i_net * dt;
                }
                *v -= i_net * dt / self.c_bl[col];
            }
        }

        // Charge sharing across the four capacitors of each nibble block:
        // v_shared = Σ C_i·v_i / Σ C_i (capacitor mismatch included).
        let share = |cols: std::ops::Range<usize>| -> f64 {
            let mut q = 0.0;
            let mut c = 0.0;
            for i in cols {
                q += self.c_bl[i] * v_bl[i];
                c += self.c_bl[i];
            }
            q / c
        };
        let shared = PartialMacVoltages {
            v_l4: share(0..4),
            v_h4: share(4..8),
        };

        // Pre-charge restoration: every bitline returns to V_pre.
        let precharge_charge: f64 = (0..8)
            .map(|i| {
                let v_after = if i < 4 { shared.v_l4 } else { shared.v_h4 };
                (self.c_bl[i] * (cfg.v_pre - v_after)).max(0.0)
            })
            .sum();

        BitlineOutcome {
            v_bl,
            shared,
            precharge_charge,
            sign_charge,
        }
    }

    /// Convenience: just the shared nibble voltages.
    ///
    /// # Panics
    ///
    /// Panics if `active.len()` differs from the row count.
    #[must_use]
    pub fn partial_mac(&self, active: &[bool]) -> PartialMacVoltages {
        self.mac_cycle(active).shared
    }

    /// The ideal unit counts `(Σ active·high, Σ active·low)`.
    ///
    /// # Panics
    ///
    /// Panics if `active.len()` differs from the row count.
    #[must_use]
    pub fn ideal_units(&self, active: &[bool]) -> (i32, i32) {
        assert_eq!(active.len(), self.weights.len());
        let mut h = 0i32;
        let mut l = 0i32;
        for (sw, on) in self.weights.iter().zip(active) {
            if *on {
                h += i32::from(sw.high.value());
                l += i32::from(sw.low.value());
            }
        }
        (h, l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fefet_device::variation::{VariationParams, VariationSampler};

    fn quiet() -> VariationSampler {
        VariationSampler::new(VariationParams::none(), 0)
    }

    fn one_hot(rows: usize, idx: usize) -> Vec<bool> {
        (0..rows).map(|r| r == idx).collect()
    }

    #[test]
    fn single_row_all_ones_weight_fig6_shape() {
        // Weight 0b1111_1111 (−1), one active row: L4B bitlines drop with
        // binary-weighted steps; the sign bitline *rises*.
        let cfg = ChgFeConfig::paper();
        let mut weights = vec![0i8; 32];
        weights[0] = -1;
        let bp = ChgFeBlockPair::program(&cfg, &weights, &mut quiet());
        let out = bp.mac_cycle(&one_hot(32, 0));
        let dv = cfg.unit_delta_v();
        // L4B bitlines: ΔV ≈ −2^j units.
        for j in 0..4 {
            let expect = cfg.v_pre - dv * f64::from(1u32 << j);
            assert!(
                (out.v_bl[j] - expect).abs() < 0.25 * dv * f64::from(1u32 << j),
                "BL{j}: {:.4} vs {:.4}",
                out.v_bl[j],
                expect
            );
        }
        // Sign bitline rises by ≈ 8 units.
        assert!(
            out.v_bl[7] > cfg.v_pre + 6.0 * dv,
            "sign BL at {:.4}",
            out.v_bl[7]
        );
        // Shared H4B voltage: high nibble −1 → +1 unit above V_pre/4 scale.
        let vpu = bp.volts_per_unit();
        let expect_h4 = cfg.v_pre + -vpu.abs() * -1.0; // −1 unit × negative vpu
        let _ = expect_h4;
        let units_h4 = (out.shared.v_h4 - cfg.v_pre) / vpu;
        assert!((units_h4 - (-1.0)).abs() < 0.4, "H4 units {units_h4:.3}");
        let units_l4 = (out.shared.v_l4 - cfg.v_pre) / vpu;
        assert!((units_l4 - 15.0).abs() < 1.2, "L4 units {units_l4:.3}");
    }

    #[test]
    fn linearity_across_accumulation_depth() {
        // Activating k rows of weight 0x11 must move the shared voltages
        // ≈ linearly in k (Fig. 8c/d's linear transfer).
        let cfg = ChgFeConfig::paper();
        let bp = ChgFeBlockPair::program(&cfg, &[0x11i8; 32], &mut quiet());
        let vpu = bp.volts_per_unit();
        let mut errs = Vec::new();
        for k in [0usize, 4, 8, 16, 24, 32] {
            let active: Vec<bool> = (0..32).map(|r| r < k).collect();
            let out = bp.partial_mac(&active);
            let units = (out.v_l4 - cfg.v_pre) / vpu;
            errs.push(units - k as f64);
        }
        let worst = errs.iter().fold(0.0f64, |m, e| m.max(e.abs()));
        // The residual comes from channel-length modulation during the
        // discharge: about 0.5 % of full scale, matching the small
        // curvature visible in the paper Fig. 8(c)/(d).
        assert!(
            worst < 3.0,
            "worst deviation {worst:.3} units (errs {errs:?})"
        );
    }

    #[test]
    fn h4b_two_complement_extremes() {
        let cfg = ChgFeConfig::paper();
        // high nibble −8 on every row (weight −128).
        let bp = ChgFeBlockPair::program(&cfg, &[-128i8; 32], &mut quiet());
        let vpu = bp.volts_per_unit();
        let out = bp.partial_mac(&[true; 32]);
        let units = (out.v_h4 - cfg.v_pre) / vpu;
        assert!(
            (units - (-256.0)).abs() < 16.0,
            "−8×32 rows: measured {units:.1} units"
        );
        // Positive extreme: high nibble +7 (weight 0x70).
        let bp = ChgFeBlockPair::program(&cfg, &[0x70i8; 32], &mut quiet());
        let out = bp.partial_mac(&[true; 32]);
        let units = (out.v_h4 - cfg.v_pre) / vpu;
        assert!((units - 224.0).abs() < 14.0, "+7×32 rows: {units:.1} units");
    }

    #[test]
    fn idle_cycle_stays_at_precharge() {
        let cfg = ChgFeConfig::paper();
        let bp = ChgFeBlockPair::program(&cfg, &[-1i8; 32], &mut quiet());
        let out = bp.partial_mac(&[false; 32]);
        assert!((out.v_h4 - cfg.v_pre).abs() < 2e-3);
        assert!((out.v_l4 - cfg.v_pre).abs() < 2e-3);
    }

    #[test]
    fn charge_accounting_is_positive_and_scales() {
        let cfg = ChgFeConfig::paper();
        let bp = ChgFeBlockPair::program(&cfg, &[0x77i8; 32], &mut quiet());
        let light = bp.mac_cycle(&one_hot(32, 0));
        let heavy = bp.mac_cycle(&[true; 32]);
        assert!(light.precharge_charge > 0.0);
        assert!(heavy.precharge_charge > 5.0 * light.precharge_charge);
    }

    #[test]
    fn variation_noise_visible_but_bounded() {
        let cfg = ChgFeConfig::paper();
        let weights = vec![0x07i8; 32];
        let active = vec![true; 32];
        let mut outs = Vec::new();
        for seed in 0..40 {
            let mut s = VariationSampler::new(VariationParams::paper(), seed);
            let bp = ChgFeBlockPair::program(&cfg, &weights, &mut s);
            let out = bp.partial_mac(&active);
            outs.push((out.v_l4 - cfg.v_pre) / bp.volts_per_unit());
        }
        let stats = fefet_device::variation::SampleStats::from_values(&outs);
        assert!(
            (stats.mean - 224.0).abs() < 20.0,
            "mean {:.1} units",
            stats.mean
        );
        // Noisier than CurFe but within a few ADC LSBs (15 units at 5 b).
        assert!(
            stats.std_dev > 0.5 && stats.std_dev < 20.0,
            "σ = {:.2}",
            stats.std_dev
        );
    }

    #[test]
    fn ideal_units_match_weight_sum() {
        let cfg = ChgFeConfig::paper();
        let weights: Vec<i8> = (0..32).map(|i| (i * 5 - 80) as i8).collect();
        let bp = ChgFeBlockPair::program(&cfg, &weights, &mut quiet());
        let active: Vec<bool> = (0..32).map(|i| i % 2 == 0).collect();
        let (h, l) = bp.ideal_units(&active);
        let total: i32 = weights
            .iter()
            .zip(&active)
            .filter(|(_, a)| **a)
            .map(|(w, _)| i32::from(*w))
            .sum();
        assert_eq!(16 * h + l, total);
    }

    #[test]
    #[should_panic(expected = "one flag per row")]
    fn wrong_active_len_panics() {
        let cfg = ChgFeConfig::paper();
        let bp = ChgFeBlockPair::program(&cfg, &[0i8; 32], &mut quiet());
        let _ = bp.partial_mac(&[true; 3]);
    }
}
