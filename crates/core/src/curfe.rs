//! CurFe: the current-mode FeFET IMC bank (Section 3.1).
//!
//! A *block pair* is one H4B (signed nibble, 32 rows × 4 columns) plus one
//! L4B (unsigned nibble, 32 rows × 4 columns) sharing two TIAs. The
//! binary-weighted drain-resistor ladder makes each column's ON current
//! proportional to its bit significance, so summing all four columns of a
//! block on the TIA virtual ground *is* the shift-add over weight bits
//! (Eq. 3/4):
//!
//! ```text
//! V_H4 = V_cm + (ΣI₇ + ΣI₆ + ΣI₅ + ΣI₄) · R_out       (2CM,  [-8·R, 7·R] units)
//! V_L4 = V_cm + (ΣI₃ + ΣI₂ + ΣI₁ + ΣI₀) · R_out       (N2CM, [0, 15·R] units)
//! ```
//!
//! with the sign column (`cell7`, sourceline at `VDD_i`) conducting in the
//! opposite direction.

use crate::cell::CurFeCell;
use crate::config::CurFeConfig;
use crate::weights::{SignedNibble, SplitWeight, UnsignedNibble};
use fefet_device::variation::VariationSampler;

/// The analog outputs of one partial-MAC cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartialMacVoltages {
    /// H4B (2CM) TIA output voltage (V).
    pub v_h4: f64,
    /// L4B (N2CM) TIA output voltage (V).
    pub v_l4: f64,
}

/// Stored per-cell state: the programmed cell model plus cached ON/OFF
/// currents (the bitline is pinned at `V_cm` by the TIA, so each cell's
/// current is independent of its neighbours and can be pre-computed).
#[derive(Debug, Clone)]
struct ProgrammedCell {
    /// Current when the row is activated (A), signed BL→SL.
    i_active: f64,
    /// Leakage when the row is inactive (A).
    i_inactive: f64,
}

/// One programmed CurFe H4B+L4B block pair.
#[derive(Debug, Clone)]
pub struct CurFeBlockPair {
    config: CurFeConfig,
    /// `cells[row][col]`, col 0–3 = L4B bits 0–3, col 4–7 = H4B bits
    /// 0–2 + sign.
    cells: Vec<[ProgrammedCell; 8]>,
    /// The stored split weights (golden reference).
    weights: Vec<SplitWeight>,
}

impl CurFeBlockPair {
    /// Programs `weights` (one 8-bit signed weight per row) into a fresh
    /// block pair, sampling device variation from `sampler`.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the configured row count.
    #[must_use]
    pub fn program(config: &CurFeConfig, weights: &[i8], sampler: &mut VariationSampler) -> Self {
        assert_eq!(
            weights.len(),
            config.geometry.rows,
            "expected one weight per row"
        );
        let split: Vec<SplitWeight> = weights.iter().map(|&w| SplitWeight::split(w)).collect();
        let cells = split
            .iter()
            .map(|sw| Self::program_row(config, *sw, sampler))
            .collect();
        Self {
            config: config.clone(),
            cells,
            weights: split,
        }
    }

    /// Programs a block pair directly from nibble pairs (4-bit weight
    /// mode: H4B and L4B carry independent values).
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from the configured row count.
    #[must_use]
    pub fn program_nibbles(
        config: &CurFeConfig,
        nibbles: &[(SignedNibble, UnsignedNibble)],
        sampler: &mut VariationSampler,
    ) -> Self {
        assert_eq!(nibbles.len(), config.geometry.rows);
        let split: Vec<SplitWeight> = nibbles
            .iter()
            .map(|&(high, low)| SplitWeight { high, low })
            .collect();
        let cells = split
            .iter()
            .map(|sw| Self::program_row(config, *sw, sampler))
            .collect();
        Self {
            config: config.clone(),
            cells,
            weights: split,
        }
    }

    fn program_row(
        config: &CurFeConfig,
        sw: SplitWeight,
        sampler: &mut VariationSampler,
    ) -> [ProgrammedCell; 8] {
        let lo = sw.low.bits();
        let hi = sw.high.bits();
        let mut out: Vec<ProgrammedCell> = Vec::with_capacity(8);
        for col in 0..8 {
            let (bit, j, v_sl, v_gate) = if col < 4 {
                (lo[col], col, 0.0, config.v_wl)
            } else if col < 7 {
                (hi[col - 4], col - 4, 0.0, config.v_wl)
            } else {
                // Sign column: same 2³ resistor, sourceline at VDD_i,
                // boosted WLS gate level.
                (hi[3], 3, config.vdd_i, config.v_wls)
            };
            let cell = CurFeCell::program(
                config.fefet,
                &config.slc,
                bit,
                config.drain_resistance(j),
                sampler,
            );
            out.push(ProgrammedCell {
                i_active: cell.current(config.v_cm, v_sl, v_gate, true),
                i_inactive: cell.current(config.v_cm, v_sl, v_gate, false),
            });
        }
        out.try_into().expect("exactly eight columns")
    }

    /// The configuration this block pair was built with.
    #[must_use]
    pub fn config(&self) -> &CurFeConfig {
        &self.config
    }

    /// The stored weights.
    #[must_use]
    pub fn weights(&self) -> &[SplitWeight] {
        &self.weights
    }

    /// Volts per unit count at the TIA outputs:
    /// `unit_current · R_out`.
    #[must_use]
    pub fn volts_per_unit(&self) -> f64 {
        self.config.unit_current() * self.config.r_out
    }

    /// Executes one 1-bit-input partial MAC: rows flagged in `active`
    /// conduct, the TIAs sum the block currents (Eq. 3/4).
    ///
    /// # Panics
    ///
    /// Panics if `active.len()` differs from the row count.
    #[must_use]
    pub fn partial_mac(&self, active: &[bool]) -> PartialMacVoltages {
        let (i_h4, i_l4) = self.block_currents(active);
        // The TIA sources the summed bitline current through R_out:
        // current *out of* the virtual ground (BL→SL, positive) lifts the
        // output above V_cm.
        PartialMacVoltages {
            v_h4: self.config.v_cm + i_h4 * self.config.r_out,
            v_l4: self.config.v_cm + i_l4 * self.config.r_out,
        }
    }

    /// The summed signed block currents `(I_H4, I_L4)` in amps
    /// (positive = BL→SL; the sign column contributes negatively).
    #[must_use]
    pub fn block_currents(&self, active: &[bool]) -> (f64, f64) {
        assert_eq!(active.len(), self.cells.len(), "one flag per row");
        let mut i_l4 = 0.0;
        let mut i_h4 = 0.0;
        for (row, on) in self.cells.iter().zip(active) {
            for (col, cell) in row.iter().enumerate() {
                let i = if *on { cell.i_active } else { cell.i_inactive };
                if col < 4 {
                    i_l4 += i;
                } else {
                    // Sign-column current returns negative already
                    // (SL = VDD_i > V_cm drives current into the BL).
                    i_h4 += i;
                }
            }
        }
        (i_h4, i_l4)
    }

    /// The *ideal* (noise-free, integer) unit counts this cycle should
    /// produce: `(Σ active·high, Σ active·low)`.
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

    fn noisy(seed: u64) -> VariationSampler {
        VariationSampler::new(VariationParams::paper(), seed)
    }

    fn one_hot(rows: usize, idx: usize) -> Vec<bool> {
        (0..rows).map(|r| r == idx).collect()
    }

    #[test]
    fn paper_fig3_anchor_currents() {
        // 1-bit input '1' × weight 0b1111_1111 (= −1), single row active:
        // I_H4 = −100 nA, I_L4 = +1.5 µA (paper Fig. 3).
        let cfg = CurFeConfig::paper();
        let mut weights = vec![0i8; 32];
        weights[0] = -1;
        let bp = CurFeBlockPair::program(&cfg, &weights, &mut quiet());
        let (i_h4, i_l4) = bp.block_currents(&one_hot(32, 0));
        // The residual series drop across the FeFET channels shaves a few
        // percent off each branch; the paper's −100 nA is the ideal value.
        assert!(
            (i_h4 + 1.0e-7).abs() < 1.0e-8,
            "I_H4 = {i_h4:.3e}, paper says −100 nA"
        );
        assert!(
            (i_l4 - 1.5e-6).abs() < 5.0e-8,
            "I_L4 = {i_l4:.3e}, paper says +1.5 µA"
        );
    }

    #[test]
    fn voltages_track_units_linearly() {
        let cfg = CurFeConfig::paper();
        let vpu = CurFeConfig::paper().unit_current() * cfg.r_out;
        for w in [-128i8, -64, -1, 0, 1, 42, 127] {
            let mut weights = vec![0i8; 32];
            weights[0] = w;
            let bp = CurFeBlockPair::program(&cfg, &weights, &mut quiet());
            let out = bp.partial_mac(&one_hot(32, 0));
            let sw = SplitWeight::split(w);
            let expect_h4 = cfg.v_cm + f64::from(sw.high.value()) * vpu;
            let expect_l4 = cfg.v_cm + f64::from(sw.low.value()) * vpu;
            assert!(
                (out.v_h4 - expect_h4).abs() < 0.03 * vpu.abs() * 8.0 + 1e-6,
                "w={w}: v_h4 {:.6} vs {:.6}",
                out.v_h4,
                expect_h4
            );
            assert!(
                (out.v_l4 - expect_l4).abs() < 0.03 * vpu.abs() * 15.0 + 1e-6,
                "w={w}: v_l4 {:.6} vs {:.6}",
                out.v_l4,
                expect_l4
            );
        }
    }

    #[test]
    fn accumulation_over_32_rows() {
        // All rows active with weight 0x11 (high=1, low=1): 32 units each.
        let cfg = CurFeConfig::paper();
        let bp = CurFeBlockPair::program(&cfg, &[0x11i8; 32], &mut quiet());
        let active = vec![true; 32];
        let (h, l) = bp.ideal_units(&active);
        assert_eq!((h, l), (32, 32));
        let (i_h4, i_l4) = bp.block_currents(&active);
        let unit = cfg.unit_current();
        assert!((i_h4 - 32.0 * unit).abs() < 0.05 * 32.0 * unit);
        assert!((i_l4 - 32.0 * unit).abs() < 0.05 * 32.0 * unit);
    }

    #[test]
    fn full_scale_negative_h4b() {
        // Weight −128 (high nibble −8) on all 32 rows: I_H4 = −256 units.
        let cfg = CurFeConfig::paper();
        let bp = CurFeBlockPair::program(&cfg, &[-128i8; 32], &mut quiet());
        let (i_h4, _) = bp.block_currents(&[true; 32]);
        let expect = -256.0 * cfg.unit_current();
        assert!(
            (i_h4 - expect).abs() < 0.05 * expect.abs(),
            "{i_h4:.3e} vs {expect:.3e}"
        );
    }

    #[test]
    fn inactive_rows_contribute_negligibly() {
        let cfg = CurFeConfig::paper();
        let bp = CurFeBlockPair::program(&cfg, &[-1i8; 32], &mut quiet());
        let (i_h4, i_l4) = bp.block_currents(&[false; 32]);
        assert!(i_h4.abs() < cfg.unit_current() * 0.5);
        assert!(i_l4.abs() < cfg.unit_current() * 0.5);
    }

    #[test]
    fn variation_noise_is_small_relative_to_lsb() {
        // The resistor-limited design keeps per-cycle noise well below
        // one unit even across 32 active rows (Fig. 8a/b: tight spreads).
        let cfg = CurFeConfig::paper();
        let weights = vec![0x77i8; 32];
        let active = vec![true; 32];
        let mut outs = Vec::new();
        for seed in 0..40 {
            let bp = CurFeBlockPair::program(&cfg, &weights, &mut noisy(seed));
            let (_, i_l4) = bp.block_currents(&active);
            outs.push(i_l4 / cfg.unit_current());
        }
        let stats = fefet_device::variation::SampleStats::from_values(&outs);
        assert!(
            (stats.mean - 224.0).abs() < 5.0,
            "mean {:.2} units (expect 224)",
            stats.mean
        );
        assert!(stats.std_dev < 4.0, "σ = {:.3} units", stats.std_dev);
    }

    #[test]
    fn ideal_units_match_weight_sum() {
        let cfg = CurFeConfig::paper();
        let weights: Vec<i8> = (0..32).map(|i| (i * 7 - 100) as i8).collect();
        let bp = CurFeBlockPair::program(&cfg, &weights, &mut quiet());
        let active: Vec<bool> = (0..32).map(|i| i % 3 == 0).collect();
        let (h, l) = bp.ideal_units(&active);
        let total: i32 = weights
            .iter()
            .zip(&active)
            .filter(|(_, a)| **a)
            .map(|(w, _)| i32::from(*w))
            .sum();
        assert_eq!(16 * h + l, total, "16·H + L must equal Σ weights");
    }

    #[test]
    #[should_panic(expected = "one weight per row")]
    fn wrong_weight_count_panics() {
        let cfg = CurFeConfig::paper();
        let _ = CurFeBlockPair::program(&cfg, &[1i8; 3], &mut quiet());
    }
}
