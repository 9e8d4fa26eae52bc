//! Failure injection: stuck cells and dead columns.
//!
//! Manufacturing defects leave some FeFETs stuck conducting (shorted,
//! V_TH pinned low) or stuck open (broken gate stack, never conducts).
//! This module perturbs a weight matrix the way such faults perturb the
//! *effective stored weights*, so any experiment — the bank models, the
//! grid, the DNN executor — can run a fault-injection study without
//! bespoke hooks.
//!
//! Fault semantics on the bit-planes:
//!
//! * `StuckOn` — the cell conducts regardless of the stored bit: the
//!   corresponding weight bit reads as 1.
//! * `StuckOff` — the cell never conducts: the bit reads as 0.
//! * A dead column kills one bit significance for *every* row of a block.

use crate::weights::SplitWeight;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A single-cell fault type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// Cell conducts regardless of its programmed state (bit reads 1).
    StuckOn,
    /// Cell never conducts (bit reads 0).
    StuckOff,
}

/// Fault-injection configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultModel {
    /// Probability that any given cell is stuck-on.
    pub p_stuck_on: f64,
    /// Probability that any given cell is stuck-off.
    pub p_stuck_off: f64,
}

/// Why a [`FaultModel`] failed validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultError {
    /// A probability is outside `[0, 1]` (or not finite).
    ProbabilityOutOfRange {
        /// Which field (`"p_stuck_on"` / `"p_stuck_off"`).
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The two probabilities sum past 1, so a cell could be both stuck-on
    /// and stuck-off.
    SumExceedsOne {
        /// `p_stuck_on + p_stuck_off`.
        sum: f64,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ProbabilityOutOfRange { field, value } => {
                write!(f, "fault probability {field} = {value} is outside [0, 1]")
            }
            Self::SumExceedsOne { sum } => {
                write!(f, "fault probabilities sum to {sum} > 1")
            }
        }
    }
}

impl std::error::Error for FaultError {}

impl FaultModel {
    /// A typical mature-process defect rate: 0.05 % each.
    #[must_use]
    pub fn typical() -> Self {
        Self {
            p_stuck_on: 5.0e-4,
            p_stuck_off: 5.0e-4,
        }
    }

    /// No faults.
    #[must_use]
    pub fn none() -> Self {
        Self {
            p_stuck_on: 0.0,
            p_stuck_off: 0.0,
        }
    }

    /// Validates the probabilities.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultError`] if either probability is outside `[0, 1]`
    /// (or not finite) or they sum past 1.
    pub fn validate(&self) -> Result<(), FaultError> {
        for (field, value) in [
            ("p_stuck_on", self.p_stuck_on),
            ("p_stuck_off", self.p_stuck_off),
        ] {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(FaultError::ProbabilityOutOfRange { field, value });
            }
        }
        let sum = self.p_stuck_on + self.p_stuck_off;
        if sum > 1.0 {
            return Err(FaultError::SumExceedsOne { sum });
        }
        Ok(())
    }
}

/// Applies one cell fault to one bit of a stored weight, returning the
/// faulty weight.
#[must_use]
pub fn apply_cell_fault(weight: i8, cell: usize, kind: FaultKind) -> i8 {
    assert!(cell < 8, "a weight occupies cells 0..8");
    let sw = SplitWeight::split(weight);
    let mut lo = sw.low.bits();
    let mut hi = sw.high.bits();
    let bit = match kind {
        FaultKind::StuckOn => true,
        FaultKind::StuckOff => false,
    };
    if cell < 4 {
        lo[cell] = bit;
    } else {
        hi[cell - 4] = bit;
    }
    SplitWeight {
        high: crate::weights::SignedNibble::from_bits(hi),
        low: crate::weights::UnsignedNibble::from_bits(lo),
    }
    .combine()
}

/// The set of faults drawn for a weight array.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FaultMap {
    /// `(weight_index, cell, kind)` triples.
    pub faults: Vec<(usize, usize, FaultKind)>,
}

impl FaultMap {
    /// Samples faults for `n_weights` stored weights under `model`,
    /// deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the model probabilities are invalid.
    #[must_use]
    pub fn sample(n_weights: usize, model: &FaultModel, seed: u64) -> Self {
        if let Err(e) = model.validate() {
            panic!("invalid fault model: {e}");
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut faults = Vec::new();
        for w in 0..n_weights {
            for cell in 0..8usize {
                let u: f64 = rng.gen();
                if u < model.p_stuck_on {
                    faults.push((w, cell, FaultKind::StuckOn));
                } else if u < model.p_stuck_on + model.p_stuck_off {
                    faults.push((w, cell, FaultKind::StuckOff));
                }
            }
        }
        Self { faults }
    }

    /// Number of faulty cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether no faults were drawn.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Applies the faults to a weight slice, returning the effective
    /// (faulty) weights.
    ///
    /// # Panics
    ///
    /// Panics if a fault references a weight index out of range.
    #[must_use]
    pub fn apply(&self, weights: &[i8]) -> Vec<i8> {
        let mut out = Vec::new();
        self.apply_into(weights, &mut out);
        out
    }

    /// Applies the faults into a caller-provided buffer (cleared and
    /// refilled), avoiding the per-call allocation of
    /// [`apply`](Self::apply) — the shape Monte-Carlo fault-ablation
    /// loops want.
    ///
    /// # Panics
    ///
    /// Panics if a fault references a weight index out of range.
    pub fn apply_into(&self, weights: &[i8], out: &mut Vec<i8>) {
        out.clear();
        out.extend_from_slice(weights);
        for &(w, cell, kind) in &self.faults {
            out[w] = apply_cell_fault(out[w], cell, kind);
        }
    }

    /// The worst-case weight error a single fault can cause at each cell
    /// position (for error budgeting): ±2^cell in L4B units, ±16·2^(cell−4)
    /// in H4B units, with the sign cell worth 128.
    #[must_use]
    pub fn worst_case_weight_error(cell: usize) -> i32 {
        assert!(cell < 8);
        if cell < 4 {
            1 << cell
        } else if cell < 7 {
            16 << (cell - 4)
        } else {
            128
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stuck_on_sets_the_bit() {
        // weight 0: all bits 0; stuck-on at cell 2 adds +4.
        assert_eq!(apply_cell_fault(0, 2, FaultKind::StuckOn), 4);
        // stuck-on at the sign cell (7) makes the high nibble negative.
        assert_eq!(apply_cell_fault(0, 7, FaultKind::StuckOn), -128);
    }

    #[test]
    fn stuck_off_clears_the_bit() {
        assert_eq!(apply_cell_fault(0x0F, 3, FaultKind::StuckOff), 0x07);
        assert_eq!(apply_cell_fault(-1, 7, FaultKind::StuckOff), 127);
    }

    #[test]
    fn fault_on_already_matching_bit_is_harmless() {
        assert_eq!(apply_cell_fault(4, 2, FaultKind::StuckOn), 4);
        assert_eq!(apply_cell_fault(0, 5, FaultKind::StuckOff), 0);
    }

    #[test]
    fn sampling_rate_matches_model() {
        let model = FaultModel {
            p_stuck_on: 0.01,
            p_stuck_off: 0.01,
        };
        let map = FaultMap::sample(10_000, &model, 7);
        // 80k cells × 2% ≈ 1600 expected faults.
        assert!(
            (1300..1900).contains(&map.len()),
            "drew {} faults",
            map.len()
        );
    }

    #[test]
    fn sampling_is_deterministic() {
        let m = FaultModel::typical();
        let a = FaultMap::sample(256, &m, 3);
        let b = FaultMap::sample(256, &m, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn no_faults_is_identity() {
        let map = FaultMap::sample(64, &FaultModel::none(), 1);
        assert!(map.is_empty());
        let w: Vec<i8> = (0..64).map(|i| i as i8).collect();
        assert_eq!(map.apply(&w), w);
    }

    #[test]
    fn validate_flags_bad_probabilities() {
        assert!(FaultModel::typical().validate().is_ok());
        let neg = FaultModel {
            p_stuck_on: -0.1,
            p_stuck_off: 0.0,
        };
        assert!(matches!(
            neg.validate(),
            Err(FaultError::ProbabilityOutOfRange {
                field: "p_stuck_on",
                ..
            })
        ));
        let fat = FaultModel {
            p_stuck_on: 0.6,
            p_stuck_off: 0.6,
        };
        assert!(matches!(
            fat.validate(),
            Err(FaultError::SumExceedsOne { .. })
        ));
        let nan = FaultModel {
            p_stuck_on: 0.0,
            p_stuck_off: f64::NAN,
        };
        assert!(nan.validate().is_err());
    }

    #[test]
    fn apply_into_matches_apply_and_reuses_buffer() {
        let model = FaultModel {
            p_stuck_on: 0.02,
            p_stuck_off: 0.02,
        };
        let map = FaultMap::sample(128, &model, 9);
        assert!(!map.is_empty());
        let w: Vec<i8> = (0..128).map(|i| (i as i8).wrapping_mul(3)).collect();
        let mut buf = vec![0i8; 7]; // wrong size on purpose: must be refilled
        map.apply_into(&w, &mut buf);
        assert_eq!(buf, map.apply(&w));
        // Reuse with different contents: no stale state.
        let w2: Vec<i8> = w.iter().map(|v| v.wrapping_add(1)).collect();
        map.apply_into(&w2, &mut buf);
        assert_eq!(buf, map.apply(&w2));
    }

    #[test]
    fn worst_case_error_ladder() {
        assert_eq!(FaultMap::worst_case_weight_error(0), 1);
        assert_eq!(FaultMap::worst_case_weight_error(3), 8);
        assert_eq!(FaultMap::worst_case_weight_error(4), 16);
        assert_eq!(FaultMap::worst_case_weight_error(6), 64);
        assert_eq!(FaultMap::worst_case_weight_error(7), 128);
    }

    #[test]
    fn faulty_macro_mac_degrades_gracefully() {
        use crate::array::CurFeMacro;
        use crate::reference::ideal_mac;
        use crate::weights::InputPrecision;
        let weights: Vec<i8> = (0..32).map(|i| (i * 7 - 100) as i8).collect();
        let inputs: Vec<u32> = (0..32).map(|i| (i % 16) as u32).collect();
        let model = FaultModel {
            p_stuck_on: 0.01,
            p_stuck_off: 0.01,
        };
        let map = FaultMap::sample(32, &model, 11);
        let faulty = map.apply(&weights);
        let mut m = CurFeMacro::paper(0);
        m.program_bank(0, 0, &faulty);
        let out = m.mac(0, 0, &inputs, InputPrecision::new(4));
        // The golden model WITH the faults applied predicts the hardware:
        let ideal_faulty = ideal_mac(&inputs, &faulty) as f64;
        assert!(
            (out.value - ideal_faulty).abs() <= out.error_bound + 120.0,
            "hw {} vs faulty-ideal {ideal_faulty}",
            out.value
        );
        // And the deviation from the *fault-free* ideal is bounded by the
        // worst-case ladder sum of the drawn faults.
        let ideal_clean = ideal_mac(&inputs, &weights) as f64;
        let budget: f64 = map
            .faults
            .iter()
            .map(|&(w, c, _)| {
                f64::from(inputs[w]) * f64::from(FaultMap::worst_case_weight_error(c))
            })
            .sum::<f64>()
            * 2.0;
        assert!(
            (out.value - ideal_clean).abs() <= out.error_bound + budget + 120.0,
            "fault impact exceeded budget"
        );
    }
}
