//! Pass 3 — fault-aware remapping: best-fit spares, sign-aware clamping.
//!
//! A seeded [`FaultMap`] pins cells stuck-on/off. Faults cluster by
//! *column* (one output channel within one 128-row tile) because that is
//! the physical relocation unit: a bank's spare w8 columns can host a
//! whole column's worth of nibbles. The pass:
//!
//! 1. samples per-layer fault maps and per-spare defect maps from the
//!    same model (spares are silicon too),
//! 2. prices every faulty column twice — the cost of clamping its faulty
//!    weights *in place* versus the cost of hosting it on each unused
//!    spare (a spare's own defects clamp the rows they land on) — and
//!    relocates worst-damaged-first onto the cheapest spare that beats
//!    staying put,
//! 3. clamps whatever remains in place: among all 256 storable codes it
//!    picks the one whose faulty read-back lands closest to the intended
//!    code, preferring candidates that preserve the sign (a flipped sign
//!    column is the worst-case ±128 error of the ladder in
//!    [`FaultMap::worst_case_weight_error`]).
//!
//! Best-fit matters: at realistic defect densities a 128-row × 8-cell
//! spare is rarely *perfectly* clean, and the previous all-or-nothing
//! rule ("any defect in the used rows disqualifies the spare") threw
//! away nearly the whole spare pool, leaving worst-case sign-cell clamps
//! in place — the dominant term of the predict-pass disagreement this
//! pass now fixes (DESIGN §17). A spare with one low-bit defect hosting
//! a column whose own fault hit the sign cell trades a ±128-class error
//! for a ±1 ripple.
//!
//! The output is a `(stored, effective)` code pair per layer: `stored` is
//! driven by the programming pass, `effective` is what the array computes
//! with — and what the served network must be built from.

use crate::image::{ClampedWeight, FaultLedger, PlacementTable, RelocatedColumn};
use crate::CompileError;
use imc_core::faults::{apply_cell_fault, FaultKind, FaultMap, FaultModel};
use neural::quant::QuantizedWeights;
use std::collections::{BTreeMap, HashMap};

/// Remapping-pass configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemapOptions {
    /// Per-cell fault probabilities.
    pub model: FaultModel,
    /// Fault-map seed (layer maps and spare defect maps derive from it).
    pub seed: u64,
    /// `false` runs the ablation baseline: faults applied raw, no
    /// relocation or clamping.
    pub enable: bool,
}

/// What the pass produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RemapResult {
    /// Codes to drive into the cells, per layer.
    pub stored: Vec<Vec<i8>>,
    /// Codes the array effectively computes with, per layer.
    pub effective: Vec<Vec<i8>>,
    /// The ledger for the manifest.
    pub ledger: FaultLedger,
}

fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Applies a weight's fault list to a candidate stored code.
fn read_back(stored: i8, faults: &[(usize, FaultKind)]) -> i8 {
    faults
        .iter()
        .fold(stored, |w, &(cell, kind)| apply_cell_fault(w, cell, kind))
}

/// Sign-aware clamp: the storable code whose faulty read-back is closest
/// to `intended`, preferring sign-preserving candidates, then the least
/// storage perturbation.
fn clamp_code(intended: i8, faults: &[(usize, FaultKind)]) -> (i8, i8) {
    let want_sign = intended.signum();
    let mut best: Option<(i8, i8, (i32, u8, i32))> = None;
    for cand in i8::MIN..=i8::MAX {
        let eff = read_back(cand, faults);
        let err = (i32::from(eff) - i32::from(intended)).abs();
        let sign_miss = u8::from(want_sign != 0 && eff.signum() == -want_sign);
        let churn = (i32::from(cand) - i32::from(intended)).abs();
        let score = (err, sign_miss, churn);
        if best.as_ref().is_none_or(|(_, _, s)| score < *s) {
            best = Some((cand, eff, score));
        }
    }
    let (stored, eff, _) = best.expect("256 candidates");
    (stored, eff)
}

/// The |effective − intended| a clamp against `faults` achieves.
fn clamp_cost(intended: i8, faults: &[(usize, FaultKind)]) -> i64 {
    let (_, eff) = clamp_code(intended, faults);
    (i64::from(eff) - i64::from(intended)).abs()
}

/// A spare column site and its (model-sampled) defect map.
struct Spare {
    bank: usize,
    idx: usize,
    /// Row → faulty cells within that row's weight.
    defects: BTreeMap<usize, Vec<(usize, FaultKind)>>,
    used: bool,
}

/// One faulty column awaiting a relocate-or-clamp decision.
struct FaultyColumn {
    layer: usize,
    row_tile: usize,
    out_col: usize,
    /// Rows actually occupied by the column in this tile.
    rows_used: usize,
    /// Bank the column's tile lives on (same-bank spares preferred).
    home_bank: Option<usize>,
    /// Flat weight indices of the column's faulty weights.
    weights: Vec<usize>,
    /// Total stuck cells across those weights.
    stuck_cells: usize,
    /// Summed clamp cost of fixing the column where it is.
    in_place_cost: i64,
}

/// Runs the remapping pass.
///
/// `intended[l]` is layer `l`'s quantized weight matrix.
///
/// # Errors
///
/// Returns [`CompileError::InvalidFaultModel`] if the fault probabilities
/// fail [`FaultModel::validate`].
#[allow(clippy::too_many_lines)]
pub fn remap_pass(
    intended: &[QuantizedWeights],
    placement: &PlacementTable,
    opts: &RemapOptions,
) -> Result<RemapResult, CompileError> {
    opts.model
        .validate()
        .map_err(|e| CompileError::InvalidFaultModel(e.to_string()))?;

    let tile_rows = placement.tile_rows;
    // Weights are 8-bit on chip.
    let tile_cols = placement.tile_cols_w8;
    // (layer, row_tile, col_tile) → bank, for same-bank spare preference.
    let tile_bank: HashMap<(usize, usize, usize), usize> = placement
        .entries
        .iter()
        .map(|e| ((e.layer, e.row_tile, e.col_tile), e.bank))
        .collect();

    // Spare defect maps: spares are cells like any other.
    const SPARE_SALT: u64 = 0x5A5A_0001;
    let mut spares: Vec<Spare> = Vec::new();
    for bank in 0..placement.banks {
        for idx in 0..placement.spare_cols_w8 {
            let site = (bank * placement.spare_cols_w8 + idx) as u64;
            let map = FaultMap::sample(tile_rows, &opts.model, mix(opts.seed ^ SPARE_SALT, site));
            let mut defects: BTreeMap<usize, Vec<(usize, FaultKind)>> = BTreeMap::new();
            for &(r, cell, kind) in &map.faults {
                defects.entry(r).or_default().push((cell, kind));
            }
            spares.push(Spare {
                bank,
                idx,
                defects,
                used: false,
            });
        }
    }
    let spares_total = spares.len();
    let spares_clean = spares.iter().filter(|s| s.defects.is_empty()).count();

    let mut stored = Vec::with_capacity(intended.len());
    let mut effective = Vec::with_capacity(intended.len());
    let mut ledger = FaultLedger {
        seed: opts.seed,
        p_stuck_on: opts.model.p_stuck_on,
        p_stuck_off: opts.model.p_stuck_off,
        remap_enabled: opts.enable,
        spares_total,
        spares_clean,
        ..FaultLedger::default()
    };

    // Per-layer fault maps, grouped by weight; columns collected across
    // *all* layers so they compete globally for the spare pool.
    let mut by_weight_per_layer: Vec<HashMap<usize, Vec<(usize, FaultKind)>>> = Vec::new();
    let mut columns: Vec<FaultyColumn> = Vec::new();
    for (layer, qw) in intended.iter().enumerate() {
        let [_oc, fan] = qw.shape;
        let map = FaultMap::sample(qw.q.len(), &opts.model, mix(opts.seed, layer as u64));
        ledger.total_faults += map.len();

        let st = qw.q.clone();
        if !opts.enable {
            let mut eff = Vec::new();
            map.apply_into(&st, &mut eff);
            stored.push(st);
            effective.push(eff);
            ledger.residual_faulty_cells += map.len();
            by_weight_per_layer.push(HashMap::new());
            continue;
        }
        let eff = st.clone();
        stored.push(st);
        effective.push(eff);

        let mut by_weight: HashMap<usize, Vec<(usize, FaultKind)>> = HashMap::new();
        for &(w, cell, kind) in &map.faults {
            by_weight.entry(w).or_default().push((cell, kind));
        }
        // Column key (row_tile, out_col) → faulty weight indices; BTreeMap
        // keeps the collection order deterministic.
        let mut by_column: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        for &w in by_weight.keys() {
            let (o, r) = (w / fan, w % fan);
            by_column.entry((r / tile_rows, o)).or_default().push(w);
        }
        for ((row_tile, out_col), mut weights) in by_column {
            weights.sort_unstable();
            let in_place_cost = weights
                .iter()
                .map(|w| clamp_cost(intended[layer].q[*w], &by_weight[w]))
                .sum();
            let stuck_cells = weights.iter().map(|w| by_weight[w].len()).sum();
            columns.push(FaultyColumn {
                layer,
                row_tile,
                out_col,
                rows_used: (fan - row_tile * tile_rows).min(tile_rows),
                home_bank: tile_bank
                    .get(&(layer, row_tile, out_col / tile_cols))
                    .copied(),
                weights,
                stuck_cells,
                in_place_cost,
            });
        }
        by_weight_per_layer.push(by_weight);
    }

    // Worst-damaged columns pick their spares first; ties resolve by
    // position so the allocation is deterministic.
    columns.sort_by_key(|c| {
        (
            std::cmp::Reverse(c.in_place_cost),
            c.layer,
            c.row_tile,
            c.out_col,
        )
    });

    let clamp_in_place = |ledger: &mut FaultLedger,
                          stored: &mut [Vec<i8>],
                          effective: &mut [Vec<i8>],
                          layer: usize,
                          w: usize,
                          faults: &[(usize, FaultKind)]| {
        let (s_code, e_code) = clamp_code(intended[layer].q[w], faults);
        ledger.clamped.push(ClampedWeight {
            layer,
            index: w,
            intended: intended[layer].q[w],
            stored: s_code,
            effective: e_code,
        });
        stored[layer][w] = s_code;
        effective[layer][w] = e_code;
        ledger.residual_faulty_cells += faults.len();
    };

    for col in &columns {
        let fan = intended[col.layer].shape[1];
        // Hosting cost on each unused spare: the spare's own defects
        // clamp the rows they land on. Prefer (cost, same-bank, order).
        let mut pick: Option<(i64, bool, usize)> = None;
        for (si, s) in spares.iter().enumerate() {
            if s.used {
                continue;
            }
            let cost: i64 = s
                .defects
                .range(..col.rows_used)
                .map(|(&r, faults)| {
                    let w = col.out_col * fan + col.row_tile * tile_rows + r;
                    clamp_cost(intended[col.layer].q[w], faults)
                })
                .sum();
            let off_bank = Some(s.bank) != col.home_bank;
            let key = (cost, off_bank, si);
            if pick.is_none_or(|p| key < p) {
                pick = Some(key);
            }
        }
        match pick {
            // Relocate only when the spare strictly beats staying put —
            // a harmless in-place fault (cost 0) never burns a spare.
            Some((cost, _, si)) if cost < col.in_place_cost => {
                let spare = &mut spares[si];
                spare.used = true;
                ledger.relocated.push(RelocatedColumn {
                    layer: col.layer,
                    row_tile: col.row_tile,
                    out_col: col.out_col,
                    spare_bank: spare.bank,
                    spare_col: spare.idx,
                    stuck_cells: col.stuck_cells,
                });
                // Rows landing on spare defects are clamped against the
                // *spare's* faults; every other relocated code survives
                // intact.
                let defect_rows: Vec<(usize, Vec<(usize, FaultKind)>)> = spare
                    .defects
                    .range(..col.rows_used)
                    .map(|(&r, f)| (r, f.clone()))
                    .collect();
                for (r, faults) in defect_rows {
                    let w = col.out_col * fan + col.row_tile * tile_rows + r;
                    clamp_in_place(
                        &mut ledger,
                        &mut stored,
                        &mut effective,
                        col.layer,
                        w,
                        &faults,
                    );
                }
            }
            _ => {
                for &w in &col.weights {
                    let faults = by_weight_per_layer[col.layer][&w].clone();
                    clamp_in_place(
                        &mut ledger,
                        &mut stored,
                        &mut effective,
                        col.layer,
                        w,
                        &faults,
                    );
                }
            }
        }
    }
    // Deterministic ledger order regardless of the cost-driven visit
    // order above.
    ledger.clamped.sort_by_key(|c| (c.layer, c.index));
    ledger
        .relocated
        .sort_by_key(|r| (r.layer, r.row_tile, r.out_col));
    Ok(RemapResult {
        stored,
        effective,
        ledger,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::PlacementEntry;

    fn placement(banks: usize, spares: usize) -> PlacementTable {
        PlacementTable {
            tile_rows: 128,
            tile_cols_w8: 16,
            banks,
            spare_cols_w8: spares,
            entries: vec![PlacementEntry {
                layer: 0,
                row_tile: 0,
                col_tile: 0,
                bank: 0,
                slot: 0,
            }],
        }
    }

    fn qw(oc: usize, fan: usize, seed: i8) -> QuantizedWeights {
        QuantizedWeights {
            q: (0..oc * fan)
                .map(|i| (i as i8).wrapping_mul(7).wrapping_add(seed))
                .collect(),
            scale: 0.01,
            bits: 8,
            shape: [oc, fan],
        }
    }

    #[test]
    fn invalid_model_is_an_error_not_a_panic() {
        let opts = RemapOptions {
            model: FaultModel {
                p_stuck_on: 1.5,
                p_stuck_off: 0.0,
            },
            seed: 1,
            enable: true,
        };
        let err = remap_pass(&[qw(4, 8, 0)], &placement(16, 2), &opts);
        assert!(matches!(err, Err(CompileError::InvalidFaultModel(_))));
    }

    #[test]
    fn no_faults_is_identity() {
        let opts = RemapOptions {
            model: FaultModel::none(),
            seed: 1,
            enable: true,
        };
        let w = qw(16, 64, 3);
        let r = remap_pass(std::slice::from_ref(&w), &placement(16, 2), &opts).unwrap();
        assert_eq!(r.stored[0], w.q);
        assert_eq!(r.effective[0], w.q);
        assert!(r.ledger.relocated.is_empty() && r.ledger.clamped.is_empty());
    }

    #[test]
    fn disabled_remap_applies_faults_raw() {
        let model = FaultModel {
            p_stuck_on: 0.01,
            p_stuck_off: 0.01,
        };
        let opts = RemapOptions {
            model,
            seed: 7,
            enable: false,
        };
        let w = qw(16, 64, 1);
        let r = remap_pass(std::slice::from_ref(&w), &placement(16, 2), &opts).unwrap();
        assert_eq!(r.stored[0], w.q, "stored codes untouched");
        let map = FaultMap::sample(w.q.len(), &model, mix(7, 0));
        assert_eq!(r.effective[0], map.apply(&w.q));
        assert!(!r.ledger.remap_enabled);
    }

    #[test]
    fn relocation_restores_intended_codes() {
        // Plenty of spares: every damaging column must relocate, and a
        // column relocated onto a defect-free spare keeps its intended
        // codes exactly.
        let model = FaultModel {
            p_stuck_on: 0.005,
            p_stuck_off: 0.005,
        };
        let opts = RemapOptions {
            model,
            seed: 13,
            enable: true,
        };
        let w = qw(4, 32, 2);
        let r = remap_pass(std::slice::from_ref(&w), &placement(16, 8), &opts).unwrap();
        assert!(r.ledger.total_faults > 0, "need faults for this test");
        if r.ledger.clamped.is_empty() {
            assert_eq!(r.effective[0], w.q);
            assert!(!r.ledger.relocated.is_empty());
        }
    }

    #[test]
    fn clamping_beats_raw_faults() {
        // Zero spares: every faulty weight is clamped. The clamped
        // effective error must never exceed the raw fault error.
        let model = FaultModel {
            p_stuck_on: 0.02,
            p_stuck_off: 0.02,
        };
        let w = qw(16, 128, 5);
        let raw = remap_pass(
            std::slice::from_ref(&w),
            &placement(16, 0),
            &RemapOptions {
                model,
                seed: 21,
                enable: false,
            },
        )
        .unwrap();
        let fixed = remap_pass(
            std::slice::from_ref(&w),
            &placement(16, 0),
            &RemapOptions {
                model,
                seed: 21,
                enable: true,
            },
        )
        .unwrap();
        assert!(!fixed.ledger.clamped.is_empty());
        assert!(fixed.ledger.relocated.is_empty(), "no spares to use");
        let err = |eff: &[i8]| -> i64 {
            eff.iter()
                .zip(&w.q)
                .map(|(e, i)| (i64::from(*e) - i64::from(*i)).abs())
                .sum()
        };
        let (e_raw, e_fix) = (err(&raw.effective[0]), err(&fixed.effective[0]));
        assert!(e_fix <= e_raw, "clamped {e_fix} vs raw {e_raw}");
        assert!(e_fix < e_raw, "with ±128 sign faults clamping must win");
    }

    #[test]
    fn best_fit_uses_imperfect_spares() {
        // Dense faults: under the old all-or-nothing rule nearly every
        // spare tests dirty and worst-case sign clamps stay in place.
        // Best-fit must still relocate the damaging columns and keep the
        // total effective error below the pure-clamp floor.
        let model = FaultModel {
            p_stuck_on: 0.002,
            p_stuck_off: 0.002,
        };
        let w = qw(32, 128, 9);
        let opts = RemapOptions {
            model,
            seed: 33,
            enable: true,
        };
        let r = remap_pass(std::slice::from_ref(&w), &placement(16, 2), &opts).unwrap();
        assert!(r.ledger.total_faults > 0);
        assert!(
            !r.ledger.relocated.is_empty(),
            "best-fit found no usable spare among {} ({} defect-free)",
            r.ledger.spares_total,
            r.ledger.spares_clean
        );
        // Every relocation must have strictly beaten its in-place cost,
        // so total damage is bounded by the no-spare clamp floor.
        let no_spares = remap_pass(std::slice::from_ref(&w), &placement(16, 0), &opts).unwrap();
        let err = |eff: &[i8]| -> i64 {
            eff.iter()
                .zip(&w.q)
                .map(|(e, i)| (i64::from(*e) - i64::from(*i)).abs())
                .sum()
        };
        assert!(
            err(&r.effective[0]) < err(&no_spares.effective[0]),
            "spares {} vs none {}",
            err(&r.effective[0]),
            err(&no_spares.effective[0])
        );
    }

    #[test]
    fn harmless_faults_do_not_burn_spares() {
        // A stuck cell that already matches the intended bit clamps at
        // zero cost; relocating it would waste a spare another column
        // needs. Construct that case directly through the cost rule.
        let faults = vec![(0usize, FaultKind::StuckOn)];
        assert_eq!(clamp_cost(1, &faults), 0);
        let (s, e) = clamp_code(1, &faults);
        assert_eq!((s, e), (1, 1));
    }

    #[test]
    fn clamp_code_prefers_sign_preservation() {
        // Sign cell stuck ON: intended +100 reads back as −28 raw, and no
        // stored code can read back above −1 (high nibble ≤ −1). The
        // clamp must find that best reachable code.
        let faults = vec![(7usize, FaultKind::StuckOn)];
        let (stored, eff) = clamp_code(100, &faults);
        assert_eq!(read_back(stored, &faults), eff);
        assert_eq!(eff, -1, "closest reachable read-back, got {eff}");
        // When sign-preserving candidates exist, they win: low-nibble bit
        // stuck ON keeps positive codes available for a positive intent.
        let lo = vec![(0usize, FaultKind::StuckOn)];
        let (s1, e1) = clamp_code(2, &lo);
        assert_eq!(read_back(s1, &lo), e1);
        assert!(e1 > 0, "sign preserved, got {e1}");
        assert!((i32::from(e1) - 2).abs() <= 1);
        // Stuck cells that already match the intended bits cost nothing.
        let harmless = vec![(0usize, FaultKind::StuckOn)];
        let (s2, e2) = clamp_code(1, &harmless);
        assert_eq!((s2, e2), (1, 1));
    }
}
