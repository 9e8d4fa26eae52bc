//! Pass 2 — programming: ISPP write-verify per cell under variation.
//!
//! Every stored weight occupies 8 cells (two nibbles; 4 in 4-bit mode).
//! CurFe cells are SLC — two V_TH extremes; ChgFe cells target the
//! binary-weighted-current MLC ladder (√2 overdrive spacing). Blocking
//! '0' cells are the erased state in both designs and are never pulsed;
//! '1'/on cells get the ISPP loop. Each cell's verify sense-amp carries a
//! Gaussian offset `dv` (σ(V_TH) of the paper): the loop converges
//! against the *sensed* threshold, so the device lands at `target − dv`
//! and the true residual error is ≈ `|dv|` plus the verify tolerance
//! (capped at the erase level — ISPP only moves V_TH down from erase).
//!
//! The pass simulates the ISPP ladder once, as an [`IsppTrajectory`] of
//! the design's device model shared by every item: each cell is erased,
//! its exit pulse found in the table, and that one pulse applied. The
//! reports and device states are bit-identical to pulsing the ladder
//! cell by cell (`fefet_device::programming`).
//!
//! The pass records pulse counts, convergence, residual and write energy
//! per bank. Work is decomposed into **per-column items** (one output
//! column of one placed tile) run on the shared `par-exec` pool; each
//! item draws its offsets from its own stream keyed on
//! `(layer, row_tile, column)`, so the result is bit-identical at any
//! pool width *and* to the `force_serial` reference path, which runs the
//! very same items in the very same order on the caller thread.
//!
//! An incremental compile passes the base image's stored codes: cells
//! whose bit is unchanged draw their offset (keeping every stream
//! aligned with a full compile) but are never pulsed — the essence of
//! delta reprogramming under the endurance budget (DESIGN §17).

use crate::image::{BankProgramStats, PlacementTable};
use fefet_device::fefet::{FeFet, FeFetParams, Polarity};
use fefet_device::programming::{IsppConfig, IsppTrajectory, MlcCurrentLadder, SlcStates};
use fefet_device::variation::{VariationParams, VariationSampler};
use neural::imc_exec::ImcDesign;
use serde::{Deserialize, Serialize};

/// Programming-pass configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgramOptions {
    /// ISPP write-verify configuration.
    pub ispp: IsppConfig,
    /// Device variation (sense-offset σ).
    pub variation: VariationParams,
    /// Seed for the per-cell offset streams.
    pub seed: u64,
    /// Physically program every `stride`-th cell (1 = all). Larger
    /// strides *sample* the pulse/energy statistics — the stored codes
    /// are unaffected, only the manifest stats are subsampled.
    pub stride: usize,
    /// Run the per-column work items serially on the caller thread
    /// instead of the worker pool — the bit-identity reference the
    /// parallel path is tested against.
    pub force_serial: bool,
}

impl ProgramOptions {
    /// Paper conditions: full programming, σ(V_TH) = 40 mV, ISPP ladder.
    #[must_use]
    pub fn paper(seed: u64) -> Self {
        Self {
            ispp: IsppConfig::paper(),
            variation: VariationParams::paper(),
            seed,
            stride: 1,
            force_serial: false,
        }
    }
}

/// Chip-wide totals of the programming pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct ProgramTotals {
    /// Cells physically programmed.
    pub cells: u64,
    /// Total ISPP pulses.
    pub pulses: u64,
    /// Cells that never converged.
    pub unconverged: u64,
    /// Total write energy (J).
    pub energy_j: f64,
}

/// Per-cell V_TH targets for one design.
enum Targets {
    Slc(SlcStates),
    Mlc(MlcCurrentLadder),
}

impl Targets {
    fn for_design(design: ImcDesign) -> Self {
        match design {
            ImcDesign::CurFe => Self::Slc(SlcStates::paper()),
            ImcDesign::ChgFe => Self::Mlc(MlcCurrentLadder::paper()),
        }
    }

    /// Target V_TH of cell `cell` (0..cells_per_weight) holding `bit`.
    fn vth(&self, cell: usize, bit: bool) -> f64 {
        match self {
            Self::Slc(s) => s.vth_for(bit),
            // MLC: the ladder is per nibble-bit significance; the sign
            // cell (significance 3 of the high nibble) uses the MSB state.
            Self::Mlc(l) => l.vth_for(cell % 4, bit),
        }
    }

    /// Whether this cell state is the blocking '0' — i.e. the erased
    /// state, which is never pulse-programmed (both designs share one
    /// high-V_TH off state that erase restores directly).
    fn is_erased_state(bit: bool) -> bool {
        !bit
    }
}

fn device_for(design: ImcDesign) -> FeFet {
    let params = match design {
        ImcDesign::CurFe => FeFetParams::nfefet_40nm(),
        ImcDesign::ChgFe => FeFetParams::nfefet_mlc_40nm(),
    };
    FeFet::new(params, Polarity::N)
}

/// The cell bits of a stored code, LSB-first: low nibble then high
/// nibble, the sign bit last. Only the first `n` entries of the returned
/// `(bits, n)` are cells: 8 at W8, 4 at W4.
///
/// # Panics
///
/// Panics at W4 if `w` is outside the signed nibble's `-8..=7`.
fn cell_bits(w: i8, weight_bits: u32) -> ([bool; 8], usize) {
    let n = if weight_bits == 8 {
        8
    } else {
        assert!((-8..=7).contains(&w), "signed nibble out of range: {w}");
        4
    };
    let u = w as u8;
    (std::array::from_fn(|i| (u >> i) & 1 != 0), n)
}

/// Number of physical cells whose bit differs between two stored codes —
/// the per-weight unit of the delta-compile touched-cell count.
#[must_use]
pub fn changed_cells(a: i8, b: i8, weight_bits: u32) -> u64 {
    let ((x, n), (y, _)) = (cell_bits(a, weight_bits), cell_bits(b, weight_bits));
    x[..n].iter().zip(&y[..n]).filter(|(p, q)| p != q).count() as u64
}

/// Physical cells per stored weight.
#[must_use]
pub fn cells_per_weight(weight_bits: u32) -> u64 {
    if weight_bits == 8 {
        8
    } else {
        4
    }
}

/// SplitMix64 hop: one deterministic 64-bit mix for per-item seeding.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One unit of programming work: one output column of one placed tile.
#[derive(Clone, Copy)]
struct ColItem {
    layer: usize,
    row_tile: usize,
    bank: usize,
    /// Absolute output channel.
    o: usize,
    /// Absolute row range `[r0, r1)` within the layer's fan.
    r0: usize,
    r1: usize,
}

struct ColStats {
    bank: usize,
    cells: u64,
    pulses: u64,
    max_pulses: u64,
    unconverged: u64,
    sum_abs_residual: f64,
    max_abs_residual: f64,
    energy: f64,
}

/// Runs the programming pass over every placed tile.
///
/// `stored[l]` are layer `l`'s driven codes; `shapes[l]` is `[oc, fan]`.
/// `base[l]`, when present, are the codes already on the chip: only
/// cells whose bit differs are pulsed (an incremental compile); offset
/// streams stay aligned with the full-compile case either way.
///
/// # Panics
///
/// Panics if `opts.stride == 0` or a placement entry indexes outside
/// `stored`/`shapes`.
#[must_use]
pub fn program_pass(
    stored: &[Vec<i8>],
    base: Option<&[Vec<i8>]>,
    shapes: &[[usize; 2]],
    placement: &PlacementTable,
    design: ImcDesign,
    weight_bits: u32,
    opts: &ProgramOptions,
) -> (Vec<BankProgramStats>, ProgramTotals) {
    assert!(opts.stride > 0, "stride must be at least 1");
    let tile_cols = if weight_bits == 8 {
        placement.tile_cols_w8
    } else {
        placement.tile_cols_w8 * 2
    };
    let tile_rows = placement.tile_rows;

    // Flatten tiles into per-column items. The item list order is the
    // canonical serial order; `par_map` returns results in input order,
    // so aggregation below is identical on both paths.
    let mut items: Vec<ColItem> = Vec::new();
    for entry in &placement.entries {
        let [oc, fan] = shapes[entry.layer];
        let r0 = entry.row_tile * tile_rows;
        let r1 = (r0 + tile_rows).min(fan);
        let c0 = entry.col_tile * tile_cols;
        let c1 = (c0 + tile_cols).min(oc);
        for o in c0..c1 {
            items.push(ColItem {
                layer: entry.layer,
                row_tile: entry.row_tile,
                bank: entry.bank,
                o,
                r0,
                r1,
            });
        }
    }

    // One pulse ladder serves every cell of the pass: the cells share
    // one device model, and each write starts from erase.
    let trajectory = IsppTrajectory::new(&device_for(design), &opts.ispp);
    let run_item = |item: &ColItem| -> ColStats {
        let [_oc, fan] = shapes[item.layer];
        let codes = &stored[item.layer];
        let targets = Targets::for_design(design);
        let mut dev = device_for(design);
        // Per-column offset stream: deterministic whatever the pool
        // width, and independent of which other columns run where.
        let salt = ((item.layer as u64) << 40) | ((item.row_tile as u64) << 20) | item.o as u64;
        let mut sampler = VariationSampler::new(opts.variation, mix(opts.seed, salt));
        // ISPP only moves V_TH *down* from erase; a sense offset can push
        // the commanded target above the erased level, which no pulse
        // ladder reaches. Real controllers accept the erased state there.
        dev.erase();
        let v_erase = dev.vth();
        let mut s = ColStats {
            bank: item.bank,
            cells: 0,
            pulses: 0,
            max_pulses: 0,
            unconverged: 0,
            sum_abs_residual: 0.0,
            max_abs_residual: 0.0,
            energy: 0.0,
        };
        let mut cell_counter = 0usize;
        for r in item.r0..item.r1 {
            let w = codes[item.o * fan + r];
            let old_bits = base.map(|b| cell_bits(b[item.layer][item.o * fan + r], weight_bits).0);
            let (bits, n) = cell_bits(w, weight_bits);
            for (cell, &bit) in bits[..n].iter().enumerate() {
                // The offset is drawn per cell even when skipped (by
                // stride *or* by an unchanged delta bit), so every
                // variant sees the same per-cell offsets.
                let dv = sampler.vth_offset();
                cell_counter += 1;
                if !(cell_counter - 1).is_multiple_of(opts.stride) {
                    continue;
                }
                if old_bits.is_some_and(|old| old[cell] == bit) {
                    continue; // already on the chip — delta skip
                }
                let target = targets.vth(cell, bit);
                s.cells += 1;
                if Targets::is_erased_state(bit) {
                    // '0' cells stay erased: no pulses, no energy —
                    // the residual is the erase level's distance from
                    // the nominal off state.
                    let residual = (v_erase - target).abs();
                    s.sum_abs_residual += residual;
                    s.max_abs_residual = s.max_abs_residual.max(residual);
                    continue;
                }
                // Verify senses `vth + dv`: program against the
                // offset-shifted target, capped at the erase level.
                let rep = trajectory.program(&mut dev, (target - dv).min(v_erase));
                let residual = (rep.vth - target).abs();
                s.pulses += rep.pulses as u64;
                s.max_pulses = s.max_pulses.max(rep.pulses as u64);
                if !rep.converged {
                    s.unconverged += 1;
                }
                s.sum_abs_residual += residual;
                s.max_abs_residual = s.max_abs_residual.max(residual);
                s.energy += rep.energy;
            }
        }
        s
    };

    let per_col: Vec<ColStats> = if opts.force_serial {
        items.iter().map(run_item).collect()
    } else {
        par_exec::par_map(&items, run_item)
    };

    let mut by_bank: Vec<BankProgramStats> = Vec::new();
    let mut totals = ProgramTotals::default();
    let mut residual_sums = std::collections::BTreeMap::new();
    for t in &per_col {
        totals.cells += t.cells;
        totals.pulses += t.pulses;
        totals.unconverged += t.unconverged;
        totals.energy_j += t.energy;
        let (stats, sum) = residual_sums
            .entry(t.bank)
            .or_insert_with(|| (BankProgramStats::default(), 0.0f64));
        stats.bank = t.bank;
        stats.cells += t.cells;
        stats.pulses += t.pulses;
        stats.max_pulses = stats.max_pulses.max(t.max_pulses);
        stats.unconverged += t.unconverged;
        stats.max_abs_residual_v = stats.max_abs_residual_v.max(t.max_abs_residual);
        stats.energy_j += t.energy;
        *sum += t.sum_abs_residual;
    }
    for (_, (mut stats, sum)) in residual_sums {
        if stats.cells > 0 {
            stats.mean_abs_residual_v = sum / stats.cells as f64;
        }
        by_bank.push(stats);
    }
    (by_bank, totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::PlacementEntry;

    fn one_tile_placement(banks: usize) -> PlacementTable {
        PlacementTable {
            tile_rows: 128,
            tile_cols_w8: 16,
            banks,
            spare_cols_w8: 2,
            entries: vec![PlacementEntry {
                layer: 0,
                row_tile: 0,
                col_tile: 0,
                bank: 0,
                slot: 0,
            }],
        }
    }

    #[test]
    fn slc_cells_program_within_tolerance() {
        let stored = vec![vec![0x35i8; 8 * 4]]; // 8 cols × 4 rows worth
        let shapes = [[8usize, 4usize]];
        let opts = ProgramOptions::paper(3);
        let (banks, totals) = program_pass(
            &stored,
            None,
            &shapes,
            &one_tile_placement(16),
            ImcDesign::CurFe,
            8,
            &opts,
        );
        assert_eq!(totals.cells, 8 * 4 * 8);
        assert_eq!(banks.len(), 1);
        let b = &banks[0];
        assert_eq!(b.cells, totals.cells);
        assert!(b.pulses > 0);
        assert!(b.energy_j > 0.0);
        // Residual ≈ |sense offset| (σ = 40 mV) + tolerance: the mean
        // should sit near E|N(0, σ)| ≈ 32 mV, far below 200 mV.
        assert!(b.mean_abs_residual_v > 0.001, "{}", b.mean_abs_residual_v);
        assert!(b.mean_abs_residual_v < 0.2, "{}", b.mean_abs_residual_v);
        assert!(
            totals.unconverged as f64 <= 0.05 * totals.cells as f64,
            "{} of {} cells unconverged",
            totals.unconverged,
            totals.cells
        );
    }

    #[test]
    fn stride_subsamples_but_keeps_offsets_aligned() {
        let stored = vec![vec![-77i8; 16 * 8]];
        let shapes = [[16usize, 8usize]];
        let full = program_pass(
            &stored,
            None,
            &shapes,
            &one_tile_placement(16),
            ImcDesign::ChgFe,
            8,
            &ProgramOptions::paper(5),
        );
        let mut opts = ProgramOptions::paper(5);
        opts.stride = 4;
        let sub = program_pass(
            &stored,
            None,
            &shapes,
            &one_tile_placement(16),
            ImcDesign::ChgFe,
            8,
            &opts,
        );
        assert_eq!(full.1.cells, 16 * 8 * 8);
        assert_eq!(sub.1.cells, 16 * 8 * 8 / 4);
        // Same per-cell offset stream: the strided mean residual sits in
        // the same regime as the full pass.
        let (f, s) = (full.0[0].mean_abs_residual_v, sub.0[0].mean_abs_residual_v);
        assert!((f - s).abs() < 0.03, "full {f} vs strided {s}");
    }

    #[test]
    fn pass_is_deterministic_across_runs() {
        let stored = vec![vec![42i8; 8 * 4]];
        let shapes = [[8usize, 4usize]];
        let opts = ProgramOptions::paper(11);
        let run = || {
            program_pass(
                &stored,
                None,
                &shapes,
                &one_tile_placement(16),
                ImcDesign::CurFe,
                8,
                &opts,
            )
        };
        let (a, ta) = run();
        let (b, tb) = run();
        assert_eq!(ta, tb);
        assert_eq!(a, b);
    }

    #[test]
    fn serial_and_parallel_are_bit_identical() {
        let stored = vec![(0..24 * 16).map(|i| (i % 251) as i8).collect::<Vec<i8>>()];
        let shapes = [[24usize, 16usize]];
        let mut opts = ProgramOptions::paper(17);
        let par = program_pass(
            &stored,
            None,
            &shapes,
            &one_tile_placement(16),
            ImcDesign::ChgFe,
            8,
            &opts,
        );
        opts.force_serial = true;
        let ser = program_pass(
            &stored,
            None,
            &shapes,
            &one_tile_placement(16),
            ImcDesign::ChgFe,
            8,
            &opts,
        );
        assert_eq!(par.0, ser.0, "per-bank stats must match bit-for-bit");
        assert_eq!(par.1, ser.1, "totals must match bit-for-bit");
    }

    /// Deterministic codes in `lo..=hi` for the golden cases.
    fn golden_codes(n: usize, salt: u64, lo: i8, hi: i8) -> Vec<i8> {
        let span = (i16::from(hi) - i16::from(lo) + 1) as u64;
        (0..n as u64)
            .map(|i| (i64::from(lo) + (mix(salt, i) % span) as i64) as i8)
            .collect()
    }

    /// Two layers (`[12, 40]` and `[6, 12]`) over four banks, with two
    /// row tiles and two column tiles on layer 0 at W8.
    fn golden_placement() -> PlacementTable {
        let e = |layer, row_tile, col_tile, bank| PlacementEntry {
            layer,
            row_tile,
            col_tile,
            bank,
            slot: 0,
        };
        PlacementTable {
            tile_rows: 32,
            tile_cols_w8: 8,
            banks: 4,
            spare_cols_w8: 2,
            entries: vec![
                e(0, 0, 0, 0),
                e(0, 0, 1, 1),
                e(0, 1, 0, 2),
                e(0, 1, 1, 3),
                e(1, 0, 0, 1),
            ],
        }
    }

    const GOLDEN_SHAPES: [[usize; 2]; 2] = [[12, 40], [6, 12]];

    fn golden_pass(
        stored: &[Vec<i8>],
        base: Option<&[Vec<i8>]>,
        design: ImcDesign,
        weight_bits: u32,
        stride: usize,
    ) -> (Vec<BankProgramStats>, ProgramTotals) {
        let mut opts = ProgramOptions::paper(29);
        opts.stride = stride;
        program_pass(
            stored,
            base,
            &GOLDEN_SHAPES,
            &golden_placement(),
            design,
            weight_bits,
            &opts,
        )
    }

    /// Every field of the pass's output, f64s as their bits.
    fn golden_bits(out: &(Vec<BankProgramStats>, ProgramTotals)) -> Vec<[u64; 8]> {
        let (banks, t) = out;
        let mut rows: Vec<[u64; 8]> = banks
            .iter()
            .map(|b| {
                [
                    b.bank as u64,
                    b.cells,
                    b.pulses,
                    b.max_pulses,
                    b.unconverged,
                    b.mean_abs_residual_v.to_bits(),
                    b.max_abs_residual_v.to_bits(),
                    b.energy_j.to_bits(),
                ]
            })
            .collect();
        rows.push([
            t.cells,
            t.pulses,
            t.unconverged,
            t.energy_j.to_bits(),
            0,
            0,
            0,
            0,
        ]);
        rows
    }

    fn stats(
        bank: usize,
        cells: u64,
        pulses: u64,
        max_pulses: u64,
        unconverged: u64,
        [mean_abs_residual_v, max_abs_residual_v, energy_j]: [f64; 3],
    ) -> BankProgramStats {
        BankProgramStats {
            bank,
            cells,
            pulses,
            max_pulses,
            unconverged,
            mean_abs_residual_v,
            max_abs_residual_v,
            energy_j,
        }
    }

    fn totals(cells: u64, pulses: u64, unconverged: u64, energy_j: f64) -> ProgramTotals {
        ProgramTotals {
            cells,
            pulses,
            unconverged,
            energy_j,
        }
    }

    fn golden_w8() -> Vec<Vec<i8>> {
        GOLDEN_SHAPES
            .iter()
            .enumerate()
            .map(|(l, [oc, fan])| golden_codes(oc * fan, l as u64, i8::MIN, i8::MAX))
            .collect()
    }

    // The three golden cases pin every pulse count, residual and energy
    // of the programming pass, bit for bit: a change to how cells are
    // written (not to what they store) must leave them all unmoved.

    #[test]
    fn golden_chgfe_w8_full_pass() {
        let want = (
            vec![
                stats(
                    0,
                    2048,
                    158_788,
                    298,
                    0,
                    [0.015869715675579054, 0.1553450393899226, 1.45837476652e-10],
                ),
                stats(
                    1,
                    1600,
                    123_068,
                    315,
                    0,
                    [
                        0.015500402965684543,
                        0.14281074665666849,
                        1.1128216671200002e-10,
                    ],
                ),
                stats(
                    2,
                    512,
                    37_237,
                    278,
                    0,
                    [0.017385508771592822, 0.13985801813692111, 3.3224283376e-11],
                ),
                stats(
                    3,
                    256,
                    19_964,
                    282,
                    0,
                    [
                        0.015399647712466626,
                        0.12122887728688592,
                        1.8374131171999998e-11,
                    ],
                ),
            ],
            totals(4416, 339_057, 0, 3.0871805791200003e-10),
        );
        let got = golden_pass(&golden_w8(), None, ImcDesign::ChgFe, 8, 1);
        assert_eq!(golden_bits(&got), golden_bits(&want), "{got:?}");
    }

    #[test]
    fn golden_curfe_w4_strided_pass() {
        let w4: Vec<Vec<i8>> = GOLDEN_SHAPES
            .iter()
            .enumerate()
            .map(|(l, [oc, fan])| golden_codes(oc * fan, 10 + l as u64, -8, 7))
            .collect();
        let want = (
            vec![
                stats(
                    0,
                    384,
                    41_497,
                    400,
                    1,
                    [0.015044955895791348, 0.11827127613435462, 5.6405233576e-11],
                ),
                stats(
                    1,
                    72,
                    7788,
                    273,
                    0,
                    [0.01661642391894548, 0.09815880704185542, 1.0504872228e-11],
                ),
                stats(
                    2,
                    96,
                    11_529,
                    400,
                    1,
                    [
                        0.01696626991004926,
                        0.11827127613435462,
                        1.6013949983999998e-11,
                    ],
                ),
            ],
            totals(552, 60_814, 2, 8.2924055788e-11),
        );
        let got = golden_pass(&w4, None, ImcDesign::CurFe, 4, 4);
        assert_eq!(golden_bits(&got), golden_bits(&want), "{got:?}");
    }

    #[test]
    fn golden_chgfe_delta_pass() {
        let base = golden_w8();
        let mut next = base.clone();
        for (l, layer) in next.iter_mut().enumerate() {
            for (i, w) in layer.iter_mut().enumerate() {
                if mix(20 + l as u64, i as u64).is_multiple_of(5) {
                    *w = w.wrapping_add(37);
                }
            }
        }
        let want = (
            vec![
                stats(
                    0,
                    272,
                    19_558,
                    260,
                    0,
                    [0.014829747407333102, 0.10551180701231677, 1.683105718e-11],
                ),
                stats(
                    1,
                    176,
                    14_189,
                    254,
                    0,
                    [0.015015858422890372, 0.13533052719811645, 1.2707048576e-11],
                ),
                stats(
                    2,
                    76,
                    5405,
                    227,
                    0,
                    [0.015891554504492294, 0.11720045399858292, 4.563415844e-12],
                ),
                stats(
                    3,
                    30,
                    2250,
                    262,
                    0,
                    [
                        0.01812606928858894,
                        0.08594864449460737,
                        1.9860483719999996e-12,
                    ],
                ),
            ],
            totals(554, 41_402, 0, 3.6087569971999996e-11),
        );
        let got = golden_pass(&next, Some(&base), ImcDesign::ChgFe, 8, 1);
        assert_eq!(golden_bits(&got), golden_bits(&want), "{got:?}");
    }

    #[test]
    fn cell_bits_are_the_stored_nibbles_bits() {
        use imc_core::weights::{SignedNibble, SplitWeight};
        for w in i8::MIN..=i8::MAX {
            let sw = SplitWeight::split(w);
            let want: Vec<bool> = sw.low.bits().into_iter().chain(sw.high.bits()).collect();
            let (bits, n) = cell_bits(w, 8);
            assert_eq!(bits[..n], want[..], "W8 code {w}");
        }
        for w in -8..=7 {
            let (bits, n) = cell_bits(w, 4);
            assert_eq!(bits[..n], SignedNibble::new(w).bits(), "W4 code {w}");
        }
    }

    #[test]
    fn delta_base_skips_unchanged_cells() {
        let base: Vec<i8> = (0..16 * 8).map(|i| (i % 97) as i8).collect();
        let mut next = base.clone();
        // Change a handful of weights; the rest are already on the chip.
        next[3] = next[3].wrapping_add(1);
        next[40] = 0;
        next[100] = -100;
        let shapes = [[16usize, 8usize]];
        let opts = ProgramOptions::paper(23);
        let full = program_pass(
            &[next.clone()],
            None,
            &shapes,
            &one_tile_placement(16),
            ImcDesign::ChgFe,
            8,
            &opts,
        );
        let delta = program_pass(
            &[next.clone()],
            Some(std::slice::from_ref(&base)),
            &shapes,
            &one_tile_placement(16),
            ImcDesign::ChgFe,
            8,
            &opts,
        );
        let expect: u64 = base
            .iter()
            .zip(&next)
            .map(|(a, b)| changed_cells(*a, *b, 8))
            .sum();
        assert!(expect > 0 && expect < full.1.cells);
        assert_eq!(delta.1.cells, expect, "only changed bits are pulsed");
        // Identical codes → a true no-op.
        let noop = program_pass(
            &[next.clone()],
            Some(&[next.clone()]),
            &shapes,
            &one_tile_placement(16),
            ImcDesign::ChgFe,
            8,
            &opts,
        );
        assert_eq!(noop.1.cells, 0);
        assert_eq!(noop.1.pulses, 0);
    }
}
