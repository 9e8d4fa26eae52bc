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
use fefet_device::programming::{program_vth, IsppConfig, MlcCurrentLadder, SlcStates};
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

/// The 8 (or 4) cell bits of a stored code, LSB-first: low nibble then
/// high nibble, the sign bit last.
fn cell_bits(w: i8, weight_bits: u32) -> Vec<bool> {
    if weight_bits == 8 {
        let sw = imc_core::weights::SplitWeight::split(w);
        let lo = sw.low.bits();
        let hi = sw.high.bits();
        lo.iter().chain(hi.iter()).copied().collect()
    } else {
        imc_core::weights::SignedNibble::new(w).bits().to_vec()
    }
}

/// Number of physical cells whose bit differs between two stored codes —
/// the per-weight unit of the delta-compile touched-cell count.
#[must_use]
pub fn changed_cells(a: i8, b: i8, weight_bits: u32) -> u64 {
    cell_bits(a, weight_bits)
        .iter()
        .zip(cell_bits(b, weight_bits).iter())
        .filter(|(x, y)| x != y)
        .count() as u64
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
            let old_bits = base.map(|b| cell_bits(b[item.layer][item.o * fan + r], weight_bits));
            for (cell, bit) in cell_bits(w, weight_bits).into_iter().enumerate() {
                // The offset is drawn per cell even when skipped (by
                // stride *or* by an unchanged delta bit), so every
                // variant sees the same per-cell offsets.
                let dv = sampler.vth_offset();
                cell_counter += 1;
                if !(cell_counter - 1).is_multiple_of(opts.stride) {
                    continue;
                }
                if let Some(old) = &old_bits {
                    if old[cell] == bit {
                        continue; // already on the chip — delta skip
                    }
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
                let rep = program_vth(&mut dev, (target - dv).min(v_erase), &opts.ispp);
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
        opts.stride = 8; // keep the debug-mode ISPP loop cheap
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
