//! Calibration of the closed-form model's physical inputs against
//! `analog-sim` transients of the paper's row-slice circuits.
//!
//! The macro energy model is linear in `banks × rows` over a handful of
//! per-row physical quantities: the CurFe unit cell current into the
//! TIA virtual ground, the CurFe sign-column supply charge, the ChgFe
//! bitline pre-charge restoration, the ChgFe unit ΔV per input pulse,
//! and the charge-share result the shift-add rides on. Each fixture
//! item pins one of those quantities: `predicted` is the closed form
//! the cost model uses, `measured` is the same quantity extracted from
//! a SPICE-level transient (supply energies via
//! [`analog_sim::measure::source_energy`], node voltages from the
//! waveform), and the item's tolerance is the accuracy claim the crate
//! tests enforce. Sweeping the weight pattern sweeps the number of
//! active unit cells (1–15 per block), which is the single-row image of
//! an array-geometry sweep; the macro closed form then scales linearly
//! in `rows` and `banks`, and the ADC term is swept analytically in
//! [`imc_core::energy`] (see its tests) because the SAR converter is
//! behavioural, not a netlist element.
//!
//! The checked-in fixture (`fixtures/calibration.json`) stores the
//! measured values so the tolerance tests run without re-simulating;
//! a slower test regenerates the transients and fails if the simulator
//! and the fixture drift apart. Regenerate with
//! `imc-cost calibrate --write crates/cost/fixtures/calibration.json`.

use analog_sim::measure::source_energy;
use analog_sim::transient::{transient, TransientOptions};
use fefet_device::variation::{VariationParams, VariationSampler};
use imc_core::circuit::{chgfe_row_circuit, curfe_row_circuit};
use imc_core::config::{ChgFeConfig, CurFeConfig};
use imc_core::energy::Variant;
use imc_core::weights::SplitWeight;
use serde::{Deserialize, Serialize};

/// Fixture format version.
pub const FIXTURE_VERSION: u32 = 1;
/// Transient resolution used for every calibration waveform.
pub const FIXTURE_STEPS: usize = 800;
/// The checked-in calibration fixture.
pub const FIXTURE_JSON: &str = include_str!("../fixtures/calibration.json");

/// Effective CurFe wordline pulse width (s): 1.9 ns flat top plus the
/// two 0.1 ns edges' trapezoidal halves.
const CURFE_PULSE_S: f64 = 2.0e-9;
/// Mid-pulse sampling time for the CurFe TIA outputs (s).
const CURFE_SAMPLE_T: f64 = 2.5e-9;

/// One calibrated quantity: a closed-form prediction, the transient
/// measurement it must track, and the tolerance of that claim.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CalibrationItem {
    /// `curfe` or `chgfe`.
    pub variant: String,
    /// What is being measured (`vddi_energy_j`, `block_current_a`,
    /// `restore_charge_j`, `vddq_energy_j`, `bl_delta_v`,
    /// `share_drop_v`).
    pub quantity: String,
    /// The programmed row weight.
    pub weight: i8,
    /// Block index (0 = L4B, 1 = H4B) or bitline index, per quantity.
    pub index: usize,
    /// Closed-form prediction.
    pub predicted: f64,
    /// Transient measurement.
    pub measured: f64,
    /// Relative tolerance of the claim (`|p−m| ≤ rel·|p| + abs`).
    pub rel_tolerance: f64,
    /// Absolute tolerance floor (same unit as the quantity).
    pub abs_floor: f64,
}

impl CalibrationItem {
    /// Whether the prediction is within the item's stated tolerance of
    /// the measurement.
    #[must_use]
    pub fn holds(&self) -> bool {
        (self.predicted - self.measured).abs()
            <= self.rel_tolerance * self.predicted.abs() + self.abs_floor
    }
}

/// The full calibration fixture.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CalibrationFixture {
    /// Fixture format version.
    pub version: u32,
    /// Transient steps each waveform was computed with.
    pub steps: usize,
    /// The calibrated quantities.
    pub items: Vec<CalibrationItem>,
}

impl CalibrationFixture {
    /// Returns a violation message per item whose closed form falls
    /// outside its stated tolerance (empty = calibration holds).
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        self.items
            .iter()
            .filter(|i| !i.holds())
            .map(|i| {
                format!(
                    "{}/{} weight {:#04x} idx {}: predicted {:.4e} vs measured {:.4e} \
                     (tol {:.0}% + {:.1e})",
                    i.variant,
                    i.quantity,
                    i.weight as u8,
                    i.index,
                    i.predicted,
                    i.measured,
                    i.rel_tolerance * 100.0,
                    i.abs_floor
                )
            })
            .collect()
    }
}

/// Parses the checked-in fixture.
///
/// # Panics
///
/// Panics if the embedded JSON is malformed (a build artifact error).
#[must_use]
pub fn stored_fixture() -> CalibrationFixture {
    serde_json::from_str(FIXTURE_JSON).expect("embedded calibration fixture parses")
}

/// Data-block unit count of one nibble: Σ 2^j over set bits (sign
/// excluded for H4B).
fn block_units(weight: i8, block: usize) -> f64 {
    let sw = SplitWeight::split(weight);
    let bits = if block == 0 {
        sw.low.bits().to_vec()
    } else {
        sw.high.bits()[..3].to_vec()
    };
    bits.iter()
        .enumerate()
        .map(|(j, &b)| if b { (1u32 << j) as f64 } else { 0.0 })
        .sum()
}

/// ΔV in units-of-significance a ChgFe bitline discharges for `weight`
/// (sign bitline 7 is handled by the caller).
fn chgfe_bl_significance(weight: i8, bl: usize) -> f64 {
    let sw = SplitWeight::split(weight);
    let (bit, j) = if bl < 4 {
        (sw.low.bits()[bl], bl)
    } else {
        (sw.high.bits()[bl - 4], bl - 4)
    };
    if bit {
        (1u32 << j) as f64
    } else {
        0.0
    }
}

struct CurFeMeasure {
    e_vddi: f64,
    block_current: [f64; 2],
}

fn measure_curfe(cfg: &CurFeConfig, weight: i8) -> CurFeMeasure {
    let mut s = VariationSampler::new(VariationParams::none(), 0);
    let circ = curfe_row_circuit(cfg, weight, &mut s);
    let wave = transient(
        &circ.netlist,
        &TransientOptions::new(circ.t_stop, FIXTURE_STEPS),
    )
    .expect("CurFe calibration transient converges");
    // Element order in curfe_row_circuit: 0 = V_cm, 1 = VDD_i, 2 = WL,
    // 3 = WLS.
    let e_vddi = source_energy(&circ.netlist, &wave, 1);
    let read = |node| {
        let v = wave
            .voltage(node, CURFE_SAMPLE_T)
            .expect("mid-pulse sample inside the waveform");
        (v - cfg.v_cm) / cfg.r_out
    };
    CurFeMeasure {
        e_vddi,
        block_current: [read(circ.out_l4), read(circ.out_h4)],
    }
}

struct ChgFeMeasure {
    e_vddq: f64,
    bl_delta_v: [f64; 8],
    bl_final_drop: [f64; 8],
    share_drop: [f64; 2],
}

fn measure_chgfe(cfg: &ChgFeConfig, weight: i8) -> ChgFeMeasure {
    let mut s = VariationSampler::new(VariationParams::none(), 0);
    let circ = chgfe_row_circuit(cfg, weight, &mut s);
    let wave = transient(
        &circ.netlist,
        &TransientOptions::new(circ.t_stop, FIXTURE_STEPS),
    )
    .expect("ChgFe calibration transient converges");
    // Element order in chgfe_row_circuit: 0 = V_pre, 1 = VDD_q, 2 = WL,
    // 3 = WLS.
    let e_vddq = source_energy(&circ.netlist, &wave, 1);
    let drop_at = |bl: usize, t: f64| {
        cfg.v_pre
            - wave
                .voltage(circ.bl[bl], t)
                .expect("bitline sample inside the waveform")
    };
    let mut bl_delta_v = [0.0; 8];
    for (j, d) in bl_delta_v.iter_mut().enumerate() {
        *d = drop_at(j, circ.t_input_end);
    }
    // After sharing settles every bitline of a block sits at the block
    // voltage; read one representative per block at the end, and every
    // bitline's final droop for the restoration-charge item.
    let t_end = circ.t_stop * 0.999;
    let mut bl_final_drop = [0.0; 8];
    for (j, d) in bl_final_drop.iter_mut().enumerate() {
        *d = drop_at(j, t_end);
    }
    ChgFeMeasure {
        e_vddq,
        bl_delta_v,
        bl_final_drop,
        share_drop: [drop_at(1, t_end), drop_at(5, t_end)],
    }
}

/// Regenerates the calibration fixture by running the transients.
#[must_use]
pub fn generate_fixture() -> CalibrationFixture {
    let ccfg = CurFeConfig::paper();
    let qcfg = ChgFeConfig::paper();
    let unit_i = ccfg.unit_current();
    let dv_unit = qcfg.unit_delta_v();
    let mut items = Vec::new();

    // ---- CurFe: supply energy + TIA block currents. ----
    for &w in &[-128i8, 0x33, 0x0F, 0x77] {
        let m = measure_curfe(&ccfg, w);
        let sign = SplitWeight::split(w).high.bits()[3];
        // Sign column: 8 units of conductance from VDD_i into the
        // virtual ground, for the 2 ns pulse.
        let predicted = if sign {
            (ccfg.vdd_i - ccfg.v_cm) / (ccfg.r_base / 8.0) * ccfg.vdd_i * CURFE_PULSE_S
        } else {
            0.0
        };
        items.push(CalibrationItem {
            variant: Variant::CurFe.name().into(),
            quantity: "vddi_energy_j".into(),
            weight: w,
            index: 0,
            predicted,
            measured: m.e_vddi,
            rel_tolerance: 0.15,
            abs_floor: 2.0e-17,
        });
        if !sign {
            // Data blocks: mid-pulse TIA current = units × I_unit
            // (Eq. 3/4). Skipped for sign weights, whose H4B current
            // superposes the negative sign contribution.
            for block in 0..2usize {
                items.push(CalibrationItem {
                    variant: Variant::CurFe.name().into(),
                    quantity: "block_current_a".into(),
                    weight: w,
                    index: block,
                    predicted: block_units(w, block) * unit_i,
                    measured: m.block_current[block],
                    rel_tolerance: 0.05,
                    // Floor covers the off-state leakage of a fully
                    // unprogrammed block (~6 nA at 40 nm).
                    abs_floor: 1.0e-8,
                });
            }
        }
    }

    // ---- ChgFe: pre-charge restoration, sign charge, unit ΔV,
    // charge-share result. ----
    for &w in &[0x00i8, 0x7F, -128] {
        let m = measure_chgfe(&qcfg, w);
        // The per-cycle pre-charge restoration — the model's ChgFe
        // array term — is `V_pre · C_BL · Σ ΔV_j`: the charge the
        // supply must put back after the cycle. It cannot be read off
        // the V_pre source in a single-shot transient (the DC operating
        // point starts with the bitlines already pre-charged), so it is
        // pinned through charge conservation: the summed final bitline
        // droop across the share network must equal the closed-form
        // discharge `Σ 2^(j mod 4) · ΔV_unit`. Sign weights are
        // excluded — the sign column moves charge in from VDD_q, which
        // the `vddq_energy_j` item prices directly.
        let sign = SplitWeight::split(w).high.bits()[3];
        if !sign {
            let sig_total: f64 = (0..7).map(|bl| chgfe_bl_significance(w, bl)).sum();
            let measured_droop: f64 = m.bl_final_drop.iter().sum();
            items.push(CalibrationItem {
                variant: Variant::ChgFe.name().into(),
                quantity: "restore_charge_j".into(),
                weight: w,
                index: 0,
                predicted: qcfg.v_pre * qcfg.c_bl * sig_total * dv_unit,
                measured: qcfg.v_pre * qcfg.c_bl * measured_droop,
                rel_tolerance: 0.15,
                abs_floor: 5.0e-18,
            });
        }
        items.push(CalibrationItem {
            variant: Variant::ChgFe.name().into(),
            quantity: "vddq_energy_j".into(),
            weight: w,
            index: 0,
            predicted: if sign {
                8.0 * qcfg.unit_current() * qcfg.vdd_q * qcfg.t_in
            } else {
                0.0
            },
            measured: m.e_vddq,
            rel_tolerance: 0.30,
            abs_floor: 2.0e-16,
        });
        if w == 0x7F {
            // All data bits on, sign off: every bitline discharges by
            // its significance × the unit ΔV = I_unit·t_in/C_BL.
            for bl in 0..8usize {
                let sig = if bl == 7 {
                    0.0
                } else {
                    chgfe_bl_significance(w, bl)
                };
                items.push(CalibrationItem {
                    variant: Variant::ChgFe.name().into(),
                    quantity: "bl_delta_v".into(),
                    weight: w,
                    index: bl,
                    predicted: sig * dv_unit,
                    measured: m.bl_delta_v[bl],
                    rel_tolerance: 0.15,
                    abs_floor: 2.0e-4,
                });
            }
            // Charge sharing averages the block's ΔVs — the inherent
            // shift-add (Eq. 5/6). L4B: (1+2+4+8)/4; H4B: (1+2+4+0)/4.
            for (block, sig_avg) in [(0usize, 15.0 / 4.0), (1, 7.0 / 4.0)] {
                items.push(CalibrationItem {
                    variant: Variant::ChgFe.name().into(),
                    quantity: "share_drop_v".into(),
                    weight: w,
                    index: block,
                    predicted: sig_avg * dv_unit,
                    measured: m.share_drop[block],
                    rel_tolerance: 0.15,
                    abs_floor: 2.0e-4,
                });
            }
        }
    }

    CalibrationFixture {
        version: FIXTURE_VERSION,
        steps: FIXTURE_STEPS,
        items,
    }
}

/// Renders a fixture as a human-readable calibration report.
#[must_use]
pub fn render_report(fix: &CalibrationFixture) -> String {
    let mut s = String::from(
        "design  quantity         weight  idx  predicted     measured      err%   tol%\n",
    );
    for i in &fix.items {
        let err = if i.measured.abs() > 0.0 {
            (i.predicted - i.measured).abs() / i.measured.abs() * 100.0
        } else {
            0.0
        };
        s.push_str(&format!(
            "{:<6}  {:<15}  {:>6}  {:>3}  {:>12.4e}  {:>12.4e}  {:>5.1}  {:>5.0}\n",
            i.variant,
            i.quantity,
            format!("{:#04x}", i.weight as u8),
            i.index,
            i.predicted,
            i.measured,
            err,
            i.rel_tolerance * 100.0,
        ));
    }
    s
}
