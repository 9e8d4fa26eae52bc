//! FeFET write schemes: SLC/MLC state targeting with write-verify.
//!
//! CurFe stores single-level cells (SLC): a low-V_TH '1' and a high-V_TH
//! '0'. ChgFe needs four *binary-weighted-current* MLC states: the low-V_TH
//! ('1') states of the nFeFETs on bit columns 0–3 are programmed so that
//! the saturation ON currents at the read voltage follow `I_j = 2^j · I₀`.
//! Since `I_sat ≈ β/(2n)·(V_read − V_TH)²`, the overdrives must follow a
//! `√2` geometric ladder: `V_TH,j = V_read − OV₀·√(2^j)`.
//!
//! The write procedure follows the incremental-step pulse programming with
//! verify (ISPP) style of Reis et al. (IEEE JxCDC'19): starting from the
//! erased state, pulses of increasing amplitude are applied until a read
//! confirms the target V_TH within tolerance.
//!
//! From erase, the ladder's V_TH after `k` pulses depends on `k` alone
//! (see [`IsppTrajectory`]), so the ladder is simulated once per device
//! model and configuration, and each write scans that table and lands
//! the cell with one real pulse.

use crate::fefet::{FeFet, FeFetParams};
use serde::{Deserialize, Serialize};

/// Outcome of a write-verify programming operation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WriteReport {
    /// Achieved threshold voltage (V).
    pub vth: f64,
    /// Number of program pulses applied (not counting the erase).
    pub pulses: usize,
    /// Total write energy estimate (J), from C_FE·V² per pulse.
    pub energy: f64,
    /// Whether the verify loop converged within the pulse budget.
    pub converged: bool,
}

/// Incremental-step pulse programming configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IsppConfig {
    /// First pulse amplitude (V).
    pub v_start: f64,
    /// Amplitude increment per step (V).
    pub v_step: f64,
    /// Pulse width (s).
    pub width: f64,
    /// V_TH acceptance tolerance (V).
    pub tolerance: f64,
    /// Maximum number of pulses before giving up.
    pub max_pulses: usize,
    /// Effective ferroelectric gate capacitance (F) for write-energy
    /// accounting.
    pub c_gate: f64,
}

impl IsppConfig {
    /// The write configuration used throughout the paper's experiments:
    /// 100 ns pulses starting at 0.4 V in 7.5 mV steps, 10 mV verify
    /// tolerance. The fine ladder resolves every MLC state of the
    /// binary-weighted-current scheme (the V_TH-vs-amplitude slope of the
    /// hysteresis model peaks near 1.3 V/V, so a 7.5 mV amplitude step
    /// moves V_TH by at most ~10 mV).
    #[must_use]
    pub fn paper() -> Self {
        Self {
            v_start: 0.4,
            v_step: 0.006,
            width: 1.0e-7,
            tolerance: 0.010,
            max_pulses: 400,
            c_gate: 1.0e-15,
        }
    }
}

impl Default for IsppConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// One rung of an [`IsppTrajectory`]: the loop's state after a pulse.
#[derive(Debug, Clone, Copy, PartialEq)]
struct IsppStep {
    /// V_TH read after this pulse (V).
    vth: f64,
    /// Amplitude of this pulse (V).
    amp: f64,
    /// Write energy of the ladder up to and including this pulse (J).
    energy: f64,
}

/// The ISPP write-verify ladder of one device model, simulated once.
///
/// ISPP always starts from erase, and there the Preisach history is
/// empty and the branch ascending. Pulse `k`'s rising edge reaches a
/// field `E_k ≥ E_{k−1}`, which wipes out the previous pulse's two
/// turning points, so the polarization after it is the major ascending
/// branch at `E_k` and the falling edge then depends on `E_k` alone.
/// V_TH after `k` pulses is therefore the same for every cell of the
/// model, and so is the device state: erasing a cell and applying pulse
/// `k` alone leaves it bit for bit where the ladder's first `k` pulses
/// would. [`IsppTrajectory::program`] scans the table with the loop's
/// exit tests and applies that one landing pulse.
#[derive(Debug, Clone, PartialEq)]
pub struct IsppTrajectory {
    params: FeFetParams,
    width: f64,
    tolerance: f64,
    /// `steps[k]`: the state after pulse `k + 1`; `max_pulses` entries.
    steps: Vec<IsppStep>,
}

impl IsppTrajectory {
    /// Runs the whole amplitude ladder (`cfg.max_pulses` pulses) on an
    /// erased clone of `device`.
    ///
    /// # Panics
    ///
    /// Panics unless every pulse field is positive and non-decreasing,
    /// the premise that makes the table exact: `cfg.v_start > 0`,
    /// `cfg.v_step ≥ 0` and a positive ferroelectric thickness.
    #[must_use]
    pub fn new(device: &FeFet, cfg: &IsppConfig) -> Self {
        let params = *device.params();
        assert!(
            cfg.v_start > 0.0 && cfg.v_step >= 0.0 && params.t_fe > 0.0,
            "ISPP needs a rising ladder of positive fields: v_start {} V, v_step {} V, t_fe {} m",
            cfg.v_start,
            cfg.v_step,
            params.t_fe
        );
        let mut dev = device.clone();
        dev.erase();
        let mut energy = 0.0;
        let steps = (0..cfg.max_pulses)
            .map(|step| {
                let amp = cfg.v_start + cfg.v_step * step as f64;
                // n-type: positive pulses lower V_TH. We always program
                // "down" from erase, which is the monotone ISPP direction.
                let vth = dev.program_pulse(amp, cfg.width);
                energy += cfg.c_gate * amp * amp;
                IsppStep { vth, amp, energy }
            })
            .collect();
        Self {
            params,
            width: cfg.width,
            tolerance: cfg.tolerance,
            steps,
        }
    }

    /// Programs `device` to the target threshold voltage with erase +
    /// ISPP: the device is erased (driving it to its highest V_TH for
    /// n-type), then the ladder's pulses of increasing amplitude
    /// partially switch the ferroelectric until the verify read sees
    /// `|V_TH − target| ≤ tolerance`. Only the last of those pulses is
    /// applied; the report counts them all.
    ///
    /// An unreachable target is reported through
    /// `WriteReport::converged == false`, so callers can decide whether
    /// a best-effort state is acceptable (C-INTERMEDIATE).
    ///
    /// # Panics
    ///
    /// Panics if `device` is not of the model the trajectory was built
    /// from.
    pub fn program(&self, device: &mut FeFet, target: f64) -> WriteReport {
        assert_eq!(
            device.params(),
            &self.params,
            "an ISPP trajectory programs only its own device model"
        );
        device.erase();
        let tol = self.tolerance;
        // The erased state may already satisfy a high-V_TH target.
        if (device.vth() - target).abs() <= tol {
            return WriteReport {
                vth: device.vth(),
                pulses: 0,
                energy: 0.0,
                converged: true,
            };
        }
        for (k, s) in self.steps.iter().enumerate() {
            if (s.vth - target).abs() <= tol {
                return self.land(device, k, true);
            }
            // Overshot: V_TH already below target and still moving down
            // means the ladder skipped over the window. Report best effort.
            if s.vth < target - tol {
                return self.land(device, k, false);
            }
        }
        match self.steps.len() {
            0 => WriteReport {
                vth: device.vth(),
                pulses: 0,
                energy: 0.0,
                converged: false,
            },
            n => self.land(device, n - 1, false),
        }
    }

    /// Applies pulse `k + 1` of the ladder to the erased `device`, which
    /// leaves it where the ladder's first `k + 1` pulses would.
    fn land(&self, device: &mut FeFet, k: usize, converged: bool) -> WriteReport {
        let s = self.steps[k];
        WriteReport {
            vth: device.program_pulse(s.amp, self.width),
            pulses: k + 1,
            energy: s.energy,
            converged,
        }
    }
}

/// Programs `device` to the target threshold voltage with erase + ISPP:
/// the one-shot form of [`IsppTrajectory::program`], which builds the
/// trajectory for this one write. Programming many cells of one model,
/// build the trajectory once instead.
///
/// # Panics
///
/// Panics on a configuration [`IsppTrajectory::new`] rejects.
pub fn program_vth(device: &mut FeFet, target: f64, cfg: &IsppConfig) -> WriteReport {
    IsppTrajectory::new(device, cfg).program(device, target)
}

/// SLC state assignment for the CurFe `1nFeFET1R` cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlcStates {
    /// Low V_TH: stores weight bit '1' (conducting at read).
    pub vth_low: f64,
    /// High V_TH: stores weight bit '0' (blocking at read).
    pub vth_high: f64,
}

impl SlcStates {
    /// The paper's SLC states: the extremes of the 1.4 V memory window
    /// around V_TH0 = 1.0 V, read at V_WL = 1.2 V.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            vth_low: 0.35,
            vth_high: 1.771,
        }
    }

    /// The V_TH for a stored bit.
    #[must_use]
    pub fn vth_for(&self, bit: bool) -> f64 {
        if bit {
            self.vth_low
        } else {
            self.vth_high
        }
    }
}

impl Default for SlcStates {
    fn default() -> Self {
        Self::paper()
    }
}

/// MLC state ladder for ChgFe's binary-weighted-current nFeFET cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlcCurrentLadder {
    /// Read (wordline) voltage (V).
    pub v_read: f64,
    /// Target ON current of bit 0 (A).
    pub i_unit: f64,
    /// The low-V_TH ('1') state for each bit significance 0..=3.
    pub vth_on: [f64; 4],
    /// The shared high-V_TH ('0', blocking) state.
    pub vth_off: f64,
}

impl MlcCurrentLadder {
    /// Computes the ladder for a device with transconductance `beta` and
    /// slope factor `n`, such that `I_j = 2^j · i_unit` at `v_read`
    /// (square-law approximation, λ ignored for targeting; the verify loop
    /// absorbs the residual).
    ///
    /// # Panics
    ///
    /// Panics if `i_unit`, `beta` or `n` are not strictly positive, or if
    /// the required overdrive exceeds `v_read` (state not reachable).
    #[must_use]
    pub fn for_device(v_read: f64, i_unit: f64, beta: f64, n: f64, vth_off: f64) -> Self {
        assert!(i_unit > 0.0 && beta > 0.0 && n > 0.0);
        let mut vth_on = [0.0; 4];
        for (j, slot) in vth_on.iter_mut().enumerate() {
            let i_target = i_unit * f64::from(1u32 << j);
            let ov = (2.0 * n * i_target / beta).sqrt();
            assert!(
                ov < v_read,
                "bit {j} needs overdrive {ov:.3} V ≥ read voltage {v_read} V"
            );
            *slot = v_read - ov;
        }
        Self {
            v_read,
            i_unit,
            vth_on,
            vth_off,
        }
    }

    /// The ladder used by the paper-parameterized ChgFe cell: 1.4 V read,
    /// I₀ = 0.15 µA with [`crate::fefet::FeFetParams::nfefet_mlc_40nm`].
    #[must_use]
    pub fn paper() -> Self {
        let p = crate::fefet::FeFetParams::nfefet_mlc_40nm();
        Self::for_device(1.4, 0.15e-6, p.beta, p.n, 1.771)
    }

    /// V_TH for a stored bit at significance `bit` (0–3).
    ///
    /// # Panics
    ///
    /// Panics if `bit > 3`.
    #[must_use]
    pub fn vth_for(&self, bit: usize, value: bool) -> f64 {
        assert!(bit < 4, "ChgFe nibble has bit significances 0..=3");
        if value {
            self.vth_on[bit]
        } else {
            self.vth_off
        }
    }
}

/// Programs a device to an SLC state and verifies.
pub fn program_slc(
    device: &mut FeFet,
    bit: bool,
    states: &SlcStates,
    cfg: &IsppConfig,
) -> WriteReport {
    program_vth(device, states.vth_for(bit), cfg)
}

/// Programs a ChgFe MLC device to the ON state of bit-significance `bit`
/// (or the shared OFF state when `value` is false) and verifies.
///
/// # Panics
///
/// Panics if `bit > 3`.
pub fn program_mlc(
    device: &mut FeFet,
    bit: usize,
    value: bool,
    ladder: &MlcCurrentLadder,
    cfg: &IsppConfig,
) -> WriteReport {
    program_vth(device, ladder.vth_for(bit, value), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fefet::{FeFetParams, Polarity};

    fn n_dev() -> FeFet {
        FeFet::new(FeFetParams::nfefet_40nm(), Polarity::N)
    }

    fn mlc_dev() -> FeFet {
        FeFet::new(FeFetParams::nfefet_mlc_40nm(), Polarity::N)
    }

    #[test]
    fn ispp_converges_to_slc_low() {
        let mut d = n_dev();
        let rep = program_slc(&mut d, true, &SlcStates::paper(), &IsppConfig::paper());
        assert!(rep.converged, "vth={} pulses={}", rep.vth, rep.pulses);
        assert!((rep.vth - SlcStates::paper().vth_low).abs() <= IsppConfig::paper().tolerance);
        assert!(rep.pulses > 0);
        assert!(rep.energy > 0.0);
    }

    #[test]
    fn ispp_converges_to_slc_high() {
        let mut d = n_dev();
        let rep = program_slc(&mut d, false, &SlcStates::paper(), &IsppConfig::paper());
        assert!(rep.converged);
        assert!((rep.vth - SlcStates::paper().vth_high).abs() <= 0.05);
    }

    #[test]
    fn mlc_ladder_targets_binary_weighted_currents() {
        let ladder = MlcCurrentLadder::paper();
        let cfg = IsppConfig::paper();
        let mut currents = Vec::new();
        for bit in 0..4 {
            let mut d = mlc_dev();
            let rep = program_mlc(&mut d, bit, true, &ladder, &cfg);
            assert!(rep.converged, "bit {bit} did not converge: {rep:?}");
            currents.push(d.on_current(ladder.v_read, 1.5));
        }
        for j in 1..4 {
            let ratio = currents[j] / currents[j - 1];
            assert!(
                (ratio - 2.0).abs() < 0.25,
                "bit {j}: ratio {ratio:.3} (currents {currents:?})"
            );
        }
        // Absolute anchor: I₀ close to 0.15 µA.
        assert!(
            (currents[0] - 0.15e-6).abs() < 0.06e-6,
            "I0 = {:.3e}",
            currents[0]
        );
    }

    #[test]
    fn mlc_off_state_blocks() {
        let ladder = MlcCurrentLadder::paper();
        let mut d = mlc_dev();
        program_mlc(&mut d, 3, false, &ladder, &IsppConfig::paper());
        let i_off = d.on_current(ladder.v_read, 1.5);
        let mut d_on = mlc_dev();
        program_mlc(&mut d_on, 0, true, &ladder, &IsppConfig::paper());
        let i_on_lsb = d_on.on_current(ladder.v_read, 1.5);
        assert!(i_on_lsb / i_off > 1.0e3, "on/off = {}", i_on_lsb / i_off);
    }

    #[test]
    fn ladder_overdrives_follow_sqrt2() {
        let ladder = MlcCurrentLadder::paper();
        let ov: Vec<f64> = ladder.vth_on.iter().map(|v| ladder.v_read - v).collect();
        for j in 1..4 {
            let r = ov[j] / ov[j - 1];
            assert!((r - std::f64::consts::SQRT_2).abs() < 1e-9);
        }
    }

    #[test]
    fn unreachable_target_reports_not_converged() {
        let mut d = n_dev();
        // Target far below the memory window.
        let rep = program_vth(&mut d, -2.0, &IsppConfig::paper());
        assert!(!rep.converged);
    }

    #[test]
    #[should_panic(expected = "ChgFe nibble")]
    fn vth_for_bad_bit_panics() {
        let _ = MlcCurrentLadder::paper().vth_for(4, true);
    }

    /// The pulse-by-pulse ISPP loop: the oracle [`IsppTrajectory`] must
    /// reproduce bit for bit.
    fn pulse_by_pulse(device: &mut FeFet, target: f64, cfg: &IsppConfig) -> WriteReport {
        device.erase();
        let mut energy = 0.0;
        let mut pulses = 0;
        if (device.vth() - target).abs() <= cfg.tolerance {
            return WriteReport {
                vth: device.vth(),
                pulses,
                energy,
                converged: true,
            };
        }
        for step in 0..cfg.max_pulses {
            let amp = cfg.v_start + cfg.v_step * step as f64;
            device.program_pulse(amp, cfg.width);
            energy += cfg.c_gate * amp * amp;
            pulses += 1;
            let vth = device.vth();
            if (vth - target).abs() <= cfg.tolerance {
                return WriteReport {
                    vth,
                    pulses,
                    energy,
                    converged: true,
                };
            }
            if vth < target - cfg.tolerance {
                return WriteReport {
                    vth,
                    pulses,
                    energy,
                    converged: false,
                };
            }
        }
        WriteReport {
            vth: device.vth(),
            pulses,
            energy,
            converged: false,
        }
    }

    fn report_bits(r: &WriteReport) -> (u64, usize, u64, bool) {
        (r.vth.to_bits(), r.pulses, r.energy.to_bits(), r.converged)
    }

    /// SplitMix64 stream of uniform draws in `[lo, hi)`.
    fn uniform(seed: u64, lo: f64, hi: f64) -> impl Iterator<Item = f64> {
        (1u64..).map(move |i| {
            let mut z = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            lo + (hi - lo) * ((z >> 11) as f64 / (1u64 << 53) as f64)
        })
    }

    #[test]
    fn trajectory_matches_the_pulse_by_pulse_loop() {
        let paper = IsppConfig::paper();
        let configs = [
            paper,
            // Coarse steps skip over the verify window: overshoots.
            IsppConfig {
                v_step: 0.1,
                ..paper
            },
            // A flat ladder repeats one amplitude.
            IsppConfig {
                v_step: 0.0,
                v_start: 1.5,
                max_pulses: 20,
                ..paper
            },
            IsppConfig {
                max_pulses: 1,
                ..paper
            },
            IsppConfig {
                max_pulses: 0,
                ..paper
            },
        ];
        let devices = [
            FeFet::new(FeFetParams::nfefet_40nm(), Polarity::N),
            FeFet::new(FeFetParams::nfefet_mlc_40nm(), Polarity::N),
            FeFet::new(FeFetParams::pfefet_mlc_40nm(), Polarity::P),
        ];
        let slc = SlcStates::paper();
        let ladder = MlcCurrentLadder::paper();
        // Calls that pulse, land within tolerance, overshoot, and run
        // out of pulses: every exit of the loop must be taken.
        let (mut zero, mut converged, mut overshot, mut exhausted) = (0, 0, 0, 0);
        for (d, dev) in devices.iter().enumerate() {
            let mut erased = dev.clone();
            erased.erase();
            let v_erase = erased.vth();
            for (c, cfg) in configs.iter().enumerate() {
                let tol = cfg.tolerance;
                let mut fixed = vec![v_erase, slc.vth_low, slc.vth_high, -2.0, 0.1];
                fixed.extend(ladder.vth_on);
                for edge in [v_erase - tol, v_erase + tol] {
                    fixed.extend([edge.next_down(), edge, edge.next_up()]);
                }
                let random = uniform(((d as u64) << 8) | c as u64, 0.0, 2.0);
                let n_random = if c == 0 { 3000 } else { 600 };
                // Interleave fixed (often 0-pulse) and random (pulsed)
                // targets on one reused device pair.
                let targets: Vec<f64> = random
                    .take(n_random)
                    .enumerate()
                    .flat_map(|(i, t)| [t, fixed[i % fixed.len()]])
                    .collect();
                let trajectory = IsppTrajectory::new(dev, cfg);
                let (mut oracle_dev, mut dev_t) = (dev.clone(), dev.clone());
                for &target in &targets {
                    let want = pulse_by_pulse(&mut oracle_dev, target, cfg);
                    let got = trajectory.program(&mut dev_t, target);
                    assert_eq!(
                        report_bits(&got),
                        report_bits(&want),
                        "device {d}, config {c}, target {target}: {got:?} vs {want:?}"
                    );
                    assert!(
                        dev_t == oracle_dev,
                        "device {d}, config {c}, target {target}"
                    );
                    match want {
                        WriteReport { pulses: 0, .. } => zero += 1,
                        WriteReport {
                            converged: true, ..
                        } => converged += 1,
                        WriteReport { pulses, .. } if pulses < cfg.max_pulses => overshot += 1,
                        _ => exhausted += 1,
                    }
                }
                let mut one_shot = dev.clone();
                let t = ladder.vth_on[1];
                assert_eq!(
                    report_bits(&program_vth(&mut one_shot, t, cfg)),
                    report_bits(&pulse_by_pulse(&mut oracle_dev, t, cfg))
                );
                assert!(one_shot == oracle_dev);
            }
        }
        assert!(
            zero > 0 && converged > 0 && overshot > 0 && exhausted > 0,
            "{zero} 0-pulse, {converged} converged, {overshot} overshot, {exhausted} exhausted"
        );
    }

    #[test]
    #[should_panic(expected = "rising ladder")]
    fn trajectory_rejects_a_falling_ladder() {
        let cfg = IsppConfig {
            v_step: -0.001,
            ..IsppConfig::paper()
        };
        let _ = IsppTrajectory::new(&n_dev(), &cfg);
    }

    #[test]
    fn write_energy_increases_with_pulse_count() {
        let cfg = IsppConfig::paper();
        let mut d1 = n_dev();
        let deep = program_vth(&mut d1, 0.35, &cfg);
        let mut d2 = n_dev();
        let shallow = program_vth(&mut d2, 1.0, &cfg);
        assert!(deep.pulses > shallow.pulses);
        assert!(deep.energy > shallow.energy);
    }
}
