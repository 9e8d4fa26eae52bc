//! The macro cost model: per-cycle energy, cycle time and die area for
//! any CurFe or ChgFe geometry → TOPS/W (Fig. 9 and the Table 1 macro
//! rows) and TOPS/mm².
//!
//! The energy side follows the component style of NeuroSim/ISSCC macro
//! papers: per input-bit cycle, the whole macro (all banks operating in
//! parallel) spends energy in
//!
//! * the **array** — CurFe: static cell currents through the supplies;
//!   ChgFe: bitline pre-charge restoration plus the sign-column charge
//!   from `VDD_q`;
//! * the **readout front-end** — CurFe: TIA bias; ChgFe: pre-charge
//!   transistor gating and charge-share TGs;
//! * the **ADCs** — one 2CM + one N2CM SAR conversion per bank
//!   (`E = e_bit·b + e_cdac·2^b`, the usual comparator+CDAC split);
//! * **wordline drivers**, the **accumulation modules** and the
//!   **reference bank**.
//!
//! Constants are calibrated so the paper-default points land on the
//! Table 1 anchors — CurFe 12.18 TOPS/W and ChgFe 14.47 TOPS/W at
//! (8b input, 8b weight) — and the calibration is pinned by unit tests
//! (`imc-cost::calibrate` pins the per-row physical inputs against
//! `analog-sim` transients). One MAC = 2 OPs, the Table 1 counting
//! convention.
//!
//! The cycle time is coupled to the ADC: a SAR converter resolves one
//! bit per comparator cycle, so `t_cycle = t_analog + bits · t_sar_bit`.
//! At the paper's 5-bit operating point this lands exactly on the
//! published 5 ns (CurFe) / 7 ns (ChgFe) MAC cycles; sweeping the
//! resolution moves both the ADC energy *and* — for CurFe, whose cell
//! and TIA currents are static — the array energy, which is the real
//! throughput/efficiency tension the paper discusses.
//!
//! The area side follows the ZigZag-IMC `AimcArrayUnit` style: an
//! empirical SAR-ADC area law `10^(k1·bits + k2) · 2^bits` (28 nm,
//! scaled to this repo's 40 nm node by `(40/28)²`) plus per-cell and
//! per-bank periphery footprints.

use crate::config::{ChgFeConfig, CurFeConfig};
use serde::{Deserialize, Serialize};

/// SAR ADC comparator/logic energy per resolved bit (J).
const ADC_E_PER_BIT: f64 = 16.0e-15;
/// SAR ADC capacitive-DAC energy unit (J, scaled by 2^bits).
const ADC_E_CDAC: f64 = 1.2e-15;
/// Wordline driver load capacitance (F).
const WL_CAP: f64 = 2.0e-15;
/// Accumulation-module energy per bank per cycle (J).
const ACC_E_PER_CYCLE: f64 = 31.0e-15;
/// Reference-bank energy per macro per cycle (J).
const REF_BANK_E: f64 = 0.30e-12;
/// Switch-matrix / TG control energy per macro per cycle (J).
const SWITCH_E: f64 = 0.10e-12;
/// CurFe TIA bias current per TIA (A).
const TIA_BIAS_A: f64 = 17.0e-6;
/// CurFe TIA/array supply voltage (V).
const CURFE_SUPPLY_V: f64 = 1.0;
/// ChgFe pre-charge-transistor gate capacitance (F).
const PCT_GATE_CAP_F: f64 = 3.1e-15;
/// ChgFe gate-drive swing of the PCT clock (V).
const PCT_SWING_V: f64 = 2.5;

/// Seconds of analog settling per MAC cycle before conversion starts:
/// wordline ramp + cell current settling into the TIA virtual ground.
const CURFE_ANALOG_PHASE_S: f64 = 2.0e-9;
/// ChgFe needs pre-charge, the input window, and charge-share settling.
const CHGFE_ANALOG_PHASE_S: f64 = 4.0e-9;
/// SAR conversion time per resolved bit (comparator + CDAC settle).
const SAR_S_PER_BIT: f64 = 0.6e-9;

/// 40 nm feature size in µm², for cell footprints quoted in F².
const F2_UM2: f64 = 0.040 * 0.040;
/// CurFe 1T1R cell: FeFET plus the poly drain resistor (60 F²).
const CURFE_CELL_UM2: f64 = 60.0 * F2_UM2;
/// ChgFe 1T MLC cell (30 F²).
const CHGFE_CELL_UM2: f64 = 30.0 * F2_UM2;
/// One TIA (opamp + feedback ladder), µm².
const TIA_UM2: f64 = 120.0;
/// ChgFe per-bank pre-charge transistors + charge-share TGs, µm².
const PCT_TG_BANK_UM2: f64 = 12.0;
/// Per-bank shift-add/accumulation logic, µm².
const ACC_BANK_UM2: f64 = 80.0;
/// Macro-level reference bank + switch matrix, µm².
const MACRO_OVERHEAD_UM2: f64 = 500.0;
/// ZigZag-IMC SAR area law exponent slope (28 nm).
const ADC_AREA_K1: f64 = -0.0369;
/// ZigZag-IMC SAR area law exponent intercept (28 nm).
const ADC_AREA_K2: f64 = 1.206;
/// Area scaling from the 28 nm law to this repo's 40 nm node.
const ADC_NODE_SCALE: f64 = (40.0 / 28.0) * (40.0 / 28.0);

/// Average switching activities used for "average energy efficiency".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Activity {
    /// Probability that an input bit is 1.
    pub input_density: f64,
    /// Probability that a weight bit is 1.
    pub weight_density: f64,
}

impl Activity {
    /// The 50/50 activity used for the paper's average-efficiency figures.
    #[must_use]
    pub fn average() -> Self {
        Self {
            input_density: 0.5,
            weight_density: 0.5,
        }
    }
}

impl Default for Activity {
    fn default() -> Self {
        Self::average()
    }
}

/// Per-cycle energy breakdown of the whole macro (J).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct EnergyBreakdown {
    /// Array cell energy (static currents / pre-charge restoration).
    pub array: f64,
    /// Readout front end (TIA bias / PCT+TG gating).
    pub frontend: f64,
    /// All ADC conversions.
    pub adc: f64,
    /// Wordline drivers.
    pub wordline: f64,
    /// Accumulation modules.
    pub accumulator: f64,
    /// Reference bank + switch matrix.
    pub other: f64,
}

impl EnergyBreakdown {
    /// Total cycle energy (J).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.array + self.frontend + self.adc + self.wordline + self.accumulator + self.other
    }
}

/// Weight-precision mode for throughput/efficiency accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WeightBits {
    /// 4-bit weights: H4B and L4B carry independent channels → 2× MACs
    /// per cycle.
    W4,
    /// 8-bit weights: H4B+L4B combine into one channel.
    W8,
}

impl WeightBits {
    /// Bit width.
    #[must_use]
    pub fn bits(self) -> u32 {
        match self {
            Self::W4 => 4,
            Self::W8 => 8,
        }
    }
}

/// Dynamic input-sparsity optimization, after the performance-scaling
/// scheme of Yue et al. (ISSCC'20) — the Table 1 footnote "with sparse
/// optimization".
///
/// Two mechanisms are modelled (see [`DesignPoint::evaluate_sparse`]):
///
/// * zero inputs never toggle their wordlines and draw no cell current
///   (this falls out of the activity model), and
/// * when every activated row of a bank carries a 0 bit this cycle, the
///   bank's ADC pair and accumulator are clock-gated
///   (`p_gate = (1 − α_bit)^rows`).
///
/// OPs are still counted at the dense workload (the usual convention for
/// sparsity-scaled TOPS/W), so efficiency rises with sparsity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SparsityModel {
    /// Fraction of *zero-valued* inputs (0 = dense).
    pub input_sparsity: f64,
    /// Bit density of the non-zero inputs (0.5 for uniform values).
    pub nonzero_bit_density: f64,
}

impl SparsityModel {
    /// A dense workload (no optimization effect).
    #[must_use]
    pub fn dense() -> Self {
        Self {
            input_sparsity: 0.0,
            nonzero_bit_density: 0.5,
        }
    }

    /// A ReLU-heavy DNN workload: ~60 % zero activations.
    #[must_use]
    pub fn relu_dnn() -> Self {
        Self {
            input_sparsity: 0.6,
            nonzero_bit_density: 0.5,
        }
    }

    /// Effective per-bit input activity.
    #[must_use]
    pub fn bit_activity(&self) -> f64 {
        (1.0 - self.input_sparsity) * self.nonzero_bit_density
    }

    /// Probability that a bank's `rows` activated rows are all zero this
    /// cycle (its ADC pair + accumulator are gated).
    #[must_use]
    pub fn gate_probability(&self, rows: usize) -> f64 {
        (1.0 - self.bit_activity()).powi(rows as i32)
    }
}

impl Default for SparsityModel {
    fn default() -> Self {
        Self::dense()
    }
}

/// Which macro design a cost query is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Variant {
    /// Current-domain design: TIA readout, static cell currents.
    CurFe,
    /// Charge-domain design: pre-charged bitlines, charge sharing.
    ChgFe,
}

impl Variant {
    /// Canonical lowercase name (`curfe` / `chgfe`), as used by
    /// `ImcSettings.design` in chip images.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::CurFe => "curfe",
            Self::ChgFe => "chgfe",
        }
    }

    /// Parses a design name (case-insensitive).
    ///
    /// # Errors
    ///
    /// Fails on anything but `curfe` / `chgfe`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "curfe" => Ok(Self::CurFe),
            "chgfe" => Ok(Self::ChgFe),
            other => Err(format!("unknown design `{other}` (curfe|chgfe)")),
        }
    }

    /// Analog phase of the MAC cycle (s), before SAR conversion.
    #[must_use]
    pub fn analog_phase_s(self) -> f64 {
        match self {
            Self::CurFe => CURFE_ANALOG_PHASE_S,
            Self::ChgFe => CHGFE_ANALOG_PHASE_S,
        }
    }
}

/// One candidate macro configuration — the unit of pricing and DSE.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignPoint {
    /// Macro design.
    pub variant: Variant,
    /// Parallel banks (each with its own ADC pair + accumulator).
    pub banks: usize,
    /// Rows activated per bank per cycle.
    pub rows: usize,
    /// Stacked H4B+L4B block pairs per bank (weight capacity knob; only
    /// one pair is active per cycle).
    pub block_pairs_per_bank: usize,
    /// SAR ADC resolution (bits).
    pub adc_bits: u32,
    /// Bit-serial input precision (cycles per MAC).
    pub input_bits: u32,
    /// Weight precision mode (W4 doubles MACs/cycle).
    pub weight_bits: WeightBits,
}

impl DesignPoint {
    /// The paper's 128×128 operating point for `variant` at (8b input,
    /// 8b weight) — the Table 1 row.
    #[must_use]
    pub fn paper(variant: Variant) -> Self {
        Self {
            variant,
            banks: 16,
            rows: 32,
            block_pairs_per_bank: 4,
            adc_bits: 5,
            input_bits: 8,
            weight_bits: WeightBits::W8,
        }
    }

    /// The serving operating point: paper geometry at the (4b input,
    /// 8b weight) precision `ImcConfig::paper(design, 4, 8)` runs.
    #[must_use]
    pub fn serving_default(variant: Variant) -> Self {
        Self {
            input_bits: 4,
            ..Self::paper(variant)
        }
    }

    /// MAC cycle time (s): analog phase + SAR conversion. Reproduces
    /// the paper's 5 ns / 7 ns cycles at 5-bit resolution.
    #[must_use]
    pub fn t_cycle_s(&self) -> f64 {
        self.variant.analog_phase_s() + f64::from(self.adc_bits) * SAR_S_PER_BIT
    }

    /// 8-bit weights the macro can hold resident (one per block-pair
    /// row).
    #[must_use]
    pub fn weight_capacity(&self) -> usize {
        self.banks * self.block_pairs_per_bank * self.rows
    }

    /// MACs completed per input-bit cycle across the macro: one per
    /// activated row and bank, doubled when H4B and L4B carry
    /// independent 4-bit channels.
    #[must_use]
    pub fn macs_per_cycle(&self) -> f64 {
        let base = (self.banks * self.rows) as f64;
        match self.weight_bits {
            WeightBits::W8 => base,
            WeightBits::W4 => 2.0 * base,
        }
    }

    /// `true` when shift-add recombination is information-lossless:
    /// the ADC must resolve the full `16·rows`-unit block span,
    /// i.e. `adc_bits ≥ 4 + log2(rows)`. The paper's 5-bit point is
    /// deliberately lossy (statistically accurate, not exact).
    #[must_use]
    pub fn shift_add_lossless(&self) -> bool {
        let span_bits = 4 + (usize::BITS - 1 - self.rows.leading_zeros());
        let round_up = u32::from(!self.rows.is_power_of_two());
        self.adc_bits >= span_bits + round_up
    }

    /// Average per-cycle macro energy breakdown at the given activity.
    #[must_use]
    pub fn cycle_breakdown(&self, activity: Activity) -> EnergyBreakdown {
        let banks = self.banks as f64;
        let rows = self.rows as f64;
        let act = activity.input_density * activity.weight_density;
        let (array, frontend, v_wl) = match self.variant {
            Variant::CurFe => {
                let cfg = CurFeConfig::paper();
                let t_cycle = self.t_cycle_s();
                // Eight columns with intra-nibble significances
                // (1+2+4+8)·2 = 30 units of conductance at full
                // activation.
                let row_current = act * 30.0 * cfg.unit_current();
                let array = banks * rows * row_current * CURFE_SUPPLY_V * t_cycle;
                // Two TIAs per bank, biased for the whole cycle.
                let frontend = banks * 2.0 * TIA_BIAS_A * CURFE_SUPPLY_V * t_cycle;
                (array, frontend, cfg.v_wl)
            }
            Variant::ChgFe => {
                let cfg = ChgFeConfig::paper();
                // Average |ΔV| per bitline: Σ_j 2^(j mod 4) / 8 = 3.75
                // units at full activation.
                let avg_dv = act * rows * cfg.unit_delta_v() * 3.75;
                // Pre-charge restoration: Q = C·ΔV drawn from V_pre per
                // bitline.
                let array = banks * 8.0 * cfg.c_bl * avg_dv * cfg.v_pre
                    // Sign-column charge from VDD_q: one column of up to
                    // `rows` cells at 8 units each.
                    + banks * act * rows * 8.0 * cfg.unit_current() * cfg.t_in * cfg.vdd_q;
                // PCT clocking (every bitline, every cycle) + TG
                // charge-share control.
                let frontend = banks * 8.0 * PCT_GATE_CAP_F * PCT_SWING_V * PCT_SWING_V;
                (array, frontend, cfg.v_wl)
            }
        };
        EnergyBreakdown {
            array,
            frontend,
            adc: banks * 2.0 * sar_adc_energy(self.adc_bits),
            wordline: banks * rows * activity.input_density * WL_CAP * v_wl * v_wl,
            accumulator: banks * ACC_E_PER_CYCLE,
            other: REF_BANK_E + SWITCH_E,
        }
    }

    /// Evaluates the point at the paper's average 50/50 activity.
    #[must_use]
    pub fn evaluate(&self) -> MacroCost {
        self.evaluate_with_activity(Activity::average())
    }

    /// Evaluates energy, latency, area, and the efficiency roll-ups at
    /// an explicit switching activity.
    #[must_use]
    pub fn evaluate_with_activity(&self, activity: Activity) -> MacroCost {
        self.roll_up(self.cycle_breakdown(activity))
    }

    /// Evaluates the point with the sparse optimization of
    /// [`SparsityModel`] enabled: inputs switch at its bit activity, and
    /// each bank's ADC pair and accumulator are gated with its gate
    /// probability.
    #[must_use]
    pub fn evaluate_sparse(&self, weight_density: f64, sparsity: SparsityModel) -> MacroCost {
        let mut b = self.cycle_breakdown(Activity {
            input_density: sparsity.bit_activity(),
            weight_density,
        });
        let gate = sparsity.gate_probability(self.rows);
        b.adc *= 1.0 - gate;
        b.accumulator *= 1.0 - gate;
        self.roll_up(b)
    }

    /// The efficiency and throughput roll-ups of one cycle breakdown.
    fn roll_up(&self, breakdown: EnergyBreakdown) -> MacroCost {
        let t_cycle = self.t_cycle_s();
        let macs = self.macs_per_cycle();
        let cycle_energy = breakdown.total();
        // 1 MAC = 2 OPs (Table 1 convention); a full MAC takes
        // `input_bits` bit-serial cycles.
        let ops_per_mac_pass = 2.0 * macs;
        let tops_per_watt = ops_per_mac_pass / (f64::from(self.input_bits) * cycle_energy) / 1.0e12;
        let peak_tops = ops_per_mac_pass / (f64::from(self.input_bits) * t_cycle) / 1.0e12;
        let area = self.area();
        MacroCost {
            breakdown,
            cycle_energy_j: cycle_energy,
            t_cycle_s: t_cycle,
            macs_per_cycle: macs,
            peak_tops,
            tops_per_watt,
            area,
            tops_per_mm2: peak_tops / area.total_mm2(),
        }
    }

    /// Die area breakdown of the macro (mm²).
    #[must_use]
    pub fn area(&self) -> AreaBreakdown {
        let cells = (self.banks * self.block_pairs_per_bank * self.rows * 8) as f64;
        let cell_um2 = match self.variant {
            Variant::CurFe => CURFE_CELL_UM2,
            Variant::ChgFe => CHGFE_CELL_UM2,
        };
        let frontend_um2 = match self.variant {
            Variant::CurFe => self.banks as f64 * 2.0 * TIA_UM2,
            Variant::ChgFe => self.banks as f64 * PCT_TG_BANK_UM2,
        };
        let adc_mm2 = self.banks as f64 * 2.0 * sar_adc_area_mm2(self.adc_bits);
        let digital_um2 = self.banks as f64 * ACC_BANK_UM2 + MACRO_OVERHEAD_UM2;
        AreaBreakdown {
            array_mm2: cells * cell_um2 * 1.0e-6,
            adc_mm2,
            frontend_mm2: frontend_um2 * 1.0e-6,
            digital_mm2: digital_um2 * 1.0e-6,
        }
    }
}

/// SAR conversion energy at `bits` resolution (J).
fn sar_adc_energy(bits: u32) -> f64 {
    ADC_E_PER_BIT * f64::from(bits) + ADC_E_CDAC * (1u64 << bits) as f64
}

/// Empirical SAR ADC area (mm²) at `bits` resolution — the ZigZag-IMC
/// law, node-scaled from 28 nm to 40 nm.
#[must_use]
pub fn sar_adc_area_mm2(bits: u32) -> f64 {
    10.0f64.powf(ADC_AREA_K1 * f64::from(bits) + ADC_AREA_K2)
        * (1u64 << bits) as f64
        * 1.0e-6
        * ADC_NODE_SCALE
}

/// Area breakdown of one macro (mm²).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AreaBreakdown {
    /// Cell array.
    pub array_mm2: f64,
    /// SAR ADCs (2 per bank).
    pub adc_mm2: f64,
    /// Readout front end (TIAs / PCT+TG).
    pub frontend_mm2: f64,
    /// Accumulators, reference bank, switch matrix.
    pub digital_mm2: f64,
}

impl AreaBreakdown {
    /// Total macro area (mm²).
    #[must_use]
    pub fn total_mm2(&self) -> f64 {
        self.array_mm2 + self.adc_mm2 + self.frontend_mm2 + self.digital_mm2
    }
}

/// Everything the model says about one design point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MacroCost {
    /// Per-cycle energy by component (J).
    pub breakdown: EnergyBreakdown,
    /// Total per-cycle energy (J).
    pub cycle_energy_j: f64,
    /// MAC cycle time (s).
    pub t_cycle_s: f64,
    /// MACs retired per cycle across the macro.
    pub macs_per_cycle: f64,
    /// Peak throughput at the point's precisions (TOPS).
    pub peak_tops: f64,
    /// Average energy efficiency (TOPS/W) at the evaluated activity —
    /// the quantity plotted in Fig. 9 and tabulated in Table 1.
    pub tops_per_watt: f64,
    /// Die area breakdown.
    pub area: AreaBreakdown,
    /// Area efficiency (TOPS/mm²).
    pub tops_per_mm2: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_CURFE_8B8B: f64 = 12.18;
    const PAPER_CHGFE_8B8B: f64 = 14.47;

    fn at(variant: Variant, input_bits: u32, weight_bits: WeightBits) -> DesignPoint {
        DesignPoint {
            input_bits,
            weight_bits,
            ..DesignPoint::paper(variant)
        }
    }

    #[test]
    fn paper_points_pin_the_published_efficiency_bits() {
        // The exact values `results.json` records for Fig. 9 / Table 1:
        // any reordering of the floating-point terms shows up here.
        let cur = DesignPoint::paper(Variant::CurFe).evaluate().tops_per_watt;
        let chg = DesignPoint::paper(Variant::ChgFe).evaluate().tops_per_watt;
        assert_eq!(
            cur.to_bits(),
            12.478163214374845f64.to_bits(),
            "CurFe {cur}"
        );
        assert_eq!(chg.to_bits(), 14.50747134774409f64.to_bits(), "ChgFe {chg}");
    }

    #[test]
    fn cycle_times_land_on_the_published_5ns_and_7ns() {
        let cur = DesignPoint::paper(Variant::CurFe);
        let chg = DesignPoint::paper(Variant::ChgFe);
        assert!((cur.t_cycle_s() - 5.0e-9).abs() < 1e-15);
        assert!((chg.t_cycle_s() - 7.0e-9).abs() < 1e-15);
    }

    #[test]
    fn paper_anchor_efficiencies_within_ten_percent() {
        let cur = DesignPoint::paper(Variant::CurFe).evaluate().tops_per_watt;
        let chg = DesignPoint::paper(Variant::ChgFe).evaluate().tops_per_watt;
        assert!(
            (cur - PAPER_CURFE_8B8B).abs() < 0.10 * PAPER_CURFE_8B8B,
            "CurFe {cur:.2}"
        );
        assert!(
            (chg - PAPER_CHGFE_8B8B).abs() < 0.10 * PAPER_CHGFE_8B8B,
            "ChgFe {chg:.2}"
        );
        assert!(chg > cur, "ChgFe must beat CurFe at equal precision");
    }

    #[test]
    fn chgfe_beats_curfe_at_equal_precision() {
        // Section 4.1: "the energy efficiency in CurFe is lower than that
        // in ChgFe at the same precision level" — TIA bias vs pre-charge.
        for bits in [1u32, 2, 4, 8] {
            for w in [WeightBits::W4, WeightBits::W8] {
                let cur = at(Variant::CurFe, bits, w).evaluate().tops_per_watt;
                let chg = at(Variant::ChgFe, bits, w).evaluate().tops_per_watt;
                assert!(chg > cur, "ChgFe must win at ({bits}b, {w:?})");
            }
        }
    }

    #[test]
    fn efficiency_decreases_with_input_precision() {
        let mut last = f64::INFINITY;
        for bits in [1u32, 2, 4, 6, 8] {
            let e = at(Variant::CurFe, bits, WeightBits::W8)
                .evaluate()
                .tops_per_watt;
            assert!(e < last, "{bits}b: {e} not < {last}");
            last = e;
        }
    }

    #[test]
    fn higher_adc_resolution_costs_energy_and_cycle_time() {
        let mut last_e = 0.0;
        let mut last_t = 0.0;
        for bits in 3..=8 {
            let p = DesignPoint {
                adc_bits: bits,
                ..DesignPoint::paper(Variant::CurFe)
            };
            let c = p.evaluate();
            assert!(c.cycle_energy_j > last_e, "{bits}b energy");
            assert!(c.t_cycle_s > last_t, "{bits}b cycle");
            last_e = c.cycle_energy_j;
            last_t = c.t_cycle_s;
        }
    }

    #[test]
    fn adc_dominates_at_high_resolution() {
        // With the cycle time coupled to the ADC, 10-bit conversions
        // are about 83 % of the CurFe cycle energy.
        let p = DesignPoint {
            adc_bits: 10,
            ..DesignPoint::paper(Variant::CurFe)
        };
        let b = p.cycle_breakdown(Activity::average());
        assert!(
            b.adc > b.total() * 0.5,
            "10-bit ADC share {}",
            b.adc / b.total()
        );
    }

    #[test]
    fn totals_are_the_sum_of_their_parts() {
        let b = DesignPoint::paper(Variant::ChgFe).cycle_breakdown(Activity::average());
        let sum = b.array + b.frontend + b.adc + b.wordline + b.accumulator + b.other;
        assert!((b.total() - sum).abs() < 1e-18);
        let a = DesignPoint::paper(Variant::CurFe).area();
        assert!(
            (a.total_mm2() - (a.array_mm2 + a.adc_mm2 + a.frontend_mm2 + a.digital_mm2)).abs()
                < 1e-15
        );
    }

    #[test]
    fn adc_dominates_macro_area_at_the_paper_point() {
        // The paper's motivation: conversion hardware, not cells,
        // limits analog IMC density.
        let a = DesignPoint::paper(Variant::CurFe).area();
        assert!(a.adc_mm2 > 0.5 * a.total_mm2(), "{a:?}");
    }

    #[test]
    fn higher_activity_costs_more_energy() {
        for v in [Variant::CurFe, Variant::ChgFe] {
            let p = DesignPoint::paper(v);
            let at_density = |d| {
                p.cycle_breakdown(Activity {
                    input_density: d,
                    weight_density: 0.5,
                })
                .total()
            };
            assert!(at_density(0.9) > at_density(0.1), "{v:?}");
        }
    }

    #[test]
    fn chgfe_macro_is_smaller_but_slower() {
        let cur = DesignPoint::paper(Variant::CurFe).evaluate();
        let chg = DesignPoint::paper(Variant::ChgFe).evaluate();
        assert!(chg.area.total_mm2() < cur.area.total_mm2());
        assert!(chg.peak_tops < cur.peak_tops);
        assert!(chg.t_cycle_s > cur.t_cycle_s);
    }

    #[test]
    fn w4_doubles_peak_throughput_and_efficiency() {
        for bits in [4u32, 8] {
            let w8 = at(Variant::ChgFe, bits, WeightBits::W8).evaluate();
            let w4 = at(Variant::ChgFe, bits, WeightBits::W4).evaluate();
            assert!((w4.peak_tops / w8.peak_tops - 2.0).abs() < 1e-12);
            assert!((w4.tops_per_watt / w8.tops_per_watt - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn sparse_optimization_raises_efficiency() {
        let p = at(Variant::CurFe, 4, WeightBits::W8);
        let dense = p.evaluate_sparse(0.5, SparsityModel::dense()).tops_per_watt;
        let base = p.evaluate().tops_per_watt;
        assert!(
            (dense - base).abs() / base < 1e-6,
            "dense sparse-model = baseline"
        );
        let mut last = dense;
        for s in [0.3, 0.6, 0.9] {
            let e = p
                .evaluate_sparse(
                    0.5,
                    SparsityModel {
                        input_sparsity: s,
                        nonzero_bit_density: 0.5,
                    },
                )
                .tops_per_watt;
            assert!(e > last, "sparsity {s}: {e} should beat {last}");
            last = e;
        }
    }

    #[test]
    fn gate_probability_limits() {
        assert!(SparsityModel::dense().gate_probability(32) < 1e-9);
        let very_sparse = SparsityModel {
            input_sparsity: 0.99,
            nonzero_bit_density: 0.5,
        };
        assert!(very_sparse.gate_probability(32) > 0.8);
    }

    #[test]
    fn shift_add_losslessness_threshold() {
        let mut p = DesignPoint::paper(Variant::CurFe);
        assert!(!p.shift_add_lossless(), "paper 5-bit point is lossy");
        p.adc_bits = 9; // 4 + log2(32)
        assert!(p.shift_add_lossless());
        p.rows = 16;
        p.adc_bits = 8;
        assert!(p.shift_add_lossless());
    }

    #[test]
    fn more_banks_scale_capacity_and_throughput_linearly() {
        let base = DesignPoint::paper(Variant::ChgFe);
        let double = DesignPoint { banks: 32, ..base };
        assert_eq!(double.weight_capacity(), 2 * base.weight_capacity());
        let (b, d) = (base.evaluate(), double.evaluate());
        assert!((d.peak_tops / b.peak_tops - 2.0).abs() < 1e-12);
    }

    #[test]
    fn variant_names_round_trip() {
        for v in [Variant::CurFe, Variant::ChgFe] {
            assert_eq!(Variant::parse(v.name()).unwrap(), v);
        }
        assert!(Variant::parse("resistive").is_err());
    }
}
