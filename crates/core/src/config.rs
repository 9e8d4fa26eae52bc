//! Architecture configuration for the CurFe and ChgFe macros.
//!
//! All numeric anchors come from the paper's Section 3 and 4.1:
//! 128×128 array, 16 banks, 32-row blocks, `V_cm = 0.5 V`, `VDD_i = 1 V`,
//! resistor ladder 5 MΩ/2^j, `C_BL = 50 fF`, `V_pre = 1.5 V`, 1 ns
//! pre-charge, 0.5 ns input window, 40 nm node.

use fefet_device::fefet::FeFetParams;
use fefet_device::programming::{MlcCurrentLadder, SlcStates};
use fefet_device::variation::VariationParams;
use serde::{Deserialize, Serialize};

/// Geometry shared by both macro designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrayGeometry {
    /// Number of banks in the 128×128 array.
    pub banks: usize,
    /// Rows per block (input parallelism).
    pub rows: usize,
    /// H4B/L4B block pairs per bank (one pair active per cycle).
    pub block_pairs_per_bank: usize,
}

impl ArrayGeometry {
    /// The paper's 128×128 macro: 16 banks × 4 block pairs × 32 rows.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            banks: 16,
            rows: 32,
            block_pairs_per_bank: 4,
        }
    }

    /// Total 8-bit weight capacity of the macro.
    #[must_use]
    pub fn weight_capacity(&self) -> usize {
        self.banks * self.block_pairs_per_bank * self.rows
    }
}

impl Default for ArrayGeometry {
    fn default() -> Self {
        Self::paper()
    }
}

/// CurFe (current-mode) electrical configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CurFeConfig {
    /// Array geometry.
    pub geometry: ArrayGeometry,
    /// TIA common-mode (virtual-ground) voltage (V). Paper: 0.5 V.
    pub v_cm: f64,
    /// Sign-column sourceline supply `VDD_i` (V). Paper: 1 V.
    pub vdd_i: f64,
    /// Wordline read voltage (V).
    pub v_wl: f64,
    /// Sign-row wordline (WLS) read voltage (V). The sign column's
    /// nFeFET sits with both channel terminals near 1 V (sourceline at
    /// `VDD_i`, drain pulled to within millivolts of it by the resistor),
    /// so its gate needs a boosted level to overcome the body-effect
    /// threshold shift -- this is why the paper routes cell7 on a
    /// separate wordline.
    pub v_wls: f64,
    /// Base drain resistance of the LSB cell (Ω). Paper: 5 MΩ; bit `j`
    /// uses `r_base / 2^(j mod 4)`.
    pub r_base: f64,
    /// TIA feedback resistance (Ω), sets volts per current unit.
    pub r_out: f64,
    /// SLC threshold states of the 1nFeFET1R cell.
    pub slc: SlcStates,
    /// FeFET device parameters.
    pub fefet: FeFetParams,
    /// Variability corner.
    pub variation: VariationParams,
}

impl CurFeConfig {
    /// The paper's CurFe operating point.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            geometry: ArrayGeometry::paper(),
            v_cm: 0.5,
            vdd_i: 1.0,
            // 1.35 V: high enough that the sign column's nFeFET (source at
            // VDD_i = 1 V) still conducts far more than the 800 nA its
            // resistor asks for, low enough that active-row '0' cells leak
            // ≲ 10⁻⁴ of a unit.
            v_wl: 1.35,
            v_wls: 2.1,
            r_base: 5.0e6,
            // Full-scale L4B current is 32·15·100 nA = 48 µA; 8.33 kΩ maps
            // it onto a 0.4 V ADC input range.
            r_out: 8.333e3,
            slc: SlcStates::paper(),
            fefet: FeFetParams::nfefet_40nm(),
            variation: VariationParams::paper(),
        }
    }

    /// The nominal single-cell unit current `V_cm / r_base` (A): 100 nA
    /// with the paper's values.
    #[must_use]
    pub fn unit_current(&self) -> f64 {
        self.v_cm / self.r_base
    }

    /// Drain resistance of the cell at intra-nibble bit significance
    /// `j ∈ 0..4`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= 4`.
    #[must_use]
    pub fn drain_resistance(&self, j: usize) -> f64 {
        assert!(j < 4, "intra-nibble bit significance is 0..4");
        self.r_base / f64::from(1u32 << j)
    }
}

impl Default for CurFeConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// ChgFe (charge-mode) electrical configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChgFeConfig {
    /// Array geometry.
    pub geometry: ArrayGeometry,
    /// Bitline pre-charge voltage (V). Paper: 1.5 V.
    pub v_pre: f64,
    /// Sign-column supply `VDD_q` (V); must exceed the maximum bitline
    /// excursion plus the pFeFET saturation margin.
    pub vdd_q: f64,
    /// Wordline read voltage (V).
    pub v_wl: f64,
    /// WLS active-low gate level for the pFeFET sign cells (V): the sign
    /// wordline swings between `vdd_q` (off) and this level (on), giving
    /// the pFeFET the same 1.2 V gate drive as the nFeFETs.
    pub v_wls_low: f64,
    /// Bitline capacitance (F). Paper: 50 fF.
    pub c_bl: f64,
    /// Pre-charge window (s). Paper: 1 ns.
    pub t_pre: f64,
    /// Input (discharge) window (s). Paper: 0.5 ns.
    pub t_in: f64,
    /// Charge-sharing window (s).
    pub t_share: f64,
    /// MLC state ladder for the binary-weighted nFeFET currents.
    pub ladder: MlcCurrentLadder,
    /// nFeFET device parameters.
    pub nfefet: FeFetParams,
    /// pFeFET device parameters (sign cell).
    pub pfefet: FeFetParams,
    /// |V_TH| of the pFeFET sign cell's conducting ('1') state.
    pub pfet_vth_on: f64,
    /// |V_TH| of the pFeFET sign cell's blocking ('0') state.
    pub pfet_vth_off: f64,
    /// Variability corner.
    pub variation: VariationParams,
    /// Sub-steps used when integrating the bitline discharge (captures
    /// the droop nonlinearity as cells approach triode).
    pub discharge_substeps: usize,
}

impl ChgFeConfig {
    /// The paper's ChgFe operating point. The unit current is 0.15 µA so
    /// the worst-case MSB bitline (32 active cells) moves ≤ 0.4 V in the
    /// 0.5 ns window, keeping every cell in saturation — the linearity
    /// condition of Section 3.2.
    #[must_use]
    pub fn paper() -> Self {
        let nfefet = FeFetParams::nfefet_mlc_40nm();
        let pfefet = FeFetParams::pfefet_mlc_40nm();
        let ladder = MlcCurrentLadder::for_device(1.4, 0.15e-6, nfefet.beta, nfefet.n, 1.771);
        // The pFeFET '1' state must conduct |I| = 8 units = cell3's current
        // (paper: "the ON current magnitude of the high V_TH state of the
        // 1pFeFET in cell7 matches that of cell3"). With the WLS giving
        // the same 1.2 V gate drive as the WL, the matched state is simply
        // |V_TH| = vth_on[3].
        let vdd_q = 2.9;
        let pfet_vth_on = ladder.vth_on[3];
        Self {
            geometry: ArrayGeometry::paper(),
            v_pre: 1.5,
            vdd_q,
            v_wl: 1.4,
            v_wls_low: vdd_q - 1.4,
            c_bl: 50.0e-15,
            t_pre: 1.0e-9,
            t_in: 0.5e-9,
            t_share: 1.0e-9,
            ladder,
            nfefet,
            pfefet,
            pfet_vth_on,
            pfet_vth_off: 1.771,
            variation: VariationParams::paper(),
            discharge_substeps: 8,
        }
    }

    /// Nominal unit current (A): the bit-0 cell's ON current.
    #[must_use]
    pub fn unit_current(&self) -> f64 {
        self.ladder.i_unit
    }

    /// Nominal single-cell unit bitline voltage step (V):
    /// `i_unit · t_in / c_bl`.
    #[must_use]
    pub fn unit_delta_v(&self) -> f64 {
        self.unit_current() * self.t_in / self.c_bl
    }
}

impl Default for ChgFeConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fefet_device::fefet::{FeFet, Polarity};
    use fefet_device::programming::{program_vth, IsppConfig};

    #[test]
    fn geometry_capacity() {
        let g = ArrayGeometry::paper();
        assert_eq!(g.weight_capacity(), 2048);
    }

    #[test]
    fn curfe_unit_current_is_100na() {
        let c = CurFeConfig::paper();
        assert!((c.unit_current() - 1.0e-7).abs() < 1e-12);
    }

    #[test]
    fn curfe_resistor_ladder() {
        let c = CurFeConfig::paper();
        assert!((c.drain_resistance(0) - 5.0e6).abs() < 1.0);
        assert!((c.drain_resistance(1) - 2.5e6).abs() < 1.0);
        assert!((c.drain_resistance(2) - 1.25e6).abs() < 1.0);
        assert!((c.drain_resistance(3) - 0.625e6).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "0..4")]
    fn curfe_ladder_bounds() {
        let _ = CurFeConfig::paper().drain_resistance(4);
    }

    #[test]
    fn chgfe_unit_delta_v_is_small() {
        let c = ChgFeConfig::paper();
        let dv = c.unit_delta_v();
        assert!(dv > 0.5e-3 && dv < 5e-3, "unit ΔV = {dv}");
        // Worst-case MSB bitline swing stays within saturation margin.
        let worst = dv * 8.0 * c.geometry.rows as f64;
        assert!(worst < 0.45, "worst-case swing {worst} V");
    }

    #[test]
    fn chgfe_sign_supply_keeps_pfet_saturated() {
        let c = ChgFeConfig::paper();
        let ov = (c.vdd_q - c.v_wls_low) - c.pfet_vth_on;
        let v_bl_max = c.v_pre + c.unit_delta_v() * 8.0 * c.geometry.rows as f64;
        assert!(
            c.vdd_q - v_bl_max >= ov - 0.05,
            "vdd_q margin: {} vs overdrive {}",
            c.vdd_q - v_bl_max,
            ov
        );
    }

    #[test]
    fn chgfe_sign_cell_programs_to_both_states() {
        // The pFeFET sign cell's write path: ISPP on a P-polarity MLC
        // device must converge onto both of the config's sign states.
        let c = ChgFeConfig::paper();
        let cfg = IsppConfig::paper();
        let mut energy = 0.0;
        for target in [c.pfet_vth_on, c.pfet_vth_off] {
            let mut d = FeFet::new(c.pfefet, Polarity::P);
            let rep = program_vth(&mut d, target, &cfg);
            assert!(rep.converged, "sign cell to |Vth| {target}: {rep:?}");
            energy += rep.energy;
        }
        assert!(energy > 0.0);
    }
}
