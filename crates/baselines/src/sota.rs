//! Published state-of-the-art comparison data (the paper's Table 1).
//!
//! Values are the ones the paper tabulates, i.e. already scaled to 40 nm
//! with the `energy ∝ node²` rule (efficiency multiplied by
//! `λ² = (node/40 nm)²`). [`scale_efficiency_to_node`] implements the same
//! rule for re-deriving or re-normalizing entries.

use serde::{Deserialize, Serialize};

/// Memory technology of a design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Technology {
    /// SRAM-based CMOS design.
    Cmos,
    /// Resistive RAM.
    Reram,
    /// Ferroelectric FET.
    Fefet,
}

/// Analog computing mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ComputingMode {
    /// Current-domain accumulation.
    Current,
    /// Charge-domain accumulation.
    Charge,
}

/// How multi-bit weights are combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShiftAddKind {
    /// Post-ADC digital shift-add (time-multiplexed ADC).
    Digital,
    /// Pre-ADC analog shift-add (extra combining capacitors).
    Analog,
    /// The paper's contribution: shift-add inherent to the array.
    Inherent,
}

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Entry {
    /// Citation tag as printed in the paper (e.g. `"[10]"`).
    pub reference: &'static str,
    /// Memory technology.
    pub technology: Technology,
    /// Cell type string as printed.
    pub cell_type: &'static str,
    /// Native process node (nm).
    pub node_nm: f64,
    /// Computing mode.
    pub mode: ComputingMode,
    /// Multi-bit weight processing.
    pub shift_add: ShiftAddKind,
    /// Circuit/macro-level efficiency in TOPS/W, scaled to 40 nm, with the
    /// `(input bits, weight bits)` operating point it was reported at.
    pub circuit_tops_w: (f64, u32, u32),
    /// System-level efficiency (TOPS/W, CIFAR10-ResNet18) where reported.
    pub system_tops_w: Option<(f64, u32, u32)>,
    /// Footnote (e.g. sparse optimization).
    pub note: Option<&'static str>,
}

/// Scales an energy-efficiency figure between nodes with the paper's
/// `energy ∝ node²` assumption: `eff_target = eff · (node/target)²`.
///
/// # Panics
///
/// Panics if either node is non-positive.
#[must_use]
pub fn scale_efficiency_to_node(eff_tops_w: f64, node_nm: f64, target_nm: f64) -> f64 {
    assert!(node_nm > 0.0 && target_nm > 0.0, "nodes must be positive");
    eff_tops_w * (node_nm / target_nm).powi(2)
}

/// The competitor rows of Table 1 (already 40 nm-scaled, as printed).
#[must_use]
pub fn competitor_entries() -> Vec<Table1Entry> {
    vec![
        Table1Entry {
            reference: "[8]",
            technology: Technology::Cmos,
            cell_type: "6T-SRAM+LLC",
            node_nm: 28.0,
            mode: ComputingMode::Current,
            shift_add: ShiftAddKind::Digital,
            circuit_tops_w: (6.90, 8, 8),
            system_tops_w: None,
            note: None,
        },
        Table1Entry {
            reference: "[9]",
            technology: Technology::Cmos,
            cell_type: "8T-SRAM",
            node_nm: 65.0,
            mode: ComputingMode::Current,
            shift_add: ShiftAddKind::Analog,
            circuit_tops_w: (41.67, 4, 8),
            system_tops_w: Some((9.40, 4, 8)),
            note: Some("with sparse optimization"),
        },
        Table1Entry {
            reference: "[10]",
            technology: Technology::Cmos,
            cell_type: "6T-SRAM+LMC",
            node_nm: 28.0,
            mode: ComputingMode::Charge,
            shift_add: ShiftAddKind::Digital,
            circuit_tops_w: (9.26, 8, 8),
            system_tops_w: None,
            note: None,
        },
        Table1Entry {
            reference: "[14]",
            technology: Technology::Reram,
            cell_type: "1T1R",
            node_nm: 22.0,
            mode: ComputingMode::Current,
            shift_add: ShiftAddKind::Digital,
            circuit_tops_w: (3.60, 8, 8),
            system_tops_w: None,
            note: None,
        },
        Table1Entry {
            reference: "[15]",
            technology: Technology::Reram,
            cell_type: "1T1R",
            node_nm: 22.0,
            mode: ComputingMode::Current,
            shift_add: ShiftAddKind::Digital,
            circuit_tops_w: (4.72, 8, 8),
            system_tops_w: None,
            note: None,
        },
        Table1Entry {
            reference: "[16]",
            technology: Technology::Reram,
            cell_type: "1T1R",
            node_nm: 22.0,
            mode: ComputingMode::Charge,
            shift_add: ShiftAddKind::Digital,
            circuit_tops_w: (6.53, 8, 8),
            system_tops_w: None,
            note: None,
        },
    ]
}

/// The paper's own rows (reported values — the workspace's models must
/// reproduce these within tolerance; see the calibration tests in
/// [`imc_core::energy`]).
#[must_use]
pub fn paper_entries() -> Vec<Table1Entry> {
    vec![
        Table1Entry {
            reference: "CurFe",
            technology: Technology::Fefet,
            cell_type: "1nFeFET1R",
            node_nm: 40.0,
            mode: ComputingMode::Current,
            shift_add: ShiftAddKind::Inherent,
            circuit_tops_w: (12.18, 8, 8),
            system_tops_w: Some((12.41, 4, 8)),
            note: None,
        },
        Table1Entry {
            reference: "ChgFe",
            technology: Technology::Fefet,
            cell_type: "1nFeFET/1pFeFET",
            node_nm: 40.0,
            mode: ComputingMode::Charge,
            shift_add: ShiftAddKind::Inherent,
            circuit_tops_w: (14.47, 8, 8),
            system_tops_w: Some((12.92, 4, 8)),
            note: None,
        },
    ]
}

/// The headline comparison ratios the paper quotes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeadlineRatios {
    /// Best FeFET circuit efficiency over the best SRAM design (`[10]`).
    pub vs_sram_circuit: f64,
    /// Best FeFET circuit efficiency over the best ReRAM design (`[16]`).
    pub vs_reram_circuit: f64,
    /// Best FeFET system efficiency over `[9]`'s system efficiency.
    pub vs_yue_system: f64,
}

/// Computes the headline ratios from the tabulated data.
#[must_use]
pub fn headline_ratios() -> HeadlineRatios {
    let comp = competitor_entries();
    let ours = paper_entries();
    let best_circuit = ours
        .iter()
        .map(|e| e.circuit_tops_w.0)
        .fold(0.0f64, f64::max);
    let best_system = ours
        .iter()
        .filter_map(|e| e.system_tops_w.map(|s| s.0))
        .fold(0.0f64, f64::max);
    let sram10 = comp
        .iter()
        .find(|e| e.reference == "[10]")
        .expect("[10] present")
        .circuit_tops_w
        .0;
    let reram16 = comp
        .iter()
        .find(|e| e.reference == "[16]")
        .expect("[16] present")
        .circuit_tops_w
        .0;
    let yue_sys = comp
        .iter()
        .find(|e| e.reference == "[9]")
        .expect("[9] present")
        .system_tops_w
        .expect("[9] reports system")
        .0;
    HeadlineRatios {
        vs_sram_circuit: best_circuit / sram10,
        vs_reram_circuit: best_circuit / reram16,
        vs_yue_system: best_system / yue_sys,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_ratios_match_the_abstract() {
        let r = headline_ratios();
        assert!(
            (r.vs_sram_circuit - 1.56).abs() < 0.01,
            "1.56× vs [10]: {r:?}"
        );
        assert!(
            (r.vs_reram_circuit - 2.22).abs() < 0.01,
            "2.22× vs [16]: {r:?}"
        );
        assert!((r.vs_yue_system - 1.37).abs() < 0.01, "1.37× vs [9]: {r:?}");
    }

    #[test]
    fn node_scaling_is_quadratic_and_symmetric() {
        let e28 = 10.0;
        let e40 = scale_efficiency_to_node(e28, 28.0, 40.0);
        assert!((e40 - 10.0 * (28.0f64 / 40.0).powi(2)).abs() < 1e-12);
        // Round trip.
        let back = scale_efficiency_to_node(e40, 40.0, 28.0);
        assert!((back - e28).abs() < 1e-12);
    }

    #[test]
    fn fefet_entries_beat_every_nonsparse_competitor_at_8b8b() {
        let best = paper_entries()
            .iter()
            .map(|e| e.circuit_tops_w.0)
            .fold(0.0f64, f64::max);
        for e in competitor_entries() {
            if e.circuit_tops_w.1 == 8 && e.circuit_tops_w.2 == 8 && e.note.is_none() {
                assert!(
                    best > e.circuit_tops_w.0,
                    "{} at {:.2} should lose to FeFET {best:.2}",
                    e.reference,
                    e.circuit_tops_w.0
                );
            }
        }
    }

    #[test]
    fn table_has_six_competitors_and_two_paper_rows() {
        assert_eq!(competitor_entries().len(), 6);
        assert_eq!(paper_entries().len(), 2);
    }

    #[test]
    fn our_energy_models_reproduce_the_paper_rows() {
        use imc_core::energy::{DesignPoint, Variant};
        let rows = paper_entries();
        let cur = DesignPoint::paper(Variant::CurFe).evaluate().tops_per_watt;
        let chg = DesignPoint::paper(Variant::ChgFe).evaluate().tops_per_watt;
        assert!((cur - rows[0].circuit_tops_w.0).abs() / rows[0].circuit_tops_w.0 < 0.10);
        assert!((chg - rows[1].circuit_tops_w.0).abs() / rows[1].circuit_tops_w.0 < 0.10);
    }
}
