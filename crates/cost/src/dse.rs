//! Design-space exploration: sweep macro geometry × ADC resolution ×
//! variant for a fixed workload, rank by energy per inference, and
//! render the result as JSON or a human-readable table.

use crate::inference::{inference_cost, InferenceCost, LayerShape};
use imc_core::energy::{DesignPoint, MacroCost, Variant, WeightBits};
use serde::{Deserialize, Serialize};

/// The sweep grid. The default grid visits 192 points
/// (2 variants × 4 row counts × 4 bank counts × 6 ADC resolutions).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DseOptions {
    /// Designs to sweep.
    pub variants: Vec<Variant>,
    /// Active rows per bank.
    pub rows: Vec<usize>,
    /// Bank counts.
    pub banks: Vec<usize>,
    /// SAR resolutions.
    pub adc_bits: Vec<u32>,
    /// Block pairs per bank (fixed capacity knob).
    pub block_pairs_per_bank: usize,
    /// Bit-serial input precision of the workload.
    pub input_bits: u32,
    /// Weight precision mode.
    pub weight_bits: WeightBits,
}

impl Default for DseOptions {
    fn default() -> Self {
        Self {
            variants: vec![Variant::CurFe, Variant::ChgFe],
            rows: vec![16, 32, 64, 128],
            banks: vec![4, 8, 16, 32],
            adc_bits: vec![3, 4, 5, 6, 7, 8],
            block_pairs_per_bank: 4,
            input_bits: 8,
            weight_bits: WeightBits::W8,
        }
    }
}

impl DseOptions {
    /// Number of grid points the sweep will visit.
    #[must_use]
    pub fn point_count(&self) -> usize {
        self.variants.len() * self.rows.len() * self.banks.len() * self.adc_bits.len()
    }
}

/// One evaluated design point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DsePoint {
    /// The configuration.
    pub point: DesignPoint,
    /// Macro-level cost (cycle energy, area, roll-ups).
    pub cost: MacroCost,
    /// Workload cost (one forward pass of the swept layers).
    pub inference: InferenceCost,
    /// Whether shift-add recombination is lossless at this resolution.
    pub lossless: bool,
}

/// A ranked sweep result (best energy-per-inference first).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DseTable {
    /// The workload the sweep priced.
    pub layers: Vec<LayerShape>,
    /// Evaluated points, ascending energy per inference.
    pub points: Vec<DsePoint>,
}

/// Runs the sweep and ranks points by energy per inference (ties break
/// toward lower latency).
#[must_use]
pub fn sweep(opts: &DseOptions, layers: &[LayerShape]) -> DseTable {
    let mut points = Vec::with_capacity(opts.point_count());
    for &variant in &opts.variants {
        for &rows in &opts.rows {
            for &banks in &opts.banks {
                for &adc_bits in &opts.adc_bits {
                    let point = DesignPoint {
                        variant,
                        banks,
                        rows,
                        block_pairs_per_bank: opts.block_pairs_per_bank,
                        adc_bits,
                        input_bits: opts.input_bits,
                        weight_bits: opts.weight_bits,
                    };
                    points.push(DsePoint {
                        point,
                        cost: point.evaluate(),
                        inference: inference_cost(&point, layers),
                        lossless: point.shift_add_lossless(),
                    });
                }
            }
        }
    }
    points.sort_by(|a, b| {
        (a.inference.energy_j, a.inference.latency_s)
            .partial_cmp(&(b.inference.energy_j, b.inference.latency_s))
            .expect("finite costs")
    });
    DseTable {
        layers: layers.to_vec(),
        points,
    }
}

/// Renders the top `top` rows of a ranked table for humans.
#[must_use]
pub fn render_table(table: &DseTable, top: usize) -> String {
    let mut s = String::new();
    s.push_str(
        "rank  design  banks  rows  adc  t_cyc_ns  E/inf_nJ  lat_us  \
         TOPS/W  TOPS/mm2  capacity  lossless\n",
    );
    for (i, p) in table.points.iter().take(top).enumerate() {
        s.push_str(&format!(
            "{:>4}  {:<6}  {:>5}  {:>4}  {:>3}  {:>8.2}  {:>8.3}  {:>6.2}  {:>6.2}  {:>8.3}  {:>8}  {}\n",
            i + 1,
            p.point.variant.name(),
            p.point.banks,
            p.point.rows,
            p.point.adc_bits,
            p.cost.t_cycle_s * 1.0e9,
            p.inference.energy_j * 1.0e9,
            p.inference.latency_s * 1.0e6,
            p.cost.tops_per_watt,
            p.cost.tops_per_mm2,
            p.point.weight_capacity(),
            if p.lossless { "yes" } else { "no" },
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::mlp_shapes;

    #[test]
    fn default_grid_visits_at_least_100_points() {
        let opts = DseOptions::default();
        assert!(opts.point_count() >= 100, "{}", opts.point_count());
        let table = sweep(&opts, &mlp_shapes(784, 64, 10));
        assert_eq!(table.points.len(), opts.point_count());
    }

    #[test]
    fn ranking_is_ascending_in_energy() {
        let table = sweep(&DseOptions::default(), &mlp_shapes(784, 64, 10));
        for w in table.points.windows(2) {
            assert!(w[0].inference.energy_j <= w[1].inference.energy_j);
        }
    }

    #[test]
    fn chgfe_points_dominate_the_low_energy_ranks() {
        // The paper's efficiency ordering must survive the sweep: at any
        // fixed geometry with ≥4-bit conversion, the ChgFe point prices
        // below the CurFe point. (At 3-bit ADC on 16-row arrays the
        // ordering genuinely flips — the fixed bitline restoration
        // charge amortizes over too few rows while CurFe's short cycle
        // cuts its static read current — so that corner is exempt.)
        let table = sweep(&DseOptions::default(), &mlp_shapes(784, 64, 10));
        for p in &table.points {
            if p.point.variant == Variant::CurFe && p.point.adc_bits >= 4 {
                let twin = table
                    .points
                    .iter()
                    .find(|q| {
                        q.point.variant == Variant::ChgFe
                            && q.point.banks == p.point.banks
                            && q.point.rows == p.point.rows
                            && q.point.adc_bits == p.point.adc_bits
                    })
                    .expect("twin exists");
                assert!(twin.inference.energy_j < p.inference.energy_j);
            }
        }
    }

    #[test]
    fn render_has_header_and_rows() {
        let table = sweep(&DseOptions::default(), &mlp_shapes(96, 24, 10));
        let text = render_table(&table, 10);
        assert!(text.starts_with("rank"));
        assert_eq!(text.lines().count(), 11);
        assert!(text.contains("chgfe"));
    }

    #[test]
    fn table_round_trips_through_json() {
        let opts = DseOptions {
            rows: vec![32],
            banks: vec![16],
            adc_bits: vec![5],
            ..DseOptions::default()
        };
        let table = sweep(&opts, &mlp_shapes(96, 24, 10));
        let json = serde_json::to_string_pretty(&table).expect("serializes");
        let back: DseTable = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.points.len(), table.points.len());
        assert_eq!(back.points[0].point, table.points[0].point);
    }
}
