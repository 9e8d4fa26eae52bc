//! DSE acceptance tests: sweep size/speed, and the paper-anchor
//! CurFe-vs-ChgFe efficiency comparison reproduced by the closed forms.

use std::time::Instant;

use imc_cost::dse::{render_table, sweep, DseOptions};
use imc_cost::inference::mlp_shapes;
use imc_cost::{DesignPoint, Variant};

/// Paper Table 1 macro efficiency anchors at (8b input, 8b weight).
const PAPER_CURFE_8B8B: f64 = 12.18;
const PAPER_CHGFE_8B8B: f64 = 14.47;

#[test]
fn sweeps_at_least_100_points_in_under_a_second() {
    let opts = DseOptions::default();
    let layers = mlp_shapes(784, 64, 10);
    let start = Instant::now();
    let table = sweep(&opts, &layers);
    let wall = start.elapsed();
    assert!(table.points.len() >= 100, "{} points", table.points.len());
    assert!(
        wall.as_secs_f64() < 1.0,
        "DSE took {:.3} s for {} points",
        wall.as_secs_f64(),
        table.points.len()
    );
}

#[test]
fn paper_efficiency_comparison_is_reproduced() {
    // The paper's headline: at the same precision, the charge-domain
    // design is the more energy-efficient macro, and both land on
    // their Table 1 figures.
    let cur = DesignPoint::paper(Variant::CurFe).evaluate().tops_per_watt;
    let chg = DesignPoint::paper(Variant::ChgFe).evaluate().tops_per_watt;
    assert!(
        (cur - PAPER_CURFE_8B8B).abs() < 0.10 * PAPER_CURFE_8B8B,
        "CurFe {cur:.2} vs paper {PAPER_CURFE_8B8B}"
    );
    assert!(
        (chg - PAPER_CHGFE_8B8B).abs() < 0.10 * PAPER_CHGFE_8B8B,
        "ChgFe {chg:.2} vs paper {PAPER_CHGFE_8B8B}"
    );
    let ratio = chg / cur;
    let paper_ratio = PAPER_CHGFE_8B8B / PAPER_CURFE_8B8B;
    assert!(
        (ratio - paper_ratio).abs() < 0.10 * paper_ratio,
        "efficiency ratio {ratio:.3} vs paper {paper_ratio:.3}"
    );
}

#[test]
fn best_fixed_geometry_point_is_chgfe() {
    // Restricted to the paper geometry, the sweep's energy ranking must
    // put ChgFe first — the same conclusion as the Table 1 comparison.
    let opts = DseOptions {
        rows: vec![32],
        banks: vec![16],
        adc_bits: vec![5],
        ..DseOptions::default()
    };
    let table = sweep(&opts, &mlp_shapes(784, 64, 10));
    assert_eq!(table.points.len(), 2);
    assert_eq!(table.points[0].point.variant, Variant::ChgFe);
}

#[test]
fn sweep_is_deterministic() {
    let opts = DseOptions::default();
    let layers = mlp_shapes(96, 24, 10);
    let a = sweep(&opts, &layers);
    let b = sweep(&opts, &layers);
    for (x, y) in a.points.iter().zip(&b.points) {
        assert_eq!(x.point, y.point);
        assert_eq!(
            x.inference.energy_j.to_bits(),
            y.inference.energy_j.to_bits()
        );
    }
}

#[test]
fn render_scales_with_top() {
    let table = sweep(&DseOptions::default(), &mlp_shapes(96, 24, 10));
    assert_eq!(render_table(&table, 5).lines().count(), 6);
    let all = render_table(&table, usize::MAX);
    assert_eq!(all.lines().count(), table.points.len() + 1);
}
