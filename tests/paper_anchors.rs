//! The paper's headline numbers, asserted end-to-end across the
//! workspace. These are the claims EXPERIMENTS.md records.

use fefet_imc::baselines::sota::headline_ratios;
use fefet_imc::imc::energy::{DesignPoint, Variant};
use fefet_imc::nn::models::resnet18_shapes;
use fefet_imc::system::chip::{evaluate, Design, SystemConfig};

#[test]
fn abstract_headline_ratios() {
    let r = headline_ratios();
    assert!((r.vs_sram_circuit - 1.56).abs() < 0.01);
    assert!((r.vs_reram_circuit - 2.22).abs() < 0.01);
    assert!((r.vs_yue_system - 1.37).abs() < 0.01);
}

#[test]
fn circuit_level_efficiency_anchors() {
    let cur = DesignPoint::paper(Variant::CurFe).evaluate().tops_per_watt;
    let chg = DesignPoint::paper(Variant::ChgFe).evaluate().tops_per_watt;
    assert!((cur - 12.18).abs() / 12.18 < 0.10, "CurFe {cur:.2}");
    assert!((chg - 14.47).abs() / 14.47 < 0.10, "ChgFe {chg:.2}");
    assert!(chg > cur, "ChgFe must win on energy at equal precision");
}

#[test]
fn system_level_efficiency_anchors() {
    let shapes = resnet18_shapes(32, 10);
    let cur = evaluate(&shapes, &SystemConfig::paper(Design::CurFe, 4, 8));
    let chg = evaluate(&shapes, &SystemConfig::paper(Design::ChgFe, 4, 8));
    assert!(
        (cur.tops_per_watt - 12.41).abs() / 12.41 < 0.08,
        "{:.2}",
        cur.tops_per_watt
    );
    assert!(
        (chg.tops_per_watt - 12.92).abs() / 12.92 < 0.08,
        "{:.2}",
        chg.tops_per_watt
    );
    // Our ChgFe system beats Yue et al.'s 9.40 by ≈the paper's 1.37x.
    let ratio = chg.tops_per_watt / 9.40;
    assert!((ratio - 1.37).abs() < 0.15, "system ratio {ratio:.2}");
}

#[test]
fn fig3_anchor_currents_via_behavioral_bank() {
    use fefet_imc::device::variation::{VariationParams, VariationSampler};
    use fefet_imc::imc::config::CurFeConfig;
    use fefet_imc::imc::curfe::CurFeBlockPair;
    let cfg = CurFeConfig::paper();
    let mut s = VariationSampler::new(VariationParams::none(), 0);
    let mut weights = vec![0i8; 32];
    weights[0] = -1;
    let bp = CurFeBlockPair::program(&cfg, &weights, &mut s);
    let active: Vec<bool> = (0..32).map(|r| r == 0).collect();
    let (i_h4, i_l4) = bp.block_currents(&active);
    assert!((i_h4 + 100e-9).abs() < 10e-9, "I_H4 {i_h4:.3e} vs -100 nA");
    assert!((i_l4 - 1.5e-6).abs() < 0.08e-6, "I_L4 {i_l4:.3e} vs 1.5 uA");
}

#[test]
fn throughput_ordering_curfe_over_chgfe() {
    let cur = DesignPoint::paper(Variant::CurFe).evaluate().peak_tops;
    let chg = DesignPoint::paper(Variant::ChgFe).evaluate().peak_tops;
    assert!(cur > chg);
    let shapes = resnet18_shapes(32, 10);
    let fps_cur = evaluate(&shapes, &SystemConfig::paper(Design::CurFe, 4, 8)).fps;
    let fps_chg = evaluate(&shapes, &SystemConfig::paper(Design::ChgFe, 4, 8)).fps;
    assert!(fps_cur > fps_chg);
}
