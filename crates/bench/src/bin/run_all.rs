//! Runs every cheap experiment in-process and writes a machine-readable
//! `results.json` summary (paper anchor vs measured) — the artifact
//! behind EXPERIMENTS.md. The two training-based experiments (Fig. 10 and
//! the variation ablation) are skipped here; run their binaries directly.
//!
//! Each experiment section runs under `catch_unwind`, so one broken
//! model cannot silently take down the whole sweep: every section that
//! fails is reported, the survivors still land in `results.json`, and
//! the process exits non-zero. Before exiting, the written JSON is
//! parsed back to guarantee the artifact is machine-readable.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use imc_baselines::analog::AnalogShiftAddModel;
use imc_baselines::digital::DigitalShiftAddModel;
use imc_baselines::sota::headline_ratios;
use imc_core::energy::{Activity, DesignPoint, Variant, WeightBits};
use neural::models::resnet18_shapes;
use serde::{Deserialize, Serialize};
use system_perf::chip::{evaluate, Design, SystemConfig};

#[derive(Serialize, Deserialize)]
struct Anchor {
    experiment: String,
    quantity: String,
    paper: f64,
    measured: f64,
    ratio: f64,
}

fn anchor(experiment: &str, quantity: &str, paper: f64, measured: f64) -> Anchor {
    Anchor {
        experiment: experiment.to_owned(),
        quantity: quantity.to_owned(),
        paper,
        measured,
        ratio: measured / paper,
    }
}

fn fig3_anchors() -> Vec<Anchor> {
    use fefet_device::variation::{VariationParams, VariationSampler};
    use imc_core::config::CurFeConfig;
    use imc_core::curfe::CurFeBlockPair;
    let cfg = CurFeConfig::paper();
    let mut s = VariationSampler::new(VariationParams::none(), 0);
    let mut w = vec![0i8; 32];
    w[0] = -1;
    let bp = CurFeBlockPair::program(&cfg, &w, &mut s);
    let active: Vec<bool> = (0..32).map(|r| r == 0).collect();
    let (i_h4, i_l4) = bp.block_currents(&active);
    vec![
        anchor("fig3", "I_H4 (nA)", -100.0, i_h4 * 1e9),
        anchor("fig3", "I_L4 (uA)", 1.5, i_l4 * 1e6),
    ]
}

fn fig7_mc_anchors() -> Vec<Anchor> {
    use analog_sim::montecarlo::run_trials_par;
    use fefet_device::variation::{VariationParams, VariationSampler};
    use imc_core::cell::CurFeCell;
    use imc_core::config::CurFeConfig;
    let cfg = CurFeConfig::paper();
    // 1000 variation-sampled ON cells, pooled across the workers; the
    // mean read current should sit on the paper's ≈100 nA ON anchor
    // (0.5 V across 5 MΩ).
    let res = run_trials_par(1000, 42, |seed| {
        let mut s = VariationSampler::new(VariationParams::paper(), seed);
        let cell = CurFeCell::program(cfg.fefet, &cfg.slc, true, cfg.drain_resistance(0), &mut s);
        Ok(cell.current(cfg.v_cm, 0.0, cfg.v_wl, true))
    });
    let mean_na = res.try_mean().expect("fig7 MC has successful trials") * 1e9;
    vec![anchor("fig7", "CurFe ON read current (nA)", 100.0, mean_na)]
}

fn fig9_circuit_anchors() -> Vec<Anchor> {
    vec![
        anchor(
            "fig9/table1",
            "CurFe circuit TOPS/W @(8b,8b)",
            12.18,
            DesignPoint::paper(Variant::CurFe).evaluate().tops_per_watt,
        ),
        anchor(
            "fig9/table1",
            "ChgFe circuit TOPS/W @(8b,8b)",
            14.47,
            DesignPoint::paper(Variant::ChgFe).evaluate().tops_per_watt,
        ),
    ]
}

fn fig11_system_anchors() -> Vec<Anchor> {
    let shapes = resnet18_shapes(32, 10);
    let sys_cur = evaluate(&shapes, &SystemConfig::paper(Design::CurFe, 4, 8));
    let sys_chg = evaluate(&shapes, &SystemConfig::paper(Design::ChgFe, 4, 8));
    vec![
        anchor(
            "fig11/table1",
            "CurFe system TOPS/W @(4b,8b)",
            12.41,
            sys_cur.tops_per_watt,
        ),
        anchor(
            "fig11/table1",
            "ChgFe system TOPS/W @(4b,8b)",
            12.92,
            sys_chg.tops_per_watt,
        ),
    ]
}

fn table1_sota_anchors() -> Vec<Anchor> {
    let ratios = headline_ratios();
    vec![
        anchor(
            "table1",
            "vs SRAM [10] (tabulated)",
            1.56,
            ratios.vs_sram_circuit,
        ),
        anchor(
            "table1",
            "vs ReRAM [16] (tabulated)",
            2.22,
            ratios.vs_reram_circuit,
        ),
        anchor(
            "table1",
            "vs Yue [9] system (tabulated)",
            1.37,
            ratios.vs_yue_system,
        ),
    ]
}

fn shift_add_ablation_anchors() -> Vec<Anchor> {
    let a = Activity::average();
    vec![
        anchor(
            "ablate_shift_add",
            "digital baseline TOPS/W @(8b,8b)",
            2.7,
            DigitalShiftAddModel::paper().tops_per_watt(8, WeightBits::W8, a),
        ),
        anchor(
            "ablate_shift_add",
            "analog baseline TOPS/W @(8b,8b)",
            10.4,
            AnalogShiftAddModel::paper().tops_per_watt(8, WeightBits::W8, a),
        ),
    ]
}

/// The `imc-cost` closed forms must keep reproducing the paper's
/// headline efficiency at the (8b,8b) operating point. Unlike the other
/// sections, this one carries **explicit tolerances** and panics on
/// drift, so a regression in the analytical model turns the run_all
/// exit code non-zero instead of just shifting a ratio column.
fn cost_model_anchors() -> Vec<Anchor> {
    let checks = [
        (Variant::CurFe, "CurFe TOPS/W @(8b,8b)", 12.18),
        (Variant::ChgFe, "ChgFe TOPS/W @(8b,8b)", 14.47),
    ];
    let mut anchors = Vec::new();
    for (variant, quantity, paper) in checks {
        let measured = DesignPoint::paper(variant).evaluate().tops_per_watt;
        let rel = (measured - paper).abs() / paper;
        // 5% explicit tolerance: today's closed forms land within 2.4%
        // (CurFe) and 0.3% (ChgFe) of the paper, so 5% flags drift
        // without tripping on the known modeling gap.
        assert!(
            rel <= 0.05,
            "cost model drifted off the paper anchor: {quantity} measured {measured:.3} \
             vs paper {paper} ({:.2}% > 5% tolerance)",
            rel * 100.0
        );
        anchors.push(anchor("cost_model", quantity, paper, measured));
    }
    // The DSE sweep must stay interactive: the acceptance bar is >=100
    // points priced under a second, with the cheapest flavor ranked
    // first at 4+ ADC bits.
    let shapes = imc_cost::mlp_shapes(784, 64, 10);
    let t0 = std::time::Instant::now();
    let table = imc_cost::sweep(&imc_cost::DseOptions::default(), &shapes);
    let wall = t0.elapsed();
    assert!(
        table.points.len() >= 100,
        "default DSE sweep shrank to {} points",
        table.points.len()
    );
    assert!(
        wall < std::time::Duration::from_secs(1),
        "default DSE sweep took {wall:?} (>= 1 s)"
    );
    anchors
}

/// One independently-failable experiment section.
type Section = (&'static str, fn() -> Vec<Anchor>);

fn main() -> ExitCode {
    let sections: Vec<Section> = vec![
        ("fig3", fig3_anchors),
        ("fig7_mc", fig7_mc_anchors),
        ("fig9_circuit", fig9_circuit_anchors),
        ("fig11_system", fig11_system_anchors),
        ("table1_sota", table1_sota_anchors),
        ("ablate_shift_add", shift_add_ablation_anchors),
        ("cost_model", cost_model_anchors),
    ];

    let mut anchors = Vec::new();
    let mut failed = Vec::new();
    for (name, run) in sections {
        match catch_unwind(AssertUnwindSafe(run)) {
            Ok(mut a) => anchors.append(&mut a),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic payload");
                eprintln!("run_all: section `{name}` FAILED: {msg}");
                failed.push(name);
            }
        }
    }

    let json = serde_json::to_string_pretty(&anchors).expect("serializes");
    let path = "results.json";
    std::fs::write(path, &json).expect("writable working directory");
    println!("wrote {} anchors to {path}", anchors.len());
    let mut worst: f64 = 1.0;
    for an in &anchors {
        println!(
            "{:<18} {:<36} paper {:>9.3}  measured {:>9.3}  ratio {:>5.2}",
            an.experiment, an.quantity, an.paper, an.measured, an.ratio
        );
        worst = worst.max((an.ratio - 1.0).abs() + 1.0);
    }
    println!("\nworst |ratio-1|: {:.3}", worst - 1.0);

    // Shed / failure accounting from the obs registry: MC trial failures
    // would otherwise fold silently into the trial totals above.
    let snap = imc_obs::registry().snapshot();
    let trials = snap.counter("sim_mc_trials_total").unwrap_or(0);
    let trial_failures = snap.counter("sim_mc_trial_failures_total").unwrap_or(0);
    println!(
        "obs: mc trials={trials} failures={trial_failures} pool_jobs={}",
        snap.counter("par_exec_jobs_total").unwrap_or(0)
    );
    if trial_failures > 0 {
        eprintln!("run_all: {trial_failures} Monte-Carlo trial(s) failed (see counters above)");
    }

    // Validate the artifact parses back before claiming success — a
    // results.json that downstream tooling cannot read is a failure even
    // if every section ran.
    let reread = std::fs::read_to_string(path).expect("just wrote it");
    match serde_json::from_str::<Vec<Anchor>>(&reread) {
        Ok(parsed) if parsed.len() == anchors.len() => {
            println!("{path} validated ({} anchors parse back)", parsed.len());
        }
        Ok(parsed) => {
            eprintln!(
                "run_all: {path} round trip lost anchors ({} written, {} parsed)",
                anchors.len(),
                parsed.len()
            );
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("run_all: {path} does not parse back: {e}");
            return ExitCode::FAILURE;
        }
    }

    imc_obs::print_summary_if_env();

    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "run_all: {} section(s) failed: {}",
            failed.len(),
            failed.join(", ")
        );
        ExitCode::FAILURE
    }
}
