//! The compile pipeline's obs counters and pass spans.
//!
//! This test lives alone in its own binary: it compares the
//! process-global `imc_compile_programmed_cells_total` and the
//! `span_us{span="pass.*"}` counts before and after one `compile`,
//! which any compile running concurrently in the same process (the
//! crate's lib tests run many) would also increment.

use imc_compile::image::MlpArch;
use imc_compile::pipeline::{compile, CompileOptions};
use imc_compile::wear::WearLedger;
use neural::imc_exec::ImcDesign;

#[test]
fn compile_reports_pass_spans_and_programming_counters() {
    let mut opts = CompileOptions::new(
        MlpArch {
            features: 24,
            hidden: 12,
            classes: 6,
        },
        ImcDesign::CurFe,
    );
    opts.probe_count = 16;
    let passes = ["placement", "remap", "programming", "wear", "predict"];
    let span_count = |snap: &imc_obs::Snapshot, pass: &str| {
        snap.histogram_with("span_us", &[("span", format!("pass.{pass}").as_str())])
            .map(|s| s.count)
    };
    let before = imc_obs::registry().snapshot();
    let cells0 = before
        .counter("imc_compile_programmed_cells_total")
        .unwrap_or(0);
    let mut ledger = WearLedger::fresh(opts.geometry.banks);
    let out = compile(&opts, &mut ledger).unwrap();
    let after = imc_obs::registry().snapshot();
    assert_eq!(
        after.counter("imc_compile_programmed_cells_total").unwrap(),
        cells0 + out.totals.cells
    );
    assert!(after.counter("imc_compile_runs_total").unwrap() > 0);
    for pass in passes {
        let now = span_count(&after, pass).unwrap_or_else(|| panic!("span pass.{pass} missing"));
        assert_eq!(
            now,
            span_count(&before, pass).unwrap_or(0) + 1,
            "one compile closes span pass.{pass} once"
        );
    }
    let t = &out.timings;
    for (pass, s) in passes.iter().zip([
        t.placement_s,
        t.remap_s,
        t.programming_s,
        t.wear_s,
        t.predict_s,
    ]) {
        assert!(s > 0.0, "PassTimings reports pass.{pass} as {s} s");
    }
}
