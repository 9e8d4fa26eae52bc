//! EXPERIMENTS.md quotes every `run_all` anchor; this keeps the quotes
//! equal to the committed `results.json`. Each anchor maps to the text
//! of its EXPERIMENTS.md row with `{}` where the measured value stands,
//! and the number of decimals printed there. Anchors that measure the
//! same quantity (the circuit and `cost_model` TOPS/W) share a row, so
//! the row fails here if they ever disagree. An anchor that `run_all`
//! adds or renames fails here until EXPERIMENTS.md quotes it.

use serde_json::Value;

/// `(experiment, quantity, decimals, row text)` for every anchor.
const ROWS: &[(&str, &str, usize, &str)] = &[
    (
        "fig3",
        "I_H4 (nA)",
        1,
        "| I_H4 (weight 0b1111_1111) | −100 nA | {} nA (ratio",
    ),
    ("fig3", "I_L4 (uA)", 3, "| I_L4 | +1.5 µA | +{} µA (ratio"),
    (
        "fig7",
        "CurFe ON read current (nA)",
        2,
        "| CurFe mean ON read current (`run_all`, 1000 cells) | 100 nA | {} nA |",
    ),
    (
        "fig9/table1",
        "CurFe circuit TOPS/W @(8b,8b)",
        2,
        "| CurFe @(8b,8b) | 12.18 TOPS/W | **{}** (ratio",
    ),
    (
        "fig9/table1",
        "ChgFe circuit TOPS/W @(8b,8b)",
        2,
        "| ChgFe @(8b,8b) | 14.47 TOPS/W | **{}** (ratio",
    ),
    (
        "fig11/table1",
        "CurFe system TOPS/W @(4b,8b)",
        2,
        "| CurFe system @(4b,8b), CIFAR10-ResNet18 | 12.41 TOPS/W | **{}** (ratio",
    ),
    (
        "fig11/table1",
        "ChgFe system TOPS/W @(4b,8b)",
        2,
        "| ChgFe system @(4b,8b) | 12.92 TOPS/W | **{}** (ratio",
    ),
    (
        "table1",
        "vs SRAM [10] (tabulated)",
        2,
        "| best FeFET vs SRAM [10], circuit | 1.56× | {}× |",
    ),
    (
        "table1",
        "vs ReRAM [16] (tabulated)",
        2,
        "| best FeFET vs ReRAM [16], circuit | 2.22× | {}× |",
    ),
    (
        "table1",
        "vs Yue [9] system (tabulated)",
        2,
        "| FeFET vs Yue [9], system | 1.37× | {}× |",
    ),
    (
        "ablate_shift_add",
        "digital baseline TOPS/W @(8b,8b)",
        1,
        "digital {} TOPS/W @(8b,8b)",
    ),
    (
        "ablate_shift_add",
        "analog baseline TOPS/W @(8b,8b)",
        1,
        "analog {} / digital",
    ),
    (
        "cost_model",
        "CurFe TOPS/W @(8b,8b)",
        2,
        "| CurFe @(8b,8b) | 12.18 TOPS/W | **{}** (ratio",
    ),
    (
        "cost_model",
        "ChgFe TOPS/W @(8b,8b)",
        2,
        "| ChgFe @(8b,8b) | 14.47 TOPS/W | **{}** (ratio",
    ),
];

fn read(file: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn experiments_md_quotes_every_measured_anchor_as_printed() {
    let results: Value = serde_json::from_str(&read("results.json")).expect("results.json parses");
    let anchors = results.items().expect("results.json is an array");
    let md = read("EXPERIMENTS.md");
    assert_eq!(
        anchors.len(),
        ROWS.len(),
        "one EXPERIMENTS.md row per anchor"
    );
    assert!(
        md.contains(&format!("across the {} anchors", anchors.len())),
        "EXPERIMENTS.md states a different anchor count than results.json's {}",
        anchors.len()
    );
    for anchor in anchors {
        let field = |name| anchor.field(name).expect("anchor field");
        let experiment = field("experiment").as_str().expect("experiment");
        let quantity = field("quantity").as_str().expect("quantity");
        let measured = field("measured").as_f64().expect("measured");
        let &(_, _, decimals, row) = ROWS
            .iter()
            .find(|r| r.0 == experiment && r.1 == quantity)
            .unwrap_or_else(|| panic!("no EXPERIMENTS.md row for {experiment} / {quantity}"));
        let quoted = format!("{measured:.decimals$}").replace('-', "−");
        let want = row.replace("{}", &quoted);
        assert!(
            md.contains(&want),
            "{experiment} / {quantity}: EXPERIMENTS.md should read `{want}` (measured {measured})"
        );
    }
}
