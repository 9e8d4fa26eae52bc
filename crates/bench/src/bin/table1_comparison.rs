//! Table 1: comparison with the state-of-the-art analog IMC designs.

use imc_baselines::sota::{competitor_entries, headline_ratios, paper_entries};
use imc_core::energy::{DesignPoint, Variant};
use neural::models::resnet18_shapes;
use system_perf::chip::{evaluate, Design, SystemConfig};

fn main() {
    println!("=== Table 1: comparison with state-of-the-art analog IMC ===\n");
    println!(
        "{:<8} {:<6} {:<16} {:>5} {:>9} {:>10} {:>14} {:>13}",
        "ref", "tech", "cell", "node", "mode", "shift-add", "circuit TOPS/W", "system TOPS/W"
    );
    for e in competitor_entries().iter().chain(paper_entries().iter()) {
        println!(
            "{:<8} {:<6} {:<16} {:>4}n {:>9?} {:>10?} {:>8.2}@({}b,{}b) {:>13}",
            e.reference,
            format!("{:?}", e.technology),
            e.cell_type,
            e.node_nm,
            e.mode,
            e.shift_add,
            e.circuit_tops_w.0,
            e.circuit_tops_w.1,
            e.circuit_tops_w.2,
            e.system_tops_w
                .map_or("N/A".into(), |(v, i, w)| format!("{v:.2}@({i}b,{w}b)")),
        );
    }

    println!("\n--- our models reproducing the FeFET rows ---");
    let cur = DesignPoint::paper(Variant::CurFe).evaluate().tops_per_watt;
    let chg = DesignPoint::paper(Variant::ChgFe).evaluate().tops_per_watt;
    println!(
        "{}",
        imc_bench::compare_row("CurFe circuit @(8b,8b)", cur, 12.18)
    );
    println!(
        "{}",
        imc_bench::compare_row("ChgFe circuit @(8b,8b)", chg, 14.47)
    );
    let shapes = resnet18_shapes(32, 10);
    let sys_cur = evaluate(&shapes, &SystemConfig::paper(Design::CurFe, 4, 8)).tops_per_watt;
    let sys_chg = evaluate(&shapes, &SystemConfig::paper(Design::ChgFe, 4, 8)).tops_per_watt;
    println!(
        "{}",
        imc_bench::compare_row("CurFe system @(4b,8b)", sys_cur, 12.41)
    );
    println!(
        "{}",
        imc_bench::compare_row("ChgFe system @(4b,8b)", sys_chg, 12.92)
    );

    let r = headline_ratios();
    println!("\n--- headline ratios (from tabulated data) ---");
    println!(
        "vs best SRAM [10] (circuit):  {:.2}x (paper: 1.56x)",
        r.vs_sram_circuit
    );
    println!(
        "vs best ReRAM [16] (circuit): {:.2}x (paper: 2.22x)",
        r.vs_reram_circuit
    );
    println!(
        "vs Yue [9] (system):          {:.2}x (paper: 1.37x)",
        r.vs_yue_system
    );
    println!("\n--- headline ratios (from OUR models) ---");
    println!(
        "ChgFe/[10]: {:.2}x   ChgFe/[16]: {:.2}x   sys ChgFe/[9]: {:.2}x",
        chg / 9.26,
        chg / 6.53,
        sys_chg / 9.40
    );
}
