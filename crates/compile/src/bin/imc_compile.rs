//! `imc-compile` — compile a model checkpoint into a deployable chip
//! image, inspect one, or diff two.
//!
//! ```text
//! imc-compile compile --design chgfe --fault-rate 2e-3 --out chip.json
//! imc-compile inspect chip.json
//! imc-compile diff chip.json other.json
//! imc-compile make-checkpoint --out ckpt.json
//! ```

use imc_compile::image::{ChipImage, MlpArch};
use imc_compile::pipeline::{compile, CompileOptions, DEFAULT_WEIGHT_SEED};
use imc_compile::wear::WearLedger;
use imc_core::faults::FaultModel;
use neural::imc_exec::ImcDesign;
use std::process::ExitCode;

const USAGE: &str = "usage: imc-compile <command> [flags]

commands:
  compile          compile a model into a chip image
    --out PATH           image output path (default chip-image.json)
    --design NAME        curfe | chgfe (default curfe)
    --features N         input features (default 784)
    --hidden N           hidden width (default 64)
    --classes N          output classes (default 10)
    --seed N             weight-init seed (default 0x5E44E001)
    --checkpoint PATH    trained-weight checkpoint JSON
    --fault-rate P       per-cell stuck fault probability (split evenly
                         between stuck-on and stuck-off; default 0)
    --fault-seed N       fault-map seed (default 42)
    --no-remap           skip relocation/clamping (ablation baseline)
    --base PATH          incremental compile: diff against this image,
                         reprogram only changed cells, reuse placement
    --stride N           program every N-th cell (default 1 = all)
    --probes N           probe-set size (default 64)
    --wear-ledger PATH   persistent per-bank wear ledger (JSON)
    --manifest PATH      also write the manifest alone (CI artifact)
  inspect IMAGE      print a human summary of an image
  diff A B           list differences between two images (exit 1 if any)
  fleet IMAGE        cut a compiled image into per-chip shard images
    --shards N           shard count (default 2)
    --out-dir DIR        output directory (default .); writes
                         shard_<i>.json per shard plus fleet.json,
                         the router manifest
  make-checkpoint    write an untrained checkpoint for the architecture
    --out PATH --features N --hidden N --classes N --seed N";

fn parse_design(s: &str) -> Result<ImcDesign, String> {
    match s.to_ascii_lowercase().as_str() {
        "curfe" => Ok(ImcDesign::CurFe),
        "chgfe" => Ok(ImcDesign::ChgFe),
        other => Err(format!("unknown design `{other}` (expected curfe|chgfe)")),
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("imc-compile: {msg}");
    ExitCode::from(2)
}

struct Flags {
    args: Vec<String>,
}

impl Flags {
    /// Takes `--name value` out of the argument list, if present.
    fn take(&mut self, name: &str) -> Result<Option<String>, String> {
        if let Some(i) = self.args.iter().position(|a| a == name) {
            if i + 1 >= self.args.len() {
                return Err(format!("{name} needs a value"));
            }
            self.args.remove(i);
            Ok(Some(self.args.remove(i)))
        } else {
            Ok(None)
        }
    }

    /// Takes a bare `--name` switch.
    fn switch(&mut self, name: &str) -> bool {
        if let Some(i) = self.args.iter().position(|a| a == name) {
            self.args.remove(i);
            true
        } else {
            false
        }
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        match self.take(name)? {
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse `{v}`")),
            None => Ok(default),
        }
    }

    fn seed(&mut self, name: &str, default: u64) -> Result<u64, String> {
        match self.take(name)? {
            Some(v) => {
                let digits = v.trim_start_matches("0x");
                if digits.len() != v.len() {
                    u64::from_str_radix(digits, 16)
                } else {
                    v.parse()
                }
                .map_err(|_| format!("{name}: cannot parse `{v}`"))
            }
            None => Ok(default),
        }
    }

    fn finish(self) -> Result<(), String> {
        if let Some(a) = self.args.first() {
            return Err(format!("unrecognized argument `{a}`"));
        }
        Ok(())
    }
}

fn arch_flags(f: &mut Flags) -> Result<MlpArch, String> {
    Ok(MlpArch {
        features: f.parsed("--features", 784)?,
        hidden: f.parsed("--hidden", 64)?,
        classes: f.parsed("--classes", 10)?,
    })
}

fn cmd_compile(mut f: Flags) -> Result<(), String> {
    let out = f.take("--out")?.unwrap_or_else(|| "chip-image.json".into());
    let design = parse_design(&f.take("--design")?.unwrap_or_else(|| "curfe".into()))?;
    let arch = arch_flags(&mut f)?;
    let mut opts = CompileOptions::new(arch, design);
    opts.weight_seed = f.seed("--seed", DEFAULT_WEIGHT_SEED)?;
    opts.checkpoint = f.take("--checkpoint")?;
    let rate: f64 = f.parsed("--fault-rate", 0.0)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("--fault-rate {rate} outside [0, 1]"));
    }
    opts.fault_model = FaultModel {
        p_stuck_on: rate / 2.0,
        p_stuck_off: rate / 2.0,
    };
    opts.fault_seed = f.seed("--fault-seed", 42)?;
    opts.remap = !f.switch("--no-remap");
    opts.base = f.take("--base")?;
    opts.program.stride = f.parsed("--stride", 1usize)?;
    if opts.program.stride == 0 {
        return Err("--stride must be at least 1".into());
    }
    opts.probe_count = f.parsed("--probes", 64usize)?;
    let ledger_path = f.take("--wear-ledger")?;
    let manifest_path = f.take("--manifest")?;
    f.finish()?;

    let mut ledger = match &ledger_path {
        Some(p) => WearLedger::load_or_fresh(std::path::Path::new(p), opts.geometry.banks)
            .map_err(|e| e.to_string())?,
        None => WearLedger::fresh(opts.geometry.banks),
    };
    let result = compile(&opts, &mut ledger).map_err(|e| e.to_string())?;
    result.image.save(&out).map_err(|e| e.to_string())?;

    // Round-trip check: the artifact on disk must reload bit-identically.
    let back = ChipImage::load(&out).map_err(|e| e.to_string())?;
    if back.placement != result.image.placement {
        return Err("round-trip placement table mismatch".into());
    }
    if back != result.image {
        return Err("round-trip image mismatch".into());
    }

    if let Some(p) = &ledger_path {
        ledger
            .save(std::path::Path::new(p))
            .map_err(|e| e.to_string())?;
    }
    if let Some(p) = manifest_path {
        let json =
            serde_json::to_string_pretty(&result.image.manifest).map_err(|e| e.to_string())?;
        std::fs::write(&p, format!("{json}\n")).map_err(|e| format!("write {p}: {e}"))?;
    }

    let m = &result.image.manifest;
    let t = &result.timings;
    println!("compiled {} -> {out}", m.model);
    println!(
        "  placement   {:>9.3} ms  {} tiles on {} banks, {} slot(s)",
        t.placement_s * 1e3,
        m.tiles,
        m.banks_used,
        m.slots
    );
    println!(
        "  programming {:>9.3} ms  {} cells (stride {}), {} pulses, {:.3e} J",
        t.programming_s * 1e3,
        result.totals.cells,
        m.program_stride,
        result.totals.pulses,
        result.totals.energy_j
    );
    println!(
        "  remap       {:>9.3} ms  {} faults: {} columns relocated, {} weights clamped",
        t.remap_s * 1e3,
        m.faults.total_faults,
        m.faults.relocated.len(),
        m.faults.clamped.len()
    );
    println!(
        "  wear        {:>9.3} ms  refresh interval {}",
        t.wear_s * 1e3,
        m.refresh.first().and_then(|r| r.interval_s).map_or_else(
            || "none needed".into(),
            |s| format!("{:.1} days", s / 86_400.0)
        )
    );
    if let Some(d) = &m.delta {
        println!(
            "  delta        base {:#018x}: {} of {} cells touched ({:.2}%), {} tiles reprogrammed",
            d.base_digest,
            d.touched_cells,
            d.total_cells,
            d.touched_fraction * 100.0,
            d.reprogrammed_tiles
        );
    }
    println!(
        "  predict     {:>9.3} ms  oracle agreement {} (noise flip rate {})",
        t.predict_s * 1e3,
        fmt_score(m.oracle_agreement),
        fmt_score(m.noise_flip_rate)
    );
    Ok(())
}

/// Renders an optional predict-pass score; `None` prints as unmeasured
/// rather than masquerading as a perfect 1.0.
fn fmt_score(v: Option<f64>) -> String {
    v.map_or_else(|| "unmeasured (no probes)".into(), |x| format!("{x:.3}"))
}

fn cmd_inspect(mut f: Flags) -> Result<(), String> {
    let path = f
        .take("--image")?
        .or_else(|| (!f.args.is_empty()).then(|| f.args.remove(0)))
        .ok_or("inspect needs an image path")?;
    f.finish()?;
    let img = ChipImage::load(&path).map_err(|e| e.to_string())?;
    let m = &img.manifest;
    println!("{path}: format v{}, {}", img.version, m.model);
    println!(
        "  arch {}x{}x{}  design {}  weight seed {:#x}",
        img.arch.features, img.arch.hidden, img.arch.classes, img.imc.design, img.weight_seed
    );
    println!(
        "  placement: {} weights in {} tiles on {} banks ({} slot(s), {} spare cols/bank)",
        m.total_weights, m.tiles, m.banks_used, m.slots, img.placement.spare_cols_w8
    );
    let cells: u64 = m.program.iter().map(|b| b.cells).sum();
    let pulses: u64 = m.program.iter().map(|b| b.pulses).sum();
    let energy: f64 = m.program.iter().map(|b| b.energy_j).sum();
    let worst = m
        .program
        .iter()
        .map(|b| b.max_abs_residual_v)
        .fold(0.0f64, f64::max);
    println!(
        "  program: {cells} cells (stride {}), {pulses} pulses, {energy:.3e} J, worst residual {:.1} mV",
        m.program_stride,
        worst * 1e3
    );
    println!(
        "  faults (seed {}): {} total; remap {}; {} relocated, {} clamped, {} residual; spares {}/{} clean",
        m.faults.seed,
        m.faults.total_faults,
        if m.faults.remap_enabled { "on" } else { "off" },
        m.faults.relocated.len(),
        m.faults.clamped.len(),
        m.faults.residual_faulty_cells,
        m.faults.spares_clean,
        m.faults.spares_total
    );
    for r in &m.refresh {
        match r.interval_s {
            Some(s) => println!(
                "  refresh: bank {} every {:.2} days (limiting V_TH {:.3} V, first at {:.2} days)",
                r.bank,
                s / 86_400.0,
                r.limiting_vth,
                r.first_refresh_s.unwrap_or(s) / 86_400.0
            ),
            None => println!("  refresh: bank {} never (within horizon)", r.bank),
        }
    }
    println!(
        "  probes: {} (seed {:#x}), oracle agreement {}, noise flip rate {}",
        m.probe_count,
        m.probe_seed,
        fmt_score(m.oracle_agreement),
        fmt_score(m.noise_flip_rate)
    );
    if let Some(d) = &m.delta {
        println!(
            "  delta: base {:#018x}, {} of {} cells touched ({:.2}%), {} tiles",
            d.base_digest,
            d.touched_cells,
            d.total_cells,
            d.touched_fraction * 100.0,
            d.reprogrammed_tiles
        );
    }
    let pp = img.prepack().map_err(|e| e.to_string())?;
    println!(
        "  prepack: {} MAC layers, {} chunks, {} packed u64 words ({} B resident)",
        pp.mac_layers, pp.chunks, pp.words, pp.bytes
    );
    let g = &img.geometry;
    println!(
        "  geometry: {} banks x {} rows x {} block pairs",
        g.banks, g.rows, g.block_pairs_per_bank
    );
    let point = imc_cost::DesignPoint {
        variant: imc_cost::Variant::parse(&img.imc.design)?,
        banks: g.banks,
        rows: g.rows,
        block_pairs_per_bank: g.block_pairs_per_bank,
        adc_bits: img.imc.adc_bits,
        input_bits: img.imc.input_bits,
        weight_bits: if img.imc.weight_bits <= 4 {
            imc_core::energy::WeightBits::W4
        } else {
            imc_core::energy::WeightBits::W8
        },
    };
    let cost = point.evaluate();
    let inf = imc_cost::inference_cost(
        &point,
        &imc_cost::mlp_shapes(img.arch.features, img.arch.hidden, img.arch.classes),
    );
    println!(
        "  cost: {:.2} TOPS/W  {:.4} mm²  {:.3} nJ / {:.2} µs per inference ({} bank-cycles)",
        cost.tops_per_watt,
        cost.area.total_mm2(),
        inf.energy_j * 1.0e9,
        inf.latency_s * 1.0e6,
        inf.bank_cycles
    );
    Ok(())
}

fn cmd_diff(mut f: Flags) -> Result<bool, String> {
    if f.args.len() != 2 {
        return Err("diff needs exactly two image paths".into());
    }
    let (a, b) = (f.args.remove(0), f.args.remove(0));
    let ia = ChipImage::load(&a).map_err(|e| e.to_string())?;
    let ib = ChipImage::load(&b).map_err(|e| e.to_string())?;
    let lines = ia.diff(&ib);
    if lines.is_empty() {
        println!("{a} and {b} are equivalent");
        return Ok(true);
    }
    for l in &lines {
        println!("{l}");
    }
    Ok(false)
}

fn cmd_fleet(mut f: Flags) -> Result<(), String> {
    let shards: usize = f.parsed("--shards", 2usize)?;
    let out_dir = f.take("--out-dir")?.unwrap_or_else(|| ".".into());
    let path = f
        .take("--image")?
        .or_else(|| (!f.args.is_empty()).then(|| f.args.remove(0)))
        .ok_or("fleet needs an image path")?;
    f.finish()?;
    let base = ChipImage::load(&path).map_err(|e| e.to_string())?;
    let (images, manifest) =
        imc_compile::fleet::shard_image(&base, shards, "shard_").map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("mkdir {out_dir}: {e}"))?;
    for (img, shard) in images.iter().zip(&manifest.shards) {
        let p = format!("{out_dir}/{}", shard.image);
        img.save(&p).map_err(|e| e.to_string())?;
        let ranges: Vec<String> = shard
            .layer_chunks
            .iter()
            .map(|r| format!("{}..{}", r[0], r[1]))
            .collect();
        println!(
            "wrote {p}: shard {}/{shards}, digest {:#018x}, chunks [{}]",
            shard.index,
            shard.digest,
            ranges.join(", ")
        );
    }
    let mpath = format!("{out_dir}/fleet.json");
    manifest.save(&mpath).map_err(|e| e.to_string())?;
    println!(
        "wrote {mpath}: {shards} shards of {}x{}x{} (base digest {:#018x})",
        manifest.arch.features, manifest.arch.hidden, manifest.arch.classes, manifest.base_digest
    );
    Ok(())
}

fn cmd_make_checkpoint(mut f: Flags) -> Result<(), String> {
    let out = f.take("--out")?.unwrap_or_else(|| "checkpoint.json".into());
    let arch = arch_flags(&mut f)?;
    let seed = f.seed("--seed", DEFAULT_WEIGHT_SEED)?;
    f.finish()?;
    let mut seq = arch.build(seed);
    let ckpt = neural::checkpoint::save(&mut seq);
    let json = serde_json::to_string(&ckpt).map_err(|e| e.to_string())?;
    std::fs::write(&out, json).map_err(|e| format!("write {out}: {e}"))?;
    println!(
        "wrote {out}: {}x{}x{} checkpoint (seed {seed:#x})",
        arch.features, arch.hidden, arch.classes
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let cmd = args.remove(0);
    let flags = Flags { args };
    let result = match cmd.as_str() {
        "compile" => cmd_compile(flags),
        "inspect" => cmd_inspect(flags),
        "diff" => {
            return match cmd_diff(flags) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(1),
                Err(e) => fail(&e),
            }
        }
        "fleet" => cmd_fleet(flags),
        "make-checkpoint" => cmd_make_checkpoint(flags),
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}
