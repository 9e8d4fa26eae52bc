//! `imc-cost` — price CurFe/ChgFe macro designs from closed forms.
//!
//! ```text
//! imc-cost dse [--image chip-image.json] [--features 784 --hidden 64
//!              --classes 10] [--input-bits 8] [--top 15] [--json out.json]
//! imc-cost estimate (--image chip-image.json | --design curfe|chgfe)
//!                   [--input-bits N] [--json out.json]
//! imc-cost calibrate [--write fixtures/calibration.json]
//! ```
//!
//! `dse` sweeps geometry × ADC resolution × variant for a workload and
//! prints a ranked design table; `estimate` prices a single image or
//! paper design point; `calibrate` re-runs the `analog-sim` transients
//! behind the calibration fixture and reports closed-form error.

use std::process::ExitCode;

use imc_cost::calibrate::{generate_fixture, render_report};
use imc_cost::dse::{render_table, sweep, DseOptions};
use imc_cost::inference::{inference_cost, mlp_shapes, LayerShape};
use imc_cost::{DesignPoint, Variant, WeightBits};
use serde::{Deserialize, Serialize};

fn usage() -> &'static str {
    "imc-cost: closed-form energy/latency/area pricing for IMC macros\n\
     \n\
     USAGE:\n\
       imc-cost dse      [--image PATH] [--features N --hidden N --classes N]\n\
                         [--input-bits N] [--top N] [--json PATH]\n\
       imc-cost estimate (--image PATH | --design curfe|chgfe)\n\
                         [--input-bits N] [--json PATH]\n\
       imc-cost calibrate [--write PATH]\n\
     \n\
     OPTIONS:\n\
       --image PATH      price the geometry/shapes of a compiled ChipImage\n\
       --design NAME     curfe|chgfe at the paper geometry (estimate only)\n\
       --features N      MLP input features  (default 784)\n\
       --hidden N        MLP hidden units    (default 64)\n\
       --classes N       MLP output classes  (default 10)\n\
       --input-bits N    bit-serial input precision override\n\
       --top N           ranked rows to print (default 15)\n\
       --json PATH       also write the full result as JSON\n\
       --write PATH      write the regenerated calibration fixture\n"
}

/// The subset of a v2 `ChipImage` the cost model needs. Parsed with a
/// mirror struct (the offline serde tolerates unknown fields) so this
/// crate does not depend on `imc-compile`.
#[derive(Debug, Deserialize)]
struct ArchLite {
    features: usize,
    hidden: usize,
    classes: usize,
}

#[derive(Debug, Deserialize)]
struct ImcLite {
    design: String,
    adc_bits: u32,
    input_bits: u32,
    weight_bits: u32,
}

#[derive(Debug, Deserialize)]
struct GeometryLite {
    banks: usize,
    rows: usize,
    block_pairs_per_bank: usize,
}

#[derive(Debug, Deserialize)]
struct ImageLite {
    arch: ArchLite,
    imc: ImcLite,
    geometry: GeometryLite,
}

impl ImageLite {
    fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
    }

    fn point(&self) -> Result<DesignPoint, String> {
        Ok(DesignPoint {
            variant: Variant::parse(&self.imc.design)?,
            banks: self.geometry.banks,
            rows: self.geometry.rows,
            block_pairs_per_bank: self.geometry.block_pairs_per_bank,
            adc_bits: self.imc.adc_bits,
            input_bits: self.imc.input_bits,
            weight_bits: if self.imc.weight_bits <= 4 {
                WeightBits::W4
            } else {
                WeightBits::W8
            },
        })
    }

    fn layers(&self) -> Vec<LayerShape> {
        mlp_shapes(self.arch.features, self.arch.hidden, self.arch.classes)
    }
}

/// JSON payload of `estimate`.
#[derive(Debug, Serialize)]
struct EstimateReport {
    point: DesignPoint,
    cost: imc_cost::MacroCost,
    inference: imc_cost::InferenceCost,
}

#[derive(Default)]
struct Args {
    image: Option<String>,
    design: Option<String>,
    features: usize,
    hidden: usize,
    classes: usize,
    input_bits: Option<u32>,
    top: usize,
    json: Option<String>,
    write: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        features: 784,
        hidden: 64,
        classes: 10,
        top: 15,
        ..Args::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--image" => a.image = Some(val("--image")?),
            "--design" => a.design = Some(val("--design")?),
            "--features" => {
                a.features = val("--features")?
                    .parse()
                    .map_err(|e| format!("--features: {e}"))?;
            }
            "--hidden" => {
                a.hidden = val("--hidden")?
                    .parse()
                    .map_err(|e| format!("--hidden: {e}"))?;
            }
            "--classes" => {
                a.classes = val("--classes")?
                    .parse()
                    .map_err(|e| format!("--classes: {e}"))?;
            }
            "--input-bits" => {
                a.input_bits = Some(
                    val("--input-bits")?
                        .parse()
                        .map_err(|e| format!("--input-bits: {e}"))?,
                );
            }
            "--top" => a.top = val("--top")?.parse().map_err(|e| format!("--top: {e}"))?,
            "--json" => a.json = Some(val("--json")?),
            "--write" => a.write = Some(val("--write")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(a)
}

fn write_json<T: Serialize>(path: &str, value: &T) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))
}

fn cmd_dse(a: &Args) -> Result<(), String> {
    let (layers, mut opts) = match &a.image {
        Some(path) => {
            let img = ImageLite::load(path)?;
            let point = img.point()?;
            let mut opts = DseOptions {
                input_bits: point.input_bits,
                weight_bits: point.weight_bits,
                ..DseOptions::default()
            };
            opts.block_pairs_per_bank = point.block_pairs_per_bank;
            (img.layers(), opts)
        }
        None => (
            mlp_shapes(a.features, a.hidden, a.classes),
            DseOptions::default(),
        ),
    };
    if let Some(bits) = a.input_bits {
        opts.input_bits = bits;
    }
    let start = std::time::Instant::now();
    let table = sweep(&opts, &layers);
    let wall = start.elapsed();
    println!(
        "imc-cost dse: {} design points in {:.1} ms ({} MAC layers, {}-bit inputs)",
        table.points.len(),
        wall.as_secs_f64() * 1.0e3,
        layers.len(),
        opts.input_bits,
    );
    print!("{}", render_table(&table, a.top));
    if let Some(path) = &a.json {
        write_json(path, &table)?;
        println!("full table written to {path}");
    }
    Ok(())
}

fn cmd_estimate(a: &Args) -> Result<(), String> {
    let (point, layers) = match (&a.image, &a.design) {
        (Some(path), _) => {
            let img = ImageLite::load(path)?;
            (img.point()?, img.layers())
        }
        (None, Some(d)) => (
            DesignPoint::paper(Variant::parse(d)?),
            mlp_shapes(a.features, a.hidden, a.classes),
        ),
        (None, None) => return Err("estimate needs --image or --design".into()),
    };
    let point = DesignPoint {
        input_bits: a.input_bits.unwrap_or(point.input_bits),
        ..point
    };
    let cost = point.evaluate();
    let inference = inference_cost(&point, &layers);
    println!(
        "design {}  banks {}  rows {}  block-pairs {}  adc {}b  inputs {}b",
        point.variant.name(),
        point.banks,
        point.rows,
        point.block_pairs_per_bank,
        point.adc_bits,
        point.input_bits,
    );
    println!(
        "cycle: {:.3} pJ over {:.1} ns  ({:.0} MACs/cycle)",
        cost.cycle_energy_j * 1.0e12,
        cost.t_cycle_s * 1.0e9,
        cost.macs_per_cycle,
    );
    println!(
        "macro: {:.2} TOPS/W  {:.4} peak TOPS  {:.4} mm²  {:.3} TOPS/mm²",
        cost.tops_per_watt,
        cost.peak_tops,
        cost.area.total_mm2(),
        cost.tops_per_mm2,
    );
    println!(
        "per inference: {:.3} nJ  {:.2} µs  ({} bank-cycles, {} MACs)",
        inference.energy_j * 1.0e9,
        inference.latency_s * 1.0e6,
        inference.bank_cycles,
        inference.macs,
    );
    if let Some(path) = &a.json {
        write_json(
            path,
            &EstimateReport {
                point,
                cost,
                inference,
            },
        )?;
        println!("estimate written to {path}");
    }
    Ok(())
}

fn cmd_calibrate(a: &Args) -> Result<(), String> {
    eprintln!("imc-cost calibrate: running analog-sim transients…");
    let fix = generate_fixture();
    print!("{}", render_report(&fix));
    if let Some(path) = &a.write {
        write_json(path, &fix)?;
        println!("fixture written to {path}");
    }
    let violations = fix.violations();
    if violations.is_empty() {
        println!(
            "calibration holds: {} quantities within tolerance",
            fix.items.len()
        );
        Ok(())
    } else {
        Err(format!(
            "calibration violated:\n  {}",
            violations.join("\n  ")
        ))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    if cmd == "--help" || cmd == "-h" {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let parsed = match parse_args(&args[1..]) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("imc-cost: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let res = match cmd.as_str() {
        "dse" => cmd_dse(&parsed),
        "estimate" => cmd_estimate(&parsed),
        "calibrate" => cmd_calibrate(&parsed),
        other => Err(format!("unknown subcommand `{other}`")),
    };
    match res {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("imc-cost: {e}");
            ExitCode::FAILURE
        }
    }
}
