//! Benchmark entry point.
//!
//! ```text
//! swiftdir-perfbench --workload <spec_o3|parsec_4c|fuzz_campaign|explore_dfs>
//!                    --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats passes over the workload's fixed unit set for about
//! `--seconds` seconds (at least two passes) and reports the end-to-end
//! metrics; `--trace 1` runs one traced pass and reports the per-layer
//! metrics. The last line of standard output is one JSON object.

use std::time::Instant;

use swiftdir_perfbench::spans::Layer;
use swiftdir_perfbench::{
    end_to_end, peak_rss_mb, per_layer_metrics, run_pass, substrate, traced_run, units, Metric,
    Pass, Workload,
};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(40.0),
        trace: trace.unwrap_or(false),
    })
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn measure(args: &Args) -> Result<String, String> {
    let units = units(args.workload, args.seed);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let pass = run_pass(&units);
        let last = pass.wall_s;
        passes.push(pass);
        // Stop at a pass boundary once another pass would overrun; every
        // unit gets at least two samples.
        if passes.len() >= 2 && start.elapsed().as_secs_f64() + last > args.seconds {
            break;
        }
    }

    let attempted: usize = passes.iter().map(|p| p.units.len()).sum();
    let failed: usize = passes.iter().map(Pass::failed).sum();
    let summary = end_to_end(&passes, peak_rss_mb()?);
    let value = |name: &str| {
        summary
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .expect("summary metric")
    };
    let wall_s = value("wall_s");

    println!(
        "workload {}: {}",
        args.workload.name(),
        args.workload.describe()
    );
    println!(
        "closed loop, one client; simulated caches start cold in every unit; \
         seed {}; {} passes of {} units",
        args.seed,
        passes.len(),
        units.len()
    );
    println!(
        "sim_digest {:#018x} (identical across passes: {})",
        summary.sim_digest, summary.deterministic
    );
    let instrs: u64 = passes[0].units.iter().map(|u| u.instructions).sum();
    if instrs > 0 {
        println!(
            "sim_kips {:.1} (simulated kilo-instructions per host second)",
            instrs as f64 / wall_s / 1e3
        );
    }
    if args.workload == Workload::FuzzCampaign {
        println!("seeds_per_s {:.1}", units.len() as f64 / wall_s);
    }
    println!(
        "unit_ms_p50 {:.3} and unit_ms_tail (p{}) {:.3} over {} units per pass",
        value("unit_ms_p50"),
        summary.tail_percentile,
        value("unit_ms_tail"),
        units.len()
    );
    let walls: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
    println!("pass wall_s {} (unscaled)", walls.join(" "));
    let scales: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.scale())).collect();
    println!(
        "pass host-speed scale {} (reference {} ms)",
        scales.join(" "),
        swiftdir_perfbench::HOST_SPEED_REF_MS
    );
    Ok(result_json(
        failed == 0 && summary.deterministic,
        attempted,
        failed,
        &summary.metrics,
    ))
}

fn traced(args: &Args) -> Result<String, String> {
    let calib_before = substrate::host_speed_ms();
    let run = traced_run(args.workload, args.seed);
    let calib_after = substrate::host_speed_ms();
    let calib = (calib_before + calib_after) / 2.0;
    let metrics = per_layer_metrics(args.workload, &run, calib);

    let out_dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let spans = out_dir.join(format!("{}.spans.tsv", args.workload.name()));
    std::fs::write(&spans, &run.first_unit_spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;

    println!(
        "workload {}: {}",
        args.workload.name(),
        args.workload.describe()
    );
    println!(
        "traced pass, seed {}; sim_digest {:#018x}; first unit's spans in {}",
        args.seed,
        run.sim_digest,
        spans.display()
    );
    println!("host_calib_ms before {calib_before:.3} after {calib_after:.3}");
    println!("self time by layer (s, spans):");
    for layer in Layer::ALL {
        println!(
            "  {:<34} {:>12.6} {:>10}",
            layer.name(),
            run.self_times.secs(layer),
            run.self_times.calls(layer)
        );
    }
    let adds_up = run.layers_add_up();
    println!(
        "layer self times sum to {:.6} s of {:.6} s traced wall: {adds_up}",
        run.self_times.total(),
        run.traced_wall_s()
    );
    for m in &metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    Ok(result_json(
        run.failed == 0 && adds_up,
        run.attempted,
        run.failed,
        &metrics,
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("swiftdir-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = if args.trace {
        traced(&args)
    } else {
        measure(&args)
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("swiftdir-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
