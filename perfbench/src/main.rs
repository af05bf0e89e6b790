//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//! perfbench record --out <file>
//! ```
//!
//! A run prints notes, then one JSON result line. `record` runs every
//! job once and writes the expected outputs the benchmark checks.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::golden::Golden;
use perfbench::jobs::{self, execute, Job};
use perfbench::metrics::{end_to_end, per_layer, render_json};
use perfbench::trace::{write_spans, Tracer};
use perfbench::{run, Options, WorkloadKind};

fn usage() -> String {
    "usage: perfbench --workload <sweep-1c|sweep-8c|attack-2c|serve-mix> --seed <n> \
     --seconds <s> --trace <0|1> [--work-dir <dir>]\n       perfbench record --out <file>"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    WorkloadKind::from_name(v).ok_or_else(|| format!("unknown workload `{v}`"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                });
            }
            "--work-dir" => work_dir = PathBuf::from(value()?),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir,
        tiny: false,
    })
}

/// Runs every job of every workload and every secret set once, on two
/// threads, and writes their outputs.
fn record(out: &str) -> Result<(), String> {
    let mut all: Vec<Job> = jobs::sweep_1c_jobs();
    all.extend(jobs::sweep_8c_jobs());
    for set in 0..jobs::SECRET_SETS {
        all.extend(jobs::attack_2c_jobs(set));
    }
    let results = pl_bench::sweep::par_map(2, &all, |_, job| {
        execute(job, &mut Tracer::new(false, std::time::Instant::now()), 0)
    });
    let mut entries = Vec::with_capacity(all.len());
    for (job, r) in all.iter().zip(results) {
        entries.push((job.key.clone(), r?.outputs));
    }
    std::fs::write(out, Golden::render(&entries)).map_err(|e| format!("{out}: {e}"))?;
    eprintln!("recorded {} jobs in {out}", entries.len());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("record") {
        let out = match args.get(1..3) {
            Some([flag, path]) if flag == "--out" => path.clone(),
            _ => {
                eprintln!("{}", usage());
                return ExitCode::from(2);
            }
        };
        return match record(&out) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench record: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let golden = Golden::recorded();
    let data = match run(&opts, &golden) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let attempted: u64 = data.passes.iter().map(|p| p.jobs).sum();
    let failed: u64 = data.passes.iter().map(|p| p.failed).sum();
    let errors: Vec<&String> = data.passes.iter().flat_map(|p| &p.errors).collect();
    for e in errors.iter().take(20) {
        eprintln!("perfbench: {e}");
    }
    let (metrics, notes) = if opts.trace {
        let path = opts.work_dir.join(format!(
            "spans-{}-seed{}.tsv",
            opts.workload.name(),
            opts.seed
        ));
        if let Err(e) = write_spans(&path, &data.spans) {
            eprintln!("perfbench: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        let (m, mut n) = per_layer(&data);
        n.push(format!("spans written to {}", path.display()));
        (m, n)
    } else {
        end_to_end(&data)
    };
    println!(
        "# {} seed {} secret set {} trace {}",
        opts.workload.name(),
        opts.seed,
        jobs::secret_set(opts.seed),
        u8::from(opts.trace)
    );
    for n in notes {
        println!("# {n}");
    }
    let defects: u64 = data.passes.iter().map(|p| p.defects).sum();
    println!(
        "{}",
        render_json(
            failed == 0 && defects == 0,
            attempted.max(1),
            failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}
