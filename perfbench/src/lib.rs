//! Benchmark of the Pinned Loads simulator: four workloads over the
//! scheme matrix, timed end to end and, in a traced run, layer by layer.
//!
//! The benchmark reaches the simulator only through its public
//! functions (workload generators, `Machine`, the attack decoder and the
//! job server), times the calls it makes, and checks every simulated
//! output against the record in `expected/outputs.tsv`. See `README.md`
//! for the workloads, the metrics and the layer each metric belongs to.

#![deny(unsafe_code)]

pub mod cpu;
pub mod golden;
pub mod jobs;
pub mod metrics;
pub mod serve_mix;
pub mod trace;
pub mod yardstick;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use pl_base::{SimRng, Stats};

use crate::golden::Golden;
use crate::jobs::{execute, Job, Kind};
use crate::trace::{Span, Tracer};
use crate::yardstick::{Sample, Yardstick};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// `spec_suite` × scheme matrix, single core, serial.
    Sweep1c,
    /// `parallel_suite(8)` × scheme matrix, serial.
    Sweep8c,
    /// Attack gadgets × schemes at 2 cores, probe and companion runs.
    Attack2c,
    /// An in-process job server under a closed loop of 2 clients.
    ServeMix,
}

impl WorkloadKind {
    /// Every workload, in report order.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::Sweep1c,
        WorkloadKind::Sweep8c,
        WorkloadKind::Attack2c,
        WorkloadKind::ServeMix,
    ];

    /// Name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Sweep1c => "sweep-1c",
            WorkloadKind::Sweep8c => "sweep-8c",
            WorkloadKind::Attack2c => "attack-2c",
            WorkloadKind::ServeMix => "serve-mix",
        }
    }

    /// Parses [`WorkloadKind::name`].
    pub fn from_name(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload to run.
    pub workload: WorkloadKind,
    /// Input seed: job order, attack secrets, serve request stream.
    pub seed: u64,
    /// Seconds of measured passes.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Scratch directory for the server's cache and the span file.
    pub work_dir: PathBuf,
    /// Self-test size: a few jobs, one pass per phase, one set-up.
    pub tiny: bool,
}

/// Times the workload's set-up is repeated over a run; `setup_s` is
/// the median.
pub const SETUP_REPS: usize = 11;

/// Everything one pass over a workload's jobs produced.
#[derive(Debug, Default, Clone)]
pub struct Pass {
    /// Whether spans were recorded.
    pub traced: bool,
    /// Wall time of the whole pass.
    pub wall_ns: u64,
    /// CPU time of the process over the pass: the host time of the
    /// throughput metrics.
    pub host_ns: u64,
    /// Per-job latency in CPU time: new + install + run on the serial
    /// workloads, send to parsed reply on serve-mix.
    pub lat_ns: Vec<u64>,
    /// Segment of each latency in `lat_ns`.
    pub lat_seg: Vec<usize>,
    /// CPU time of each segment of the pass: a job, or a request on
    /// serve-mix.
    pub seg_cpu_ns: Vec<u64>,
    /// Yardstick timings at the segment boundaries: `yard[k]` before
    /// segment `k` and `yard[k + 1]` after it. Not counted in any time.
    pub yard: Vec<Sample>,
    /// Latency of requests answered from the cache (serve-mix).
    pub hit_lat_ns: Vec<u64>,
    /// Latency of requests that simulated (serve-mix).
    pub miss_lat_ns: Vec<u64>,
    /// Simulated cycles delivered.
    pub cycles: u64,
    /// Cycles × cores of the runs made in this process.
    pub core_cycles: u64,
    /// Jobs attempted.
    pub jobs: u64,
    /// Jobs failed.
    pub failed: u64,
    /// Deterministic counts: simulator statistics, spin detector,
    /// server counters. Equal on every pass of a run.
    pub counts: BTreeMap<String, u64>,
    /// Cycles per (kernel, scheme) of non-probe jobs.
    pub job_cycles: BTreeMap<(String, String), u64>,
    /// Order-independent digest of every job's outputs.
    pub outputs_digest: u64,
    /// Internal inconsistencies of the benchmark itself.
    pub defects: u64,
    /// Failure and defect descriptions.
    pub errors: Vec<String>,
}

/// Adds every counter of `stats` to `counts` under `stat.<name>`.
pub fn add_stats(counts: &mut BTreeMap<String, u64>, stats: &Stats) {
    for (name, v) in stats.iter() {
        *counts.entry(format!("stat.{name}")).or_insert(0) += v;
    }
}

/// Everything a run measured, before it is reduced to metrics.
#[derive(Debug)]
pub struct RunData {
    /// The workload.
    pub workload: WorkloadKind,
    /// Host seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Host ms of workload generation in each set-up repetition.
    pub build_ms: Vec<f64>,
    /// Jobs in one pass.
    pub jobs_per_pass: usize,
    /// Passes, untraced first.
    pub passes: Vec<Pass>,
    /// Spans of the traced passes.
    pub spans: Vec<Span>,
}

/// Builds the job list of a sweep or attack workload.
fn build_jobs(opts: &Options) -> Vec<Job> {
    let jobs = match opts.workload {
        WorkloadKind::Sweep1c => jobs::sweep_1c_jobs(),
        WorkloadKind::Sweep8c => jobs::sweep_8c_jobs(),
        WorkloadKind::Attack2c => jobs::attack_2c_jobs(jobs::secret_set(opts.seed)),
        WorkloadKind::ServeMix => {
            // The pool: two schemes of each sweep-1c kernel, rotating
            // through the matrix, and every attack companion.
            let mut pool: Vec<Job> = jobs::sweep_1c_jobs()
                .into_iter()
                .enumerate()
                .filter(|(i, _)| {
                    let (kernel, scheme) = (i / 7, i % 7);
                    scheme == kernel % 7 || scheme == (kernel + 3) % 7
                })
                .map(|(_, j)| j)
                .collect();
            pool.extend(
                jobs::attack_2c_jobs(jobs::secret_set(opts.seed))
                    .into_iter()
                    .filter(|j| j.kind == Kind::Companion),
            );
            pool
        }
    };
    if opts.tiny {
        tiny_subset(jobs)
    } else {
        jobs
    }
}

/// A few jobs per workload for self-tests: two kernels under the first
/// two schemes of the matrix, and InvSpec when present.
fn tiny_subset(jobs: Vec<Job>) -> Vec<Job> {
    let mut kernels: Vec<String> = Vec::new();
    for j in &jobs {
        if !kernels.contains(&j.kernel) {
            kernels.push(j.kernel.clone());
        }
    }
    kernels.truncate(2);
    jobs.into_iter()
        .filter(|j| {
            kernels.contains(&j.kernel)
                && matches!(j.scheme.as_str(), "Unsafe" | "Fence+Comp" | "InvSpec+Comp")
        })
        .collect()
}

/// Seeded job order of a sweep pass.
fn pass_order(n: usize, seed: u64, pass: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    SimRng::new(seed ^ (pass as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)).shuffle(&mut order);
    order
}

/// One serial pass over `jobs` in seeded order. Set-up repetitions that
/// fall due run between jobs and are not counted in the pass.
fn sweep_pass(
    jobs: &[Job],
    golden: &Golden,
    seed: u64,
    index: usize,
    tr: &mut Tracer,
    reps: &mut SetupReps,
    yard: &mut Yardstick,
) -> Result<Pass, String> {
    let mut p = Pass {
        traced: tr.is_on(),
        ..Pass::default()
    };
    let started = Instant::now();
    let cpu_start = cpu::process_ns();
    let (mut aside_wall, mut aside_cpu) = (0, 0);
    p.yard.push(yard.sample());
    for i in pass_order(jobs.len(), seed, index) {
        let (w, c) = reps.due(tr)?;
        aside_wall += w;
        aside_cpu += c;
        let job = &jobs[i];
        let jid = ((index as u64) << 32) | i as u64;
        let t = cpu::process_ns();
        let run = execute(job, tr, jid);
        let lat = cpu::process_ns() - t;
        p.yard.push(yard.sample());
        p.lat_ns.push(lat);
        p.lat_seg.push(p.seg_cpu_ns.len());
        p.seg_cpu_ns.push(lat);
        p.jobs += 1;
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                p.failed += 1;
                p.errors.push(e);
                continue;
            }
        };
        if let Err(e) = golden.check(&job.key, &run.outputs) {
            p.failed += 1;
            p.errors.push(e);
        }
        let o = &run.outputs;
        p.cycles += o.cycles;
        p.core_cycles += o.cycles * job.cores() as u64;
        p.outputs_digest = p.outputs_digest.wrapping_add(jobs::fnv(
            format!("{}:{:016x}", job.key, o.digest).as_bytes(),
        ));
        add_stats(&mut p.counts, &run.stats);
        for (name, v) in ["spin.opens", "spin.parks", "spin.skipped"]
            .into_iter()
            .zip(run.spin)
        {
            *p.counts.entry(name.to_string()).or_insert(0) += v;
        }
        if job.kind != Kind::Probe {
            p.job_cycles
                .insert((job.kernel.clone(), job.scheme.clone()), o.cycles);
        }
    }
    aside_wall += p.yard.iter().map(|y| y.wall_ns).sum::<u64>();
    aside_cpu += p.yard.iter().map(|y| y.cpu_ns).sum::<u64>();
    p.wall_ns = started.elapsed().as_nanos() as u64 - aside_wall;
    p.host_ns = cpu::process_ns() - cpu_start - aside_cpu;
    Ok(p)
}

/// Set-up: workload generation, the config matrix, and a warm-up (the
/// first job for the sweeps; a server bind and ping for serve-mix).
fn setup(opts: &Options, tr: &mut Tracer) -> Result<(Vec<Job>, f64, f64), String> {
    let t = Instant::now();
    let b = Instant::now();
    let jobs = tr.leaf("workloads.build", 0, || build_jobs(opts));
    let build_ms = b.elapsed().as_secs_f64() * 1e3;
    if jobs.is_empty() {
        return Err("empty job set".into());
    }
    if opts.workload == WorkloadKind::ServeMix {
        serve_mix::bind_and_ping(&serve_mix::pass_dir(&opts.work_dir))?;
    } else {
        // Its outputs are checked when the passes run it.
        let _ = execute(&jobs[0], &mut Tracer::new(false, Instant::now()), 0);
    }
    Ok((jobs, t.elapsed().as_secs_f64(), build_ms))
}

/// Set-up repetitions spread evenly over the measured time, so that
/// `setup_s` samples the host at several moments of the run rather than
/// in one burst at its start.
struct SetupReps<'a> {
    opts: &'a Options,
    total: usize,
    start: Instant,
    setup_s: Vec<f64>,
    build_ms: Vec<f64>,
}

impl SetupReps<'_> {
    fn rep(&mut self, tr: &mut Tracer) -> Result<Vec<Job>, String> {
        let (jobs, setup_s, build_ms) = setup(self.opts, tr)?;
        self.setup_s.push(setup_s);
        self.build_ms.push(build_ms);
        Ok(jobs)
    }

    /// Runs the repetitions now due; returns the wall and CPU ns they
    /// took.
    fn due(&mut self, tr: &mut Tracer) -> Result<(u64, u64), String> {
        let t = Instant::now();
        let c = cpu::process_ns();
        while self.setup_s.len() < self.total
            && self.start.elapsed().as_secs_f64()
                >= self.opts.seconds * self.setup_s.len() as f64 / self.total as f64
        {
            self.rep(tr)?;
        }
        Ok((t.elapsed().as_nanos() as u64, cpu::process_ns() - c))
    }
}

/// Runs passes until the next one would end past `budget_s`; at least
/// one (exactly one when `tiny`).
fn passes(
    budget_s: f64,
    tiny: bool,
    first: usize,
    mut one: impl FnMut(usize) -> Result<Pass, String>,
) -> Result<Vec<Pass>, String> {
    let t = Instant::now();
    let mut out: Vec<Pass> = Vec::new();
    loop {
        out.push(one(first + out.len())?);
        let mut walls: Vec<f64> = out.iter().map(|p| p.wall_ns as f64 / 1e9).collect();
        let typical = metrics::median(&mut walls);
        if tiny || t.elapsed().as_secs_f64() + typical > budget_s {
            return Ok(out);
        }
    }
}

/// Runs the benchmark. An untraced run measures passes for
/// `opts.seconds`; a traced run spends half of it untraced and half
/// traced, so the tracing overhead is measured in the same process.
///
/// # Errors
///
/// Reports a set-up failure or a server that does not start; job
/// failures are counted in the passes instead.
pub fn run(opts: &Options, golden: &Golden) -> Result<RunData, String> {
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("{}: {e}", opts.work_dir.display()))?;
    let origin = Instant::now();
    let mut tr = Tracer::new(opts.trace, origin);
    let mut data = RunData {
        workload: opts.workload,
        setup_s: Vec::new(),
        build_ms: Vec::new(),
        jobs_per_pass: 0,
        passes: Vec::new(),
        spans: Vec::new(),
    };
    let mut reps = SetupReps {
        opts,
        total: if opts.tiny { 1 } else { SETUP_REPS },
        start: Instant::now(),
        setup_s: Vec::new(),
        build_ms: Vec::new(),
    };
    let jobs = reps.rep(&mut tr)?;
    data.jobs_per_pass = match opts.workload {
        WorkloadKind::ServeMix => 2 * jobs.len(),
        _ => jobs.len(),
    };
    let phases: &[(bool, f64)] = if opts.trace {
        &[(false, 0.5), (true, 0.5)]
    } else {
        &[(false, 1.0)]
    };
    let dir = serve_mix::pass_dir(&opts.work_dir);
    let mut yard = Yardstick::new();
    for &(traced, share) in phases {
        tr.set_on(traced);
        let first = data.passes.len();
        let got = passes(opts.seconds * share, opts.tiny, first, |i| {
            if opts.workload == WorkloadKind::ServeMix {
                reps.due(&mut tr)?;
                let (p, t) = serve_mix::pass(&jobs, golden, opts.seed, i, traced, &dir, origin)?;
                tr.absorb(t);
                Ok(p)
            } else {
                sweep_pass(&jobs, golden, opts.seed, i, &mut tr, &mut reps, &mut yard)
            }
        })?;
        data.passes.extend(got);
    }
    while reps.setup_s.len() < reps.total {
        reps.rep(&mut tr)?;
    }
    data.setup_s = reps.setup_s;
    data.build_ms = reps.build_ms;
    data.spans = tr.spans().to_vec();
    Ok(data)
}
