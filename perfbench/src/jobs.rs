//! The job sets of the four workloads, how one job runs, and the
//! simulated outputs it is checked by.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use pl_attack::{attack_config, decode, score, ProbeLog};
use pl_base::digest::Fnv1a;
use pl_base::{DefenseScheme, MachineConfig, Stats, VerifyConfig};
use pl_bench::serve::result_to_json;
use pl_machine::{Machine, RunResult};
use pl_workloads::attack::{attack_scenario, AttackScenario, Gadget};
use pl_workloads::{parallel_suite, spec_suite, Scale, Workload};

use crate::trace::Tracer;

/// Cycle limit of one job; every job ends far below it.
pub const RUN_BUDGET: u64 = pl_bench::RUN_BUDGET;

/// Known-secret calibration rounds of an attack scenario.
pub const ATTACK_CAL_ROUNDS: usize = 8;
/// Scored rounds of an attack scenario.
pub const ATTACK_ROUNDS: usize = 24;
/// Number of recorded attack secret sets; `--seed` picks one.
pub const SECRET_SETS: u64 = 8;

/// Secret set used by `seed`.
pub fn secret_set(seed: u64) -> u64 {
    seed % SECRET_SETS
}

/// Seed of the attack scenarios' secrets for secret set `set`.
pub fn secret_seed(set: u64) -> u64 {
    0x5EC2_E700 + set
}

/// The scheme matrix of the sweeps: the six evaluated configurations of
/// `pl_verify::scheme_configs` plus InvSpec, in the paper's order.
pub fn scheme_matrix(cores: usize) -> Vec<MachineConfig> {
    let mut m: Vec<MachineConfig> = pl_verify::scheme_configs(cores)
        .into_iter()
        .take(6)
        .collect();
    let mut inv = m[0].clone();
    inv.defense = DefenseScheme::Invisible;
    inv.validate().expect("InvSpec config validates");
    m.insert(4, inv);
    m
}

/// Metric suffix of a scheme label.
pub fn scheme_short(label: &str) -> &'static str {
    match label {
        "Unsafe" => "unsafe",
        "Fence+Comp" => "fence",
        "DOM+Comp" => "dom",
        "STT+Comp" => "stt",
        "InvSpec+Comp" => "invspec",
        "Fence+LP" => "fence_lp",
        "Fence+EP" => "fence_ep",
        _ => "other",
    }
}

/// What a job does with its machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A plain run.
    Sim,
    /// An attack run with the check-event observer on, decoded and
    /// scored.
    Probe,
    /// The verify-off companion of a probe run.
    Companion,
}

/// One simulation job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Key of the job's expected outputs.
    pub key: String,
    /// Kernel or gadget name.
    pub kernel: String,
    /// Scheme label (`MachineConfig::label`).
    pub scheme: String,
    /// What the job does.
    pub kind: Kind,
    /// Machine configuration.
    pub cfg: MachineConfig,
    /// Programs and initial state.
    pub workload: Arc<Workload>,
    /// Attack scenario, for probe jobs.
    pub scenario: Option<Arc<AttackScenario>>,
}

impl Job {
    /// Cores of the machine.
    pub fn cores(&self) -> usize {
        self.cfg.num_cores
    }
}

fn matrix_jobs(prefix: &str, suite: Vec<Workload>, cores: usize) -> Vec<Job> {
    let matrix = scheme_matrix(cores);
    let mut jobs = Vec::with_capacity(suite.len() * matrix.len());
    for w in suite {
        let w = Arc::new(w);
        for cfg in &matrix {
            let scheme = cfg.label();
            jobs.push(Job {
                key: format!("{prefix}/{}/{scheme}", w.name),
                kernel: w.name.clone(),
                scheme,
                kind: Kind::Sim,
                cfg: cfg.clone(),
                workload: Arc::clone(&w),
                scenario: None,
            });
        }
    }
    jobs
}

/// `spec_suite` × scheme matrix on the single-core config.
pub fn sweep_1c_jobs() -> Vec<Job> {
    matrix_jobs("sweep-1c", spec_suite(Scale::Test), 1)
}

/// `parallel_suite(8)` × scheme matrix.
pub fn sweep_8c_jobs() -> Vec<Job> {
    matrix_jobs("sweep-8c", parallel_suite(8, Scale::Test), 8)
}

/// The four gadgets × the six `scheme_configs` schemes at 2 cores, a
/// probe and a companion job each, with secret set `set`.
pub fn attack_2c_jobs(set: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for gadget in Gadget::all() {
        let sc = Arc::new(attack_scenario(
            gadget,
            2,
            ATTACK_CAL_ROUNDS,
            ATTACK_ROUNDS,
            secret_seed(set),
        ));
        let w = Arc::new(sc.workload.clone());
        for base in pl_verify::scheme_configs(2).into_iter().take(6) {
            let scheme = base.label();
            let companion = attack_config(&base);
            let mut probe = companion.clone();
            probe.verify = VerifyConfig::enabled();
            let key = format!("attack-2c/s{set}/{}/{scheme}", gadget.name());
            jobs.push(Job {
                key: format!("{key}/probe"),
                kernel: gadget.name().to_string(),
                scheme: scheme.clone(),
                kind: Kind::Probe,
                cfg: probe,
                workload: Arc::clone(&w),
                scenario: Some(Arc::clone(&sc)),
            });
            jobs.push(Job {
                key: format!("{key}/companion"),
                kernel: gadget.name().to_string(),
                scheme,
                kind: Kind::Companion,
                cfg: companion,
                workload: Arc::clone(&w),
                scenario: None,
            });
        }
    }
    jobs
}

/// The checked simulated outputs of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outputs {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions retired per core.
    pub retired: Vec<u64>,
    /// FNV-1a digest of `result_to_json` (every counter and histogram).
    pub digest: u64,
    /// Bits per trial and accuracy of a probe job, six decimals.
    pub decode: Option<(String, String)>,
}

/// FNV-1a digest of a byte string.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(bytes);
    h.finish()
}

impl Outputs {
    /// Outputs of a finished run.
    pub fn of(res: &RunResult) -> Outputs {
        Outputs {
            cycles: res.cycles,
            retired: res.retired_per_core.clone(),
            digest: fnv(result_to_json(res).as_bytes()),
            decode: None,
        }
    }
}

/// What one job returns besides its outputs.
#[derive(Debug)]
pub struct JobRun {
    /// Checked outputs.
    pub outputs: Outputs,
    /// The run's merged statistics.
    pub stats: Stats,
    /// Spin-detector windows opened, parks and skipped core-cycles.
    pub spin: [u64; 3],
}

/// Runs `job` on a fresh machine, recording spans under job id `jid`.
/// A panic, a deadlock or the cycle limit is an error.
pub fn execute(job: &Job, tr: &mut Tracer, jid: u64) -> Result<JobRun, String> {
    let root = tr.enter("job", jid);
    let out = catch_unwind(AssertUnwindSafe(|| execute_inner(job, tr, jid))).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        Err(format!("panic: {msg}"))
    });
    tr.exit(root);
    out.map_err(|e| format!("{}: {e}", job.key))
}

fn execute_inner(job: &Job, tr: &mut Tracer, jid: u64) -> Result<JobRun, String> {
    let mut m = tr
        .leaf("machine.new", jid, || Machine::new(&job.cfg))
        .map_err(|e| format!("config: {e}"))?;
    tr.leaf("machine.install", jid, || job.workload.install(&mut m));
    let res = match (job.kind, &job.scenario) {
        (Kind::Probe, Some(sc)) => {
            m.set_check_observer(Box::new(ProbeLog::new(sc.observer_core)));
            let res = tr
                .leaf("machine.run_probe", jid, || m.run(RUN_BUDGET))
                .map_err(|e| e.to_string())?;
            let mut obs = m.take_check_observer().ok_or("observer lost")?;
            let log = obs
                .as_any_mut()
                .downcast_mut::<ProbeLog>()
                .ok_or("observer is not a ProbeLog")?;
            let scored = tr.leaf("attack.decode", jid, || {
                score(sc, decode(sc, &log.records), res.cycles)
            });
            let mut outputs = Outputs::of(&res);
            outputs.decode = Some((
                format!("{:.6}", scored.bits_per_trial),
                format!("{:.6}", scored.accuracy),
            ));
            return Ok(JobRun {
                outputs,
                stats: res.stats,
                spin: [m.spin_opens(), m.spin_parks(), m.spin_skipped_cycles()],
            });
        }
        (Kind::Probe, None) => return Err("probe job without a scenario".into()),
        _ => tr
            .leaf("machine.run", jid, || m.run(RUN_BUDGET))
            .map_err(|e| e.to_string())?,
    };
    Ok(JobRun {
        outputs: Outputs::of(&res),
        stats: res.stats,
        spin: [m.spin_opens(), m.spin_parks(), m.spin_skipped_cycles()],
    })
}
