//! The `serve-mix` workload: an in-process job server and one
//! closed-loop client.
//!
//! Each pass starts a fresh server (2 workers, an empty result cache
//! bounded to [`CACHE_ENTRIES`] entries, a [`CHECKPOINT_PERIOD`]-cycle
//! checkpoint period) and sends every job of the pool twice: once as a
//! miss that simulates, stores and evicts, and once as a repeat that
//! reads the cache. The seed orders the stream and places the repeats.
//! A repeat names a job first sent at most a few requests back, so its
//! entry is always still cached, and hits, misses, evictions and
//! checkpoint spills are the same on every pass and every seed.
//!
//! The client sends its next request when the reply to the previous one
//! has arrived, so one request is in flight at a time and the CPU time
//! of the process from send to parsed reply is that request's: the
//! client, the server's connection thread, and the worker's simulation
//! for a miss. That is the request's latency. Wall-clock latency would
//! include the time the hypervisor takes this machine's CPUs away from
//! it, which moved the median latency of two concurrent clients by 70 %
//! between runs of the same code.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pl_base::SimRng;
use pl_bench::serve::{
    config_from_json, extract_result, job_digest, request, response_was_cached, result_from_json,
    run_request_json, serve, workload_from_json, CheckpointStore, ResultCache, ServeOptions,
};
use pl_machine::{Machine, StepOutcome};
use pl_trace::json::{parse, Value};

use crate::golden::Golden;
use crate::jobs::{fnv, Job, Kind, RUN_BUDGET};
use crate::trace::Tracer;
use crate::yardstick::Yardstick;
use crate::{add_stats, Pass};

/// The server's worker threads.
pub const WORKERS: usize = 2;
/// Result-cache bound: below the pool size, so misses evict.
pub const CACHE_ENTRIES: usize = 32;
/// Cycles between checkpoints; longer jobs snapshot and spill.
pub const CHECKPOINT_PERIOD: u64 = 50_000;
/// A pending repeat is sent once its first send is this many requests
/// old. Every job used since then is among the last
/// `2 * REPEAT_AGE + 2` cache uses, well inside [`CACHE_ENTRIES`].
pub const REPEAT_AGE: usize = 3;

/// One request of the stream: a pool index and whether it repeats an
/// earlier request.
pub type Req = (usize, bool);

/// The request stream of pass `pass`: every pool job once new and once
/// repeated, in an order drawn from `seed`.
pub fn plan(pool: usize, seed: u64, pass: usize) -> Vec<Req> {
    let mut rng = SimRng::new(seed ^ (pass as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    let mut order: Vec<usize> = (0..pool).collect();
    rng.shuffle(&mut order);
    let mut next = 0;
    // (job, position of its first send), oldest first.
    let mut pending: Vec<(usize, usize)> = Vec::new();
    let mut stream = Vec::with_capacity(2 * pool);
    while next < pool || !pending.is_empty() {
        let at = stream.len();
        let forced = next == pool || pending.first().is_some_and(|p| at - p.1 >= REPEAT_AGE);
        if !pending.is_empty() && (forced || rng.gen_bool(0.5)) {
            let pick = if forced {
                0
            } else {
                rng.gen_index(pending.len())
            };
            stream.push((pending.remove(pick).0, true));
        } else {
            pending.push((order[next], at));
            stream.push((order[next], false));
            next += 1;
        }
    }
    stream
}

/// Shadow stores the traced run replays the server's per-request steps
/// on: the server itself carries no spans.
struct Shadow {
    cache: ResultCache,
    ckpt: CheckpointStore,
}

/// Runs one pass in `dir` (created fresh, removed afterwards).
pub fn pass(
    pool: &[Job],
    golden: &Golden,
    seed: u64,
    index: usize,
    traced: bool,
    dir: &Path,
    origin: Instant,
) -> Result<(Pass, Tracer), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let started = Instant::now();
    let cpu_start = crate::cpu::process_ns();
    let (addr, server) = start_server(dir)?;
    let stream = plan(pool.len(), seed, index);
    let shadow = if traced {
        Some(Shadow {
            cache: ResultCache::with_limits(&dir.join("shadow"), Some(CACHE_ENTRIES), None)
                .map_err(|e| e.to_string())?,
            ckpt: CheckpointStore::new(&dir.join("shadow")).map_err(|e| e.to_string())?,
        })
    } else {
        None
    };
    let mut pass = Pass {
        traced,
        ..Pass::default()
    };
    let mut tracer = Tracer::new(traced, origin);
    // Each request is a segment of the pass, with a yardstick timing
    // before the first and after each one, while the server is idle.
    let mut yard = Yardstick::new();
    pass.yard.push(yard.sample());
    for (k, &req) in stream.iter().enumerate() {
        let jid = ((index as u64) << 32) | k as u64;
        let mark = crate::cpu::process_ns();
        client_request(
            &addr,
            pool,
            golden,
            req,
            k,
            jid,
            shadow.as_ref(),
            &mut tracer,
            &mut pass,
        );
        pass.seg_cpu_ns.push(crate::cpu::process_ns() - mark);
        pass.yard.push(yard.sample());
    }
    let stats = request(&addr, "{\"cmd\":\"stats\"}");
    let stopped = request(&addr, "{\"cmd\":\"shutdown\"}");
    let served = server
        .join()
        .map_err(|_| "server thread panicked".to_string())?;
    let yard_wall: u64 = pass.yard.iter().map(|y| y.wall_ns).sum();
    let yard_cpu: u64 = pass.yard.iter().map(|y| y.cpu_ns).sum();
    pass.wall_ns = started.elapsed().as_nanos() as u64 - yard_wall;
    pass.host_ns = crate::cpu::process_ns() - cpu_start - yard_cpu;
    let stats = stats.map_err(|e| format!("server stats: {e}"))?;
    stopped.map_err(|e| format!("server shutdown: {e}"))?;
    served.map_err(|e| format!("server: {e}"))?;
    let v = parse(&stats).map_err(|e| format!("server stats: {e}"))?;
    for (key, name) in [
        ("hits", "serve.hits"),
        ("misses", "serve.misses"),
        ("cache_evictions", "serve.cache_evictions"),
        ("ckpt_spills", "serve.ckpt_spills"),
    ] {
        let n = v
            .get(key)
            .and_then(Value::as_str)
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| format!("server stats lack `{key}`: {stats}"))?;
        pass.counts.insert(name.to_string(), n);
    }
    let repeats: u64 = stream.iter().filter(|r| r.1).count() as u64;
    if pass.counts["serve.hits"] != repeats {
        pass.defects += 1;
        pass.errors.push(format!(
            "defect: {} cache hits for {repeats} planned repeats",
            pass.counts["serve.hits"]
        ));
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok((pass, tracer))
}

type ServerHandle = std::thread::JoinHandle<std::io::Result<()>>;

/// Starts a server with its cache in `dir` and waits until it listens.
fn start_server(dir: &Path) -> Result<(String, ServerHandle), String> {
    let port_file = dir.join("port");
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        threads: WORKERS,
        cache_dir: dir.join("cache"),
        cache_max_entries: Some(CACHE_ENTRIES),
        cache_max_bytes: None,
        checkpoint_period: CHECKPOINT_PERIOD,
        port_file: Some(port_file.clone()),
    };
    let server = std::thread::spawn(move || serve(&opts));
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            let addr = s.trim().to_string();
            if !addr.is_empty() {
                return Ok((addr, server));
            }
        }
        if server.is_finished() {
            let err = match server.join() {
                Ok(Err(e)) => e.to_string(),
                _ => "exited".to_string(),
            };
            return Err(format!("server did not start: {err}"));
        }
        if Instant::now() > deadline {
            return Err("server did not write its port file".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Starts a server in `dir`, checks it answers a ping, and stops it:
/// the server part of the workload's set-up.
pub fn bind_and_ping(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let (addr, server) = start_server(dir)?;
    let ping = request(&addr, "{\"cmd\":\"ping\"}");
    let stop = request(&addr, "{\"cmd\":\"shutdown\"}");
    let served = server
        .join()
        .map_err(|_| "server thread panicked".to_string())?;
    let _ = std::fs::remove_dir_all(dir);
    let ping = ping.map_err(|e| format!("ping: {e}"))?;
    if !ping.contains("\"ok\":true") {
        return Err(format!("ping answered `{ping}`"));
    }
    stop.map_err(|e| format!("shutdown: {e}"))?;
    served.map_err(|e| format!("server: {e}"))
}

#[allow(clippy::too_many_arguments)]
fn client_request(
    addr: &str,
    pool: &[Job],
    golden: &Golden,
    (idx, repeat): Req,
    seg: usize,
    jid: u64,
    shadow: Option<&Shadow>,
    tr: &mut Tracer,
    p: &mut Pass,
) {
    let job = &pool[idx];
    p.jobs += 1;
    let root = tr.enter("job", jid);
    let line = tr.leaf("serve.request_build", jid, || {
        run_request_json(&job.cfg, None, &job.workload, None, Some(CHECKPOINT_PERIOD))
    });
    let t = crate::cpu::process_ns();
    let resp = tr.leaf("serve.request", jid, || request(addr, &line));
    let result = match &resp {
        Ok(r) => tr.leaf("serve.extract", jid, || {
            extract_result(r).map(str::to_owned)
        }),
        Err(e) => Err(format!("request: {e}")),
    };
    let lat = crate::cpu::process_ns() - t;
    tr.exit(root);
    p.lat_ns.push(lat);
    p.lat_seg.push(seg);
    let checked = result.and_then(|res| {
        let want = golden.get(&job.key).ok_or("no expected outputs recorded")?;
        if fnv(res.as_bytes()) != want.digest {
            return Err("reply differs from the recorded result_to_json".to_string());
        }
        Ok((res, want.cycles))
    });
    let (res, cycles) = match checked {
        Ok(ok) => ok,
        Err(e) => {
            p.failed += 1;
            p.errors.push(format!("{}: {e}", job.key));
            return;
        }
    };
    p.cycles += cycles;
    if job.kind != Kind::Probe {
        p.job_cycles
            .insert((job.kernel.clone(), job.scheme.clone()), cycles);
    }
    p.outputs_digest = p
        .outputs_digest
        .wrapping_add(fnv(format!("{}:{res}", job.key).as_bytes()));
    let cached = resp.as_deref().is_ok_and(response_was_cached);
    if cached {
        p.hit_lat_ns.push(lat);
    } else {
        p.miss_lat_ns.push(lat);
    }
    if cached != repeat {
        p.defects += 1;
        p.errors.push(format!(
            "defect: {} answered cached={cached}, planned repeat={repeat}",
            job.key
        ));
    }
    if let Some(sh) = shadow {
        if let Err(e) = replay_server_steps(job, &line, &res, cycles, jid, sh, tr, p) {
            p.failed += 1;
            p.errors.push(format!("{}: {e}", job.key));
        }
    }
}

/// Replays, on the client thread, the steps the server ran for this
/// request (parse, digest, cache lookup, and for a miss the store and
/// the first checkpoint), timing each in a span; then folds the reply's
/// counters into the pass counts.
#[allow(clippy::too_many_arguments)]
fn replay_server_steps(
    job: &Job,
    line: &str,
    res: &str,
    cycles: u64,
    jid: u64,
    sh: &Shadow,
    tr: &mut Tracer,
    p: &mut Pass,
) -> Result<(), String> {
    let root = tr.enter("serve.replay", jid);
    let out = (|| {
        tr.leaf("serve.parse", jid, || -> Result<(), String> {
            let v = parse(line)?;
            let job_v = v.get("job").ok_or("no job")?;
            config_from_json(job_v.get("config").ok_or("no config")?)?;
            workload_from_json(job_v.get("workload").ok_or("no workload")?)?;
            Ok(())
        })?;
        let digest = tr.leaf("serve.digest", jid, || {
            job_digest(&job.cfg, None, &job.workload)
        });
        if tr
            .leaf("serve.cache_lookup", jid, || sh.cache.lookup(digest))
            .is_some()
        {
            return Ok(());
        }
        tr.leaf("serve.cache_store", jid, || sh.cache.store(digest, res))
            .map_err(|e| format!("shadow store: {e}"))?;
        if cycles > CHECKPOINT_PERIOD {
            checkpoint_probe(job, digest, jid, sh, tr, p)?;
        }
        Ok::<(), String>(())
    })();
    tr.exit(root);
    out?;
    let v = parse(res)?;
    let run = result_from_json(&v)?;
    add_stats(&mut p.counts, &run.stats);
    Ok(())
}

/// Runs `job` to its first checkpoint and times the checkpoint layer:
/// snapshot, restore, state encoding, the spill to disk, and decoding
/// the spill into the restored machine.
fn checkpoint_probe(
    job: &Job,
    digest: u64,
    jid: u64,
    sh: &Shadow,
    tr: &mut Tracer,
    p: &mut Pass,
) -> Result<(), String> {
    let mut m = tr
        .leaf("ckpt.new", jid, || Machine::new(&job.cfg))
        .map_err(|e| e.to_string())?;
    tr.leaf("ckpt.install", jid, || job.workload.install(&mut m));
    match tr.leaf("ckpt.run_until", jid, || {
        m.run_until(RUN_BUDGET, CHECKPOINT_PERIOD)
    }) {
        Ok(StepOutcome::Paused) => {}
        Ok(StepOutcome::Done(_)) => return Err("finished before its first checkpoint".into()),
        Err(e) => return Err(e.to_string()),
    }
    let cp = tr.leaf("machine.snapshot", jid, || m.snapshot());
    let mut restored = tr.leaf("machine.restore", jid, || Machine::restore(&cp));
    let state = tr.leaf("machine.encode", jid, || m.encode_state());
    let now = m.now().raw();
    tr.leaf("serve.ckpt_spill", jid, || {
        sh.ckpt.store(digest, now, 0, &state)
    })
    .map_err(|e| format!("shadow spill: {e}"))?;
    tr.leaf("machine.decode", jid, || restored.decode_state_into(&state))?;
    sh.ckpt.remove(digest);
    *p.counts.entry("ckpt.encode_bytes".into()).or_insert(0) += state.len() as u64;
    *p.counts.entry("ckpt.probes".into()).or_insert(0) += 1;
    Ok(())
}

/// Directory of the serve-mix passes under `work`.
pub fn pass_dir(work: &Path) -> PathBuf {
    work.join(format!("serve-{}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sends_every_job_twice_and_repeats_only_recent_requests() {
        for seed in 0..20 {
            let stream = plan(40, seed, 0);
            let mut first = vec![None; 40];
            let mut repeats = [0; 40];
            for (at, &(j, rep)) in stream.iter().enumerate() {
                if rep {
                    let f = first[j].expect("repeat after first send");
                    assert!(at - f <= 2 * REPEAT_AGE, "repeat too far back");
                    repeats[j] += 1;
                } else {
                    assert!(first[j].is_none());
                    first[j] = Some(at);
                }
            }
            assert!(first.iter().all(Option::is_some));
            assert!(repeats.iter().all(|&n| n == 1));
        }
    }

    #[test]
    fn plan_depends_on_the_seed() {
        assert_ne!(plan(40, 1, 0), plan(40, 2, 0));
        assert_eq!(plan(40, 1, 0), plan(40, 1, 0));
    }
}
