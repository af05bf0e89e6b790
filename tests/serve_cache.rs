//! End-to-end tests of `plsim serve`'s job server: the content-addressed
//! result cache must serve repeats byte-identically, trace-carrying
//! results must never be cached, and a worker killed mid-job must resume
//! from its last checkpoint and still produce the exact result an
//! uninterrupted run would have. Malformed, oversized and idle
//! connections must neither take the server down nor block its shutdown.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

use pinned_loads::base::{DefenseScheme, MachineConfig, PinMode, PinnedLoadsConfig, TraceConfig};
use pinned_loads::bench::serve::{self, ServeOptions};
use pinned_loads::machine::{Machine, StepOutcome};
use pinned_loads::workloads::{spec_suite, Scale, Workload};

fn test_workload() -> Workload {
    spec_suite(Scale::Test)
        .into_iter()
        .find(|w| w.name == "stream")
        .expect("stream kernel exists")
}

fn test_config() -> MachineConfig {
    let mut cfg = MachineConfig::default_single_core();
    cfg.defense = DefenseScheme::Fence;
    cfg.pinned_loads = PinnedLoadsConfig::with_mode(PinMode::Early);
    cfg
}

/// A server running on an ephemeral port with its own scratch cache
/// directory; dropped state is cleaned up by the test that owns it.
struct TestServer {
    addr: String,
    cache_dir: PathBuf,
    scratch: PathBuf,
    handle: JoinHandle<std::io::Result<()>>,
}

fn start_server(test_name: &str, checkpoint_period: u64) -> TestServer {
    start_bounded_server(test_name, checkpoint_period, None)
}

fn start_bounded_server(
    test_name: &str,
    checkpoint_period: u64,
    cache_max_entries: Option<usize>,
) -> TestServer {
    let scratch = std::env::temp_dir().join(format!(
        "plsim-serve-test-{}-{test_name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    let cache_dir = scratch.join("cache");
    let port_file = scratch.join("port.txt");
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        cache_dir: cache_dir.clone(),
        cache_max_entries,
        cache_max_bytes: None,
        checkpoint_period,
        port_file: Some(port_file.clone()),
    };
    let handle = std::thread::spawn(move || serve::serve(&opts));
    let addr = loop {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            break s.trim().to_string();
        }
        assert!(!handle.is_finished(), "server died before binding");
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    TestServer {
        addr,
        cache_dir,
        scratch,
        handle,
    }
}

impl TestServer {
    fn cache_files(&self) -> Vec<String> {
        let mut names: Vec<String> = match std::fs::read_dir(&self.cache_dir) {
            Ok(entries) => entries
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect(),
            Err(_) => Vec::new(),
        };
        names.sort();
        names
    }

    fn shutdown(self) {
        let resp = serve::request(&self.addr, "{\"cmd\":\"shutdown\"}").unwrap();
        assert!(resp.contains("\"ok\":true"), "{resp}");
        self.handle.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

fn assert_cache_file_count(dir: &Path, expected: usize) {
    let cache = serve::ResultCache::new(dir).unwrap();
    assert_eq!(cache.len(), expected);
}

#[test]
fn repeat_jobs_hit_the_cache_byte_identically() {
    let server = start_server("repeat", serve::DEFAULT_CHECKPOINT_PERIOD);
    let line = serve::run_request_json(&test_config(), None, &test_workload(), None, None);

    let first = serve::request(&server.addr, &line).unwrap();
    assert!(!serve::response_was_cached(&first), "{first}");
    let second = serve::request(&server.addr, &line).unwrap();
    assert!(serve::response_was_cached(&second), "{second}");

    // Byte identity of the result payload, not merely semantic equality:
    // the cache hit splices the stored file's raw bytes back in.
    let r1 = serve::extract_result(&first).unwrap();
    let r2 = serve::extract_result(&second).unwrap();
    assert_eq!(r1, r2, "cache hit altered the result bytes");

    // Exactly one content-addressed entry landed on disk.
    let files = server.cache_files();
    assert_eq!(files.len(), 1, "{files:?}");
    assert!(files[0].starts_with("plcache-"), "{files:?}");
    assert_cache_file_count(&server.cache_dir, 1);

    // The stats command agrees: one miss, one hit.
    let stats = serve::request(&server.addr, "{\"cmd\":\"stats\"}").unwrap();
    assert!(stats.contains("\"hits\":\"1\""), "{stats}");
    assert!(stats.contains("\"misses\":\"1\""), "{stats}");
    server.shutdown();
}

/// Satellite: a result that carries an event trace must NEVER be served
/// from or stored in the cache — the wire format drops the trace, so a
/// cached trace-job reply would silently lose data on the repeat.
#[test]
fn traced_jobs_are_never_cached() {
    let server = start_server("traced", serve::DEFAULT_CHECKPOINT_PERIOD);
    let mut cfg = test_config();
    cfg.trace = TraceConfig::enabled();
    let line = serve::run_request_json(&cfg, None, &test_workload(), None, None);

    for _ in 0..2 {
        let resp = serve::request(&server.addr, &line).unwrap();
        assert!(
            !serve::response_was_cached(&resp),
            "traced job served from cache: {resp}"
        );
        serve::extract_result(&resp).unwrap();
        assert_eq!(server.cache_files(), Vec::<String>::new());
    }
    let stats = serve::request(&server.addr, "{\"cmd\":\"stats\"}").unwrap();
    assert!(stats.contains("\"cache_entries\":0"), "{stats}");
    server.shutdown();
}

/// Satellite: a server started with a cache bound evicts the
/// least-recently-used entry when a new result lands, reports the count
/// in `stats`, and serves an evicted job as a cold (but byte-identical)
/// re-run.
#[test]
fn bounded_server_cache_evicts_lru_and_reports_it() {
    let server = start_bounded_server("evict", serve::DEFAULT_CHECKPOINT_PERIOD, Some(1));
    let w = test_workload();
    let cfg1 = test_config();
    let mut cfg2 = test_config();
    cfg2.seed ^= 0x5eed;
    let line1 = serve::run_request_json(&cfg1, None, &w, None, None);
    let line2 = serve::run_request_json(&cfg2, None, &w, None, None);

    let first = serve::request(&server.addr, &line1).unwrap();
    assert!(!serve::response_was_cached(&first), "{first}");
    // A second distinct job pushes the one-entry cache over its bound;
    // the first job's entry is the LRU victim.
    let second = serve::request(&server.addr, &line2).unwrap();
    assert!(!serve::response_was_cached(&second), "{second}");
    let stats = serve::request(&server.addr, "{\"cmd\":\"stats\"}").unwrap();
    assert!(stats.contains("\"cache_entries\":1"), "{stats}");
    assert!(stats.contains("\"cache_evictions\":\"1\""), "{stats}");
    assert_eq!(server.cache_files().len(), 1);

    // The survivor still hits...
    let survivor = serve::request(&server.addr, &line2).unwrap();
    assert!(serve::response_was_cached(&survivor), "{survivor}");
    // ...while the evicted job re-runs cold, byte-identical to its first
    // run (determinism, not the cache, guarantees the bytes).
    let again = serve::request(&server.addr, &line1).unwrap();
    assert!(!serve::response_was_cached(&again), "{again}");
    assert_eq!(
        serve::extract_result(&first).unwrap(),
        serve::extract_result(&again).unwrap()
    );
    let stats = serve::request(&server.addr, "{\"cmd\":\"stats\"}").unwrap();
    assert!(stats.contains("\"cache_evictions\":\"2\""), "{stats}");
    server.shutdown();
}

/// Satellite: `plsim submit` must exit nonzero and surface the server's
/// error message on a job-level error — not print the raw JSON error
/// blob on stdout with exit 0.
#[test]
fn submit_exits_nonzero_on_job_level_error() {
    use std::io::{BufRead, BufReader, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut line = String::new();
        BufReader::new(stream.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert!(line.contains("\"cmd\":\"run\""), "{line}");
        stream
            .write_all(b"{\"error\":\"workload `stream`: boom\",\"ok\":false}\n")
            .unwrap();
    });
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_plsim"))
        .args(["submit", "--server", &addr, "--workload", "stream"])
        .output()
        .unwrap();
    fake.join().unwrap();
    assert!(
        !out.status.success(),
        "submit exited 0 on a job-level error"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("boom"), "stderr: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "error blob leaked to stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// A worker killed after two checkpoints re-enqueues the job; whichever
/// worker picks it up restores the last checkpoint instead of starting
/// over, and the finished result is byte-identical to a direct,
/// uninterrupted in-process run of the same job.
#[test]
fn killed_worker_resumes_from_checkpoint_with_identical_result() {
    let cfg = test_config();
    let w = test_workload();

    // Ground truth: the same job run directly, no server involved.
    let mut m = Machine::new(&cfg).unwrap();
    w.install(&mut m);
    let direct = m.run(2_000_000_000).unwrap();
    let direct_json = serve::result_to_json(&direct);
    // Checkpoint every ~1/5th of the run so kill_after_checkpoints=2
    // strikes mid-run, not after completion.
    let period = (direct.cycles / 5).max(1);

    let server = start_server("kill", serve::DEFAULT_CHECKPOINT_PERIOD);
    let line = serve::run_request_json(&cfg, None, &w, Some(2), Some(period));
    let resp = serve::request(&server.addr, &line).unwrap();
    assert!(!serve::response_was_cached(&resp), "{resp}");
    assert!(
        resp.contains("\"resumed\":\"1\""),
        "job did not resume from a checkpoint: {resp}"
    );
    let result = serve::extract_result(&resp).unwrap();
    assert_eq!(
        result, direct_json,
        "kill/resume diverged from the direct run"
    );

    // The checkpoints the worker took were also spilled to disk (the
    // server-restart safety net), and the finished job cleaned its spill
    // file up again.
    let stats = serve::request(&server.addr, "{\"cmd\":\"stats\"}").unwrap();
    assert!(
        !stats.contains("\"ckpt_spills\":\"0\""),
        "no checkpoint ever spilled to disk: {stats}"
    );
    assert!(stats.contains("\"ckpt_entries\":0"), "{stats}");

    // The resumed job's (untraced) result is cached like any other, so a
    // repeat — this time unkilled — hits the cache with the same bytes.
    let repeat_line = serve::run_request_json(&cfg, None, &w, None, Some(period));
    let repeat = serve::request(&server.addr, &repeat_line).unwrap();
    assert!(serve::response_was_cached(&repeat), "{repeat}");
    assert_eq!(serve::extract_result(&repeat).unwrap(), direct_json);
    server.shutdown();
}

/// A killed *traced* job resumes from its in-memory checkpoint too. Its
/// checkpoints never spill to disk, and the reply (which carries no
/// trace) is byte-identical to an uninterrupted traced run's.
#[test]
fn killed_traced_worker_resumes_with_identical_result() {
    let mut cfg = test_config();
    cfg.trace = TraceConfig::enabled();
    let w = test_workload();

    let mut m = Machine::new(&cfg).unwrap();
    w.install(&mut m);
    let direct = m.run(2_000_000_000).unwrap();
    let direct_json = serve::result_to_json(&direct);
    let period = (direct.cycles / 5).max(1);

    let server = start_server("kill-traced", serve::DEFAULT_CHECKPOINT_PERIOD);
    let whole = serve::request(
        &server.addr,
        &serve::run_request_json(&cfg, None, &w, None, Some(period)),
    )
    .unwrap();
    assert!(whole.contains("\"resumed\":\"0\""), "{whole}");
    let killed = serve::request(
        &server.addr,
        &serve::run_request_json(&cfg, None, &w, Some(2), Some(period)),
    )
    .unwrap();
    assert!(!serve::response_was_cached(&killed), "{killed}");
    assert!(
        killed.contains("\"resumed\":\"1\""),
        "traced job did not resume from a checkpoint: {killed}"
    );
    assert_eq!(
        serve::extract_result(&killed).unwrap(),
        serve::extract_result(&whole).unwrap(),
        "kill/resume of a traced job diverged from its uninterrupted run"
    );
    assert_eq!(serve::extract_result(&whole).unwrap(), direct_json);

    let stats = serve::request(&server.addr, "{\"cmd\":\"stats\"}").unwrap();
    assert!(stats.contains("\"ckpt_spills\":\"0\""), "{stats}");
    assert_eq!(server.cache_files(), Vec::<String>::new());
    server.shutdown();
}

/// A *server* restart must not lose mid-run progress either: checkpoints
/// spill to `plckpt-*.bin` files beside the result cache, and a fresh
/// server asked for the same job resumes from the spill instead of
/// starting over — with the exact bytes an uninterrupted run produces.
#[test]
fn server_restart_resumes_from_disk_spill() {
    let cfg = test_config();
    let w = test_workload();

    // Ground truth: the same job run directly, no server involved.
    let mut m = Machine::new(&cfg).unwrap();
    w.install(&mut m);
    let direct = m.run(2_000_000_000).unwrap();
    let direct_json = serve::result_to_json(&direct);
    let period = (direct.cycles / 5).max(1);

    let server = start_server("restart", serve::DEFAULT_CHECKPOINT_PERIOD);

    // Simulate the first server dying after its second checkpoint: leave
    // behind exactly the spill file its worker would have written, via
    // the same public store and state encoding the server itself uses.
    // (The in-memory copy died with the process; the new server above
    // has never seen this job.)
    let digest = serve::job_digest(&cfg, None, &w);
    let store = serve::CheckpointStore::new(&server.cache_dir).unwrap();
    let mut killed = Machine::new(&cfg).unwrap();
    w.install(&mut killed);
    match killed.run_until(2_000_000_000, 2 * period).unwrap() {
        StepOutcome::Paused => {}
        StepOutcome::Done(_) => panic!("job finished before its second checkpoint"),
    }
    let mid_cycle = killed.now().raw();
    store
        .store(digest, mid_cycle, 0, &killed.encode_state())
        .unwrap();
    drop(killed);
    assert_eq!(store.len(), 1);

    // The restarted server resumes from the spill: the reply says so,
    // the result is byte-identical to the uninterrupted run, and the
    // spill file is cleaned up once the job completes.
    let line = serve::run_request_json(&cfg, None, &w, None, Some(period));
    let resp = serve::request(&server.addr, &line).unwrap();
    assert!(!serve::response_was_cached(&resp), "{resp}");
    assert!(
        resp.contains("\"resumed\":\"1\""),
        "restarted server did not resume from the disk spill: {resp}"
    );
    assert_eq!(
        serve::extract_result(&resp).unwrap(),
        direct_json,
        "resume from disk diverged from the direct run"
    );
    assert_eq!(store.len(), 0, "completed job left its spill file behind");

    // A corrupt spill must read as missing: the job restarts from cycle
    // zero (resumed 0) and still produces the right bytes. Use a fresh
    // digest (different checkpoint period changes nothing; same digest)
    // — so first evict the cached result to force a re-run.
    std::fs::remove_file(
        serve::ResultCache::new(&server.cache_dir)
            .unwrap()
            .path_for(digest),
    )
    .unwrap();
    std::fs::write(store.path_for(digest), b"not a checkpoint").unwrap();
    let resp = serve::request(&server.addr, &line).unwrap();
    assert!(!serve::response_was_cached(&resp), "{resp}");
    assert!(
        resp.contains("\"resumed\":\"0\""),
        "corrupt spill should restart the job from scratch: {resp}"
    );
    assert_eq!(serve::extract_result(&resp).unwrap(), direct_json);
    server.shutdown();
}

/// `ServeOptions::checkpoint_period` is the server-wide default: a job
/// whose request names no period still checkpoints (and spills) on the
/// server's schedule.
#[test]
fn server_checkpoint_period_applies_to_requests_without_one() {
    let cfg = test_config();
    let w = test_workload();
    let mut m = Machine::new(&cfg).unwrap();
    w.install(&mut m);
    let cycles = m.run(2_000_000_000).unwrap().cycles;
    assert!(
        cycles < serve::DEFAULT_CHECKPOINT_PERIOD,
        "the job must be too short to checkpoint on the built-in default"
    );

    let server = start_server("default-period", (cycles / 4).max(1));
    let line = serve::run_request_json(&cfg, None, &w, None, None);
    let resp = serve::request(&server.addr, &line).unwrap();
    assert!(!serve::response_was_cached(&resp), "{resp}");
    let stats = serve::request(&server.addr, "{\"cmd\":\"stats\"}").unwrap();
    assert!(
        !stats.contains("\"ckpt_spills\":\"0\""),
        "the server's checkpoint period was ignored: {stats}"
    );
    server.shutdown();
}

/// A request nested far past any sane depth gets an error reply instead
/// of overflowing the connection thread's stack, and the server keeps
/// answering afterwards.
#[test]
fn deeply_nested_request_is_rejected_and_server_survives() {
    let server = start_server("nesting", serve::DEFAULT_CHECKPOINT_PERIOD);
    let resp = serve::request(&server.addr, &"[".repeat(200_000)).unwrap();
    assert!(resp.contains("\"ok\":false"), "{resp}");
    assert!(resp.contains("bad request"), "{resp}");
    let pong = serve::request(&server.addr, "{\"cmd\":\"ping\"}").unwrap();
    assert_eq!(pong, "{\"ok\":true}");
    server.shutdown();
}

/// Writes `bytes` to the server as they are and returns its reply line.
/// Fails, rather than hangs, if no reply comes.
fn raw_request(addr: &str, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream.write_all(bytes).unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    reply
}

#[test]
fn non_utf8_request_is_rejected_and_server_survives() {
    let server = start_server("non-utf8", serve::DEFAULT_CHECKPOINT_PERIOD);
    let resp = raw_request(&server.addr, b"\xff\xfe{\"cmd\":\"ping\"}\n");
    assert!(resp.contains("\"ok\":false"), "{resp}");
    assert!(resp.contains("bad request"), "{resp}");
    let pong = serve::request(&server.addr, "{\"cmd\":\"ping\"}").unwrap();
    assert_eq!(pong, "{\"ok\":true}");
    server.shutdown();
}

#[test]
fn oversized_request_is_rejected_and_server_survives() {
    let server = start_server("oversized", serve::DEFAULT_CHECKPOINT_PERIOD);
    let resp = raw_request(&server.addr, &vec![b' '; serve::MAX_REQUEST_BYTES + 1]);
    assert!(resp.contains("\"ok\":false"), "{resp}");
    assert!(resp.contains("bad request"), "{resp}");
    let pong = serve::request(&server.addr, "{\"cmd\":\"ping\"}").unwrap();
    assert_eq!(pong, "{\"ok\":true}");
    server.shutdown();
}

#[test]
fn idle_connection_does_not_block_shutdown() {
    let server = start_server("idle", serve::DEFAULT_CHECKPOINT_PERIOD);
    let idle = TcpStream::connect(&server.addr).unwrap();
    let resp = serve::request(&server.addr, "{\"cmd\":\"shutdown\"}").unwrap();
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let (tx, rx) = mpsc::channel();
    let handle = server.handle;
    std::thread::spawn(move || tx.send(handle.join().unwrap()).unwrap());
    let result = rx.recv_timeout(Duration::from_secs(120));
    drop(idle);
    result
        .expect("serve did not return while a connection sat idle")
        .unwrap();
    let _ = std::fs::remove_dir_all(&server.scratch);
}
