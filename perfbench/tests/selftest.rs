//! Self-tests of the benchmark at a tiny size: a few jobs per workload,
//! one pass per phase.

use std::path::PathBuf;

use perfbench::golden::Golden;
use perfbench::jobs::{self, attack_2c_jobs, secret_set, Kind};
use perfbench::metrics::{end_to_end, per_layer, render_json};
use perfbench::{run, Options, RunData, WorkloadKind};
use pl_trace::json::{parse, Value};

fn opts(workload: WorkloadKind, seed: u64, trace: bool, tag: &str) -> Options {
    Options {
        workload,
        seed,
        seconds: 1.0,
        trace,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "selftest-{tag}-{}-{seed}-{}",
            workload.name(),
            u8::from(trace)
        )),
        tiny: true,
    }
}

fn tiny(workload: WorkloadKind, seed: u64, trace: bool, golden: &Golden, tag: &str) -> RunData {
    run(&opts(workload, seed, trace, tag), golden).expect("tiny run completes")
}

fn failed(d: &RunData) -> u64 {
    d.passes.iter().map(|p| p.failed).sum()
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn names(bench: &Value, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("string field")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn printed(line: &str) -> Vec<(String, String)> {
    let v = parse(line).expect("result line is JSON");
    let Some(Value::Obj(metrics)) = v.get("metrics") else {
        panic!("no metrics object in {line}");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{name} has a value"
            );
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_workload_runs_tiny_without_failures_and_prints_every_metric() {
    let golden = Golden::recorded();
    let bench = benchmark_json();
    let mut want_e2e = names(&bench, "end_to_end");
    let mut want_layer = names(&bench, "per_layer");
    want_e2e.sort();
    want_layer.sort();
    for w in WorkloadKind::ALL {
        let d = tiny(w, 1, false, &golden, "metrics");
        assert_eq!(failed(&d), 0, "{}: {:?}", w.name(), d.passes[0].errors);
        for p in &d.passes {
            assert!(
                !p.yard.is_empty() && p.yard.iter().all(|y| y.cpu_ns > 0),
                "{}: every pass times the yardstick",
                w.name()
            );
        }
        let (m, _) = end_to_end(&d);
        let mut got = printed(&render_json(true, 1, 0, &m));
        got.sort();
        assert_eq!(got, want_e2e, "{} end-to-end metrics", w.name());

        let d = tiny(w, 1, true, &golden, "metrics");
        assert_eq!(
            failed(&d),
            0,
            "{} traced: {:?}",
            w.name(),
            d.passes[0].errors
        );
        let (m, _) = per_layer(&d);
        let defects = m
            .iter()
            .find(|m| m.name == "bench.count_defects")
            .expect("defect count");
        assert_eq!(defects.value, 0.0, "{} count defects", w.name());
        let mut got = printed(&render_json(true, 1, 0, &m));
        got.sort();
        assert_eq!(got, want_layer, "{} per-layer metrics", w.name());
        for (name, unit) in want_e2e.iter().chain(&want_layer) {
            assert!(valid_name(name), "metric name `{name}`");
            assert!(!unit.is_empty(), "{name} has a unit");
        }
    }
}

#[test]
fn spans_are_invisible_to_the_model() {
    let golden = Golden::recorded();
    for w in WorkloadKind::ALL {
        let plain = tiny(w, 4, false, &golden, "invisible");
        let traced = tiny(w, 4, true, &golden, "invisible");
        let untraced_digest = plain.passes[0].outputs_digest;
        assert!(traced.passes.iter().any(|p| p.traced));
        for p in &traced.passes {
            assert_eq!(p.outputs_digest, untraced_digest, "{}", w.name());
        }
        assert!(!traced.spans.is_empty() && plain.spans.is_empty());
    }
}

#[test]
fn a_perturbed_expected_output_counts_as_a_failure() {
    let mut golden = Golden::recorded();
    let d = tiny(WorkloadKind::Sweep1c, 1, false, &golden, "perturbed-ref");
    assert_eq!(failed(&d), 0);
    let job = &jobs::sweep_1c_jobs()[1];
    let mut wrong = golden.get(&job.key).expect("recorded").clone();
    wrong.cycles += 1;
    golden.set(&job.key, wrong);
    let d = tiny(WorkloadKind::Sweep1c, 1, false, &golden, "perturbed");
    assert_eq!(failed(&d), 1, "exactly the perturbed job fails");

    // A serve-mix reply is checked byte for byte too.
    let mut golden = Golden::recorded();
    let d = tiny(
        WorkloadKind::ServeMix,
        1,
        false,
        &golden,
        "perturbed-serve-ref",
    );
    assert_eq!(failed(&d), 0);
    let key = &jobs::sweep_1c_jobs()[0].key;
    let mut wrong = golden.get(key).expect("recorded").clone();
    wrong.digest ^= 1;
    golden.set(key, wrong);
    let d = tiny(WorkloadKind::ServeMix, 1, false, &golden, "perturbed-serve");
    assert_eq!(failed(&d), 2, "the job's miss and its repeat both fail");
}

#[test]
fn seeds_permute_sweeps_and_redraw_attack_secrets() {
    let golden = Golden::recorded();
    let a = tiny(WorkloadKind::Sweep1c, 1, false, &golden, "seed");
    let b = tiny(WorkloadKind::Sweep1c, 2, false, &golden, "seed");
    assert_eq!(a.passes[0].outputs_digest, b.passes[0].outputs_digest);
    assert_eq!(a.passes[0].counts, b.passes[0].counts);

    let secrets = |seed| -> Vec<Vec<u8>> {
        attack_2c_jobs(secret_set(seed))
            .iter()
            .filter(|j| j.kind == Kind::Probe)
            .map(|j| j.scenario.as_ref().expect("scenario").secrets.clone())
            .collect()
    };
    assert_ne!(secrets(1), secrets(2));
    assert_eq!(secrets(1), secrets(1 + jobs::SECRET_SETS));
}

#[test]
fn every_job_has_recorded_outputs() {
    let golden = Golden::recorded();
    let mut all = jobs::sweep_1c_jobs();
    all.extend(jobs::sweep_8c_jobs());
    for set in 0..jobs::SECRET_SETS {
        all.extend(attack_2c_jobs(set));
    }
    for j in &all {
        assert!(golden.get(&j.key).is_some(), "{} is not recorded", j.key);
    }
    assert_eq!(golden.len(), all.len());
}
