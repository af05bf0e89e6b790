//! Reduces a run's passes and spans to the named metrics.

use std::collections::{BTreeMap, BTreeSet};

use crate::jobs::scheme_short;
use crate::trace::self_times;
use crate::yardstick::{scale, segment_factors, Sample};
use crate::{Pass, RunData, WorkloadKind};

/// End-to-end metrics, printed by an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_kcps", "kc/s"),
    ("jobs_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "share"),
];

/// Per-layer metrics, printed by a traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_ms", "ms"),
    ("machine.new_ms", "ms"),
    ("machine.install_ms", "ms"),
    ("machine.run_ms", "ms"),
    ("machine.run_ns_per_core_cycle", "ns"),
    ("machine.spin_opens", "count"),
    ("machine.spin_parks", "count"),
    ("machine.spin_hit_rate", "share"),
    ("machine.spin_skipped_share", "share"),
    ("machine.snapshot_ms", "ms"),
    ("machine.restore_ms", "ms"),
    ("machine.encode_ms", "ms"),
    ("machine.encode_kb", "KB"),
    ("machine.decode_ms", "ms"),
    ("cpu.retired", "count"),
    ("cpu.squashes", "count"),
    ("cpu.squash_waste", "share"),
    ("cpu.run_ns_per_retired", "ns"),
    ("predictor.branch_squashes", "count"),
    ("mem.l1_hit_rate", "share"),
    ("mem.l1_misses", "count"),
    ("mem.llc_requests", "count"),
    ("mem.dram_fetches", "count"),
    ("mem.noc_messages", "count"),
    ("mem.retries", "count"),
    ("mem.run_ns_per_noc_message", "ns"),
    ("secure.pins", "count"),
    ("secure.cst_lookups", "count"),
    ("secure.cst_false_positive_rate", "share"),
    ("secure.ep_denied", "count"),
    ("secure.cpt_overflows", "count"),
    ("secure.mcv_squashes", "count"),
    ("verify.probe_run_ms", "ms"),
    ("verify.companion_run_ms", "ms"),
    ("verify.observer_overhead", "ratio"),
    ("attack.decode_ms", "ms"),
    ("serve.request_build_ms", "ms"),
    ("serve.parse_ms", "ms"),
    ("serve.digest_us", "us"),
    ("serve.cache_lookup_ms", "ms"),
    ("serve.cache_store_ms", "ms"),
    ("serve.ckpt_spill_ms", "ms"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.miss_ms_p50", "ms"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.cache_evictions", "count"),
    ("serve.ckpt_spills", "count"),
    ("model.norm_cycles.fence", "ratio"),
    ("model.norm_cycles.dom", "ratio"),
    ("model.norm_cycles.stt", "ratio"),
    ("model.norm_cycles.invspec", "ratio"),
    ("model.norm_cycles.fence_lp", "ratio"),
    ("model.norm_cycles.fence_ep", "ratio"),
    ("trace.overhead", "share"),
    ("bench.count_defects", "count"),
];

/// A named, measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Median; 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn median_ns_ms(v: &[u64]) -> f64 {
    let mut ms: Vec<f64> = v.iter().map(|&x| x as f64 / 1e6).collect();
    median(&mut ms)
}

/// The tail percentile of a workload: the highest whole percentile that
/// leaves at least ten of one pass's jobs beyond it.
pub fn tail_percentile(jobs_per_pass: usize) -> u32 {
    let n = jobs_per_pass as f64;
    (1..100)
        .rev()
        .find(|&q| n - (f64::from(q) / 100.0 * n).ceil() >= 10.0)
        .unwrap_or(50)
}

/// Nearest-rank percentile `q` of `sorted`, and how many samples lie
/// beyond it.
pub fn nearest_rank(sorted: &[f64], q: u32) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let rank = ((f64::from(q) / 100.0) * sorted.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, sorted.len()) - 1;
    (sorted[idx], sorted.len() - idx - 1)
}

/// VmHWM of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn build(
    table: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}

/// End-to-end metrics over the untraced passes, and notes stating the
/// tail percentile and sample counts.
pub fn end_to_end(d: &RunData) -> (Vec<Metric>, Vec<String>) {
    let passes: Vec<&Pass> = d.passes.iter().filter(|p| !p.traced).collect();
    let wall_s: f64 = passes.iter().map(|p| p.wall_ns as f64 / 1e9).sum();
    let raw_host_s: f64 = passes.iter().map(|p| p.host_ns as f64 / 1e9).sum();
    // Every host time is scaled to the reference host by the yardstick
    // timings around it (see `yardstick`): CPU time by its job's CPU
    // factor, the wall-clock set-up by the run's wall factor.
    let host_s: f64 = passes.iter().map(|p| scaled_host_ns(p) / 1e9).sum();
    let all_yard: Vec<Sample> = d.passes.iter().flat_map(|p| p.yard.clone()).collect();
    let (run_cpu_f, run_wall_f) = scale(&all_yard);
    let cycles: u64 = passes.iter().map(|p| p.cycles).sum();
    let jobs: u64 = passes.iter().map(|p| p.jobs).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    // Both latency percentiles are taken over the scaled latencies of
    // every untraced pass at once. The tail percentile is the one that
    // leaves at least ten of one pass's jobs beyond it, so it is the same
    // on every run whatever the number of passes.
    let q = tail_percentile(d.jobs_per_pass);
    let mut lat_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| {
            let f = segment_factors(&p.yard, p.seg_cpu_ns.len());
            p.lat_ns
                .iter()
                .zip(&p.lat_seg)
                .map(move |(&ns, &k)| ns as f64 / 1e6 * f.get(k).copied().unwrap_or(1.0))
        })
        .collect();
    lat_ms.sort_by(f64::total_cmp);
    let (tail, beyond) = nearest_rank(&lat_ms, q);
    let mut v = BTreeMap::new();
    v.insert("sim_kcps", cycles as f64 / 1e3 / host_s.max(1e-9));
    v.insert("jobs_per_s", jobs as f64 / host_s.max(1e-9));
    v.insert("job_ms_p50", median(&mut lat_ms));
    v.insert("job_ms_tail", tail);
    v.insert("setup_s", run_wall_f * median(&mut d.setup_s.clone()));
    v.insert("peak_rss_mb", peak_rss_mb());
    v.insert("success_rate", 1.0 - failed as f64 / (jobs.max(1)) as f64);
    let notes = vec![
        format!(
            "passes {} ({} jobs each), jobs {jobs}, failed {failed}, \
             host CPU {raw_host_s:.3} s ({host_s:.3} s scaled), wall {wall_s:.3} s",
            passes.len(),
            d.jobs_per_pass
        ),
        format!(
            "yardstick: {} timings; over the run, reference / median is {run_cpu_f:.4} for CPU \
             and {run_wall_f:.4} for wall time; each job (request on serve-mix) is scaled by \
             the timings before and after it, set-up by the run's wall factor",
            all_yard.len()
        ),
        format!(
            "job_ms_p50 and job_ms_tail are p50 and p{q} of the {} latencies of {} passes \
             ({beyond} beyond p{q}; p{q} leaves at least 10 of one pass's {} jobs beyond it)",
            lat_ms.len(),
            passes.len(),
            d.jobs_per_pass
        ),
        format!(
            "setup_s is the median of {} set-ups, scaled by the wall factor; raw wall: {:?} ms",
            d.setup_s.len(),
            d.setup_s
                .iter()
                .map(|s| (s * 1e4).round() / 10.0)
                .collect::<Vec<_>>()
        ),
    ];
    (build(END_TO_END, &v), notes)
}

/// CPU time of a pass scaled to the reference host: by the mean of its
/// segments' CPU factors, each weighted by the segment's CPU time.
fn scaled_host_ns(p: &Pass) -> f64 {
    let f = segment_factors(&p.yard, p.seg_cpu_ns.len());
    let total: u64 = p.seg_cpu_ns.iter().sum();
    let weighted: f64 = p
        .seg_cpu_ns
        .iter()
        .zip(&f)
        .map(|(&ns, &cpu_f)| ns as f64 * cpu_f)
        .sum();
    let factor = if total > 0 {
        weighted / total as f64
    } else {
        1.0
    };
    p.host_ns as f64 * factor
}

/// Count keys whose value differs between `a` and `b`.
fn differing(a: &BTreeMap<String, u64>, b: &BTreeMap<String, u64>) -> Vec<String> {
    let keys: BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    keys.into_iter()
        .filter(|k| a.get(*k) != b.get(*k))
        .cloned()
        .collect()
}

/// Geometric mean over kernels of cycles under `scheme` / cycles under
/// Unsafe; 0 when no kernel ran under both.
fn norm_cycles(jc: &BTreeMap<(String, String), u64>, short: &str) -> f64 {
    let mut logs = Vec::new();
    for ((kernel, scheme), &c) in jc {
        if scheme_short(scheme) != short {
            continue;
        }
        if let Some(&base) = jc.get(&(kernel.clone(), "Unsafe".to_string())) {
            if base > 0 && c > 0 {
                logs.push((c as f64 / base as f64).ln());
            }
        }
    }
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Per-layer metrics from the traced passes' spans and counts, and
/// notes naming any count that did not repeat.
pub fn per_layer(d: &RunData) -> (Vec<Metric>, Vec<String>) {
    let traced: Vec<&Pass> = d.passes.iter().filter(|p| p.traced).collect();
    let untraced: Vec<&Pass> = d.passes.iter().filter(|p| !p.traced).collect();
    let mut notes = Vec::new();
    let Some(first) = traced.first() else {
        return (
            build(PER_LAYER, &BTreeMap::new()),
            vec!["no traced pass".into()],
        );
    };
    let t = traced.len() as f64;
    let st = self_times(&d.spans);
    // Host ns per traced pass spent in the spans named `name`.
    let ns = |name: &str| st.get(name).copied().unwrap_or(0) as f64 / t;
    let ms = |name: &str| ns(name) / 1e6;
    let c = |k: &str| first.counts.get(k).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let run_ns = ns("machine.run") + ns("machine.run_probe");
    let attack = d.workload == WorkloadKind::Attack2c;

    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    v.insert("workloads.build_ms", median(&mut d.build_ms.clone()));
    v.insert("machine.new_ms", ms("machine.new"));
    v.insert("machine.install_ms", ms("machine.install"));
    v.insert("machine.run_ms", run_ns / 1e6);
    v.insert(
        "machine.run_ns_per_core_cycle",
        ratio(run_ns, first.core_cycles as f64),
    );
    v.insert("machine.spin_opens", c("spin.opens"));
    v.insert("machine.spin_parks", c("spin.parks"));
    v.insert(
        "machine.spin_hit_rate",
        ratio(c("spin.parks"), c("spin.opens")),
    );
    v.insert(
        "machine.spin_skipped_share",
        ratio(c("spin.skipped"), first.core_cycles as f64),
    );
    for (metric, span) in [
        ("machine.snapshot_ms", "machine.snapshot"),
        ("machine.restore_ms", "machine.restore"),
        ("machine.encode_ms", "machine.encode"),
        ("machine.decode_ms", "machine.decode"),
        ("attack.decode_ms", "attack.decode"),
        ("serve.request_build_ms", "serve.request_build"),
        ("serve.parse_ms", "serve.parse"),
        ("serve.cache_lookup_ms", "serve.cache_lookup"),
        ("serve.cache_store_ms", "serve.cache_store"),
        ("serve.ckpt_spill_ms", "serve.ckpt_spill"),
    ] {
        v.insert(metric, ms(span));
    }
    v.insert("machine.encode_kb", c("ckpt.encode_bytes") / 1024.0);
    let retired = c("stat.retired");
    let squashed = c("stat.squashed_insts");
    v.insert("cpu.retired", retired);
    v.insert("cpu.squashes", c("stat.squashes"));
    v.insert("cpu.squash_waste", ratio(squashed, retired + squashed));
    v.insert("cpu.run_ns_per_retired", ratio(run_ns, retired));
    v.insert("predictor.branch_squashes", c("stat.squash.branch"));
    let (hits, misses) = (c("stat.l1.hits"), c("stat.l1.misses"));
    v.insert("mem.l1_hit_rate", ratio(hits, hits + misses));
    v.insert("mem.l1_misses", misses);
    v.insert(
        "mem.llc_requests",
        c("stat.llc.gets") + c("stat.llc.getx") + c("stat.llc.getx_star"),
    );
    v.insert("mem.dram_fetches", c("stat.llc.dram_fetches"));
    v.insert("mem.noc_messages", c("stat.noc.messages"));
    v.insert(
        "mem.retries",
        c("stat.l1.nacks")
            + c("stat.llc.nacks")
            + c("stat.llc.evictions_retried")
            + c("stat.wb.writes_retried"),
    );
    v.insert(
        "mem.run_ns_per_noc_message",
        ratio(run_ns, c("stat.noc.messages")),
    );
    v.insert("secure.pins", c("stat.pin.pins"));
    let lookups = c("stat.pin.cst_dir_lookups");
    v.insert("secure.cst_lookups", lookups);
    v.insert(
        "secure.cst_false_positive_rate",
        ratio(c("stat.pin.cst_dir_false_positives"), lookups),
    );
    v.insert("secure.ep_denied", c("stat.pin.ep_denied"));
    v.insert("secure.cpt_overflows", c("stat.cpt.overflows"));
    v.insert(
        "secure.mcv_squashes",
        c("stat.squash.mcv_evict") + c("stat.squash.mcv_inv"),
    );
    let probe = ms("machine.run_probe");
    let companion = if attack { ms("machine.run") } else { 0.0 };
    v.insert("verify.probe_run_ms", probe);
    v.insert("verify.companion_run_ms", companion);
    v.insert("verify.observer_overhead", ratio(probe, companion));
    v.insert("serve.digest_us", ns("serve.digest") / 1e3);
    let hit_lat: Vec<u64> = untraced.iter().flat_map(|p| p.hit_lat_ns.clone()).collect();
    let miss_lat: Vec<u64> = untraced
        .iter()
        .flat_map(|p| p.miss_lat_ns.clone())
        .collect();
    v.insert("serve.hit_ms_p50", median_ns_ms(&hit_lat));
    v.insert("serve.miss_ms_p50", median_ns_ms(&miss_lat));
    for (metric, key) in [
        ("serve.hits", "serve.hits"),
        ("serve.misses", "serve.misses"),
        ("serve.cache_evictions", "serve.cache_evictions"),
        ("serve.ckpt_spills", "serve.ckpt_spills"),
    ] {
        v.insert(metric, c(key));
    }
    for (metric, short) in [
        ("model.norm_cycles.fence", "fence"),
        ("model.norm_cycles.dom", "dom"),
        ("model.norm_cycles.stt", "stt"),
        ("model.norm_cycles.invspec", "invspec"),
        ("model.norm_cycles.fence_lp", "fence_lp"),
        ("model.norm_cycles.fence_ep", "fence_ep"),
    ] {
        v.insert(metric, norm_cycles(&first.job_cycles, short));
    }
    let mut tw: Vec<f64> = traced.iter().map(|p| scaled_host_ns(p)).collect();
    let mut uw: Vec<f64> = untraced.iter().map(|p| scaled_host_ns(p)).collect();
    v.insert(
        "trace.overhead",
        ratio(median(&mut tw), median(&mut uw)) - 1.0,
    );

    // Counts must repeat exactly between traced passes, and the outputs
    // of traced and untraced passes must be identical.
    let mut defects: u64 = d.passes.iter().map(|p| p.defects).sum();
    for p in &traced[1..] {
        for k in differing(&first.counts, &p.counts) {
            defects += 1;
            notes.push(format!("defect: count `{k}` differs between passes"));
        }
    }
    for p in &d.passes {
        if p.outputs_digest != first.outputs_digest && p.failed == 0 {
            defects += 1;
            notes.push("defect: outputs differ between traced and untraced passes".into());
        }
    }
    v.insert("bench.count_defects", defects as f64);
    notes.push(format!(
        "traced passes {}, untraced passes {}, spans {}; layer _ms are host ms per pass",
        traced.len(),
        untraced.len(),
        d.spans.len()
    ));
    (build(PER_LAYER, &v), notes)
}

/// The benchmark's result line.
pub fn render_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_beyond_in_one_pass() {
        for n in [11, 48, 105, 147, 258] {
            let q = tail_percentile(n);
            let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert!(nearest_rank(&sorted, q).1 >= 10, "n={n} q={q}");
            assert!(
                nearest_rank(&sorted, q + 1).1 < 10 || q == 99,
                "n={n} q={q}"
            );
        }
    }

    #[test]
    fn median_of_even_count_averages() {
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn json_uses_round_trip_digits() {
        let m = [Metric {
            name: "sim_kcps",
            value: 1.0 / 3.0,
            unit: "kc/s",
        }];
        assert!(render_json(true, 1, 0, &m).contains("0.3333333333333333"));
    }
}
