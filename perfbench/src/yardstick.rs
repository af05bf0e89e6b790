//! The host yardstick: a fixed piece of work, timed between jobs, that
//! tells how fast the host runs at that moment.
//!
//! This host is a virtual machine shared with other tenants. Besides
//! steal time, which CPU time already leaves out, the speed of a CPU
//! second itself drifts, by up to 1.6×, and switches between a fast and
//! a slow mode every few seconds. A run therefore times the yardstick
//! between every two jobs (requests on `serve-mix`) and scales the CPU
//! time of each job to a host on which one yardstick takes
//! [`REF_CPU_NS`], using the mean of the two timings around it. Set-up,
//! timed in wall-clock, is scaled by [`REF_WALL_NS`] over the run's
//! median wall timing. The yardstick is code
//! of the benchmark, not of the simulator, so a change to the simulator
//! moves the scaled times exactly as it moves the raw ones.
//!
//! The work resembles the simulator's: a set-associative cache model
//! (4096 sets of 8 ways, 384 KB of tags and LRU stamps) driven by a
//! pseudo-random address stream, branchy and bound by the host's L2
//! cache. A job's CPU time moves with it in proportion; a pure
//! arithmetic loop moved less than the simulator and a pointer chase
//! through memory more (see the README).

use std::time::Instant;

use crate::cpu;

/// CPU ns of one yardstick on the reference host (about its median on
/// a 2-vCPU Intel Xeon VM at 2.1 GHz).
pub const REF_CPU_NS: f64 = 270_000.0;
/// Wall ns of one yardstick on the reference host.
pub const REF_WALL_NS: f64 = 270_000.0;

const SETS: usize = 4096;
const WAYS: usize = 8;
const ACCESSES: usize = 12_000;

/// One timing of the yardstick.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sample {
    /// CPU ns of the thread that ran it.
    pub cpu_ns: u64,
    /// Wall ns.
    pub wall_ns: u64,
}

/// The yardstick's state: the cache model, allocated once.
#[derive(Debug)]
pub struct Yardstick {
    tags: Vec<u64>,
    stamps: Vec<u32>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Default for Yardstick {
    fn default() -> Self {
        Yardstick::new()
    }
}

impl Yardstick {
    /// Builds the cache model.
    pub fn new() -> Yardstick {
        Yardstick {
            tags: vec![u64::MAX; SETS * WAYS],
            stamps: vec![0; SETS * WAYS],
        }
    }

    /// The fixed work; returns a checksum so it cannot be optimised
    /// away. The same on every call.
    pub fn work(&mut self) -> u64 {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
        let mut clock = 0u32;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut hits = 0u64;
        for _ in 0..ACCESSES {
            let r = xorshift(&mut x);
            // A skewed stream: mostly a hot region, sometimes far away.
            let addr = if r & 3 != 0 {
                r % (1 << 18)
            } else {
                r % (1 << 24)
            } >> 6;
            let set = (addr as usize) % SETS;
            let tag = addr / SETS as u64;
            let ways = set * WAYS..set * WAYS + WAYS;
            clock += 1;
            match self.tags[ways.clone()].iter().position(|&t| t == tag) {
                Some(w) => {
                    hits += 1;
                    self.stamps[set * WAYS + w] = clock;
                }
                None => {
                    let victim = ways
                        .min_by_key(|&i| self.stamps[i])
                        .expect("a set has ways");
                    self.tags[victim] = tag;
                    self.stamps[victim] = clock;
                }
            }
        }
        hits
    }

    /// Times one run of [`Yardstick::work`]. The CPU time is the calling
    /// thread's, so other threads of the process do not count in it.
    pub fn sample(&mut self) -> Sample {
        let (c, t) = (cpu::thread_ns(), Instant::now());
        std::hint::black_box(self.work());
        Sample {
            cpu_ns: cpu::thread_ns() - c,
            wall_ns: t.elapsed().as_nanos() as u64,
        }
    }
}

/// CPU factors of each of `segments` segments: the reference CPU time
/// over the mean of the timings before (`yard[k]`) and after
/// (`yard[k + 1]`) segment `k`; 1 where a timing is missing.
pub fn segment_factors(yard: &[Sample], segments: usize) -> Vec<f64> {
    (0..segments)
        .map(|k| match (yard.get(k), yard.get(k + 1)) {
            (Some(a), Some(b)) => 2.0 * REF_CPU_NS / (a.cpu_ns + b.cpu_ns).max(1) as f64,
            _ => 1.0,
        })
        .collect()
}

/// Factors that scale measured CPU and wall time to the reference host,
/// from the median of `samples`; 1 when there are none.
pub fn scale(samples: &[Sample]) -> (f64, f64) {
    if samples.is_empty() {
        return (1.0, 1.0);
    }
    let mut c: Vec<f64> = samples.iter().map(|s| s.cpu_ns as f64).collect();
    let mut w: Vec<f64> = samples.iter().map(|s| s.wall_ns as f64).collect();
    (
        REF_CPU_NS / crate::metrics::median(&mut c).max(1.0),
        REF_WALL_NS / crate::metrics::median(&mut w).max(1.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_is_the_same_on_every_call() {
        let mut y = Yardstick::new();
        let a = y.work();
        assert_eq!(a, y.work());
        assert_eq!(a, Yardstick::new().work());
    }

    #[test]
    fn scale_is_reference_over_median() {
        let s = |ns| Sample {
            cpu_ns: ns,
            wall_ns: 2 * ns,
        };
        let (c, w) = scale(&[s(100_000), s(800_000), s(200_000)]);
        assert_eq!(c, REF_CPU_NS / 200_000.0);
        assert_eq!(w, REF_WALL_NS / 400_000.0);
        assert_eq!(scale(&[]), (1.0, 1.0));
    }

    #[test]
    fn a_segment_takes_the_mean_of_its_two_boundaries() {
        let s = |ns| Sample {
            cpu_ns: ns,
            wall_ns: ns,
        };
        let f = segment_factors(&[s(300_000), s(500_000), s(400_000)], 3);
        assert_eq!(f, [REF_CPU_NS / 400_000.0, REF_CPU_NS / 450_000.0, 1.0]);
    }
}
