//! The full simulated machine: cores, interconnect, LLC/directory slices,
//! and the functional memory image.
//!
//! [`Machine`] assembles the Table 1 system and drives it cycle by cycle:
//! deliver coherence messages, tick the directory slices (with a
//! [`PinView`] over the cores so pinned lines are never chosen as LLC
//! victims), tick the cores, and route their outboxes through the mesh.
//! [`Machine::run`] executes until every core quiesces, with a watchdog
//! that reports a deadlock diagnosis instead of hanging — the scenario of
//! Figure 4 is a test case, not a hazard, because the write-buffer
//! occupancy check of Section 5.1.2 prevents it.
//!
//! # Examples
//!
//! ```
//! use pl_base::{Addr, CoreId, MachineConfig};
//! use pl_isa::{ProgramBuilder, Reg};
//! use pl_machine::Machine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = MachineConfig::default_single_core();
//! let mut b = ProgramBuilder::new();
//! let r1 = Reg::new(1)?;
//! let r2 = Reg::new(2)?;
//! b.addi(r1, Reg::ZERO, 0x1000); // pointer
//! b.load(r2, r1, 0);             // r2 = mem[0x1000]
//! b.store(r2, r1, 8);            // mem[0x1008] = r2
//! let mut m = Machine::new(&cfg)?;
//! m.load_program(CoreId(0), b.build()?);
//! m.write_mem(Addr::new(0x1000), 7);
//! let result = m.run(100_000)?;
//! assert_eq!(m.read_mem(Addr::new(0x1008)), 7);
//! assert!(result.cycles > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use pl_base::{
    Addr, CheckEvent, CheckObserver, ConfigError, CoreId, Cycle, HistId, LineAddr, MachineConfig,
    MachineSnapshot, Stats,
};
use pl_cpu::{Core, SpinDelta, OCC_SAMPLE_PERIOD};
use pl_isa::{Program, Reg};
use pl_mem::{LlcSlice, Memory, Msg, Noc, NodeId, PinView};
use pl_secure::VpMask;
use pl_trace::{TraceLog, Tracer};

/// Cycles without a single retirement before the watchdog declares a
/// deadlock.
const WATCHDOG_CYCLES: u64 = 300_000;

/// How often the machine samples CPT occupancy (Section 9.2.2).
const CPT_SAMPLE_PERIOD: u64 = 64;

/// How many trailing trace events a deadlock diagnosis carries.
const DEADLOCK_TRACE_TAIL: usize = 64;

/// Spin-detector probe grid: candidate spin periods are multiples of
/// this, the least common multiple of the core's occupancy-sample
/// period (32) and the machine's CPT sample period (64). Any window
/// whose length is a multiple of both contains an identical set of
/// sample points in every repeat, so the captured statistics deltas
/// replay bit-exactly.
const SPIN_PROBE_GRID: u64 = 64;

/// Longest spin period the detector will try to verify. Bounds how
/// long a verification window stays open (and so the cost of watching
/// a core that turns out not to be spinning). Probes land on the
/// [`SPIN_PROBE_GRID`], so a loop with natural period `p` only matches
/// at `lcm(p, grid)` — e.g. a 7-cycle polling loop first repeats on the
/// grid at 448 cycles. `lcm(p, 64) <= 2048` for every loop period
/// `p <= 32` — enough for fenced polling loops, whose iteration latency
/// includes waiting for the load to reach its visibility point — while
/// [`SPIN_MSG_GUARD`] keeps mistakenly opened windows rare enough that
/// the occasional full-window burn is noise.
const SPIN_MAX_PERIOD: u64 = 2048;

/// Cycles of detector backoff after a failed verification window,
/// doubled per consecutive failure.
const SPIN_BACKOFF_BASE: u64 = 256;

/// Cap on the backoff doubling exponent (256 << 8 = 64K cycles).
const SPIN_BACKOFF_CAP: u32 = 8;

/// Cycles the detector waits after a core sends or receives NoC traffic
/// before opening a new verification window. Traffic is usually a spin
/// wake (the watched line was written and the next poll misses), so the
/// core spends the next refill latency in a transient; capturing the
/// base mid-transient wastes a whole [`SPIN_MAX_PERIOD`] window. The
/// fill response is itself traffic, so the guard re-arms from the last
/// message and the window opens on a steady-state base.
const SPIN_MSG_GUARD: u64 = 64;

/// Consecutive undisturbed `Active` ticks a core must accumulate before
/// the detector opens a verification window. Opening clones the whole
/// core (L1 included), so a core that oscillates between `Active` and
/// quiet excursions — a fenced spinner whose load waits at the ROB head,
/// say, which §11's ordinary quiet-parking already absorbs — must not
/// re-clone on every reactivation; without this gate the clone churn
/// makes the detector a net loss on exactly those workloads. One
/// probe-grid of continuous activity is a cheap proof the core is the
/// hot, never-quiet kind the detector exists for.
const SPIN_WARMUP: u64 = SPIN_PROBE_GRID;

/// Number of multiples of `m` in the half-open range `[lo, hi)`.
fn multiples_in(m: u64, lo: u64, hi: u64) -> u64 {
    let below = |n: u64| if n == 0 { 0 } else { (n - 1) / m + 1 };
    below(hi).saturating_sub(below(lo))
}

/// [`PinView`] over the cores' pin governors.
struct CorePins<'a>(&'a [Core]);

impl PinView for CorePins<'_> {
    fn is_pinned(&self, core: CoreId, line: LineAddr) -> bool {
        self.0
            .get(core.index())
            .is_some_and(|c| c.is_line_pinned(line))
    }
    fn is_pinned_by_any(&self, line: LineAddr) -> bool {
        self.0.iter().any(|c| c.is_line_pinned(line))
    }
}

/// Snapshot attached to [`RunError::Deadlock`]: the machine state dump
/// plus the tail of the event trace at the moment the watchdog fired.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeadlockDiagnosis {
    /// [`Machine::dump_state`] at the watchdog cycle: one line per core
    /// and slice describing in-flight state.
    pub state: String,
    /// The last [`DEADLOCK_TRACE_TAIL`](RunError::Deadlock) trace events
    /// (rendered), empty when tracing was disabled.
    pub recent_events: Vec<String>,
}

/// Error returned by [`Machine::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunError {
    /// No instruction retired for an extended period (300k cycles by
    /// default, see [`Machine::set_watchdog_cycles`]); includes the cycle
    /// at which progress stopped, the instructions retired so far, and a
    /// state/trace snapshot.
    Deadlock {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// Total instructions retired before the stall.
        retired: u64,
        /// State dump and recent trace events at the stall.
        diagnosis: Box<DeadlockDiagnosis>,
    },
    /// The cycle budget was exhausted before every core halted.
    CycleLimit {
        /// The exhausted budget.
        limit: u64,
        /// Total instructions retired.
        retired: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Deadlock {
                cycle,
                retired,
                diagnosis,
            } => {
                write!(
                    f,
                    "no retirement progress by cycle {cycle} ({retired} retired)"
                )?;
                if !diagnosis.recent_events.is_empty() {
                    write!(
                        f,
                        "; last {} trace events attached",
                        diagnosis.recent_events.len()
                    )?;
                }
                Ok(())
            }
            RunError::CycleLimit { limit, retired } => {
                write!(
                    f,
                    "cycle limit {limit} reached with cores still running ({retired} retired)"
                )
            }
        }
    }
}

impl Error for RunError {}

/// Results of a completed run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Total cycles simulated until the last core quiesced.
    pub cycles: u64,
    /// Instructions retired per core.
    pub retired_per_core: Vec<u64>,
    /// Merged statistics from every core, slice, and the NoC.
    pub stats: Stats,
    /// The merged event trace, present when the configuration enabled
    /// tracing ([`pl_base::TraceConfig`]). Deterministic: the merge
    /// order is canonical, so identical runs yield identical logs.
    pub trace: Option<TraceLog>,
}

impl RunResult {
    /// Total retired instructions across all cores.
    pub fn total_retired(&self) -> u64 {
        self.retired_per_core.iter().sum()
    }

    /// Machine-wide cycles per instruction.
    pub fn cpi(&self) -> f64 {
        self.cycles as f64 / self.total_retired().max(1) as f64
    }
}

/// Outcome of [`Machine::run_until`]: either the workload finished (all
/// cores quiesced) or the pause bound was reached with the machine in a
/// resumable state.
#[derive(Debug)]
pub enum StepOutcome {
    /// Every core halted and drained; the run is complete.
    Done(RunResult),
    /// The pause bound was reached. Call [`Machine::run_until`] (or
    /// [`Machine::run`]) again to continue, or [`Machine::snapshot`] to
    /// checkpoint. Statistics owed by parked cores have been flushed, so
    /// the machine state is exactly what the naive loop would hold.
    Paused,
}

/// Run-loop bookkeeping that must survive a pause for a resumed run to be
/// bit-identical to an uninterrupted one: watchdog progress anchors and
/// the machine-level CPT occupancy samples accumulated so far.
#[derive(Debug)]
struct RunState {
    last_retired: u64,
    last_progress: Cycle,
    cpt_stats: Stats,
    cpt_occ: HistId,
}

impl RunState {
    fn new(retired: u64, now: Cycle) -> RunState {
        let mut cpt_stats = Stats::new();
        let cpt_occ = cpt_stats.hist_id("cpt.occupancy");
        RunState {
            last_retired: retired,
            last_progress: now,
            cpt_stats,
            cpt_occ,
        }
    }
}

/// A resumable checkpoint of a paused [`Machine`], produced by
/// [`Machine::snapshot`] and consumed by [`Machine::restore`]: the
/// [`Machine::encode_state`] stream (the bytes `plsim serve` keeps and
/// spills) plus what the stream does not carry, the configuration and
/// each core's program and VP mask.
///
/// Three things are deliberately *not* captured, and all are documented
/// exclusions rather than oversights:
/// - the invariant-check observer, a trait object owned by the caller;
///   hand it across a restore with [`Machine::take_check_observer`] /
///   [`Machine::set_check_observer`];
/// - the event-driven scheduler calendar, rebuilt conservatively on the
///   next run, which the fast-forward bit-identity argument already
///   covers: re-deriving park state only re-executes quiet ticks whose
///   statistics deltas are identical to the replayed ones;
/// - the trace rings: a restored traced machine starts with empty rings
///   and records the events of every cycle from the checkpoint cycle on,
///   stamped as the uninterrupted run stamps them.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    cfg: MachineConfig,
    cores: Vec<(Arc<Program>, VpMask)>,
    state: Vec<u8>,
}

impl Checkpoint {
    /// The cycle at which this checkpoint was taken.
    pub fn cycle(&self) -> u64 {
        pl_base::Dec::new(&self.state)
            .u64()
            .expect("the state stream opens with the clock")
    }
}

/// Per-core scheduler state for the event-driven run loop.
///
/// A core moves `Active -> Quiet` when a tick makes no progress,
/// `Quiet -> Parked` after one more *capture* tick (bracketed by counter
/// snapshots, so the per-quiet-cycle statistics delta is known), and
/// back to `Active` when a message arrives or its next timed event comes
/// due. While parked the core is not ticked at all; the skipped cycles'
/// statistics are replayed in bulk at wake-up from the captured delta.
///
/// `Spinning` is the busy-waiting sibling of `Parked`: the core *would*
/// execute every cycle, but the spin detector proved that each verified
/// period repeats the previous one exactly, so the machine freezes the
/// core at a period boundary and replays whole periods in O(delta) at
/// wake-up ([`Core::spin_advance`]) plus a live partial-period catch-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum ParkState {
    /// Ticking normally.
    #[default]
    Active,
    /// Last tick was quiet; the next predicted-quiet tick is captured.
    Quiet,
    /// Not ticked; statistics owed since the capture tick.
    Parked,
    /// Not ticked; whole spin periods owed since the verified boundary.
    Spinning,
}

#[derive(Debug, Default)]
struct CoreSched {
    state: ParkState,
    /// Cycle of the capture tick (the core's last executed tick).
    since: Cycle,
    /// Earliest self-scheduled activity; `None` means the core is idle
    /// until a message arrives (or forever, if it halted).
    wake: Option<Cycle>,
    /// Counter snapshots bracketing the capture tick; their difference
    /// is what every skipped quiet cycle would have added.
    core_before: Vec<u64>,
    core_after: Vec<u64>,
    gov_before: Vec<u64>,
    gov_after: Vec<u64>,
    /// The verified per-period delta while `Spinning`; consumed at wake.
    delta: Option<Box<SpinDelta>>,
}

/// Per-core spin-loop detector state.
///
/// The detector watches cores that tick `Active` every cycle with no
/// NoC interaction. When one looks idle-at-a-boundary
/// ([`Core::spin_ready`]), it snapshots the core and probes at every
/// [`SPIN_PROBE_GRID`] multiple whether the live core is the snapshot
/// shifted by exactly one spin period ([`Core::spin_verify`]). Success
/// parks the core as [`ParkState::Spinning`]; a window that exceeds
/// [`SPIN_MAX_PERIOD`] without verifying closes with exponential
/// backoff. Any message sent or received, or any cycle the core does
/// not tick `Active`, invalidates the open window — a parkable spin is
/// self-contained by construction, so its repeats touch nothing outside
/// the core.
#[derive(Debug, Default)]
struct SpinTrack {
    /// Consecutive failed verification windows, driving the backoff.
    fails: u32,
    /// Do not open a new window before this cycle.
    idle_until: Cycle,
    /// Consecutive undisturbed `Active` ticks; a window may only open
    /// once this reaches [`SPIN_WARMUP`] (see there for why).
    streak: u64,
    /// Open verification window: boundary snapshot and its cycle.
    base: Option<(Box<Core>, Cycle)>,
}

/// Holder for the attached invariant-check observer. Trait objects have
/// no useful `Debug`, so the slot renders as presence/absence and lets
/// [`Machine`] keep its derived `Debug`.
#[derive(Default)]
struct ObserverSlot(Option<Box<dyn CheckObserver>>);

impl fmt::Debug for ObserverSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(_) => f.write_str("ObserverSlot(attached)"),
            None => f.write_str("ObserverSlot(none)"),
        }
    }
}

/// A complete simulated multicore machine.
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    cores: Vec<Core>,
    slices: Vec<LlcSlice>,
    noc: Noc,
    image: Memory,
    now: Cycle,
    watchdog_cycles: u64,
    /// Reused per-tick buffers so the steady-state tick allocates nothing.
    deliver_buf: Vec<(NodeId, NodeId, Msg)>,
    slice_bound: Vec<(usize, Msg)>,
    outbox_buf: Vec<(NodeId, Msg)>,
    /// Invariant-check observer plus its reused event buffer and the
    /// next snapshot cycle (a watermark, because fast-forward jumps
    /// `now` past arbitrary multiples of the period).
    check_observer: ObserverSlot,
    check_buf: Vec<CheckEvent>,
    next_snapshot: u64,
    /// Event calendar for the scheduled run loop: per-core park state
    /// and each slice's cached next timer (re-armed whenever the slice
    /// handles a message or ticks).
    sched: Vec<CoreSched>,
    slice_next: Vec<Option<Cycle>>,
    slice_touched: Vec<bool>,
    /// Per-core spin detector plus its per-tick scratch: which cores
    /// executed a normal `Active` tick this cycle, and which sent or
    /// received a NoC message. Not checkpointed — the detector re-arms
    /// from scratch, which only costs re-verification time.
    spin_track: Vec<SpinTrack>,
    spin_ticked: Vec<bool>,
    spin_msg: Vec<bool>,
    /// Diagnostics for benchmarks and tests, deliberately *not* part of
    /// [`RunResult::stats`]: spin parking must leave every merged
    /// statistic bit-identical to a run without it.
    spin_parks: u64,
    spin_skipped_cycles: u64,
    spin_opens: u64,
    /// Run-loop bookkeeping carried across a [`Machine::run_until`] pause
    /// (and through [`Machine::snapshot`]); `None` when no run is
    /// suspended.
    run_state: Option<RunState>,
}

impl Machine {
    /// Builds a machine from a validated configuration. Every core
    /// initially runs an empty (immediately halting) program; call
    /// [`Machine::load_program`] per core.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`ConfigError`] if the configuration is
    /// inconsistent.
    pub fn new(cfg: &MachineConfig) -> Result<Machine, ConfigError> {
        cfg.validate()?;
        let empty = Arc::new(
            pl_isa::ProgramBuilder::new()
                .build()
                .expect("empty program builds"),
        );
        let cores = (0..cfg.num_cores)
            .map(|i| Core::new(CoreId(i), cfg, Arc::clone(&empty)))
            .collect();
        let mut slices: Vec<LlcSlice> = (0..cfg.mem.llc_slices)
            .map(|i| LlcSlice::new(i, &cfg.mem))
            .collect();
        if cfg.trace.enabled {
            for slice in &mut slices {
                slice.enable_trace(cfg.trace.buffer_capacity);
            }
        }
        if cfg.verify.enabled {
            for slice in &mut slices {
                slice.enable_verify(&cfg.verify);
            }
        }
        let mut noc = Noc::with_nodes(
            cfg.mem.mesh_cols,
            cfg.mem.mesh_rows,
            cfg.mem.hop_latency,
            cfg.num_cores,
            cfg.mem.llc_slices,
        );
        if cfg.verify.fault_delay > 0 {
            noc.enable_faults(cfg.verify.fault_seed, cfg.verify.fault_delay);
        }
        Ok(Machine {
            cfg: cfg.clone(),
            cores,
            slices,
            noc,
            image: Memory::new(),
            now: Cycle::ZERO,
            watchdog_cycles: WATCHDOG_CYCLES,
            deliver_buf: Vec::new(),
            slice_bound: Vec::new(),
            outbox_buf: Vec::new(),
            check_observer: ObserverSlot(None),
            check_buf: Vec::new(),
            next_snapshot: cfg.verify.snapshot_period.max(1),
            sched: (0..cfg.num_cores).map(|_| CoreSched::default()).collect(),
            slice_next: vec![None; cfg.mem.llc_slices],
            slice_touched: vec![false; cfg.mem.llc_slices],
            spin_track: (0..cfg.num_cores).map(|_| SpinTrack::default()).collect(),
            spin_ticked: vec![false; cfg.num_cores],
            spin_msg: vec![false; cfg.num_cores],
            spin_parks: 0,
            spin_skipped_cycles: 0,
            spin_opens: 0,
            run_state: None,
        })
    }

    /// Captures the machine in a resumable [`Checkpoint`].
    ///
    /// Safe to call whenever the machine is not inside a `run` call —
    /// after construction, between [`Machine::tick`]s, or after
    /// [`Machine::run_until`] returned [`StepOutcome::Paused`]. Any
    /// statistics still owed by parked cores are flushed first, so the
    /// captured state is exactly what the naive per-cycle loop would
    /// hold at this cycle.
    pub fn snapshot(&mut self) -> Checkpoint {
        Checkpoint {
            cfg: self.cfg.clone(),
            cores: self
                .cores
                .iter()
                .map(|c| (Arc::clone(c.program()), c.vp_mask()))
                .collect(),
            state: self.encode_state(),
        }
    }

    /// Builds a fresh machine from a checkpoint: [`Machine::new`], the
    /// programs and VP masks, and the state stream decoded on top.
    /// Continuing the run with [`Machine::run`] / [`Machine::run_until`]
    /// produces results bit-identical to the machine the checkpoint was
    /// taken from — and therefore to an uninterrupted run, which
    /// `tests/ff_equivalence.rs` locks in across schemes, core counts,
    /// and fast-forward settings.
    ///
    /// The invariant-check observer is not part of the checkpoint; if
    /// one was attached, re-attach it with
    /// [`Machine::set_check_observer`].
    pub fn restore(cp: &Checkpoint) -> Machine {
        let mut m = Machine::new(&cp.cfg).expect("a checkpoint's configuration built a machine");
        for (i, (program, mask)) in cp.cores.iter().enumerate() {
            m.cores[i] = Core::new(CoreId(i), &cp.cfg, Arc::clone(program));
            m.cores[i].set_vp_mask(*mask);
        }
        m.decode_state_into(&cp.state)
            .expect("a checkpoint decodes onto a machine built like its source");
        m
    }

    /// Attaches the invariant-check observer that receives the event
    /// stream and periodic snapshots. Only meaningful when
    /// `cfg.verify.enabled` is set — without it the components never
    /// record events.
    pub fn set_check_observer(&mut self, observer: Box<dyn CheckObserver>) {
        self.check_observer = ObserverSlot(Some(observer));
    }

    /// Detaches and returns the check observer, if one was attached.
    pub fn take_check_observer(&mut self) -> Option<Box<dyn CheckObserver>> {
        self.check_observer.0.take()
    }

    /// Overrides the no-retirement watchdog threshold (default 300k
    /// cycles). Tests use a tight threshold to exercise the deadlock
    /// diagnosis path quickly.
    pub fn set_watchdog_cycles(&mut self, cycles: u64) {
        self.watchdog_cycles = cycles;
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The current simulated cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Replaces the program on `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or the machine already ran.
    pub fn load_program(&mut self, core: CoreId, program: Program) {
        assert_eq!(
            self.now,
            Cycle::ZERO,
            "programs must be loaded before running"
        );
        let program = Arc::new(program);
        self.cores[core.index()] = Core::new(core, &self.cfg, program);
    }

    /// Loads the same program on every core (SPMD parallel workloads).
    pub fn load_program_all(&mut self, program: Program) {
        let program = Arc::new(program);
        for i in 0..self.cores.len() {
            assert_eq!(
                self.now,
                Cycle::ZERO,
                "programs must be loaded before running"
            );
            self.cores[i] = Core::new(CoreId(i), &self.cfg, Arc::clone(&program));
        }
    }

    /// Overrides the Visibility-Point mask on every core (the Figure 1
    /// study's cumulative release points).
    pub fn set_vp_mask(&mut self, mask: VpMask) {
        for c in &mut self.cores {
            c.set_vp_mask(mask);
        }
    }

    /// Seeds an architectural register on one core before the run.
    pub fn set_reg(&mut self, core: CoreId, reg: Reg, value: u64) {
        self.cores[core.index()].set_reg(reg, value);
    }

    /// Reads an architectural register after the run.
    pub fn reg(&self, core: CoreId, reg: Reg) -> u64 {
        self.cores[core.index()].reg(reg)
    }

    /// Writes the initial memory image.
    pub fn write_mem(&mut self, addr: Addr, value: u64) {
        self.image.write(addr, value);
    }

    /// Reads the (coherent) memory image.
    pub fn read_mem(&self, addr: Addr) -> u64 {
        self.image.read(addr)
    }

    /// Advances the machine one cycle. Returns `true` if anything in the
    /// machine made progress: a message was delivered, a slice timer
    /// fired, or a core's pipeline changed state. A `false` ("quiet")
    /// tick repeats identically every cycle until the next scheduled
    /// event, which is what licenses idle-cycle fast-forward.
    pub fn tick(&mut self) -> bool {
        let now = self.now;
        // 1. Deliver due messages: core-bound first (they may generate
        //    responses), then slice-bound under a pin view of the cores.
        let mut delivered = std::mem::take(&mut self.deliver_buf);
        delivered.clear();
        self.noc.deliver_into(now, &mut delivered);
        let mut active = !delivered.is_empty();
        let mut slice_bound = std::mem::take(&mut self.slice_bound);
        slice_bound.clear();
        for (_, dst, msg) in delivered.drain(..) {
            match dst {
                NodeId::Core(c) => self.cores[c.index()].handle_msg(msg, now, &mut self.image),
                NodeId::Slice(s) => slice_bound.push((s, msg)),
            }
        }
        self.deliver_buf = delivered;
        {
            let pins = CorePins(&self.cores);
            for (s, msg) in slice_bound.drain(..) {
                self.slices[s].handle(msg, now, &pins);
            }
            // 2. Tick slices (DRAM completions, allocation retries).
            for slice in &mut self.slices {
                active |= slice.tick(now, &pins);
            }
        }
        self.slice_bound = slice_bound;
        // 3. Tick cores.
        for core in &mut self.cores {
            active |= core.tick(now, &mut self.image);
        }
        // 4. Route outboxes through the mesh.
        let mut outbox = std::mem::take(&mut self.outbox_buf);
        for i in 0..self.cores.len() {
            self.cores[i].drain_outbox_into(&mut outbox);
            for (dst, msg) in outbox.drain(..) {
                self.noc.send(now, NodeId::Core(CoreId(i)), dst, msg);
            }
        }
        for i in 0..self.slices.len() {
            self.slices[i].drain_outbox_into(&mut outbox);
            for (dst, msg) in outbox.drain(..) {
                self.noc.send(now, NodeId::Slice(i), dst, msg);
            }
        }
        self.outbox_buf = outbox;
        if self.cfg.verify.enabled {
            self.drain_checks(now);
        }
        self.now += 1;
        active
    }

    /// Drains every component's buffered check events (so the sinks never
    /// grow unbounded, observer or not) and feeds the observer the event
    /// batch plus, on the snapshot cadence, a whole-machine snapshot.
    fn drain_checks(&mut self, now: Cycle) {
        let mut buf = std::mem::take(&mut self.check_buf);
        buf.clear();
        for core in &mut self.cores {
            core.drain_check_events(&mut buf);
        }
        for slice in &mut self.slices {
            slice.drain_check_events(&mut buf);
        }
        let mut observer = self.check_observer.0.take();
        if let Some(obs) = observer.as_mut() {
            if !buf.is_empty() {
                obs.on_events(now, &buf);
            }
            if now.raw() >= self.next_snapshot {
                let period = self.cfg.verify.snapshot_period.max(1);
                while self.next_snapshot <= now.raw() {
                    self.next_snapshot += period;
                }
                let snapshot = self.check_snapshot();
                obs.on_snapshot(now, &snapshot);
            }
        }
        self.check_observer = ObserverSlot(observer);
        self.check_buf = buf;
    }

    /// Captures every core's coherence-visible state for the checker's
    /// whole-machine invariants (SWMR, pin/L1 agreement, CST/CPT bounds).
    pub fn check_snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            cores: self.cores.iter().map(Core::check_snapshot).collect(),
        }
    }

    /// The final memory image as a canonical sorted word dump — the
    /// committed architectural state the cross-scheme differential oracle
    /// compares.
    pub fn memory_words(&self) -> Vec<(u64, u64)> {
        self.image.words_sorted()
    }

    fn all_quiesced(&self) -> bool {
        self.cores.iter().all(Core::quiesced) && self.noc.in_flight() == 0
    }

    /// Runs until every core halts and drains, up to `max_cycles`.
    ///
    /// With `cfg.fast_forward` set (the default) this uses the
    /// event-driven scheduled loop ([`Machine::run_scheduled`]); without
    /// it, the naive reference loop that ticks every component every
    /// cycle. Both are bit-identical — cycles, stats, traces, deadlock
    /// diagnoses — which `tests/ff_equivalence.rs` locks in.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Deadlock`] if no instruction retires for an
    /// extended period, or [`RunError::CycleLimit`] if the budget runs
    /// out.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunResult, RunError> {
        match self.run_until(max_cycles, u64::MAX)? {
            StepOutcome::Done(result) => Ok(result),
            StepOutcome::Paused => unreachable!("pause bound u64::MAX never reached"),
        }
    }

    /// Runs like [`Machine::run`] but additionally pauses — returning
    /// [`StepOutcome::Paused`] with the machine resumable in place — once
    /// `self.now` reaches `pause_at`. The bound is a *lower* bound: the
    /// fast-forward time jump may overshoot it (pausing at the first loop
    /// iteration past the jump), which is harmless because resumption is
    /// bit-identical wherever it lands.
    ///
    /// Watchdog anchors and accumulated machine-level samples persist in
    /// the machine across pauses (and travel with
    /// [`Machine::snapshot`]), so a run chopped into arbitrary
    /// `run_until` segments retires the same instructions in the same
    /// cycles with the same statistics as one uninterrupted `run`. They
    /// are cleared when a run completes or fails, so a subsequent run
    /// starts fresh.
    ///
    /// # Errors
    ///
    /// As [`Machine::run`].
    pub fn run_until(&mut self, max_cycles: u64, pause_at: u64) -> Result<StepOutcome, RunError> {
        let outcome = if self.cfg.fast_forward {
            self.run_scheduled(max_cycles, pause_at)
        } else {
            self.run_naive(max_cycles, pause_at)
        };
        if !matches!(outcome, Ok(StepOutcome::Paused)) {
            self.run_state = None;
        }
        outcome
    }

    /// Takes the suspended run state, or starts a fresh one anchored at
    /// the current cycle.
    fn take_run_state(&mut self) -> RunState {
        let retired = self.total_retired();
        let now = self.now;
        self.run_state
            .take()
            .unwrap_or_else(|| RunState::new(retired, now))
    }

    /// The reference run loop: every component ticks every cycle.
    fn run_naive(&mut self, max_cycles: u64, pause_at: u64) -> Result<StepOutcome, RunError> {
        let mut rs = self.take_run_state();
        while !self.all_quiesced() {
            if self.now.raw() >= max_cycles {
                return Err(RunError::CycleLimit {
                    limit: max_cycles,
                    retired: self.total_retired(),
                });
            }
            if self.now.raw() >= pause_at {
                self.run_state = Some(rs);
                return Ok(StepOutcome::Paused);
            }
            self.tick();
            self.post_tick(
                &mut rs.last_retired,
                &mut rs.last_progress,
                &mut rs.cpt_stats,
                rs.cpt_occ,
            )?;
        }
        Ok(StepOutcome::Done(self.finish_run(rs.cpt_stats, rs.cpt_occ)))
    }

    /// The event-driven run loop: per-core parking with lazy statistics
    /// replay, a slice timer calendar, and a whole-machine time jump when
    /// every core is parked. See [`Machine::tick_scheduled`] for the
    /// bit-identity argument; pausing preserves it because flushing a
    /// parked core's owed statistics is equivalent to replaying them, and
    /// the re-armed calendar merely re-executes quiet ticks whose deltas
    /// are identical.
    fn run_scheduled(&mut self, max_cycles: u64, pause_at: u64) -> Result<StepOutcome, RunError> {
        let mut rs = self.take_run_state();
        // (Re-)arm the calendar: all cores active, slice timers polled
        // fresh, so a run after external `tick()` calls (or a pause or
        // restore) stays correct.
        for sched in &mut self.sched {
            sched.state = ParkState::Active;
            sched.wake = None;
            sched.delta = None;
        }
        for track in &mut self.spin_track {
            *track = SpinTrack::default();
        }
        for (s, slot) in self.slice_next.iter_mut().enumerate() {
            *slot = self.slices[s].next_timer();
        }
        while !self.all_quiesced() {
            if self.now.raw() >= max_cycles {
                self.flush_parked();
                return Err(RunError::CycleLimit {
                    limit: max_cycles,
                    retired: self.total_retired(),
                });
            }
            if self.now.raw() >= pause_at {
                self.flush_parked();
                self.run_state = Some(rs);
                return Ok(StepOutcome::Paused);
            }
            let active = self.tick_scheduled();
            let spinning = self.sched.iter().any(|s| s.state == ParkState::Spinning);
            if spinning {
                // A spinning core retires instructions every period; the
                // naive loop would observe that progress and keep moving
                // the watchdog anchor. Its retirements are only credited
                // in bulk at wake-up, so anchor the watchdog explicitly —
                // exactly the no-deadlock behavior the naive loop shows
                // while any core is still retiring.
                rs.last_progress = self.now;
            }
            self.post_tick(
                &mut rs.last_retired,
                &mut rs.last_progress,
                &mut rs.cpt_stats,
                rs.cpt_occ,
            )?;
            if !active
                && self
                    .sched
                    .iter()
                    .all(|s| matches!(s.state, ParkState::Parked | ParkState::Spinning))
            {
                self.jump_ahead(
                    max_cycles,
                    &rs.last_retired,
                    &rs.last_progress,
                    &mut rs.cpt_stats,
                    rs.cpt_occ,
                    spinning,
                )?;
            }
        }
        self.flush_parked();
        Ok(StepOutcome::Done(self.finish_run(rs.cpt_stats, rs.cpt_occ)))
    }

    /// Shared run-loop epilogue: the final CPT occupancy sample, the
    /// observer's end-of-run snapshot, and result assembly.
    fn finish_run(&mut self, mut cpt_stats: Stats, cpt_occ: HistId) -> RunResult {
        // A run shorter than the sample period would otherwise report an
        // empty occupancy histogram; always record the final state.
        for core in &self.cores {
            cpt_stats.sample_id(cpt_occ, core.governor().cpt().occupancy() as u64);
        }
        // Hand the observer the quiesced end state: a final snapshot (so
        // end-of-run invariants see the drained machine even off the
        // cadence) and the run-end notification that closes liveness
        // obligations (deferred writes, starred-commit pairing).
        let mut observer = self.check_observer.0.take();
        if let Some(obs) = observer.as_mut() {
            let snapshot = self.check_snapshot();
            obs.on_snapshot(self.now, &snapshot);
            obs.on_run_end(self.now);
        }
        self.check_observer = ObserverSlot(observer);
        self.result_with(cpt_stats)
    }

    /// Per-tick run-loop bookkeeping: progress/watchdog tracking and the
    /// periodic CPT occupancy sample.
    fn post_tick(
        &self,
        last_retired: &mut u64,
        last_progress: &mut Cycle,
        cpt_stats: &mut Stats,
        cpt_occ: HistId,
    ) -> Result<(), RunError> {
        let retired = self.total_retired();
        if retired != *last_retired {
            *last_retired = retired;
            *last_progress = self.now;
        } else if self.now.since(*last_progress) > self.watchdog_cycles {
            return Err(self.deadlock_error(retired));
        }
        if self.now.raw().is_multiple_of(CPT_SAMPLE_PERIOD) {
            for core in &self.cores {
                cpt_stats.sample_id(cpt_occ, core.governor().cpt().occupancy() as u64);
            }
        }
        Ok(())
    }

    fn deadlock_error(&self, retired: u64) -> RunError {
        RunError::Deadlock {
            cycle: self.now.raw(),
            retired,
            diagnosis: Box::new(DeadlockDiagnosis {
                state: self.dump_state(),
                recent_events: self.trace_log().tail(DEADLOCK_TRACE_TAIL),
            }),
        }
    }

    /// One cycle of the event-driven loop. Bit-identical to [`Machine::tick`]
    /// in everything observable (stats, traces, message order, state), but
    /// skips components with nothing scheduled:
    ///
    /// - **Cores** park after two consecutive quiet ticks. The second — the
    ///   *capture* tick — is bracketed by counter snapshots, so the per-cycle
    ///   statistics delta of the frozen pipeline is known. A parked core is
    ///   not ticked at all; the delta (and the 1-in-32 occupancy samples, at
    ///   frozen queue lengths) is replayed in bulk at wake-up. A core wakes
    ///   when a message is addressed to it — the replay runs *before*
    ///   `handle_msg`, so the samples see pre-message lengths exactly as
    ///   single-stepping would — or when its conservative
    ///   [`Core::next_timed_event`] bound comes due. A too-early bound just
    ///   causes a quiet wake tick followed by re-parking; correctness never
    ///   depends on the bound being tight, only on it never being late.
    /// - **Slices** are pure message reactors between timer firings, so a
    ///   slice ticks only when its cached next-timer deadline (re-armed
    ///   after every `handle`/`tick`, which are the only points that can
    ///   arm a timer — always in the future) is due. Quiet slice ticks
    ///   touch nothing, so no replay is needed.
    /// - **NoC** delivery is consulted only when its earliest in-flight
    ///   deadline (conservative-early, never late) is due.
    /// - **Spinning cores** (see [`SpinTrack`]) are the busy-waiting
    ///   counterpart of parked ones: the detector proved every period of
    ///   the loop repeats exactly, so the core freezes at a verified
    ///   boundary and the owed periods replay in O(delta) at wake-up —
    ///   bit-identical state, statistics, and histograms, locked in by
    ///   [`Core::spin_advance`]'s equivalence tests and the machine-level
    ///   spin-on/spin-off fingerprint tests below.
    ///
    /// Outboxes and check-event drains still run for every component every
    /// executed cycle: parked components cannot produce either, so this
    /// costs nothing and keeps the ordering trivially identical.
    fn tick_scheduled(&mut self) -> bool {
        let now = self.now;
        let spin_enabled = self.spin_enabled();
        if spin_enabled {
            self.spin_ticked.iter_mut().for_each(|t| *t = false);
            self.spin_msg.iter_mut().for_each(|t| *t = false);
        }
        // 1. Deliver due messages; a message to a parked core wakes it
        //    (statistics replay first, then the handler, then a normal
        //    tick below — the naive per-cycle order). A spinning core
        //    first replays its owed periods, so the handler sees the
        //    exact state single-stepping would have produced.
        let mut delivered = std::mem::take(&mut self.deliver_buf);
        delivered.clear();
        if self.noc.next_delivery().is_some_and(|c| c <= now) {
            self.noc.deliver_into(now, &mut delivered);
        }
        let mut active = !delivered.is_empty();
        let mut slice_bound = std::mem::take(&mut self.slice_bound);
        slice_bound.clear();
        for (_, dst, msg) in delivered.drain(..) {
            match dst {
                NodeId::Core(c) => {
                    let i = c.index();
                    match self.sched[i].state {
                        ParkState::Parked => {
                            self.replay_parked(i, now);
                            // The naive loop's previous (quiet) tick would
                            // have left the trace clock at `now - 1`.
                            self.cores[i].sync_trace_now(Cycle(now.raw() - 1));
                        }
                        ParkState::Spinning => self.wake_spinning(i, now),
                        _ => {}
                    }
                    self.sched[i].state = ParkState::Active;
                    if spin_enabled {
                        self.spin_msg[i] = true;
                    }
                    self.cores[i].handle_msg(msg, now, &mut self.image);
                }
                NodeId::Slice(s) => slice_bound.push((s, msg)),
            }
        }
        self.deliver_buf = delivered;
        {
            let pins = CorePins(&self.cores);
            let touched = &mut self.slice_touched;
            touched.iter_mut().for_each(|t| *t = false);
            for (s, msg) in slice_bound.drain(..) {
                self.slices[s].handle(msg, now, &pins);
                touched[s] = true;
            }
            // 2. Tick only slices whose timer calendar says so; re-arm
            //    the calendar for every slice touched this cycle.
            for (s, t) in touched.iter_mut().enumerate() {
                if self.slice_next[s].is_some_and(|c| c <= now) {
                    active |= self.slices[s].tick(now, &pins);
                    *t = true;
                }
                if *t {
                    self.slice_next[s] = self.slices[s].next_timer();
                }
            }
        }
        self.slice_bound = slice_bound;
        // 3. Tick cores through the park state machine.
        for i in 0..self.cores.len() {
            match self.sched[i].state {
                ParkState::Parked => {
                    if self.sched[i].wake.is_some_and(|c| c <= now) {
                        self.replay_parked(i, now);
                        let a = self.cores[i].tick(now, &mut self.image);
                        active |= a;
                        self.sched[i].state = if a {
                            ParkState::Active
                        } else {
                            ParkState::Quiet
                        };
                    }
                }
                ParkState::Spinning => {
                    if self.sched[i].wake.is_some_and(|c| c <= now) {
                        // The LQ-ID wrap bound came due: replay the owed
                        // periods and tick live again. The detector
                        // re-arms with no backoff, so a still-spinning
                        // core re-parks after one verification window.
                        self.wake_spinning(i, now);
                        let a = self.cores[i].tick(now, &mut self.image);
                        active |= a;
                        if spin_enabled {
                            self.spin_ticked[i] = true;
                        }
                        self.sched[i].state = if a {
                            ParkState::Active
                        } else {
                            ParkState::Quiet
                        };
                    }
                }
                ParkState::Active => {
                    let a = self.cores[i].tick(now, &mut self.image);
                    active |= a;
                    if spin_enabled {
                        self.spin_ticked[i] = true;
                    }
                    self.sched[i].state = if a {
                        ParkState::Active
                    } else {
                        ParkState::Quiet
                    };
                }
                ParkState::Quiet => {
                    let next_ev = self.cores[i].next_timed_event(now);
                    if next_ev.is_some_and(|c| c <= now) {
                        // Something is due right now; tick normally.
                        let a = self.cores[i].tick(now, &mut self.image);
                        active |= a;
                        self.sched[i].state = if a {
                            ParkState::Active
                        } else {
                            ParkState::Quiet
                        };
                    } else {
                        // Predicted-quiet capture tick.
                        let sched = &mut self.sched[i];
                        let core = &mut self.cores[i];
                        sched.core_before.clear();
                        sched
                            .core_before
                            .extend_from_slice(core.stats().counter_values());
                        sched.gov_before.clear();
                        sched
                            .gov_before
                            .extend_from_slice(core.governor().stats().counter_values());
                        let a = core.tick(now, &mut self.image);
                        active |= a;
                        if a {
                            // The conservative bound missed activity; no
                            // harm — a normal tick just happened.
                            sched.state = ParkState::Active;
                        } else {
                            sched.core_after.clear();
                            sched
                                .core_after
                                .extend_from_slice(core.stats().counter_values());
                            sched.gov_after.clear();
                            sched
                                .gov_after
                                .extend_from_slice(core.governor().stats().counter_values());
                            sched.state = ParkState::Parked;
                            sched.since = now;
                            sched.wake = next_ev;
                        }
                    }
                }
            }
        }
        // 4. Route outboxes through the mesh (empty for parked cores).
        let mut outbox = std::mem::take(&mut self.outbox_buf);
        for i in 0..self.cores.len() {
            self.cores[i].drain_outbox_into(&mut outbox);
            if spin_enabled && !outbox.is_empty() {
                self.spin_msg[i] = true;
            }
            for (dst, msg) in outbox.drain(..) {
                self.noc.send(now, NodeId::Core(CoreId(i)), dst, msg);
            }
        }
        for i in 0..self.slices.len() {
            self.slices[i].drain_outbox_into(&mut outbox);
            for (dst, msg) in outbox.drain(..) {
                self.noc.send(now, NodeId::Slice(i), dst, msg);
            }
        }
        self.outbox_buf = outbox;
        // 5. Spin detection, after message routing so an open window is
        //    invalidated by anything the core sent this cycle.
        if spin_enabled {
            self.spin_observe(now);
        }
        if self.cfg.verify.enabled {
            self.drain_checks(now);
        }
        self.now += 1;
        active
    }

    /// Pays core `i`'s owed statistics for the quiet cycles it skipped
    /// while parked — `since + 1 ..= now - 1`, where `since` is the
    /// capture tick and `now` is the cycle about to execute (or, from
    /// [`Machine::flush_parked`], one past the last executed cycle).
    /// Leaves the core `Active`.
    fn replay_parked(&mut self, i: usize, now: Cycle) {
        let sched = &mut self.sched[i];
        debug_assert_eq!(sched.state, ParkState::Parked);
        let ticks = now.raw() - sched.since.raw() - 1;
        if ticks > 0 {
            let occ_samples = multiples_in(OCC_SAMPLE_PERIOD, sched.since.raw() + 1, now.raw());
            self.cores[i].replay_quiet_ticks(
                &sched.core_before,
                &sched.core_after,
                &sched.gov_before,
                &sched.gov_after,
                ticks,
                occ_samples,
            );
        }
        let sched = &mut self.sched[i];
        sched.state = ParkState::Active;
        sched.wake = None;
    }

    /// Replays every still-parked core up to `self.now` so merged
    /// statistics match the naive loop. Called before assembling results
    /// or reporting a cycle-limit error.
    fn flush_parked(&mut self) {
        let now = self.now;
        for i in 0..self.cores.len() {
            match self.sched[i].state {
                ParkState::Parked => self.replay_parked(i, now),
                ParkState::Spinning => self.wake_spinning(i, now),
                _ => {}
            }
        }
    }

    /// Whether the spin-loop detector may run. Spin parking rides the
    /// scheduled loop and (unlike quiet parking) skips cycles the core
    /// *would* execute, so trace and check events those cycles would
    /// emit cannot be reproduced — tracing and verification gate it off
    /// entirely rather than complicate the replay.
    fn spin_enabled(&self) -> bool {
        self.cfg.spin_parking
            && self.cfg.fast_forward
            && !self.cfg.trace.enabled
            && !self.cfg.verify.enabled
    }

    /// Brings a `Spinning` core to the state it would hold had it ticked
    /// every skipped cycle `since + 1 ..= now - 1` live: whole verified
    /// periods replay in O(delta) ([`Core::spin_advance`]), and the
    /// trailing partial period re-executes live. Leaves the core
    /// `Active` with the detector re-armed (no backoff — a timed wake
    /// usually means the core is still spinning, and the fastest
    /// possible re-park matters for barrier-heavy workloads).
    fn wake_spinning(&mut self, i: usize, now: Cycle) {
        let sched = &mut self.sched[i];
        debug_assert_eq!(sched.state, ParkState::Spinning);
        let delta = sched.delta.take().expect("spinning core holds its delta");
        let since = sched.since;
        sched.state = ParkState::Active;
        sched.wake = None;
        let owed = now.raw() - since.raw() - 1;
        let k = owed / delta.period;
        self.spin_skipped_cycles += k * delta.period;
        let core = &mut self.cores[i];
        core.spin_advance(k, &delta, since);
        // Live catch-up over the partial trailing period. The verified
        // window sent and received nothing, so neither do its repeats:
        // the outbox stays empty after every catch-up tick, and no
        // delivery can land mid-replay (a due message wakes the core in
        // the delivery phase, before any of these cycles are owed).
        for c in since.raw() + k * delta.period + 1..now.raw() {
            core.tick(Cycle(c), &mut self.image);
            debug_assert!(core.outbox_is_empty(), "spin catch-up must stay silent");
        }
        let track = &mut self.spin_track[i];
        track.fails = 0;
        track.idle_until = now;
        // The replayed periods were (verified-equivalent) active ticks,
        // so the warmup is already paid: a timed wake may re-open its
        // window on the very next tick.
        track.streak = SPIN_WARMUP;
        track.base = None;
    }

    /// Spin-loop detection, run once per scheduled tick (when
    /// [`Machine::spin_enabled`]) over every core that executed a normal
    /// `Active` tick this cycle. See [`SpinTrack`] for the state
    /// machine; this is the driver that opens windows, probes them on
    /// the [`SPIN_PROBE_GRID`], and parks cores whose window verified.
    fn spin_observe(&mut self, now: Cycle) {
        enum Act {
            Stay,
            Open,
            Fail,
            Park(Box<SpinDelta>),
        }
        for i in 0..self.cores.len() {
            if self.sched[i].state != ParkState::Active || !self.spin_ticked[i] || self.spin_msg[i]
            {
                // Only an undisturbed, continuously active core can be
                // mid-spin; a park-state excursion or any NoC traffic
                // invalidates an open window. Traffic also pushes the
                // next window past the message's transient, so the base
                // is captured from steady state (see [`SPIN_MSG_GUARD`]).
                let track = &mut self.spin_track[i];
                track.base = None;
                track.streak = 0;
                if self.spin_msg[i] {
                    track.idle_until = now + SPIN_MSG_GUARD;
                }
                continue;
            }
            let track = &mut self.spin_track[i];
            track.streak = track.streak.saturating_add(1);
            let act = match &self.spin_track[i].base {
                None => {
                    let track = &self.spin_track[i];
                    if track.streak >= SPIN_WARMUP
                        && now >= track.idle_until
                        && self.cores[i].spin_ready()
                    {
                        Act::Open
                    } else {
                        Act::Stay
                    }
                }
                Some((base, base_now)) => {
                    let elapsed = now.raw() - base_now.raw();
                    let mut act = Act::Stay;
                    if elapsed > 0 && elapsed.is_multiple_of(SPIN_PROBE_GRID) {
                        if let Some(d) = Core::spin_verify(base, &self.cores[i], *base_now, elapsed)
                        {
                            act = Act::Park(Box::new(d));
                        }
                    }
                    if matches!(act, Act::Stay) && elapsed >= SPIN_MAX_PERIOD {
                        act = Act::Fail;
                    }
                    act
                }
            };
            match act {
                Act::Stay => {}
                Act::Open => {
                    self.spin_opens += 1;
                    self.spin_track[i].base = Some((Box::new(self.cores[i].clone()), now));
                }
                Act::Fail => {
                    let track = &mut self.spin_track[i];
                    track.base = None;
                    track.fails = track.fails.saturating_add(1);
                    track.idle_until =
                        now + (SPIN_BACKOFF_BASE << track.fails.min(SPIN_BACKOFF_CAP));
                }
                Act::Park(d) => {
                    // Every replayed period consumes `dlqid` extended LQ
                    // IDs; cap the park so the bulk replay never crosses
                    // the governor's wrap boundary (the wrap itself runs
                    // live after the timed wake). A memory-free spin
                    // (dlqid == 0) parks unbounded, until a message.
                    let budget = self.cores[i].spin_wrap_budget();
                    let k_max = budget.checked_div(d.dlqid);
                    if k_max == Some(0) {
                        // About to wrap: not worth parking for zero whole
                        // periods. Retry after the wrap has passed.
                        let track = &mut self.spin_track[i];
                        track.base = None;
                        track.idle_until = now + SPIN_BACKOFF_BASE;
                    } else {
                        self.spin_parks += 1;
                        let sched = &mut self.sched[i];
                        sched.state = ParkState::Spinning;
                        sched.since = now;
                        sched.wake = k_max.map(|k| Cycle(now.raw() + k * d.period + 1));
                        sched.delta = Some(d);
                        let track = &mut self.spin_track[i];
                        track.base = None;
                        track.fails = 0;
                    }
                }
            }
        }
    }

    /// Whole-machine time jump, legal only when every core is parked or
    /// spinning: no core will tick until its wake bound, no slice until
    /// its timer, and no delivery until the NoC's earliest deadline, so
    /// the skipped machine cycles execute nothing at all. Jumps `now` to
    /// the earliest of those bounds (capped by the watchdog fire cycle
    /// and `max_cycles`). Per-core statistics need no attention here —
    /// the parked spans already cover the jumped cycles and are replayed
    /// at wake — but the machine-level CPT samples post_tick would have
    /// taken are replayed by count at the cores' frozen occupancies
    /// (exact for spinning cores too: a verified window acquires and
    /// releases no pins, so its CPT occupancy is constant).
    ///
    /// `spinning` disarms the watchdog for the jump: a spinning core
    /// retires instructions every period, so the naive loop would see
    /// progress on every skipped cycle and never fire.
    fn jump_ahead(
        &mut self,
        max_cycles: u64,
        last_retired: &u64,
        last_progress: &Cycle,
        cpt_stats: &mut Stats,
        cpt_occ: HistId,
        spinning: bool,
    ) -> Result<(), RunError> {
        let now = self.now.raw();
        // Watchdog fire cycle: post_tick faults once now - last_progress
        // exceeds the threshold.
        let mut target = if spinning {
            max_cycles
        } else {
            (last_progress.raw() + self.watchdog_cycles + 1).min(max_cycles)
        };
        if let Some(c) = self.noc.next_delivery() {
            target = target.min(c.raw());
        }
        for sched in &self.sched {
            if let Some(c) = sched.wake {
                target = target.min(c.raw());
            }
        }
        for c in self.slice_next.iter().flatten() {
            target = target.min(c.raw());
        }
        if target <= now {
            return Ok(()); // an event is due immediately
        }
        // Skipped machine cycles: [now, target). Their post-tick values
        // (`c + 1`) drive the CPT sample cadence.
        let cpt_samples = multiples_in(CPT_SAMPLE_PERIOD, now + 1, target + 1);
        if cpt_samples > 0 {
            for core in &self.cores {
                cpt_stats.sample_n_id(
                    cpt_occ,
                    core.governor().cpt().occupancy() as u64,
                    cpt_samples,
                );
            }
        }
        self.now = Cycle(target);
        // The watchdog check post_tick would have made on each skipped
        // cycle (retirements are frozen, so only the threshold matters;
        // a spinning core keeps retiring, so the naive loop never fires).
        if !spinning && self.now.since(*last_progress) > self.watchdog_cycles {
            return Err(self.deadlock_error(*last_retired));
        }
        Ok(())
    }

    /// Merges every tracer in the machine (per-core pipeline, L1, and
    /// pin governor; per-slice directory and LLC cache) into one
    /// cycle-sorted log. Empty unless the configuration enabled tracing.
    pub fn trace_log(&self) -> TraceLog {
        let mut parts: Vec<&Tracer> = Vec::new();
        for core in &self.cores {
            parts.extend(core.tracers());
        }
        for slice in &self.slices {
            parts.push(slice.tracer());
            parts.push(slice.cache_tracer());
        }
        TraceLog::merge(parts)
    }

    fn total_retired(&self) -> u64 {
        self.cores.iter().map(Core::retired).sum()
    }

    /// Multi-line snapshot of every core's and slice's in-flight state,
    /// for diagnosing stalls reported by [`RunError::Deadlock`].
    pub fn dump_state(&self) -> String {
        let mut out = String::new();
        for core in &self.cores {
            out.push_str(&core.debug_summary());
            out.push('\n');
        }
        for slice in &self.slices {
            out.push_str(&slice.debug_summary());
            out.push('\n');
        }
        out.push_str(&format!("noc in flight: {}\n", self.noc.in_flight()));
        out
    }

    /// Times the spin detector parked a core this machine's lifetime.
    /// Diagnostic only — never part of [`RunResult::stats`], which stay
    /// bit-identical with spin parking on or off.
    pub fn spin_parks(&self) -> u64 {
        self.spin_parks
    }

    /// Core-cycles replayed in bulk (whole verified spin periods) rather
    /// than executed. Diagnostic only, like [`Machine::spin_parks`].
    pub fn spin_skipped_cycles(&self) -> u64 {
        self.spin_skipped_cycles
    }

    /// Verification windows the spin detector opened (each one clones a
    /// core, the detector's dominant cost). Diagnostic only, like
    /// [`Machine::spin_parks`]: windows / parks is the detector's hit
    /// rate, and a high open count with few parks means clone churn.
    pub fn spin_opens(&self) -> u64 {
        self.spin_opens
    }

    /// Serializes the complete machine state — every core, slice, the
    /// NoC, the memory image, the clock, and the run-loop bookkeeping —
    /// into the canonical byte stream behind every checkpoint, minus the
    /// exclusions listed at [`Checkpoint`]. Parked and spinning cores are
    /// flushed first, so the encoding is exactly the state the naive loop
    /// would hold at this cycle.
    ///
    /// The stream carries state only, not configuration: decode it with
    /// [`Machine::decode_state_into`] on a machine built from the same
    /// configuration with the same programs loaded (the caller's
    /// contract — `plsim serve` enforces it by keying checkpoints on the
    /// job digest).
    pub fn encode_state(&mut self) -> Vec<u8> {
        self.flush_parked();
        let mut e = pl_base::Enc::new();
        e.u64(self.now.raw());
        e.u64(self.watchdog_cycles);
        e.u64(self.next_snapshot);
        for core in &self.cores {
            core.encode_into(&mut e);
        }
        for slice in &self.slices {
            slice.encode_into(&mut e);
        }
        self.noc.encode_into(&mut e);
        self.image.encode_into(&mut e);
        match &self.run_state {
            None => e.bool(false),
            Some(rs) => {
                e.bool(true);
                e.u64(rs.last_retired);
                e.u64(rs.last_progress.raw());
                rs.cpt_stats.encode_into(&mut e);
            }
        }
        e.into_bytes()
    }

    /// Overlays state encoded by [`Machine::encode_state`] onto this
    /// machine, which must have been built from the same configuration
    /// with the same programs loaded. The event calendar and spin
    /// detector re-arm on the next run; the trace rings are left as they
    /// are, but later events are stamped as in an uninterrupted run.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or inconsistent
    /// field; the machine may be partially overwritten and must be
    /// discarded.
    pub fn decode_state_into(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut d = pl_base::Dec::new(bytes);
        self.now = Cycle(d.u64()?);
        self.watchdog_cycles = d.u64()?;
        self.next_snapshot = d.u64()?;
        for core in &mut self.cores {
            core.decode_overlay(&mut d)?;
        }
        for slice in &mut self.slices {
            slice.decode_overlay(&mut d)?;
        }
        self.noc.decode_overlay(&mut d)?;
        self.image.decode_overlay(&mut d)?;
        self.run_state = if d.bool()? {
            let last_retired = d.u64()?;
            let last_progress = Cycle(d.u64()?);
            let mut rs = RunState::new(last_retired, last_progress);
            rs.cpt_stats.decode_overlay(&mut d)?;
            Some(rs)
        } else {
            None
        };
        d.finish()?;
        for sched in &mut self.sched {
            *sched = CoreSched::default();
        }
        for track in &mut self.spin_track {
            *track = SpinTrack::default();
        }
        // A core handles the messages of cycle `now` before its tick, so
        // it stamps them with the clock of the previous tick.
        if let Some(last) = self.now.raw().checked_sub(1) {
            for core in &mut self.cores {
                core.sync_trace_now(Cycle(last));
            }
        }
        Ok(())
    }

    /// Total lines currently pinned across all cores; zero after a
    /// completed run (pins release at retirement).
    pub fn pinned_line_count(&self) -> usize {
        self.cores
            .iter()
            .map(|c| c.governor().pinned_line_count())
            .sum()
    }

    fn result_with(&self, extra: Stats) -> RunResult {
        let mut stats = extra;
        for core in &self.cores {
            stats.merge(core.stats());
            stats.merge(core.governor().stats());
            stats.add(
                "cpt.insert_attempts",
                core.governor().cpt().insert_attempts(),
            );
            stats.add("cpt.overflows", core.governor().cpt().overflows());
            stats.sample("cpt.peak", core.governor().cpt().peak_occupancy() as u64);
        }
        for slice in &self.slices {
            stats.merge(slice.stats());
        }
        stats.add("noc.messages", self.noc.messages_sent());
        stats.add("noc.hops", self.noc.hops_traversed());
        RunResult {
            cycles: self.now.raw(),
            retired_per_core: self.cores.iter().map(Core::retired).collect(),
            stats,
            trace: if self.cfg.trace.enabled {
                Some(self.trace_log())
            } else {
                None
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_base::{DefenseScheme, Mutation, PinMode, PinnedLoadsConfig, ThreatModel};
    use pl_isa::{BranchCond, ProgramBuilder};

    fn r(i: u8) -> Reg {
        Reg::new(i).unwrap()
    }

    fn single(cfg: &MachineConfig, b: ProgramBuilder) -> (Machine, RunResult) {
        let mut m = Machine::new(cfg).unwrap();
        m.load_program(CoreId(0), b.build().unwrap());
        let res = m.run(5_000_000).unwrap();
        (m, res)
    }

    #[test]
    fn load_store_round_trip() {
        let cfg = MachineConfig::default_single_core();
        let mut b = ProgramBuilder::new();
        b.addi(r(1), Reg::ZERO, 0x2000);
        b.addi(r(2), Reg::ZERO, 99);
        b.store(r(2), r(1), 0);
        b.load(r(3), r(1), 0);
        b.store(r(3), r(1), 64);
        let (m, _) = single(&cfg, b);
        assert_eq!(m.read_mem(Addr::new(0x2000)), 99);
        assert_eq!(m.read_mem(Addr::new(0x2040)), 99);
    }

    #[test]
    fn pointer_chase_through_memory() {
        let cfg = MachineConfig::default_single_core();
        let mut m = Machine::new(&cfg).unwrap();
        // A 4-node linked list: 0x1000 -> 0x3000 -> 0x5000 -> 0x7000 -> 0.
        m.write_mem(Addr::new(0x1000), 0x3000);
        m.write_mem(Addr::new(0x3000), 0x5000);
        m.write_mem(Addr::new(0x5000), 0x7000);
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.addi(r(1), Reg::ZERO, 0x1000);
        b.addi(r(2), Reg::ZERO, 0);
        b.bind(top).unwrap();
        b.load(r(1), r(1), 0);
        b.addi(r(2), r(2), 1);
        b.branch(BranchCond::Ne, r(1), Reg::ZERO, top);
        m.load_program(CoreId(0), b.build().unwrap());
        m.run(5_000_000).unwrap();
        assert_eq!(m.reg(CoreId(0), r(2)), 4);
    }

    #[test]
    fn store_to_load_forwarding_sees_unretired_store() {
        let cfg = MachineConfig::default_single_core();
        let mut b = ProgramBuilder::new();
        b.addi(r(1), Reg::ZERO, 0x4000);
        b.addi(r(2), Reg::ZERO, 5);
        b.store(r(2), r(1), 0);
        b.load(r(3), r(1), 0); // must forward 5
        b.alu(pl_isa::AluOp::Add, r(4), r(3), 1i64);
        let (m, res) = single(&cfg, b);
        assert_eq!(m.reg(CoreId(0), r(4)), 6);
        assert!(res.stats.get_known("loads.forwarded") >= 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = MachineConfig::default_single_core();
        let build = || {
            let mut b = ProgramBuilder::new();
            let top = b.new_label();
            b.addi(r(1), Reg::ZERO, 0x8000);
            b.addi(r(2), Reg::ZERO, 50);
            b.bind(top).unwrap();
            b.store(r(2), r(1), 0);
            b.load(r(3), r(1), 0);
            b.addi(r(1), r(1), 64);
            b.addi(r(2), r(2), -1);
            b.branch(BranchCond::Ne, r(2), Reg::ZERO, top);
            b
        };
        let (_, a) = single(&cfg, build());
        let (_, b2) = single(&cfg, build());
        assert_eq!(a.cycles, b2.cycles);
        assert_eq!(a.total_retired(), b2.total_retired());
    }

    #[test]
    fn two_core_communication_through_coherence() {
        // Core 0 writes a flag; core 1 spins on it, then reads the datum.
        let cfg = MachineConfig::default_multi_core(2);
        let mut m = Machine::new(&cfg).unwrap();
        let data = 0x9000u64;
        let flag = 0xa000u64;

        let mut p0 = ProgramBuilder::new();
        p0.addi(r(1), Reg::ZERO, data as i64);
        p0.addi(r(2), Reg::ZERO, 1234);
        p0.store(r(2), r(1), 0);
        p0.addi(r(3), Reg::ZERO, flag as i64);
        p0.addi(r(4), Reg::ZERO, 1);
        p0.store(r(4), r(3), 0);
        m.load_program(CoreId(0), p0.build().unwrap());

        let mut p1 = ProgramBuilder::new();
        let spin = p1.new_label();
        p1.addi(r(3), Reg::ZERO, flag as i64);
        p1.bind(spin).unwrap();
        p1.load(r(4), r(3), 0);
        p1.branch(BranchCond::Eq, r(4), Reg::ZERO, spin);
        p1.addi(r(1), Reg::ZERO, data as i64);
        p1.load(r(5), r(1), 0);
        m.load_program(CoreId(1), p1.build().unwrap());

        m.run(5_000_000).unwrap();
        // TSO: once the flag is visible, the datum must be too.
        assert_eq!(m.reg(CoreId(1), r(5)), 1234);
    }

    #[test]
    fn atomic_add_from_all_cores_is_exact() {
        let cfg = MachineConfig::default_multi_core(4);
        let mut m = Machine::new(&cfg).unwrap();
        let counter = 0xb000u64;
        let mut p = ProgramBuilder::new();
        let top = p.new_label();
        p.addi(r(1), Reg::ZERO, counter as i64);
        p.addi(r(2), Reg::ZERO, 1);
        p.addi(r(3), Reg::ZERO, 25);
        p.bind(top).unwrap();
        p.atomic_add(r(4), r(2), r(1), 0);
        p.addi(r(3), r(3), -1);
        p.branch(BranchCond::Ne, r(3), Reg::ZERO, top);
        m.load_program_all(p.build().unwrap());
        m.run(20_000_000).unwrap();
        assert_eq!(
            m.read_mem(Addr::new(counter)),
            100,
            "4 cores x 25 increments"
        );
    }

    fn defended_cfg(scheme: DefenseScheme, mode: PinMode) -> MachineConfig {
        let mut cfg = MachineConfig::default_single_core();
        cfg.defense = scheme;
        cfg.threat_model = ThreatModel::Comprehensive;
        cfg.pinned_loads = PinnedLoadsConfig::with_mode(mode);
        cfg
    }

    fn chained_loads_program() -> ProgramBuilder {
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.addi(r(1), Reg::ZERO, 0x10000);
        b.addi(r(2), Reg::ZERO, 200);
        b.bind(top).unwrap();
        b.load(r(3), r(1), 0);
        b.load(r(4), r(1), 64);
        b.load(r(5), r(1), 128);
        b.addi(r(1), r(1), 192);
        b.addi(r(2), r(2), -1);
        b.branch(BranchCond::Ne, r(2), Reg::ZERO, top);
        b
    }

    #[test]
    fn every_defense_and_pin_mode_is_architecturally_identical() {
        let mut reference: Option<u64> = None;
        for scheme in [
            DefenseScheme::Unsafe,
            DefenseScheme::Fence,
            DefenseScheme::Dom,
            DefenseScheme::Stt,
        ] {
            for mode in [PinMode::Off, PinMode::Late, PinMode::Early] {
                if scheme == DefenseScheme::Unsafe && mode != PinMode::Off {
                    continue;
                }
                let cfg = defended_cfg(scheme, mode);
                let (m, res) = single(&cfg, chained_loads_program());
                let final_r1 = m.reg(CoreId(0), r(1));
                match reference {
                    None => reference = Some(final_r1),
                    Some(v) => {
                        assert_eq!(v, final_r1, "{scheme}/{mode:?} diverged architecturally")
                    }
                }
                assert!(res.total_retired() > 1000);
            }
        }
    }

    #[test]
    fn fence_comp_is_slower_than_unsafe_and_pinning_recovers() {
        let (_, unsafe_res) = single(
            &defended_cfg(DefenseScheme::Unsafe, PinMode::Off),
            chained_loads_program(),
        );
        let (_, comp) = single(
            &defended_cfg(DefenseScheme::Fence, PinMode::Off),
            chained_loads_program(),
        );
        let (_, ep) = single(
            &defended_cfg(DefenseScheme::Fence, PinMode::Early),
            chained_loads_program(),
        );
        assert!(
            comp.cycles > unsafe_res.cycles,
            "Fence+Comp ({}) must cost more than Unsafe ({})",
            comp.cycles,
            unsafe_res.cycles
        );
        assert!(
            ep.cycles < comp.cycles,
            "Fence+EP ({}) must beat Fence+Comp ({})",
            ep.cycles,
            comp.cycles
        );
    }

    #[test]
    fn figure_4_scenario_does_not_deadlock() {
        // Two cores store to each other's pinned lines then load their
        // own: the Section 5.1.2 write-buffer check must avoid deadlock.
        let cfg = {
            let mut c = MachineConfig::default_multi_core(2);
            c.defense = DefenseScheme::Fence;
            c.pinned_loads = PinnedLoadsConfig::with_mode(PinMode::Early);
            c
        };
        let x = 0xc000u64;
        let y = 0xd000u64;
        let mut m = Machine::new(&cfg).unwrap();
        let prog = |mine: u64, theirs: u64| {
            let mut b = ProgramBuilder::new();
            let top = b.new_label();
            b.addi(r(1), Reg::ZERO, mine as i64);
            b.addi(r(2), Reg::ZERO, theirs as i64);
            b.addi(r(5), Reg::ZERO, 50);
            b.bind(top).unwrap();
            b.store(r(5), r(1), 0);
            b.store(r(5), r(1), 8);
            b.load(r(3), r(2), 0);
            b.addi(r(5), r(5), -1);
            b.branch(BranchCond::Ne, r(5), Reg::ZERO, top);
            b.build().unwrap()
        };
        m.load_program(CoreId(0), prog(x, y));
        m.load_program(CoreId(1), prog(y, x));
        let res = m.run(20_000_000).expect("no deadlock");
        assert!(res.total_retired() > 100);
    }

    #[test]
    fn short_run_still_samples_cpt_occupancy() {
        // A run shorter than CPT_SAMPLE_PERIOD must not report an empty
        // occupancy histogram: the final sample at quiesce guarantees at
        // least one entry.
        let cfg = MachineConfig::default_single_core();
        let mut b = ProgramBuilder::new();
        b.addi(r(1), Reg::ZERO, 1);
        let (_, res) = single(&cfg, b);
        let h = res
            .stats
            .histogram("cpt.occupancy")
            .expect("histogram present");
        assert!(
            h.count() >= 1,
            "short run must sample CPT occupancy at least once"
        );
    }

    #[test]
    fn traced_run_returns_merged_log() {
        let mut cfg = MachineConfig::default_single_core();
        cfg.trace = pl_base::TraceConfig::enabled();
        let mut b = ProgramBuilder::new();
        b.addi(r(1), Reg::ZERO, 0x2000);
        b.load(r(2), r(1), 0);
        let mut m = Machine::new(&cfg).unwrap();
        m.load_program(CoreId(0), b.build().unwrap());
        let res = m.run(1_000_000).unwrap();
        let log = res.trace.expect("tracing enabled yields a log");
        assert!(!log.records.is_empty());
        // Untraced runs carry no log.
        let cfg2 = MachineConfig::default_single_core();
        let mut b2 = ProgramBuilder::new();
        b2.addi(r(1), Reg::ZERO, 1);
        let (_, res2) = single(&cfg2, b2);
        assert!(res2.trace.is_none());
    }

    #[test]
    fn tso_litmus_watchdog_attaches_trace_tail() {
        // TSO message-passing litmus with an impossibly tight watchdog:
        // the run must fail as a deadlock whose diagnosis carries both
        // the state dump and a non-empty trace tail.
        let mut cfg = MachineConfig::default_multi_core(2);
        cfg.trace = pl_base::TraceConfig::enabled();
        let mut m = Machine::new(&cfg).unwrap();
        let data = 0x9000u64;
        let flag = 0xa000u64;

        let mut p0 = ProgramBuilder::new();
        p0.addi(r(1), Reg::ZERO, data as i64);
        p0.addi(r(2), Reg::ZERO, 42);
        p0.store(r(2), r(1), 0);
        p0.addi(r(3), Reg::ZERO, flag as i64);
        p0.store(r(2), r(3), 0);
        m.load_program(CoreId(0), p0.build().unwrap());

        let mut p1 = ProgramBuilder::new();
        let spin = p1.new_label();
        p1.addi(r(3), Reg::ZERO, flag as i64);
        p1.bind(spin).unwrap();
        p1.load(r(4), r(3), 0);
        p1.branch(BranchCond::Eq, r(4), Reg::ZERO, spin);
        m.load_program(CoreId(1), p1.build().unwrap());

        m.set_watchdog_cycles(2);
        let err = m.run(1_000_000).unwrap_err();
        match err {
            RunError::Deadlock { diagnosis, .. } => {
                assert!(!diagnosis.state.is_empty(), "state dump attached");
                assert!(
                    !diagnosis.recent_events.is_empty(),
                    "trace tail attached when tracing is enabled"
                );
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    fn fingerprint(m: &Machine, res: &RunResult) -> (u64, Vec<u64>, String, Vec<(u64, u64)>) {
        (
            res.cycles,
            res.retired_per_core.clone(),
            res.stats.to_string(),
            m.memory_words(),
        )
    }

    fn run_chopped(cfg: &MachineConfig, chunk: u64) -> (Machine, RunResult) {
        let mut m = Machine::new(cfg).unwrap();
        m.load_program(CoreId(0), chained_loads_program().build().unwrap());
        let mut pause = chunk;
        loop {
            match m.run_until(5_000_000, pause).unwrap() {
                StepOutcome::Done(res) => return (m, res),
                StepOutcome::Paused => pause = m.now.raw() + chunk,
            }
        }
    }

    #[test]
    fn paused_run_is_bit_identical_to_uninterrupted() {
        for ff in [true, false] {
            let mut cfg = defended_cfg(DefenseScheme::Fence, PinMode::Early);
            cfg.fast_forward = ff;
            let (m_ref, ref_res) = single(&cfg, chained_loads_program());
            for chunk in [1, 97, 10_000] {
                let (m, res) = run_chopped(&cfg, chunk);
                assert_eq!(
                    fingerprint(&m, &res),
                    fingerprint(&m_ref, &ref_res),
                    "chunk={chunk} ff={ff} diverged from uninterrupted run"
                );
            }
        }
    }

    #[test]
    fn snapshot_restore_is_bit_identical() {
        for ff in [true, false] {
            let mut cfg = defended_cfg(DefenseScheme::Dom, PinMode::Late);
            cfg.fast_forward = ff;
            let (m_ref, ref_res) = single(&cfg, chained_loads_program());
            // Pause mid-run, checkpoint, resume in a *fresh* machine.
            let mut m = Machine::new(&cfg).unwrap();
            m.load_program(CoreId(0), chained_loads_program().build().unwrap());
            let outcome = m.run_until(5_000_000, ref_res.cycles / 2).unwrap();
            assert!(matches!(outcome, StepOutcome::Paused));
            let cp = m.snapshot();
            assert!(cp.cycle() >= ref_res.cycles / 2);
            drop(m);
            let mut resumed = Machine::restore(&cp);
            let res = resumed.run(5_000_000).unwrap();
            assert_eq!(
                fingerprint(&resumed, &res),
                fingerprint(&m_ref, &ref_res),
                "ff={ff}: restored run diverged from uninterrupted run"
            );
        }
    }

    #[test]
    fn checkpoint_survives_repeated_kills() {
        // Take a checkpoint every pause, "kill" the machine, and restore
        // from the latest checkpoint — the end result must still match.
        let cfg = defended_cfg(DefenseScheme::Stt, PinMode::Early);
        let (m_ref, ref_res) = single(&cfg, chained_loads_program());
        let mut m = Machine::new(&cfg).unwrap();
        m.load_program(CoreId(0), chained_loads_program().build().unwrap());
        let chunk = (ref_res.cycles / 5).max(1);
        let mut pause = chunk;
        let final_res = loop {
            match m.run_until(5_000_000, pause).unwrap() {
                StepOutcome::Done(res) => break res,
                StepOutcome::Paused => {
                    let cp = m.snapshot();
                    m = Machine::restore(&cp); // the old machine "dies"
                    pause = m.now.raw() + chunk;
                }
            }
        };
        assert_eq!(
            fingerprint(&m, &final_res),
            fingerprint(&m_ref, &ref_res),
            "kill/restore every chunk diverged from uninterrupted run"
        );
    }

    #[test]
    fn cycle_limit_error_reports() {
        let cfg = MachineConfig::default_single_core();
        let mut b = ProgramBuilder::new();
        let spin = b.new_label();
        b.bind(spin).unwrap();
        b.jump(spin); // infinite loop
        let mut m = Machine::new(&cfg).unwrap();
        m.load_program(CoreId(0), b.build().unwrap());
        let err = m.run(10_000).unwrap_err();
        assert!(matches!(err, RunError::CycleLimit { limit: 10_000, .. }));
        assert!(!err.to_string().is_empty());
    }

    /// Core 0 computes for `delay_iters` loop iterations, then publishes
    /// a flag core 1 busy-waits on; core 1 finally reads the datum the
    /// flag guards. The wait is long enough for the spin detector to
    /// verify core 1's loop and park it.
    fn spin_rendezvous_programs(delay_iters: i64) -> (Program, Program) {
        let data = 0x9000i64;
        let flag = 0xa000i64;
        let mut p0 = ProgramBuilder::new();
        let work = p0.new_label();
        p0.addi(r(1), Reg::ZERO, data);
        p0.addi(r(2), Reg::ZERO, 1234);
        p0.store(r(2), r(1), 0);
        p0.addi(r(5), Reg::ZERO, delay_iters);
        p0.bind(work).unwrap();
        p0.addi(r(5), r(5), -1);
        p0.branch(BranchCond::Ne, r(5), Reg::ZERO, work);
        p0.addi(r(3), Reg::ZERO, flag);
        p0.addi(r(4), Reg::ZERO, 1);
        p0.store(r(4), r(3), 0);
        let mut p1 = ProgramBuilder::new();
        let spin = p1.new_label();
        p1.addi(r(3), Reg::ZERO, flag);
        p1.bind(spin).unwrap();
        p1.load(r(4), r(3), 0);
        p1.branch(BranchCond::Eq, r(4), Reg::ZERO, spin);
        p1.addi(r(1), Reg::ZERO, data);
        p1.load(r(5), r(1), 0);
        (p0.build().unwrap(), p1.build().unwrap())
    }

    fn run_rendezvous(cfg: &MachineConfig, p0: &Program, p1: &Program) -> (Machine, RunResult) {
        let mut m = Machine::new(cfg).unwrap();
        m.load_program(CoreId(0), p0.clone());
        m.load_program(CoreId(1), p1.clone());
        let res = m.run(5_000_000).unwrap();
        assert_eq!(m.reg(CoreId(1), r(5)), 1234, "TSO publication");
        (m, res)
    }

    #[test]
    fn spin_parking_parks_and_stays_bit_identical() {
        let (p0, p1) = spin_rendezvous_programs(20_000);
        let cfg_with = |spin: bool, ff: bool| {
            let mut cfg = MachineConfig::default_multi_core(2);
            cfg.spin_parking = spin;
            cfg.fast_forward = ff;
            cfg
        };
        let (m_on, res_on) = run_rendezvous(&cfg_with(true, true), &p0, &p1);
        let (m_off, res_off) = run_rendezvous(&cfg_with(false, true), &p0, &p1);
        let (m_naive, res_naive) = run_rendezvous(&cfg_with(true, false), &p0, &p1);
        assert!(m_on.spin_parks() > 0, "detector never parked the spinner");
        assert!(
            m_on.spin_skipped_cycles() > 10_000,
            "parked spans too short: {}",
            m_on.spin_skipped_cycles()
        );
        assert_eq!(m_off.spin_parks(), 0);
        assert_eq!(m_naive.spin_parks(), 0, "naive loop must not spin-park");
        assert_eq!(
            fingerprint(&m_on, &res_on),
            fingerprint(&m_off, &res_off),
            "spin parking changed observable results"
        );
        assert_eq!(
            fingerprint(&m_on, &res_on),
            fingerprint(&m_naive, &res_naive),
            "spin parking diverged from the naive loop"
        );
    }

    #[test]
    fn spin_parking_timed_wake_at_lq_wrap_is_bit_identical() {
        // Small LQ-ID tag space: the spinner dispatches loads at fetch
        // width (hundreds of IDs per 64-cycle period), so a 4096-ID tag
        // space bounds every park at a handful of periods and the
        // timed-wake / live-wrap / re-park path runs many times. (Even
        // smaller spaces park zero times, correctly: no whole period
        // fits the wrap budget.)
        let (p0, p1) = spin_rendezvous_programs(30_000);
        let cfg_with = |spin: bool| {
            let mut cfg = MachineConfig::default_multi_core(2);
            cfg.spin_parking = spin;
            cfg.pinned_loads.lq_id_tag_bits = 12; // wrap every 4096 loads
            cfg
        };
        let (m_on, res_on) = run_rendezvous(&cfg_with(true), &p0, &p1);
        let (m_off, res_off) = run_rendezvous(&cfg_with(false), &p0, &p1);
        assert!(
            m_on.spin_parks() >= 2,
            "expected repeated parks across wrap boundaries, got {}",
            m_on.spin_parks()
        );
        assert_eq!(
            fingerprint(&m_on, &res_on),
            fingerprint(&m_off, &res_off),
            "timed spin wakes changed observable results"
        );
    }

    #[test]
    fn spin_parking_survives_pause_and_snapshot() {
        let (p0, p1) = spin_rendezvous_programs(20_000);
        let cfg = MachineConfig::default_multi_core(2);
        let (m_ref, ref_res) = run_rendezvous(&cfg, &p0, &p1);
        // Chop the run into pauses, checkpointing and restoring at each
        // one — every pause flushes mid-spin parks, every resume re-arms
        // the detector from scratch.
        let mut m = Machine::new(&cfg).unwrap();
        m.load_program(CoreId(0), p0.clone());
        m.load_program(CoreId(1), p1.clone());
        let chunk = (ref_res.cycles / 7).max(1);
        let mut pause = chunk;
        let res = loop {
            match m.run_until(5_000_000, pause).unwrap() {
                StepOutcome::Done(res) => break res,
                StepOutcome::Paused => {
                    let cp = m.snapshot();
                    m = Machine::restore(&cp);
                    pause = m.now.raw() + chunk;
                }
            }
        };
        assert_eq!(
            fingerprint(&m, &res),
            fingerprint(&m_ref, &ref_res),
            "pause/snapshot through spin parks diverged"
        );
    }

    #[test]
    fn machine_state_codec_round_trips_and_resumes() {
        let cfg = defended_cfg(DefenseScheme::Stt, PinMode::Early);
        let (m_ref, ref_res) = single(&cfg, chained_loads_program());
        let mut m = Machine::new(&cfg).unwrap();
        m.load_program(CoreId(0), chained_loads_program().build().unwrap());
        let outcome = m.run_until(5_000_000, ref_res.cycles / 2).unwrap();
        assert!(matches!(outcome, StepOutcome::Paused));
        let bytes = m.encode_state();
        // Overlay onto a fresh machine with the same config and program.
        let mut fresh = Machine::new(&cfg).unwrap();
        fresh.load_program(CoreId(0), chained_loads_program().build().unwrap());
        fresh.decode_state_into(&bytes).unwrap();
        assert_eq!(
            fresh.encode_state(),
            bytes,
            "re-encode must be byte-identical"
        );
        let res = fresh.run(5_000_000).unwrap();
        assert_eq!(
            fingerprint(&fresh, &res),
            fingerprint(&m_ref, &ref_res),
            "decoded machine diverged from uninterrupted run"
        );
    }

    #[test]
    fn codec_resumes_fault_injected_runs() {
        // The NoC fault injector's RNG is state: a resumed run must draw
        // the same delivery jitter the uninterrupted run draws.
        let mut cfg = defended_cfg(DefenseScheme::Fence, PinMode::Early);
        cfg.verify.enabled = true;
        cfg.verify.fault_delay = 7;
        let (m_ref, ref_res) = single(&cfg, chained_loads_program());
        let build = || {
            let mut m = Machine::new(&cfg).unwrap();
            m.load_program(CoreId(0), chained_loads_program().build().unwrap());
            m
        };
        let mut m = build();
        let outcome = m.run_until(5_000_000, ref_res.cycles / 2).unwrap();
        assert!(matches!(outcome, StepOutcome::Paused));
        let mut resumed = build();
        resumed.decode_state_into(&m.encode_state()).unwrap();
        let res = resumed.run(5_000_000).unwrap();
        assert_eq!(
            fingerprint(&resumed, &res),
            fingerprint(&m_ref, &ref_res),
            "fault-injected run diverged after a decode"
        );
    }

    /// Core `c` of a ring of `cores` single-slot mailboxes: each round it
    /// fills the next core's slot and raises its flag, then spins on its
    /// own flag. The spinning loads are pinned, so flag writes are
    /// deferred and retried as starred writes that end in a Clear
    /// broadcast.
    fn mailbox_ring_program(c: usize, cores: usize) -> Program {
        let slot = |i: usize| 0x30_0000 + 64 * i as i64;
        let mut b = ProgramBuilder::new();
        let (top, spin, backpressure) = (b.new_label(), b.new_label(), b.new_label());
        b.addi(r(1), Reg::ZERO, slot(c));
        b.addi(r(3), Reg::ZERO, slot((c + 1) % cores));
        b.addi(r(2), Reg::ZERO, 30);
        b.addi(r(9), Reg::ZERO, 0);
        b.bind(top).unwrap();
        b.addi(r(9), r(9), 1);
        // Wait until the consumer took the previous round.
        b.addi(r(12), r(9), -1);
        b.bind(backpressure).unwrap();
        b.load(r(13), r(3), 16);
        b.branch(BranchCond::LtU, r(13), r(12), backpressure);
        b.store(r(9), r(3), 0);
        b.store(r(9), r(3), 8);
        b.bind(spin).unwrap();
        b.load(r(10), r(1), 8);
        b.branch(BranchCond::LtU, r(10), r(9), spin);
        b.load(r(11), r(1), 0);
        b.store(r(9), r(1), 16);
        b.addi(r(2), r(2), -1);
        b.branch(BranchCond::Ne, r(2), Reg::ZERO, top);
        b.build().unwrap()
    }

    /// A four-core mailbox ring under Fence+EP: pinned spinning loads,
    /// starred writes, invalidations and Clear broadcasts all run long.
    fn ring_machine(extra: impl Fn(&mut MachineConfig)) -> Machine {
        let mut cfg = MachineConfig::default_multi_core(4);
        cfg.defense = DefenseScheme::Fence;
        cfg.pinned_loads = PinnedLoadsConfig::with_mode(PinMode::Early);
        extra(&mut cfg);
        let mut m = Machine::new(&cfg).unwrap();
        for c in 0..4 {
            m.load_program(CoreId(c), mailbox_ring_program(c, 4));
        }
        m
    }

    /// Counts starred commits, and those whose Clear broadcast never
    /// went out: the `DropClear` mutation's footprint. A slice's events
    /// are contiguous within a tick's batch, so a broadcast follows its
    /// commit directly.
    #[derive(Default)]
    struct ClearAudit {
        commits: u64,
        dropped: u64,
    }

    impl CheckObserver for ClearAudit {
        fn on_events(&mut self, _: Cycle, events: &[CheckEvent]) {
            for (i, ev) in events.iter().enumerate() {
                if let CheckEvent::StarredCommit { sharers, .. } = ev {
                    self.commits += 1;
                    let next = events.get(i + 1);
                    if *sharers > 0 && !matches!(next, Some(CheckEvent::ClearSent { .. })) {
                        self.dropped += 1;
                    }
                }
            }
        }
        fn on_snapshot(&mut self, _: Cycle, _: &MachineSnapshot) {}
        fn on_run_end(&mut self, _: Cycle) {}
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn take_audit(m: &mut Machine) -> (u64, u64) {
        let mut obs = m.take_check_observer().expect("audit attached");
        let audit = obs.as_any_mut().downcast_mut::<ClearAudit>().unwrap();
        (audit.commits, audit.dropped)
    }

    #[test]
    fn codec_keeps_a_fired_mutation_fired() {
        // `DropClear` swallows one Clear broadcast per slice and run. A
        // checkpoint taken after it fired must not re-arm it in the
        // resumed run.
        let build = || {
            let mut m = ring_machine(|cfg| {
                cfg.verify.enabled = true;
                cfg.verify.mutation = Mutation::DropClear;
            });
            m.set_check_observer(Box::<ClearAudit>::default());
            m
        };
        let mut m_ref = build();
        let ref_res = m_ref.run(5_000_000).unwrap();

        let mut paused = build();
        let outcome = paused.run_until(5_000_000, ref_res.cycles / 2).unwrap();
        assert!(matches!(outcome, StepOutcome::Paused));
        let bytes = paused.encode_state();
        let (_, dropped_before) = take_audit(&mut paused);
        assert!(dropped_before > 0, "the mutation fired before the pause");

        let mut resumed = build();
        resumed.decode_state_into(&bytes).unwrap();
        let res = resumed.run(5_000_000).unwrap();
        let (commits_after, dropped_after) = take_audit(&mut resumed);
        assert!(commits_after > 0, "no starred commit left to drop a Clear");
        assert_eq!(dropped_after, 0, "the resumed run re-armed the mutation");
        assert_eq!(
            fingerprint(&resumed, &res),
            fingerprint(&m_ref, &ref_res),
            "mutated run diverged after a decode"
        );
    }

    #[test]
    fn restored_trace_starts_at_the_checkpoint_cycle() {
        // Trace rings are a documented checkpoint exclusion: a restored
        // machine records exactly the events of the cycles from the
        // checkpoint on, with the uninterrupted run's stamps. A core
        // handles the messages of the checkpoint cycle before its tick,
        // so those events carry the previous cycle's stamp.
        let build = || {
            ring_machine(|cfg| {
                cfg.trace = pl_base::TraceConfig {
                    enabled: true,
                    buffer_capacity: 1 << 20,
                }
            })
        };
        let ref_res = build().run(5_000_000).unwrap();
        let full = ref_res.trace.expect("traced run");
        assert_eq!(full.dropped, 0, "the rings must hold the whole run");

        let mut lagged = 0;
        for pause in (1..ref_res.cycles).step_by(97) {
            let mut m = build();
            let outcome = m.run_until(5_000_000, pause).unwrap();
            assert!(matches!(outcome, StepOutcome::Paused));
            let cp = m.snapshot();
            let mut before: std::collections::HashMap<_, usize> = Default::default();
            for rec in m.trace_log().records {
                *before.entry(rec.source).or_default() += 1;
            }
            drop(m);
            let res = Machine::restore(&cp).run(5_000_000).unwrap();

            // Each source's events keep their emission order in the
            // merged log, so dropping its first `before` events leaves
            // exactly the ones recorded from the checkpoint cycle on.
            let expected: Vec<_> = full
                .records
                .iter()
                .filter(|rec| match before.get_mut(&rec.source) {
                    Some(n) if *n > 0 => {
                        *n -= 1;
                        false
                    }
                    _ => true,
                })
                .copied()
                .collect();
            assert!(expected.iter().all(|rec| rec.cycle + 1 >= cp.cycle()));
            if expected.iter().any(|rec| rec.cycle + 1 == cp.cycle()) {
                lagged += 1;
            }
            assert_eq!(
                res.trace.expect("traced run").records,
                expected,
                "pause {pause}: restored trace differs from the uninterrupted run's tail"
            );
        }
        assert!(
            lagged > 0,
            "no checkpoint cycle delivered a message to a core"
        );
    }

    #[test]
    fn machine_state_codec_rejects_truncation() {
        let cfg = MachineConfig::default_single_core();
        let mut m = Machine::new(&cfg).unwrap();
        m.load_program(CoreId(0), chained_loads_program().build().unwrap());
        let bytes = m.encode_state();
        let mut fresh = Machine::new(&cfg).unwrap();
        fresh.load_program(CoreId(0), chained_loads_program().build().unwrap());
        assert!(fresh.decode_state_into(&bytes[..bytes.len() - 1]).is_err());
    }
}
