//! Equivalence harness for the raw-speed pass on the execution core.
//!
//! The fast path (pooled kernel state via `Config::with_pooling` plus
//! incrementally-maintained capture fingerprints via
//! `Kernel::set_fingerprint_caching`) must be *observationally invisible*:
//! for every kernel workload, under every memory model where one applies,
//! a search on the fast path must produce
//!
//! * a byte-identical visited-state trace (depth, fingerprint, and full
//!   canonical state signature of every state occurrence, in order),
//! * identical `SearchStats` (wall-clock excluded) and `SearchOutcome`,
//! * an identical set of terminal-state fingerprints,
//!
//! compared with the reference path (factory-fresh kernels, full
//! recapture on every fingerprint). Any divergence is a soundness bug in
//! the optimizations, not a perf trade-off.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use chess_core::strategy::{
    ContextBounded, Dfs, RandomWalk, SchedulePoint, Strategy, StrategySnapshot,
};
use chess_core::{
    BudgetKind, Config, Decision, DivergenceKind, Explorer, Observer, SearchCheckpoint,
    SearchOutcome, SearchReport, TransitionSystem,
};
use chess_kernel::{
    Capture, Effects, Footprint, GuestThread, Kernel, MemoryModel, OpDesc, OpResult, StateWriter,
    ThreadId,
};
use chess_workloads::boundedbuffer::{bounded_buffer, BufferConfig};
use chess_workloads::bsp::{bsp, BspConfig};
use chess_workloads::channels::{fifo_pipeline, ChannelBug, FifoConfig};
use chess_workloads::litmus::{
    dekker, dekker_fenced, iriw, load_buffering, message_passing, store_buffering,
};
use chess_workloads::miniboot::{miniboot, BootConfig};
use chess_workloads::philosophers::{philosophers, PhilosophersConfig};
use chess_workloads::promise::{figure8 as promise_figure8, promises, PromiseConfig};
use chess_workloads::rwcache::{rw_cache, RwCacheConfig};
use chess_workloads::simple::{deadlock_pair, locked_counter, racy_counter};
use chess_workloads::spinloop::spinloop;
use chess_workloads::treiber::{treiber_stack, TreiberConfig};
use chess_workloads::workerpool::{figure7 as workerpool_figure7, worker_pool, PoolConfig};
use chess_workloads::wsq::{wsq, WsqBug, WsqConfig};

/// Records everything the two paths must agree on: a flat byte trace of
/// every visited state occurrence and the set of terminal fingerprints.
#[derive(Default)]
struct TraceRecorder {
    /// Concatenated per-state records: depth, fingerprint, signature
    /// length, signature bytes; executions separated by an all-ones
    /// marker. Byte equality of two traces means the searches visited
    /// the same states in the same order with the same canonical forms.
    trace: Vec<u8>,
    terminal_fingerprints: BTreeSet<u64>,
    scratch: Vec<u8>,
}

impl<S: Capture + Clone> Observer<Kernel<S>> for TraceRecorder {
    fn on_state(&mut self, sys: &Kernel<S>, depth: usize) {
        self.trace.extend_from_slice(&(depth as u64).to_le_bytes());
        self.trace
            .extend_from_slice(&sys.fingerprint().to_le_bytes());
        self.scratch.clear();
        sys.state_bytes_into(&mut self.scratch);
        self.trace
            .extend_from_slice(&(self.scratch.len() as u64).to_le_bytes());
        self.trace.extend_from_slice(&self.scratch);
    }

    fn on_execution_end(&mut self, sys: &Kernel<S>, _depth: usize) {
        self.terminal_fingerprints.insert(sys.fingerprint());
        self.trace.extend_from_slice(&u64::MAX.to_le_bytes());
    }
}

/// Runs a bounded random-walk search on one path and returns everything
/// the equivalence check compares.
fn run_path<S, F>(factory: F, fast: bool, executions: u64) -> (SearchReport, TraceRecorder)
where
    S: Capture + Clone + 'static,
    F: Fn() -> Kernel<S>,
{
    let config = Config::fair()
        .with_max_executions(executions)
        .with_stop_on_error(false)
        .with_pooling(fast);
    let mut rec = TraceRecorder::default();
    let report = Explorer::new(
        move || {
            let mut k = factory();
            k.set_fingerprint_caching(fast);
            k
        },
        RandomWalk::new(7),
        config,
    )
    .run_observed(&mut rec);
    (report, rec)
}

/// Asserts full observational equivalence of the two paths on one
/// workload.
fn assert_equivalent<S, F>(name: &str, factory: F, executions: u64)
where
    S: Capture + Clone + 'static,
    F: Fn() -> Kernel<S> + Copy,
{
    let (ref_report, ref_rec) = run_path(factory, false, executions);
    let (fast_report, fast_rec) = run_path(factory, true, executions);

    assert_eq!(
        ref_report.outcome, fast_report.outcome,
        "{name}: outcomes diverge between reference and fast path"
    );
    let mut ref_stats = ref_report.stats.clone();
    let mut fast_stats = fast_report.stats.clone();
    ref_stats.wall = Default::default();
    fast_stats.wall = Default::default();
    assert_eq!(
        ref_stats, fast_stats,
        "{name}: SearchStats diverge between reference and fast path"
    );
    assert_eq!(
        ref_rec.terminal_fingerprints, fast_rec.terminal_fingerprints,
        "{name}: terminal fingerprint sets diverge"
    );
    assert!(
        ref_rec.trace == fast_rec.trace,
        "{name}: visited-state traces are not byte-identical \
         (reference {} bytes, fast {} bytes)",
        ref_rec.trace.len(),
        fast_rec.trace.len()
    );
    assert!(
        !ref_rec.trace.is_empty(),
        "{name}: trace empty — the harness observed nothing"
    );
}

const EXECS: u64 = 40;

#[test]
fn litmus_workloads_equivalent_under_every_memory_model() {
    type LitmusFactory = fn(MemoryModel) -> Kernel<chess_workloads::litmus::LitmusShared>;
    let litmus: [(&str, LitmusFactory); 6] = [
        ("store_buffering", store_buffering),
        ("dekker", dekker),
        ("dekker_fenced", dekker_fenced),
        ("message_passing", message_passing),
        ("load_buffering", load_buffering),
        ("iriw", iriw),
    ];
    for (name, factory) in litmus {
        for model in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
            assert_equivalent(&format!("{name}({model:?})"), move || factory(model), EXECS);
        }
    }
}

#[test]
fn philosophers_equivalent() {
    assert_equivalent(
        "philosophers(3)",
        || philosophers(PhilosophersConfig::table2(3)),
        EXECS,
    );
}

#[test]
fn wsq_equivalent() {
    assert_equivalent("wsq(1 stealer)", || wsq(WsqConfig::table2(1)), EXECS);
}

#[test]
fn miniboot_equivalent() {
    assert_equivalent("miniboot", || miniboot(BootConfig::small()), EXECS);
}

#[test]
fn queue_and_stack_workloads_equivalent() {
    assert_equivalent(
        "bounded_buffer",
        || bounded_buffer(BufferConfig::correct()),
        EXECS,
    );
    assert_equivalent(
        "fifo_pipeline",
        || fifo_pipeline(FifoConfig::correct()),
        EXECS,
    );
    assert_equivalent(
        "treiber_stack",
        || treiber_stack(TreiberConfig::correct()),
        EXECS,
    );
}

#[test]
fn coordination_workloads_equivalent() {
    assert_equivalent("worker_pool", || worker_pool(PoolConfig::correct()), EXECS);
    assert_equivalent("promises", || promises(PromiseConfig::correct()), EXECS);
    assert_equivalent("bsp", || bsp(BspConfig::correct()), EXECS);
    assert_equivalent("rw_cache", || rw_cache(RwCacheConfig::correct()), EXECS);
}

#[test]
fn simple_and_divergent_workloads_equivalent() {
    assert_equivalent("racy_counter(2)", || racy_counter(2), EXECS);
    assert_equivalent("locked_counter(2)", || locked_counter(2), EXECS);
    assert_equivalent("deadlock_pair", deadlock_pair, EXECS);
    // Spins until its partner flips a flag: exercises the fair
    // scheduler's yield bookkeeping and divergence detection on both
    // paths.
    assert_equivalent("spinloop(1, yield)", || spinloop(1, true), EXECS);
}

/// An exhaustive DFS (not a sampled walk) must also agree — this drives
/// the fast path through backtracking and replay from scratch on every
/// execution, where stale pooled state would be most visible.
#[test]
fn exhaustive_dfs_equivalent_on_dekker() {
    for model in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
        let factory = move || dekker_fenced(model);
        let run = |fast: bool| {
            let config = Config::fair()
                .with_max_executions(200_000)
                .with_stop_on_error(false)
                .with_pooling(fast);
            let mut rec = TraceRecorder::default();
            let report = Explorer::new(
                move || {
                    let mut k = factory();
                    k.set_fingerprint_caching(fast);
                    k
                },
                Dfs::new(),
                config,
            )
            .run_observed(&mut rec);
            (report, rec)
        };
        let (ref_report, ref_rec) = run(false);
        let (fast_report, fast_rec) = run(true);
        assert!(
            ref_report.outcome.is_exhaustive_pass(),
            "dekker_fenced({model:?}) should complete: {:?}",
            ref_report.outcome
        );
        assert_eq!(ref_report.outcome, fast_report.outcome);
        assert_eq!(
            ref_report.stats.executions, fast_report.stats.executions,
            "dekker_fenced({model:?}): execution counts diverge"
        );
        assert_eq!(
            ref_report.stats.transitions, fast_report.stats.transitions,
            "dekker_fenced({model:?}): transition counts diverge"
        );
        assert_eq!(
            ref_rec.terminal_fingerprints,
            fast_rec.terminal_fingerprints
        );
        assert!(
            ref_rec.trace == fast_rec.trace,
            "dekker_fenced({model:?}): exhaustive traces differ"
        );
    }
}

// ---------------------------------------------------------------------
// Prefix reuse: an `Explorer::run` with pooling on resumes every
// execution from a snapshot on the schedule prefix it shares with the
// previous one. The observer-based checks above need every state, so
// they take the full-replay path; the checks below observe the search
// through the strategy instead, which sees every schedule point on both
// paths.
// ---------------------------------------------------------------------

/// One strategy call, as a pass-through recorder sees it.
#[derive(Debug, Clone, PartialEq)]
enum Call {
    Pick {
        depth: usize,
        options: Vec<Decision>,
        footprints: Vec<Footprint>,
        flushes: Vec<bool>,
        prev: Option<ThreadId>,
        prev_enabled: bool,
        prev_schedulable: bool,
        fairness_filtered: bool,
        picked: Option<Decision>,
    },
    End(bool),
}

/// A pass-through strategy logging every schedule point it is offered
/// and every decision it returns. With `stop_at`, it raises a stop flag
/// once it has answered that many picks.
struct Recording {
    inner: Box<dyn Strategy>,
    log: Rc<RefCell<Vec<Call>>>,
    picks: u64,
    stop_at: Option<(u64, Arc<AtomicBool>)>,
}

impl Recording {
    fn new(inner: Box<dyn Strategy>) -> (Self, Rc<RefCell<Vec<Call>>>) {
        let log = Rc::default();
        let rec = Recording {
            inner,
            log: Rc::clone(&log),
            picks: 0,
            stop_at: None,
        };
        (rec, log)
    }
}

impl Strategy for Recording {
    fn pick(&mut self, point: &SchedulePoint<'_>) -> Option<Decision> {
        let picked = self.inner.pick(point);
        self.log.borrow_mut().push(Call::Pick {
            depth: point.depth,
            options: point.options.to_vec(),
            footprints: point.footprints.to_vec(),
            flushes: point.flushes.to_vec(),
            prev: point.prev,
            prev_enabled: point.prev_enabled,
            prev_schedulable: point.prev_schedulable,
            fairness_filtered: point.fairness_filtered,
            picked,
        });
        self.picks += 1;
        if let Some((at, stop)) = &self.stop_at {
            if self.picks == *at {
                stop.store(true, Ordering::Relaxed);
            }
        }
        picked
    }

    fn on_execution_end(&mut self) -> bool {
        let more = self.inner.on_execution_end();
        self.log.borrow_mut().push(Call::End(more));
        more
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn wants_footprints(&self) -> bool {
        self.inner.wants_footprints()
    }

    fn snapshot(&self) -> Option<StrategySnapshot> {
        self.inner.snapshot()
    }

    fn restore(&mut self, snapshot: &StrategySnapshot) -> Result<(), String> {
        self.inner.restore(snapshot)
    }
}

type StrategyCtor = fn() -> Box<dyn Strategy>;

/// The strategies the prefix-reuse checks run: the systematic ones whose
/// executions share long prefixes, with and without sleep sets, plus a
/// random walk and the random-tail baseline.
const REUSE_STRATEGIES: [(&str, StrategyCtor); 6] = [
    ("dfs", || Box::new(Dfs::new())),
    ("dfs+sleep", || Box::new(Dfs::with_sleep_sets())),
    ("cb:2", || Box::new(ContextBounded::new(2))),
    ("cb:2+sleep", || {
        Box::new(ContextBounded::with_sleep_sets(2))
    }),
    ("random", || Box::new(RandomWalk::new(7))),
    ("dfs(db=6)", || Box::new(Dfs::with_horizon(6))),
];

const REUSE_EXECS: u64 = 120;

/// Runs one search through `Explorer::run` and returns its report (wall
/// time zeroed) and the strategy's call log.
fn logged_run<P, F>(
    factory: F,
    strategy: Box<dyn Strategy>,
    config: Config,
) -> (SearchReport, Vec<Call>)
where
    P: TransitionSystem,
    F: FnMut() -> P,
{
    let (rec, log) = Recording::new(strategy);
    let mut report = Explorer::new(factory, rec, config).run();
    report.stats.wall = Default::default();
    let log = log.take();
    (report, log)
}

/// Asserts that prefix reuse (pooling on) and the from-scratch path
/// (pooling off) give the strategy identical calls and the same report,
/// counterexample schedules included.
fn assert_reuse_equivalent<P, F>(name: &str, factory: F, strategy: StrategyCtor, config: &Config)
where
    P: TransitionSystem,
    F: Fn() -> P + Copy,
{
    let (ref_report, ref_log) = logged_run(factory, strategy(), config.clone().with_pooling(false));
    let (fast_report, fast_log) =
        logged_run(factory, strategy(), config.clone().with_pooling(true));
    if let Some(i) = (0..ref_log.len().min(fast_log.len())).find(|&i| ref_log[i] != fast_log[i]) {
        panic!(
            "{name}: strategy call {i} differs:\n  from scratch: {:?}\n  prefix reuse: {:?}",
            ref_log[i], fast_log[i]
        );
    }
    assert_eq!(
        ref_log.len(),
        fast_log.len(),
        "{name}: call logs differ in length"
    );
    assert_eq!(ref_report, fast_report, "{name}: reports differ");
    assert!(
        ref_log.iter().any(|c| matches!(c, Call::Pick { .. })),
        "{name}: the strategy was never consulted"
    );
}

/// Every strategy of [`REUSE_STRATEGIES`] on one workload.
fn reuse_matrix<P, F>(name: &str, factory: F, config: &Config)
where
    P: TransitionSystem,
    F: Fn() -> P + Copy,
{
    for (label, strategy) in REUSE_STRATEGIES {
        assert_reuse_equivalent(&format!("{name} {label}"), factory, strategy, config);
    }
}

fn reuse_config() -> Config {
    Config::fair().with_max_executions(REUSE_EXECS)
}

#[test]
fn prefix_reuse_equivalent_on_litmus_under_every_memory_model() {
    type LitmusFactory = fn(MemoryModel) -> Kernel<chess_workloads::litmus::LitmusShared>;
    let litmus: [(&str, LitmusFactory); 6] = [
        ("store_buffering", store_buffering),
        ("dekker", dekker),
        ("dekker_fenced", dekker_fenced),
        ("message_passing", message_passing),
        ("load_buffering", load_buffering),
        ("iriw", iriw),
    ];
    for (name, factory) in litmus {
        for model in [MemoryModel::Sc, MemoryModel::Tso, MemoryModel::Pso] {
            reuse_matrix(
                &format!("{name}({model:?})"),
                move || factory(model),
                &reuse_config(),
            );
        }
    }
}

#[test]
fn prefix_reuse_equivalent_on_table_workloads() {
    let config = reuse_config();
    reuse_matrix(
        "philosophers(3)",
        || philosophers(PhilosophersConfig::table2(3)),
        &config,
    );
    reuse_matrix("wsq(1 stealer)", || wsq(WsqConfig::table2(1)), &config);
    reuse_matrix("miniboot", || miniboot(BootConfig::small()), &config);
}

#[test]
fn prefix_reuse_equivalent_on_queue_and_coordination_workloads() {
    let config = reuse_config();
    reuse_matrix(
        "bounded_buffer",
        || bounded_buffer(BufferConfig::correct()),
        &config,
    );
    reuse_matrix(
        "fifo_pipeline",
        || fifo_pipeline(FifoConfig::correct()),
        &config,
    );
    reuse_matrix(
        "treiber_stack",
        || treiber_stack(TreiberConfig::correct()),
        &config,
    );
    reuse_matrix(
        "worker_pool",
        || worker_pool(PoolConfig::correct()),
        &config,
    );
    reuse_matrix("promises", || promises(PromiseConfig::correct()), &config);
    reuse_matrix("bsp", || bsp(BspConfig::correct()), &config);
    reuse_matrix("rw_cache", || rw_cache(RwCacheConfig::correct()), &config);
    reuse_matrix("racy_counter(2)", || racy_counter(2), &config);
    reuse_matrix("locked_counter(2)", || locked_counter(2), &config);
    reuse_matrix("deadlock_pair", deadlock_pair, &config);
    reuse_matrix("spinloop(1, yield)", || spinloop(1, true), &config);
}

/// Cycle-detected divergences end executions on a repeated state: the
/// cycle map rolled back to the shared prefix must find exactly the
/// repeats the rebuilt map finds.
#[test]
fn prefix_reuse_equivalent_on_cycle_detected_divergences() {
    let config = reuse_config();
    reuse_matrix("promise figure8", promise_figure8, &config);
    reuse_matrix("workerpool figure7", workerpool_figure7, &config);
    reuse_matrix("spinloop(1, no yield)", || spinloop(1, false), &config);
    // Continuing past the errors: every later execution resumes from a
    // prefix of one that ended in a divergence.
    let go_on = reuse_config().with_stop_on_error(false);
    reuse_matrix("promise figure8 (continue)", promise_figure8, &go_on);
    reuse_matrix(
        "spinloop(1, no yield) (continue)",
        || spinloop(1, false),
        &go_on,
    );
}

/// Searches that continue past safety violations and deadlocks, cut at
/// a depth bound without fairness, or run without cycle detection (the
/// Table 3 hunts' configuration).
#[test]
fn prefix_reuse_equivalent_past_errors_and_bounds() {
    let go_on = reuse_config().with_stop_on_error(false);
    reuse_matrix("racy_counter(2) (continue)", || racy_counter(2), &go_on);
    reuse_matrix("deadlock_pair (continue)", deadlock_pair, &go_on);
    let unfair = Config::unfair()
        .with_depth_bound(24)
        .with_max_executions(REUSE_EXECS);
    reuse_matrix(
        "spinloop(1, yield) unfair db=24",
        || spinloop(1, true),
        &unfair,
    );
    let hunt = reuse_config().with_detect_cycles(false);
    reuse_matrix(
        "wsq bug 2 (no cycle detection)",
        || wsq(WsqConfig::with_bug(WsqBug::UnsynchronizedSteal)),
        &hunt,
    );
    reuse_matrix(
        "channel bug 4 (no cycle detection)",
        || fifo_pipeline(FifoConfig::with_bug(ChannelBug::DrainingShutdown)),
        &hunt,
    );
}

/// Shared state of [`panicky`]: set once the setter has run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct Flag(bool);

impl Capture for Flag {
    fn capture(&self, w: &mut StateWriter) {
        w.write_u32(u32::from(self.0));
    }
}

/// Runs `steps` local steps and then finishes. With `sets_flag` its
/// first step sets the flag; with `panic_if_set` its last step panics
/// when the flag is already set.
#[derive(Clone)]
struct Stepper {
    pc: u32,
    steps: u32,
    sets_flag: bool,
    panic_if_set: bool,
}

impl GuestThread<Flag> for Stepper {
    fn next_op(&self, _: &Flag) -> OpDesc {
        if self.pc < self.steps {
            OpDesc::Local
        } else {
            OpDesc::Finished
        }
    }

    fn on_op(&mut self, _: OpResult, shared: &mut Flag, _: &mut Effects<Flag>) {
        self.pc += 1;
        if self.pc == self.steps && self.panic_if_set && shared.0 {
            panic!("scripted panic");
        }
        if self.sets_flag {
            shared.0 = true;
        }
    }

    fn capture(&self, w: &mut StateWriter) {
        w.write_u32(self.pc);
    }

    fn box_clone(&self) -> Box<dyn GuestThread<Flag>> {
        Box::new(self.clone())
    }
}

fn steppers(a: u32, b: u32, panic_if_set: bool) -> Kernel<Flag> {
    let mut k = Kernel::new(Flag::default());
    k.spawn(Stepper {
        pc: 0,
        steps: a,
        sets_flag: true,
        panic_if_set: false,
    });
    k.spawn(Stepper {
        pc: 0,
        steps: b,
        sets_flag: false,
        panic_if_set,
    });
    k
}

/// Runs one step, then `long` more if the flag was unset at that step.
#[derive(Clone)]
struct Reader {
    pc: u32,
    len: u32,
    long: u32,
}

impl GuestThread<Flag> for Reader {
    fn next_op(&self, _: &Flag) -> OpDesc {
        if self.pc == 0 || self.pc < self.len {
            OpDesc::Local
        } else {
            OpDesc::Finished
        }
    }

    fn on_op(&mut self, _: OpResult, shared: &mut Flag, _: &mut Effects<Flag>) {
        if self.pc == 0 {
            self.len = if shared.0 { 1 } else { 1 + self.long };
        }
        self.pc += 1;
    }

    fn capture(&self, w: &mut StateWriter) {
        w.write_u32(self.pc);
        w.write_u32(self.len);
    }

    fn box_clone(&self) -> Box<dyn GuestThread<Flag>> {
        Box::new(self.clone())
    }
}

/// A depth-bound hit after a restore is classified from the restored
/// good-samaritan counters, not from the ones the previous execution
/// ended with. Thread 0 runs 12 steps without yielding; under DFS, four
/// executions then terminate before the fifth resumes from a snapshot on
/// that 12-step prefix and lets the reader loop until the bound, 24 steps
/// without a yield — one fewer than a counter carried over from the
/// previous execution would read.
#[test]
fn prefix_reuse_keeps_good_samaritan_counters() {
    let factory = || {
        let mut k = Kernel::new(Flag::default());
        let stepper = |steps, sets_flag| Stepper {
            pc: 0,
            steps,
            sets_flag,
            panic_if_set: false,
        };
        k.spawn(stepper(12, false));
        k.spawn(stepper(4, true));
        k.spawn(Reader {
            pc: 0,
            len: 0,
            long: 30,
        });
        k
    };
    let mut config = Config::fair().with_depth_bound(40);
    config.gs_threshold = 10;
    reuse_matrix("good-samaritan", factory, &config);
    let (report, _) = logged_run(factory, Box::new(Dfs::new()), config);
    assert_eq!(report.stats.executions, 5, "{report:?}");
    let SearchOutcome::Divergence(d) = &report.outcome else {
        panic!("expected a divergence, got {:?}", report.outcome);
    };
    assert_eq!(
        d.kind,
        DivergenceKind::GoodSamaritanSuspect {
            thread: ThreadId::new(2),
            steps_without_yield: 24,
        }
    );
}

/// A workload panic unwinds out of the middle of an execution that
/// resumed from a snapshot: the next execution must not trust what that
/// execution recorded, and the panic's counterexample must carry the
/// full schedule, restored prefix included.
#[test]
fn prefix_reuse_equivalent_on_a_panicking_workload() {
    let factory = || steppers(6, 6, true);
    reuse_matrix("panicky", factory, &reuse_config());
    reuse_matrix(
        "panicky (continue)",
        factory,
        &reuse_config().with_stop_on_error(false),
    );
    let (report, _) = logged_run(factory, Box::new(Dfs::new()), reuse_config());
    let SearchOutcome::Panic(cex) = &report.outcome else {
        panic!("expected a panic, got {:?}", report.outcome);
    };
    assert_eq!(cex.schedule.len(), 12, "{:?}", cex.schedule);
}

/// An interruption raised while an execution is still walking its
/// restored prefix stops at the same poll as a re-executed prefix, and
/// resuming from the checkpoint converges to the uninterrupted report.
#[test]
fn prefix_reuse_mid_execution_interrupt_and_resume_converge() {
    // Executions 5,000 transitions deep: the in-execution poll at depth
    // 4,095 falls inside the prefix each execution shares with the last.
    let factory = || steppers(2_500, 2_500, false);
    let config = Config::fair().with_max_executions(6);
    let run = |pooling: bool| {
        let (full, _) = logged_run(
            factory,
            Box::new(Dfs::new()),
            config.clone().with_pooling(pooling),
        );

        // Raise the stop flag early in execution 4 (every execution
        // answers 5,000 picks).
        let stop = Arc::new(AtomicBool::new(false));
        let (mut rec, log) = Recording::new(Box::new(Dfs::new()));
        rec.stop_at = Some((3 * 5_000 + 100, Arc::clone(&stop)));
        let seen: Rc<RefCell<Vec<SearchCheckpoint>>> = Rc::default();
        let sink = Rc::clone(&seen);
        let interrupted = Explorer::new(factory, rec, config.clone().with_pooling(pooling))
            .with_stop_flag(stop)
            .with_checkpointing(0, move |c| sink.borrow_mut().push(c.clone()))
            .run();
        assert_eq!(
            interrupted.outcome,
            SearchOutcome::BudgetExhausted(BudgetKind::Cancelled)
        );
        let ckpt = seen.borrow().last().cloned().expect("final checkpoint");
        assert_eq!(ckpt.stats.executions, 3, "rolled back to the boundary");

        let mut strategy = Dfs::new();
        strategy.restore(&ckpt.strategy).unwrap();
        let mut resumed = Explorer::new(factory, strategy, config.clone().with_pooling(pooling))
            .with_initial_stats(ckpt.stats.clone())
            .run();
        resumed.stats.wall = Default::default();
        assert_eq!(resumed, full, "resume converges (pooling {pooling})");
        (full, log.take(), ckpt)
    };
    let (ref_full, ref_log, ref_ckpt) = run(false);
    let (fast_full, fast_log, fast_ckpt) = run(true);
    assert_eq!(ref_full, fast_full);
    assert!(ref_log == fast_log, "interrupted call logs differ");
    assert_eq!(ref_ckpt.strategy, fast_ckpt.strategy);
    let mut ref_stats = ref_ckpt.stats;
    let mut fast_stats = fast_ckpt.stats;
    ref_stats.wall = Default::default();
    fast_stats.wall = Default::default();
    assert_eq!(ref_stats, fast_stats);
}
