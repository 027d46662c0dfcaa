//! Tracing from outside the program: a [`TransitionSystem`] adapter and
//! a [`Strategy`] adapter that time every call the explorer makes into
//! the kernel and the strategy, plus the fair-scheduler replay harness.
//!
//! The explorer takes the system and the strategy as generic
//! parameters, so wrapping them traces a production search without a
//! line of program code changing. Each call site accumulates a call
//! count and the ticks spent inside its span; [`Calibration`] measures
//! what an empty span costs so that timer cost is charged neither to
//! the call sites nor to the explorer's self time.
//!
//! The explorer builds its `FairScheduler` internally, so the fair
//! layer cannot be wrapped. Instead the system adapter records, for a
//! bounded prefix of every search, each step's enabled set before, the
//! chosen thread, the enabled set after and the yield flag; the same
//! sequence is then replayed through the public `FairScheduler` API
//! and timed as one block ([`FairTrace::replay`]).

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use chess_core::strategy::{SchedulePoint, Strategy};
use chess_core::{Decision, FairScheduler, SystemStatus, TransitionSystem};
use chess_kernel::{Footprint, StepKind, ThreadId, TidSet};

/// The timed call sites, named after the modules they enter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// `step`: one kernel transition.
    Step,
    /// `enabled_set(_into)` / `enabled`.
    EnabledSet,
    /// `fingerprint` / `state_bytes(_into)`: the state capture.
    Fingerprint,
    /// `footprint(_into)` / `dependent`: the dependence layer.
    Footprint,
    /// `reset_from`: pooled execution reset.
    Reset,
    /// `status`, `is_yielding`, `branching`, `is_flush`, `thread_count`.
    Query,
    /// `Strategy::pick`, including sleep-set derivation.
    Pick,
    /// `Strategy::on_execution_end`: backtracking.
    ExecutionEnd,
}

impl Site {
    /// Every site, in report order.
    pub const ALL: [Site; 8] = [
        Site::Step,
        Site::EnabledSet,
        Site::Fingerprint,
        Site::Footprint,
        Site::Reset,
        Site::Query,
        Site::Pick,
        Site::ExecutionEnd,
    ];

    /// The metric prefix of this site.
    pub fn name(self) -> &'static str {
        match self {
            Site::Step => "kernel.step",
            Site::EnabledSet => "kernel.enabled_set",
            Site::Fingerprint => "kernel.fingerprint",
            Site::Footprint => "kernel.footprint",
            Site::Reset => "kernel.reset",
            Site::Query => "kernel.query",
            Site::Pick => "strategy.pick",
            Site::ExecutionEnd => "strategy.execution_end",
        }
    }
}

/// Steps recorded per search for the fair-scheduler replay. A bounded
/// prefix keeps the recording cost (which lands in the explorer's self
/// time) negligible next to a whole traced search.
const FAIR_RECORD_CAP: usize = 1 << 16;

/// Steps recorded per tracer, over all its searches.
const FAIR_RECORD_TOTAL: usize = 1 << 20;

/// One recorded explorer step, as the fair scheduler saw it.
#[derive(Debug, Clone, Copy)]
struct FairStep {
    /// First step of an execution: the explorer builds a fresh
    /// scheduler over `threads_before` threads.
    starts_execution: bool,
    threads_before: u8,
    threads_after: u8,
    thread: u8,
    yielded: bool,
    enabled_before: u64,
    enabled_after: u64,
}

/// The recorded decision trace of one or more searches.
#[derive(Debug, Default)]
pub struct FairTrace {
    steps: Vec<FairStep>,
    /// Whether the searches hashed the scheduler state every step (cycle
    /// detection on), so the replay does too.
    with_fingerprint: bool,
}

impl FairTrace {
    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Replays the trace through `FairScheduler::{schedulable_into,
    /// on_scheduled, state_fingerprint}` exactly as the explorer drives
    /// them, returning the elapsed nanoseconds and a digest of the
    /// per-step `state_fingerprint` sequence (zero when `fingerprint` is
    /// off, as the explorer skips the fingerprint without cycle
    /// detection). With `drive` off only the recorded sets are decoded:
    /// the harness's own cost, which [`FairTrace::step_ns`] subtracts.
    pub fn replay(&self, drive: bool, fingerprint: bool) -> (f64, u64) {
        let mut es = TidSet::new();
        let mut es_after = TidSet::new();
        let mut schedulable = TidSet::new();
        let mut fair = FairScheduler::new(0);
        let mut digest = 0u64;
        let start = Instant::now();
        for s in &self.steps {
            fill(&mut es, s.enabled_before);
            fill(&mut es_after, s.enabled_after);
            if !drive {
                std::hint::black_box((&es, &es_after));
                continue;
            }
            if s.starts_execution {
                fair = FairScheduler::with_k(usize::from(s.threads_before), 1);
            }
            fair.schedulable_into(&es, &mut schedulable);
            fair.grow(usize::from(s.threads_after));
            fair.on_scheduled(
                ThreadId::new(usize::from(s.thread)),
                &es,
                &es_after,
                s.yielded,
            );
            if fingerprint {
                digest = (digest ^ fair.state_fingerprint()).wrapping_mul(0x0000_0100_0000_01b3);
            }
            std::hint::black_box(&schedulable);
        }
        (start.elapsed().as_nanos() as f64, digest)
    }

    /// Nanoseconds the fair scheduler spends per explorer step: the
    /// fastest of five driven replays minus the fastest of five
    /// decode-only replays.
    pub fn step_ns(&self) -> f64 {
        if self.steps.is_empty() {
            return 0.0;
        }
        let best = |drive| {
            (0..5)
                .map(|_| self.replay(drive, drive && self.with_fingerprint).0)
                .fold(f64::INFINITY, f64::min)
        };
        ((best(true) - best(false)) / self.steps.len() as f64).max(0.0)
    }
}

fn fill(set: &mut TidSet, mask: u64) {
    set.clear();
    let mut m = mask;
    while m != 0 {
        set.insert(ThreadId::new(m.trailing_zeros() as usize));
        m &= m - 1;
    }
}

/// Bit mask of a thread set, or `None` past 64 threads (recording stops).
fn mask(set: &TidSet) -> Option<u64> {
    let mut m = 0u64;
    for t in set.iter() {
        if t.index() >= 64 {
            return None;
        }
        m |= 1 << t.index();
    }
    Some(m)
}

/// Executions between two calibration blocks.
const CALIBRATE_EVERY: u64 = 256;
/// Empty spans per calibration block.
const CALIBRATION_SPANS: u64 = 2_000;

/// Per-site counters shared by the adapters of the traced searches.
#[derive(Default)]
pub struct Tracer {
    calls: [Cell<u64>; 8],
    nanos: [Cell<u64>; 8],
    fair: RefCell<FairRecorder>,
    executions: Cell<u64>,
    /// Calibration blocks: empty spans timed, the nanoseconds they
    /// reported, and the wall nanoseconds the blocks took.
    cal_spans: Cell<u64>,
    cal_inside: Cell<u64>,
    cal_wall: Cell<u64>,
}

#[derive(Default)]
struct FairRecorder {
    trace: FairTrace,
    /// Steps recorded for the current search.
    this_search: usize,
    last_enabled: u64,
    /// A step awaiting its post-step enabled set.
    pending: Option<FairStep>,
    disabled: bool,
}

impl FairRecorder {
    fn full(&self) -> bool {
        self.disabled
            || self.this_search >= FAIR_RECORD_CAP
            || self.trace.steps.len() >= FAIR_RECORD_TOTAL
    }
}

impl Tracer {
    /// A tracer, recording the fair scheduler's input.
    pub fn new() -> Rc<Tracer> {
        Rc::new(Tracer::default())
    }

    /// Stops recording the fair scheduler's input.
    pub fn stop_fair_recording(&self) {
        self.fair.borrow_mut().disabled = true;
    }

    #[inline(always)]
    fn time<R>(&self, site: Site, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        let dt = start.elapsed().as_nanos() as u64;
        let i = site as usize;
        self.calls[i].set(self.calls[i].get() + 1);
        self.nanos[i].set(self.nanos[i].get() + dt);
        r
    }

    /// Times a block of empty spans through the same code path as the
    /// real ones. Blocks run at the start of every search and every
    /// [`CALIBRATE_EVERY`] executions, so the calibration sees the same
    /// phases of the host as the spans it corrects.
    fn calibrate(&self) {
        let empty = Tracer::default();
        let start = Instant::now();
        for i in 0..CALIBRATION_SPANS {
            empty.time(Site::Query, || std::hint::black_box(i));
        }
        let wall = start.elapsed().as_nanos() as u64;
        let (spans, inside) = empty.totals(Site::Query);
        self.cal_spans.set(self.cal_spans.get() + spans);
        self.cal_inside.set(self.cal_inside.get() + inside);
        self.cal_wall.set(self.cal_wall.get() + wall);
    }

    /// The calibration measured over this tracer's blocks.
    pub fn calibration(&self) -> Calibration {
        let spans = self.cal_spans.get().max(1) as f64;
        let inside_ns = self.cal_inside.get() as f64 / spans;
        Calibration {
            inside_ns,
            total_ns: (self.cal_wall.get() as f64 / spans).max(inside_ns),
            blocks_s: self.cal_wall.get() as f64 / 1e9,
        }
    }

    /// Calls and raw span nanoseconds of `site`.
    pub fn totals(&self, site: Site) -> (u64, u64) {
        let i = site as usize;
        (self.calls[i].get(), self.nanos[i].get())
    }

    /// Total spans timed.
    pub fn spans(&self) -> u64 {
        self.calls.iter().map(Cell::get).sum()
    }

    /// Marks the start of a traced search: runs a calibration block and
    /// starts a new search's fair-scheduler recording.
    pub fn begin_search(&self, cycle_detection: bool) {
        self.calibrate();
        let mut rec = self.fair.borrow_mut();
        rec.this_search = 0;
        rec.pending = None;
        rec.trace.with_fingerprint |= cycle_detection;
    }

    /// Takes the recorded fair-scheduler trace.
    pub fn take_fair_trace(&self) -> FairTrace {
        std::mem::take(&mut self.fair.borrow_mut().trace)
    }

    fn record_enabled(&self, set: &TidSet) {
        let mut rec = self.fair.borrow_mut();
        if rec.full() {
            return;
        }
        let Some(m) = mask(set) else {
            rec.disabled = true;
            return;
        };
        rec.last_enabled = m;
        if let Some(mut step) = rec.pending.take() {
            step.enabled_after = m;
            rec.trace.steps.push(step);
            rec.this_search += 1;
        }
    }

    fn record_step(&self, fresh: bool, threads: (usize, usize), t: ThreadId, kind: StepKind) {
        let mut rec = self.fair.borrow_mut();
        if rec.full() {
            return;
        }
        if threads.1 > 64 {
            rec.disabled = true;
            return;
        }
        rec.pending = Some(FairStep {
            starts_execution: fresh,
            threads_before: threads.0 as u8,
            threads_after: threads.1 as u8,
            thread: t.index() as u8,
            yielded: kind.is_yield(),
            enabled_before: rec.last_enabled,
            enabled_after: 0,
        });
    }
}

/// The system adapter: times every call into the wrapped system and
/// records the fair scheduler's input.
pub struct TracedSys<P> {
    inner: P,
    tracer: Rc<Tracer>,
    /// No step taken since this instance was built or reset: the next
    /// step starts an execution.
    fresh: bool,
    /// Thread count when the current execution started.
    threads_at_start: usize,
}

impl<P: TransitionSystem> TracedSys<P> {
    /// Wraps a freshly built system.
    pub fn new(inner: P, tracer: Rc<Tracer>) -> Self {
        let threads_at_start = inner.thread_count();
        TracedSys {
            inner,
            tracer,
            fresh: true,
            threads_at_start,
        }
    }
}

impl<P: TransitionSystem> TransitionSystem for TracedSys<P> {
    fn thread_count(&self) -> usize {
        self.tracer.time(Site::Query, || self.inner.thread_count())
    }

    fn enabled(&self, t: ThreadId) -> bool {
        self.tracer.time(Site::EnabledSet, || self.inner.enabled(t))
    }

    fn enabled_set(&self) -> TidSet {
        let set = self
            .tracer
            .time(Site::EnabledSet, || self.inner.enabled_set());
        self.tracer.record_enabled(&set);
        set
    }

    fn enabled_set_into(&self, out: &mut TidSet) {
        self.tracer
            .time(Site::EnabledSet, || self.inner.enabled_set_into(out));
        self.tracer.record_enabled(out);
    }

    fn reset_from(&mut self, template: &Self) -> bool {
        let inner = &mut self.inner;
        let ok = self
            .tracer
            .time(Site::Reset, || inner.reset_from(&template.inner));
        self.fresh = true;
        self.threads_at_start = self.inner.thread_count();
        ok
    }

    fn is_yielding(&self, t: ThreadId) -> bool {
        self.tracer.time(Site::Query, || self.inner.is_yielding(t))
    }

    fn branching(&self, t: ThreadId) -> usize {
        self.tracer.time(Site::Query, || self.inner.branching(t))
    }

    fn step(&mut self, t: ThreadId, choice: u32) -> StepKind {
        let inner = &mut self.inner;
        let kind = self.tracer.time(Site::Step, || inner.step(t, choice));
        let before = if self.fresh { self.threads_at_start } else { 0 };
        self.tracer
            .record_step(self.fresh, (before, self.inner.thread_count()), t, kind);
        self.fresh = false;
        kind
    }

    fn footprint(&self, t: ThreadId) -> Footprint {
        self.tracer
            .time(Site::Footprint, || self.inner.footprint(t))
    }

    fn footprint_into(&self, t: ThreadId, fp: &mut Footprint) {
        self.tracer
            .time(Site::Footprint, || self.inner.footprint_into(t, fp))
    }

    fn dependent(&self, a: ThreadId, b: ThreadId) -> bool {
        self.tracer
            .time(Site::Footprint, || self.inner.dependent(a, b))
    }

    fn is_flush(&self, t: ThreadId) -> bool {
        self.tracer.time(Site::Query, || self.inner.is_flush(t))
    }

    fn status(&self) -> SystemStatus {
        self.tracer.time(Site::Query, || self.inner.status())
    }

    fn fingerprint(&self) -> u64 {
        self.tracer
            .time(Site::Fingerprint, || self.inner.fingerprint())
    }

    fn state_bytes(&self) -> Vec<u8> {
        self.tracer
            .time(Site::Fingerprint, || self.inner.state_bytes())
    }

    fn state_bytes_into(&self, out: &mut Vec<u8>) {
        self.tracer
            .time(Site::Fingerprint, || self.inner.state_bytes_into(out))
    }

    fn describe_op(&self, t: ThreadId) -> String {
        self.inner.describe_op(t)
    }

    fn thread_name(&self, t: ThreadId) -> String {
        self.inner.thread_name(t)
    }
}

/// The strategy adapter: times `pick` and `on_execution_end`.
pub struct TracedStrategy<St> {
    inner: St,
    tracer: Rc<Tracer>,
}

impl<St: Strategy> TracedStrategy<St> {
    /// Wraps a strategy.
    pub fn new(inner: St, tracer: Rc<Tracer>) -> Self {
        TracedStrategy { inner, tracer }
    }
}

impl<St: Strategy> Strategy for TracedStrategy<St> {
    fn pick(&mut self, point: &SchedulePoint<'_>) -> Option<Decision> {
        let inner = &mut self.inner;
        self.tracer.time(Site::Pick, || inner.pick(point))
    }

    fn on_execution_end(&mut self) -> bool {
        let inner = &mut self.inner;
        let more = self
            .tracer
            .time(Site::ExecutionEnd, || inner.on_execution_end());
        let n = self.tracer.executions.get() + 1;
        self.tracer.executions.set(n);
        if n.is_multiple_of(CALIBRATE_EVERY) {
            self.tracer.calibrate();
        }
        more
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn wants_footprints(&self) -> bool {
        self.inner.wants_footprints()
    }
}

/// What one timed span costs, measured in the traced process itself.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Nanoseconds an empty span reports: subtracted from every call.
    pub inside_ns: f64,
    /// Wall nanoseconds an empty span costs in total (both clock reads
    /// plus the bookkeeping): charged to neither a site nor self time.
    pub total_ns: f64,
    /// Wall seconds the calibration blocks themselves took.
    pub blocks_s: f64,
}
