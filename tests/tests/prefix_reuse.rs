//! Prefix reuse does less work and stays within its memory bound.
//!
//! With pooling on, `Explorer::run` resumes each execution from a
//! snapshot on the schedule prefix it shares with the previous one
//! instead of re-executing that prefix (DESIGN.md §12.4). A counting
//! `TransitionSystem` wrapper shows both halves of the bargain from
//! outside the explorer: fewer `step` calls than the transitions the
//! report counts, and never more system instances alive than the
//! snapshot cap allows.

use std::cell::Cell;
use std::rc::Rc;

use chess_core::strategy::ContextBounded;
use chess_core::{Config, Explorer, SearchOutcome, SearchReport, SystemStatus, TransitionSystem};
use chess_kernel::{Footprint, StepKind, ThreadId, TidSet};
use chess_workloads::channels::{fifo_pipeline, ChannelBug, FifoConfig};
use chess_workloads::wsq::{wsq, WsqConfig};

/// The most snapshots the explorer keeps alive at once.
const SNAPSHOT_CAP: usize = 64;

#[derive(Default)]
struct Counters {
    steps: Cell<u64>,
    live: Cell<usize>,
    peak: Cell<usize>,
}

/// Forwards every call to `inner`, counting steps and live instances.
struct Counted<P> {
    inner: P,
    counters: Rc<Counters>,
}

impl<P> Counted<P> {
    fn new(inner: P, counters: &Rc<Counters>) -> Self {
        let live = counters.live.get() + 1;
        counters.live.set(live);
        counters.peak.set(counters.peak.get().max(live));
        Counted {
            inner,
            counters: Rc::clone(counters),
        }
    }
}

impl<P> Drop for Counted<P> {
    fn drop(&mut self) {
        self.counters.live.set(self.counters.live.get() - 1);
    }
}

impl<P: TransitionSystem> TransitionSystem for Counted<P> {
    fn thread_count(&self) -> usize {
        self.inner.thread_count()
    }
    fn enabled(&self, t: ThreadId) -> bool {
        self.inner.enabled(t)
    }
    fn enabled_set(&self) -> TidSet {
        self.inner.enabled_set()
    }
    fn enabled_set_into(&self, out: &mut TidSet) {
        self.inner.enabled_set_into(out)
    }
    fn reset_from(&mut self, template: &Self) -> bool {
        self.inner.reset_from(&template.inner)
    }
    fn is_yielding(&self, t: ThreadId) -> bool {
        self.inner.is_yielding(t)
    }
    fn branching(&self, t: ThreadId) -> usize {
        self.inner.branching(t)
    }
    fn step(&mut self, t: ThreadId, choice: u32) -> StepKind {
        self.counters.steps.set(self.counters.steps.get() + 1);
        self.inner.step(t, choice)
    }
    fn footprint(&self, t: ThreadId) -> Footprint {
        self.inner.footprint(t)
    }
    fn footprint_into(&self, t: ThreadId, fp: &mut Footprint) {
        self.inner.footprint_into(t, fp)
    }
    fn dependent(&self, a: ThreadId, b: ThreadId) -> bool {
        self.inner.dependent(a, b)
    }
    fn is_flush(&self, t: ThreadId) -> bool {
        self.inner.is_flush(t)
    }
    fn status(&self) -> SystemStatus {
        self.inner.status()
    }
    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }
    fn state_bytes(&self) -> Vec<u8> {
        self.inner.state_bytes()
    }
    fn state_bytes_into(&self, out: &mut Vec<u8>) {
        self.inner.state_bytes_into(out)
    }
    fn describe_op(&self, t: ThreadId) -> String {
        self.inner.describe_op(t)
    }
    fn thread_name(&self, t: ThreadId) -> String {
        self.inner.thread_name(t)
    }
}

/// Runs a counted search; returns the report (wall time zeroed) and the
/// counters.
fn counted_run<P, F>(factory: F, bound: u32, config: Config) -> (SearchReport, Rc<Counters>)
where
    P: TransitionSystem,
    F: Fn() -> P,
{
    let counters = Rc::new(Counters::default());
    let c = Rc::clone(&counters);
    let mut report = Explorer::new(
        move || Counted::new(factory(), &c),
        ContextBounded::new(bound),
        config,
    )
    .run();
    report.stats.wall = Default::default();
    (report, counters)
}

/// Fair cb:2 on the work-stealing queue: with prefix reuse most
/// transitions are restored, not stepped; without pooling every
/// transition is a `step` call.
#[test]
fn prefix_reuse_steps_less_than_it_counts() {
    let config = Config::fair().with_max_executions(3_000);
    let factory = || wsq(WsqConfig::table2(1));
    let (reused, fast) = counted_run(factory, 2, config.clone());
    let (scratch, reference) = counted_run(factory, 2, config.with_pooling(false));
    assert_eq!(reused, scratch, "prefix reuse changed the report");
    let transitions = scratch.stats.transitions;
    assert_eq!(reference.steps.get(), transitions);
    assert!(
        fast.steps.get() < transitions,
        "prefix reuse stepped {} times for {transitions} transitions",
        fast.steps.get()
    );
}

/// Channel bug 1 livelocks its pipeline until the 100,000-step depth
/// bound. Continuing past the divergence makes later executions re-walk
/// that whole execution, snapshotting along it: the stack thins and
/// doubles its stride instead of growing, so the system instances alive
/// at once (template, the running system, the snapshot slots) never
/// exceed the cap plus two.
#[test]
fn snapshot_stack_stays_within_its_cap_on_a_deep_execution() {
    let config = Config::fair()
        .with_detect_cycles(false)
        .with_stop_on_error(false)
        .with_max_executions(5);
    let factory = || fifo_pipeline(FifoConfig::with_bug(ChannelBug::CreditLeak));
    let (report, counters) = counted_run(factory, 2, config.clone());
    assert!(
        matches!(report.outcome, SearchOutcome::BudgetExhausted(_)),
        "{:?}",
        report.outcome
    );
    assert!(
        report.stats.max_depth >= 100_000,
        "expected a depth-bound execution: {:?}",
        report.stats
    );
    let peak = counters.peak.get();
    assert!(
        peak <= SNAPSHOT_CAP + 2,
        "{peak} system instances alive at once"
    );
    assert!(
        peak > SNAPSHOT_CAP / 2,
        "only {peak} instances alive at once: no snapshots were taken"
    );
    let (scratch, _) = counted_run(factory, 2, config.with_pooling(false));
    assert_eq!(report, scratch, "prefix reuse changed the report");
}
