//! The searches the benchmark runs, with their known answers, and the
//! three ways of running one: plain (end-to-end timing), traced
//! (per-layer timing) and as a set-up probe.

use std::rc::Rc;
use std::time::Instant;

use chess_core::strategy::{ContextBounded, RandomWalk, SchedulePoint, Strategy};
use chess_core::{Config, Decision, Explorer, SearchOutcome, SearchReport};
use chess_kernel::{Capture, Kernel};
use chess_workloads::boundedbuffer::{bounded_buffer, BufferConfig};
use chess_workloads::channels::{fifo_pipeline, ChannelBug, FifoConfig};
use chess_workloads::philosophers::{philosophers, PhilosophersConfig};
use chess_workloads::rwcache::{rw_cache, RwCacheConfig};
use chess_workloads::simple::locked_counter;
use chess_workloads::treiber::{treiber_stack, TreiberConfig};
use chess_workloads::wsq::{wsq, WsqBug, WsqConfig};

use crate::trace::{TracedStrategy, TracedSys, Tracer};

/// Executions per segment of the segment clock (see [`Clocked`]).
pub const SEGMENT: u64 = 512;

/// How to run a search.
pub enum Run<'a> {
    /// Production types, plus a wall-clock mark every [`SEGMENT`]
    /// completed executions.
    Plain(&'a mut Vec<Instant>),
    /// Through the timing adapters.
    Traced(&'a Rc<Tracer>),
    /// Print `ready` and exit the process at the first scheduling
    /// decision (the set-up probe).
    Probe,
}

/// One search the benchmark can run.
pub trait Search {
    /// A short human-readable label.
    fn label(&self) -> &str;
    /// Runs the search to its verdict.
    fn run(&self, how: Run<'_>) -> SearchReport;
}

struct Spec<F, M> {
    label: String,
    factory: F,
    strategy: M,
    config: Config,
}

impl<S, F, M, St> Search for Spec<F, M>
where
    S: Capture + Clone + 'static,
    F: Fn() -> Kernel<S>,
    M: Fn() -> St,
    St: Strategy,
{
    fn label(&self) -> &str {
        &self.label
    }

    fn run(&self, how: Run<'_>) -> SearchReport {
        let config = self.config.clone();
        let strategy = (self.strategy)();
        match how {
            Run::Plain(marks) => {
                Explorer::new(&self.factory, Clocked::new(strategy, marks), config).run()
            }
            Run::Traced(tracer) => {
                tracer.begin_search(self.config.detect_cycles);
                let factory = || TracedSys::new((self.factory)(), Rc::clone(tracer));
                let strategy = TracedStrategy::new(strategy, Rc::clone(tracer));
                Explorer::new(factory, strategy, config).run()
            }
            Run::Probe => Explorer::new(&self.factory, FirstPick(strategy), config).run(),
        }
    }
}

fn spec<S, F, M, St>(label: &str, factory: F, strategy: M, config: Config) -> Box<dyn Search>
where
    S: Capture + Clone + 'static,
    F: Fn() -> Kernel<S> + 'static,
    M: Fn() -> St + 'static,
    St: Strategy + 'static,
{
    Box::new(Spec {
        label: label.to_string(),
        factory,
        strategy,
        config,
    })
}

/// The segment clock: a pass-through strategy that reads the wall clock
/// once every [`SEGMENT`] completed executions. A search is
/// deterministic, so segment `i` is the same work in every pass, and
/// the benchmark can take each segment's fastest pass.
struct Clocked<'a, St> {
    inner: St,
    ended: u64,
    marks: &'a mut Vec<Instant>,
}

impl<'a, St> Clocked<'a, St> {
    fn new(inner: St, marks: &'a mut Vec<Instant>) -> Self {
        marks.clear();
        Clocked {
            inner,
            ended: 0,
            marks,
        }
    }
}

impl<St: Strategy> Strategy for Clocked<'_, St> {
    fn pick(&mut self, point: &SchedulePoint<'_>) -> Option<Decision> {
        self.inner.pick(point)
    }

    fn on_execution_end(&mut self) -> bool {
        self.ended += 1;
        if self.ended.is_multiple_of(SEGMENT) {
            self.marks.push(Instant::now());
        }
        self.inner.on_execution_end()
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn wants_footprints(&self) -> bool {
        self.inner.wants_footprints()
    }
}

/// The set-up probe's strategy: the first scheduling decision marks the
/// end of set-up, so report it and exit.
struct FirstPick<St>(St);

impl<St: Strategy> Strategy for FirstPick<St> {
    fn pick(&mut self, _: &SchedulePoint<'_>) -> Option<Decision> {
        println!("ready");
        std::process::exit(0);
    }

    fn on_execution_end(&mut self) -> bool {
        self.0.on_execution_end()
    }

    fn name(&self) -> String {
        self.0.name()
    }

    fn wants_footprints(&self) -> bool {
        self.0.wants_footprints()
    }
}

/// The outcome kind of a report, as the known answers spell it.
fn outcome_kind(outcome: &SearchOutcome) -> &'static str {
    match outcome {
        SearchOutcome::Complete => "complete",
        SearchOutcome::SafetyViolation(_) => "safety",
        SearchOutcome::Deadlock(_) => "deadlock",
        SearchOutcome::Panic(_) => "panic",
        SearchOutcome::Divergence(_) => "divergence",
        SearchOutcome::BudgetExhausted(_) => "budget",
    }
}

/// A search's expected verdict.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// [`outcome_kind`] of the verdict.
    pub kind: &'static str,
    /// Executions to the verdict.
    pub executions: u64,
    /// Transitions to the verdict, where pinned.
    pub transitions: Option<u64>,
}

impl Answer {
    /// Why `report` does not match this answer, if it does not.
    pub fn mismatch(&self, report: &SearchReport) -> Option<String> {
        let kind = outcome_kind(&report.outcome);
        let stats = &report.stats;
        let transitions_ok = self.transitions.is_none_or(|t| t == stats.transitions);
        if kind == self.kind && stats.executions == self.executions && transitions_ok {
            return None;
        }
        Some(format!(
            "got {kind} after {} executions / {} transitions, expected {} after {} executions{}",
            stats.executions,
            stats.transitions,
            self.kind,
            self.executions,
            self.transitions
                .map(|t| format!(" / {t} transitions"))
                .unwrap_or_default()
        ))
    }
}

/// A search paired with its known answer.
pub struct Known {
    /// The search.
    pub search: Box<dyn Search>,
    /// Its verdict.
    pub answer: Answer,
}

fn known(
    search: Box<dyn Search>,
    kind: &'static str,
    executions: u64,
    transitions: Option<u64>,
) -> Known {
    Known {
        search,
        answer: Answer {
            kind,
            executions,
            transitions,
        },
    }
}

/// The searches of a search workload, or `None` if `workload` is not one.
///
/// All three are seed-independent by design: two are exhaustive and the
/// third is a deterministic context-bounded search, so their inputs are
/// fixed and only their timing varies from run to run.
pub fn workload_searches(workload: &str) -> Option<Vec<Known>> {
    match workload {
        "exhaust" => Some(vec![known(
            spec(
                "philosophers(3) fair cb:4",
                || philosophers(PhilosophersConfig::table2(3)),
                || ContextBounded::new(4),
                Config::fair(),
            ),
            "complete",
            67_819,
            Some(2_061_970),
        )]),
        "exhaust-reduced" => Some(vec![known(
            spec(
                "wsq(2) fair cb:2 sleep-sets",
                || wsq(WsqConfig::table2(2)),
                || ContextBounded::with_sleep_sets(2),
                Config::fair(),
            ),
            "complete",
            81_990,
            Some(7_158_226),
        )]),
        "first-bug" => Some(first_bug()),
        _ => None,
    }
}

/// The seven Table 3 fair hunts, in the paper's order.
fn first_bug() -> Vec<Known> {
    let config = || Config::fair().with_detect_cycles(false);
    let cb2 = || ContextBounded::new(2);
    let mut out = Vec::new();
    for (label, bug, executions) in [
        ("wsq bug 1", WsqBug::UnlockedConflictPop, 59_246),
        ("wsq bug 2", WsqBug::UnsynchronizedSteal, 9_702),
        ("wsq bug 3", WsqBug::LostTailRestore, 15_886),
    ] {
        out.push(known(
            spec(label, move || wsq(WsqConfig::with_bug(bug)), cb2, config()),
            "safety",
            executions,
            None,
        ));
    }
    for (label, bug, kind, executions) in [
        ("channel bug 1", ChannelBug::CreditLeak, "divergence", 1),
        ("channel bug 2", ChannelBug::RacySequence, "safety", 17_243),
        ("channel bug 3", ChannelBug::EagerShutdown, "safety", 1),
        ("channel bug 4", ChannelBug::DrainingShutdown, "safety", 661),
    ] {
        out.push(known(
            spec(
                label,
                move || fifo_pipeline(FifoConfig::with_bug(bug)),
                cb2,
                config(),
            ),
            kind,
            executions,
            None,
        ));
    }
    out
}

/// A campaign check job run in-process: the same search a daemon worker
/// runs for `{"workload": workload, "strategy": "random:<seed>",
/// "max_executions": executions}`.
pub fn campaign_job(workload: &str, seed: u64, executions: u64) -> Box<dyn Search> {
    let config = Config::fair().with_max_executions(executions);
    let random = move || RandomWalk::new(seed);
    let label = format!("{workload} random:{seed}");
    match workload {
        "counter" => spec(&label, || locked_counter(2), random, config),
        "treiber" => spec(
            &label,
            || treiber_stack(TreiberConfig::correct()),
            random,
            config,
        ),
        "rwcache" => spec(
            &label,
            || rw_cache(RwCacheConfig::correct()),
            random,
            config,
        ),
        "boundedbuffer" => spec(
            &label,
            || bounded_buffer(BufferConfig::correct()),
            random,
            config,
        ),
        other => panic!("no campaign job workload {other:?}"),
    }
}

/// The job workloads a campaign draws from.
pub const CAMPAIGN_WORKLOADS: [&str; 4] = ["counter", "treiber", "rwcache", "boundedbuffer"];
