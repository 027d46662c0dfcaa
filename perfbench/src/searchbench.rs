//! The three search workloads: `exhaust`, `exhaust-reduced` and
//! `first-bug`.
//!
//! A run repeats the workload's searches in passes until `--seconds`
//! have elapsed (the last pass always completes) and checks every
//! verdict against its known answer. Untraced passes give the
//! end-to-end metrics; with `--trace 1`, untraced and traced passes
//! alternate on one thread and give the per-layer metrics.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::rc::Rc;
use std::time::{Duration, Instant};

use chess_core::SearchReport;

use crate::report::Outcome;
use crate::search::{workload_searches, Known, Run};
use crate::stats::{median, peak_rss_mb, quantile};
use crate::trace::{FairTrace, Site, Tracer};

/// Set-up probes per burst. Bursts run before the first pass, after it
/// and after the last one (never beside the second search thread, which
/// would slow the probes); `setup_s` is the median of the fastest burst
/// (see NOTES.md).
const SETUP_BURST: usize = 9;

/// One untraced search: its report and segment-clock durations.
struct Timed {
    report: SearchReport,
    wall: f64,
    /// Seconds per segment of [`crate::search::SEGMENT`] executions.
    segments: Vec<f64>,
}

fn plain_pass(searches: &[Known]) -> Vec<Timed> {
    let mut marks = Vec::new();
    searches
        .iter()
        .map(|k| {
            let start = Instant::now();
            let report = k.search.run(Run::Plain(&mut marks));
            let end = Instant::now();
            let mut segments = Vec::with_capacity(marks.len() + 1);
            let mut prev = start;
            for &m in marks.iter().chain(std::iter::once(&end)) {
                segments.push((m - prev).as_secs_f64());
                prev = m;
            }
            Timed {
                report,
                wall: (end - start).as_secs_f64(),
                segments,
            }
        })
        .collect()
}

/// Checks one pass's reports, counting each mismatch in `out`.
fn verify<'a>(
    searches: &[Known],
    reports: impl Iterator<Item = &'a SearchReport>,
    pass: &str,
    out: &mut Outcome,
) {
    for (k, report) in searches.iter().zip(reports) {
        out.attempted += 1;
        if let Some(why) = k.answer.mismatch(report) {
            out.fail(format!("{pass} pass, {}: {why}", k.search.label()));
        }
    }
}

/// One burst of set-up probes: the median over [`SETUP_BURST`] fresh
/// processes of process start to the first scheduling decision,
/// measured from outside.
fn setup_burst(workload: &str) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut samples = Vec::with_capacity(SETUP_BURST);
    for _ in 0..SETUP_BURST {
        let start = Instant::now();
        let mut child = Command::new(&exe)
            .args(["--probe-setup", workload])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn set-up probe: {e}"))?;
        let mut line = String::new();
        let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
        let elapsed = start.elapsed().as_secs_f64();
        let status = child
            .wait()
            .map_err(|e| format!("wait set-up probe: {e}"))?;
        match read {
            Ok(_) if line.trim() == "ready" && status.success() => samples.push(elapsed),
            _ => return Err(format!("set-up probe failed ({status}, said {line:?})")),
        }
    }
    Ok(median(&samples))
}

/// Runs a search workload for `seconds` and returns its outcome.
pub fn run(workload: &str, searches: &[Known], seconds: u64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    if trace {
        traced_run(searches, deadline, &mut out);
        return out;
    }
    match untraced_run(workload, searches, deadline, &mut out) {
        Ok(()) => {}
        Err(e) => out.fail(e),
    }
    out
}

/// The end-to-end run. A solo first pass, after which the peak RSS is
/// read, then passes on every vCPU until the deadline: a second thread
/// runs its own copy of the searches. Each pass is still one
/// single-threaded search; two copies double the samples of every
/// segment.
fn untraced_run(
    workload: &str,
    searches: &[Known],
    deadline: Instant,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut bursts = vec![setup_burst(workload)?];
    let mut plain = vec![plain_pass(searches)];
    let rss = peak_rss_mb("self");
    bursts.push(setup_burst(workload)?);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let helper = (cpus > 1).then(|| {
        let workload = workload.to_string();
        std::thread::spawn(move || {
            let searches = workload_searches(&workload).expect("a search workload");
            passes_until(&searches, deadline)
        })
    });
    plain.extend(passes_until(searches, deadline));
    if let Some(helper) = helper {
        match helper.join() {
            Ok(passes) => plain.extend(passes),
            Err(_) => out.fail("the second search thread panicked".into()),
        }
    }
    bursts.push(setup_burst(workload)?);
    for pass in &plain {
        verify(searches, pass.iter().map(|t| &t.report), "untraced", out);
    }
    out.note(format!(
        "available parallelism {cpus}: passes ran on {} thread(s); set-up bursts (median s): {:.6?}",
        if cpus > 1 { 2 } else { 1 },
        bursts
    ));
    let setup = quantile(&bursts, 0.0);
    end_to_end_metrics(searches, setup, rss, &plain, out);
    Ok(())
}

/// Untraced passes until `deadline`, at least one.
fn passes_until(searches: &[Known], deadline: Instant) -> Vec<Vec<Timed>> {
    let mut passes = Vec::new();
    while passes.is_empty() || Instant::now() < deadline {
        passes.push(plain_pass(searches));
    }
    passes
}

/// Alternates untraced and traced passes on one thread until
/// `deadline` and emits the per-layer metrics.
fn traced_run(searches: &[Known], deadline: Instant, out: &mut Outcome) {
    let tracer = Tracer::new();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    while plain.is_empty() || Instant::now() < deadline {
        let pass = plain_pass(searches);
        verify(searches, pass.iter().map(|t| &t.report), "untraced", out);
        plain.push(pass);
        let pass = traced_pass(searches, &tracer);
        verify(searches, pass.reports.iter(), "traced", out);
        traced.push(pass);
        // One pass's fair-scheduler trace is enough for the replay.
        tracer.stop_fair_recording();
    }
    layer_metrics(searches, &plain, &traced, &tracer, out);
}

/// Per search, the sum over its segments of the fastest pass's segment
/// time: the search's time to verdict with the host's slow phases
/// filtered out segment by segment.
fn best_latencies(plain: &[Vec<Timed>], out: &mut Outcome) -> Vec<f64> {
    let first = &plain[0];
    (0..first.len())
        .map(|j| {
            let n = first[j].segments.len();
            let mut best = vec![f64::INFINITY; n];
            for pass in plain {
                if pass[j].segments.len() != n {
                    out.fail("a search ran a different number of segments across passes".into());
                    continue;
                }
                for (b, s) in best.iter_mut().zip(&pass[j].segments) {
                    *b = b.min(*s);
                }
            }
            best.iter().sum()
        })
        .collect()
}

fn end_to_end_metrics(
    searches: &[Known],
    setup: f64,
    rss: Option<f64>,
    plain: &[Vec<Timed>],
    out: &mut Outcome,
) {
    let latencies = best_latencies(plain, out);
    let verdict: f64 = latencies.iter().sum();
    let executions: u64 = plain[0].iter().map(|t| t.report.stats.executions).sum();
    out.metric("setup_s", setup, "s");
    out.metric("verdict_s", verdict, "s");
    out.metric("executions", executions as f64, "count");
    out.metric("job_latency_p50_s", quantile(&latencies, 0.5), "s");
    out.metric("job_latency_p90_s", quantile(&latencies, 0.9), "s");
    out.metric("jobs_per_s", searches.len() as f64 / verdict, "1/s");
    match rss {
        Some(mb) => out.metric("peak_rss_mb", mb, "MiB"),
        None => out.fail("no VmHWM in /proc/self/status".into()),
    }
    let walls: Vec<f64> = plain
        .iter()
        .map(|pass| pass.iter().map(|t| t.wall).sum())
        .collect();
    out.note(format!(
        "{} passes of {} searches; job latency samples: {} searches (segment-best over passes); \
         whole-pass wall s: {:.4?}",
        plain.len(),
        searches.len(),
        latencies.len(),
        walls,
    ));
}

/// One traced pass: its reports and wall time.
struct TracedPass {
    reports: Vec<SearchReport>,
    wall: f64,
}

fn traced_pass(searches: &[Known], tracer: &Rc<Tracer>) -> TracedPass {
    let start = Instant::now();
    let reports = searches
        .iter()
        .map(|k| k.search.run(Run::Traced(tracer)))
        .collect();
    TracedPass {
        reports,
        wall: start.elapsed().as_secs_f64(),
    }
}

/// Replays a recorded fair-scheduler trace twice with fingerprints to
/// check the replay is deterministic, then times it. Returns
/// nanoseconds per replayed step.
pub fn fair_step_ns(fair: &FairTrace, out: &mut Outcome) -> f64 {
    let (_, a) = fair.replay(true, true);
    let (_, b) = fair.replay(true, true);
    if a != b {
        out.fail(format!(
            "fair-scheduler replay is not deterministic: state_fingerprint digests {a:016x} != {b:016x}"
        ));
    }
    fair.step_ns()
}

/// The per-layer metrics of one or more traced search passes.
pub struct LayerInput<'a> {
    /// The tracer shared by the traced passes.
    pub tracer: &'a Tracer,
    /// Traced passes.
    pub passes: usize,
    /// Traced wall seconds, summed over the traced passes.
    pub traced_wall: f64,
    /// Untraced wall seconds of the same work, summed over as many passes.
    pub untraced_wall: f64,
    /// Reports of one traced pass.
    pub reports: Vec<&'a SearchReport>,
    /// Nanoseconds per fair-scheduler step, from the replay.
    pub fair_ns: f64,
}

/// Emits every kernel, strategy, fair and explorer layer metric.
pub fn emit_layers(input: &LayerInput<'_>, out: &mut Outcome) {
    let passes = input.passes as f64;
    let cal = input.tracer.calibration();
    let spans = input.tracer.spans();
    // Wall time net of the timer's own cost and of the calibration
    // blocks: the denominator of every share, so the shares and the
    // explorer's self share sum to one.
    let net = (input.traced_wall - cal.blocks_s) * 1e9 - spans as f64 * cal.total_ns;
    let transitions: u64 = input.reports.iter().map(|r| r.stats.transitions).sum();
    let executions: u64 = input.reports.iter().map(|r| r.stats.executions).sum();
    let abandoned: u64 = input.reports.iter().map(|r| r.stats.abandoned).sum();
    let mut busy_total = 0.0;
    let mut layer = |name: &str, calls: f64, ns_per_call: f64, out: &mut Outcome| {
        let busy = calls * ns_per_call * passes;
        busy_total += busy;
        out.metric(&format!("{name}.calls"), calls, "count");
        out.metric(&format!("{name}.ns_per_call"), ns_per_call, "ns");
        out.metric(&format!("{name}.share"), busy / net, "ratio");
    };
    for site in Site::ALL {
        let (calls, nanos) = input.tracer.totals(site);
        let ns = if calls == 0 {
            0.0
        } else {
            (nanos as f64 / calls as f64 - cal.inside_ns).max(0.0)
        };
        layer(site.name(), calls as f64 / passes, ns, out);
    }
    // The explorer calls the fair scheduler once per transition.
    layer("fair.step", transitions as f64, input.fair_ns, out);
    // Not clamped: a negative self time would expose a calibration
    // that overstates the sites, instead of hiding it.
    let self_ns = net - busy_total;
    out.metric("explore.self_s", self_ns / 1e9 / passes, "s");
    out.metric("explore.self_share", self_ns / net, "ratio");
    out.metric(
        "explore.steps_per_s",
        transitions as f64 * passes / input.untraced_wall.max(1e-9),
        "1/s",
    );
    out.metric(
        "explore.abandoned_ratio",
        abandoned as f64 / executions.max(1) as f64,
        "ratio",
    );
    out.metric(
        "trace.overhead_ratio",
        (input.traced_wall - cal.blocks_s) / input.untraced_wall.max(1e-9),
        "ratio",
    );
    out.metric("trace.span_ns", cal.total_ns, "ns");
    out.note(format!(
        "timer calibration: empty span reads {:.1} ns, costs {:.1} ns; {spans} spans",
        cal.inside_ns, cal.total_ns
    ));
}

fn layer_metrics(
    searches: &[Known],
    plain: &[Vec<Timed>],
    traced: &[TracedPass],
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let fair = tracer.take_fair_trace();
    let fair_ns = fair_step_ns(&fair, out);
    let n = traced.len();
    let input = LayerInput {
        tracer,
        passes: n,
        traced_wall: traced.iter().map(|p| p.wall).sum(),
        untraced_wall: plain[..n]
            .iter()
            .map(|pass| pass.iter().map(|t| t.wall).sum::<f64>())
            .sum(),
        reports: traced[0].reports.iter().collect(),
        fair_ns,
    };
    emit_layers(&input, out);
    crate::report::absent_daemon_layers(out);
    out.note(format!(
        "{n} traced and {} untraced passes of {} searches; fair replay over {} recorded steps",
        plain.len(),
        searches.len(),
        fair.len()
    ));
}
