//! The `campaign` workload: a `fair-chess daemon --workers 1` on a unix
//! socket with a fresh store, driven by one client in a closed loop.
//!
//! Each campaign holds [`JOBS`] tiny `random:<seed>` check jobs over
//! [`CAMPAIGN_WORKLOADS`]. The client submits on one connection, asks
//! for the campaign's status, then follows the verdicts on a second
//! (`watch`) connection and submits the next campaign once the `done`
//! event arrives. Job seeds derive from `--seed` and the campaign
//! index, so every manifest has a fresh digest and the store's cached
//! resubmit path never answers a timed submit. Every job's verdict is
//! checked afterwards against the same search run in this process.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use chess_bench::Json;
use chess_core::SearchReport;
use chess_server::{expect_ok, parse_digest, Client, Listen, Request};

use crate::report::Outcome;
use crate::search::{campaign_job, Run, CAMPAIGN_WORKLOADS};
use crate::searchbench::{emit_layers, fair_step_ns, LayerInput};
use crate::stats::{median, peak_rss_mb, quantile};
use crate::trace::Tracer;

/// Jobs per campaign.
const JOBS: usize = 12;
/// Executions per job.
const JOB_EXECUTIONS: u64 = 2_000;
/// Daemon starts per set-up burst. A burst runs before the campaigns
/// and after every [`SETUP_EVERY`] campaigns, on its own store;
/// `setup_s` is the median of the fastest burst (see NOTES.md).
const SETUP_BURST: usize = 3;
/// Campaigns between two set-up bursts.
const SETUP_EVERY: usize = 8;
/// The daemon's peak RSS is read after this many campaigns: the daemon
/// keeps every campaign's verdicts in memory, so reading it at the end
/// would measure how many campaigns the run had time for.
const RSS_AFTER: usize = 8;

/// Campaigns whose jobs are also run traced in-process (`--trace 1`).
const TRACED_CAMPAIGNS: usize = 2;

/// A running daemon and the socket it listens on.
struct Daemon {
    child: Child,
    listen: Listen,
}

impl Daemon {
    /// Starts a daemon on a fresh store under `dir` and returns it with
    /// a connected client and the seconds from spawn to the socket
    /// accepting a connection.
    fn start(bin: &Path, dir: &Path) -> Result<(Daemon, Client, f64), String> {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let socket = dir.join("d.sock");
        let start = Instant::now();
        let child = Command::new(bin)
            .arg("daemon")
            .arg("--listen")
            .arg(format!("unix:{}", socket.display()))
            .arg("--store")
            .arg(dir.join("store"))
            .args(["--workers", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            listen: Listen::Unix(socket),
        };
        loop {
            if let Ok(client) = Client::connect(&daemon.listen) {
                return Ok((daemon, client, start.elapsed().as_secs_f64()));
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up ({status})"));
            }
            if start.elapsed() > Duration::from_secs(30) {
                daemon.kill();
                return Err("daemon did not accept within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Asks the daemon to shut down and waits for it to exit.
    ///
    /// A connection closed before the acknowledgement is accepted when
    /// the daemon then exits successfully: the daemon can exit between
    /// raising its shutdown flag and writing the `shutdown` response
    /// (seen once in about a thousand starts). A refusal is not.
    fn stop(mut self, client: &mut Client) -> Result<(), String> {
        let asked = client.request(&Request::Shutdown);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => {
                    return asked.map_or(Ok(()), |response| expect_ok(response).map(|_| ()))
                }
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    self.kill();
                    return Err("daemon did not exit after shutdown".into());
                }
            }
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One job of a campaign.
struct Job {
    id: String,
    workload: &'static str,
    seed: u64,
}

/// The daemon's answer for one job.
struct Verdict {
    code: u64,
    line: String,
    /// Seconds from submit to this job's `verdict` event.
    latency: f64,
}

/// One submitted campaign.
struct CampaignRun {
    jobs: Vec<Job>,
    verdicts: Vec<(String, Verdict)>,
    submit_rtt: f64,
    status_rtt: f64,
    /// Seconds from submit to the `done` event.
    wall: f64,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn campaign_jobs(seed: u64, campaign: usize) -> Vec<Job> {
    (0..JOBS)
        .map(|j| Job {
            id: format!("j{j}"),
            workload: CAMPAIGN_WORKLOADS[j % CAMPAIGN_WORKLOADS.len()],
            seed: splitmix(splitmix(seed) ^ ((campaign as u64) << 16 | j as u64)) % 1_000_000_007,
        })
        .collect()
}

fn manifest(jobs: &[Job]) -> Json {
    Json::object([(
        "jobs",
        Json::array(jobs.iter().map(|j| {
            Json::object([
                ("id", Json::Str(j.id.clone())),
                ("kind", Json::Str("check".into())),
                ("workload", Json::Str(j.workload.into())),
                ("strategy", Json::Str(format!("random:{}", j.seed))),
                ("max_executions", Json::UInt(JOB_EXECUTIONS)),
            ])
        })),
    )])
}

fn submit_campaign(
    main: &mut Client,
    watch: &mut Client,
    jobs: Vec<Job>,
) -> Result<CampaignRun, String> {
    let start = Instant::now();
    let response = expect_ok(main.request(&Request::Submit {
        manifest: manifest(&jobs),
    })?)?;
    let submit_rtt = start.elapsed().as_secs_f64();
    if response.get("cached").and_then(Json::as_bool) != Some(false) {
        return Err("a timed submit was answered from the store's cache".into());
    }
    let digest = response
        .get("campaign")
        .and_then(Json::as_str)
        .ok_or("submit response has no campaign id")
        .and_then(|s| parse_digest(s).map_err(|_| "submit response has a bad campaign id"))?;
    let t = Instant::now();
    expect_ok(main.request(&Request::Status {
        campaign: Some(digest),
    })?)?;
    let status_rtt = t.elapsed().as_secs_f64();
    expect_ok(watch.request(&Request::Watch { campaign: digest })?)?;
    let mut verdicts = Vec::with_capacity(jobs.len());
    loop {
        let event = watch
            .read_event()?
            .ok_or("watch stream ended before 'done'")?;
        let latency = start.elapsed().as_secs_f64();
        match event.get("event").and_then(Json::as_str) {
            Some("verdict") => {
                let id = event
                    .get("id")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                let verdict = Verdict {
                    code: event.get("code").and_then(Json::as_u64).unwrap_or(u64::MAX),
                    line: event
                        .get("line")
                        .and_then(Json::as_str)
                        .unwrap_or("(no verdict line: job quarantined)")
                        .to_string(),
                    latency,
                };
                verdicts.push((id, verdict));
            }
            Some("status") => {}
            Some("done") => {
                return Ok(CampaignRun {
                    jobs,
                    verdicts,
                    submit_rtt,
                    status_rtt,
                    wall: latency,
                })
            }
            _ => {
                return Err(format!(
                    "unexpected watch event {}",
                    event.to_string_pretty()
                ))
            }
        }
    }
}

/// Runs `job` in this process and checks its verdict against the
/// daemon's: the same verdict line and exit code. Returns the report
/// and the in-process seconds.
fn run_and_check(
    c: &CampaignRun,
    job: &Job,
    how: Run<'_>,
    out: &mut Outcome,
) -> (SearchReport, f64) {
    out.attempted += 1;
    let search = campaign_job(job.workload, job.seed, JOB_EXECUTIONS);
    let start = Instant::now();
    let report = search.run(how);
    let secs = start.elapsed().as_secs_f64();
    let line = report.deterministic_line();
    let code = u64::from(report.outcome.exit_code());
    match c.verdicts.iter().find(|(id, _)| *id == job.id) {
        Some((_, v)) if v.line == line && v.code == code => {}
        Some((_, v)) => out.fail(format!(
            "job {} ({}): daemon said [{}] {:?}, in-process [{code}] {line:?}",
            job.id,
            search.label(),
            v.code,
            v.line
        )),
        None => out.fail(format!("job {} ({}): no verdict", job.id, search.label())),
    }
    (report, secs)
}

/// The daemon-side half of a run: set-up burst medians, campaigns and
/// the daemon's peak RSS.
struct DaemonSide {
    setup: Vec<f64>,
    campaigns: Vec<CampaignRun>,
    peak_rss_mb: Option<f64>,
}

/// One set-up burst: the median over [`SETUP_BURST`] daemon starts on
/// a fresh store under `dir` of spawn to the socket accepting.
fn setup_burst(bin: &Path, dir: &Path) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(SETUP_BURST);
    for _ in 0..SETUP_BURST {
        let (daemon, mut client, secs) = Daemon::start(bin, dir)?;
        samples.push(secs);
        daemon.stop(&mut client)?;
    }
    Ok(median(&samples))
}

fn drive_daemon(bin: &Path, dir: &Path, seed: u64, seconds: u64) -> Result<DaemonSide, String> {
    let burst_dir = dir.join("setup");
    let mut setup = vec![setup_burst(bin, &burst_dir)?];
    let (daemon, mut main, _) = Daemon::start(bin, &dir.join("serve"))?;
    let result = (|| -> Result<(Vec<CampaignRun>, Option<f64>), String> {
        let mut watch = Client::connect(&daemon.listen)?;
        let deadline = Instant::now() + Duration::from_secs(seconds);
        let mut campaigns = Vec::new();
        let mut rss = None;
        while campaigns.len() < RSS_AFTER || Instant::now() < deadline {
            let jobs = campaign_jobs(seed, campaigns.len());
            campaigns.push(submit_campaign(&mut main, &mut watch, jobs)?);
            if campaigns.len() == RSS_AFTER {
                rss = peak_rss_mb(&daemon.child.id().to_string());
            }
            if campaigns.len().is_multiple_of(SETUP_EVERY) {
                // The serving daemon is idle between campaigns.
                setup.push(setup_burst(bin, &burst_dir)?);
            }
        }
        Ok((campaigns, rss))
    })();
    let stopped = daemon.stop(&mut main);
    let (campaigns, peak_rss_mb) = result?;
    stopped?;
    Ok(DaemonSide {
        setup,
        campaigns,
        peak_rss_mb,
    })
}

/// Runs the campaign workload for `seconds`.
pub fn run(bin: &Path, work_root: &Path, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let dir: PathBuf = work_root.join(format!("campaign-{}", std::process::id()));
    let side = drive_daemon(bin, &dir, seed, seconds);
    let _ = std::fs::remove_dir_all(&dir);
    let side = match side {
        Ok(side) => side,
        Err(e) => {
            out.fail(format!("campaign: {e}"));
            return out;
        }
    };

    // Check every verdict against the same job run in this process.
    let mut inprocess: Vec<f64> = Vec::new();
    let mut executions: Vec<f64> = Vec::new();
    for c in &side.campaigns {
        let mut total = 0u64;
        for job in &c.jobs {
            let mut marks = Vec::new();
            let (report, secs) = run_and_check(c, job, Run::Plain(&mut marks), &mut out);
            inprocess.push(secs);
            total += report.stats.executions;
        }
        executions.push(total as f64);
    }

    // Best-phase job latency: the k-th verdict of a campaign is the
    // same shape of work in every campaign, so each rank's latency is
    // the fastest over the run's campaigns (see NOTES.md).
    let ranked: Vec<f64> = (0..JOBS)
        .map(|k| {
            let at_rank: Vec<f64> = side
                .campaigns
                .iter()
                .filter_map(|c| c.verdicts.get(k).map(|(_, v)| v.latency))
                .collect();
            quantile(&at_rank, 0.0)
        })
        .collect();
    let intervals: Vec<f64> = side
        .campaigns
        .iter()
        .flat_map(|c| {
            c.verdicts
                .windows(2)
                .map(|w| w[1].1.latency - w[0].1.latency)
        })
        .collect();
    let walls: Vec<f64> = side.campaigns.iter().map(|c| c.wall).collect();
    let wall = quantile(&walls, 0.0);
    let pooled: Vec<f64> = side
        .campaigns
        .iter()
        .flat_map(|c| c.verdicts.iter().map(|(_, v)| v.latency))
        .collect();
    out.note(format!(
        "{} campaigns of {JOBS} jobs ({JOB_EXECUTIONS} executions each); set-up bursts (median s): {:.6?}; \
         job latency over all {} samples: p50 {:.4} s, p90 {:.4} s; campaign wall: median {:.4} s; \
         in-process job time: median {:.4} s",
        side.campaigns.len(),
        side.setup,
        pooled.len(),
        quantile(&pooled, 0.5),
        quantile(&pooled, 0.9),
        median(&walls),
        median(&inprocess)
    ));

    if !trace {
        out.metric("setup_s", quantile(&side.setup, 0.0), "s");
        out.metric("verdict_s", wall, "s");
        out.metric("executions", median(&executions), "count");
        out.metric("job_latency_p50_s", quantile(&ranked, 0.5), "s");
        out.metric("job_latency_p90_s", quantile(&ranked, 0.9), "s");
        out.metric("jobs_per_s", JOBS as f64 / wall, "1/s");
        match side.peak_rss_mb {
            Some(mb) => out.metric("peak_rss_mb", mb, "MiB"),
            None => out.fail("no VmHWM for the daemon".into()),
        }
        return out;
    }

    // Per-layer: the job compute split by layer, from traced in-process
    // runs of the first campaigns' jobs, then the daemon layers.
    let tracer = Tracer::new();
    let mut reports = Vec::new();
    let (mut traced_wall, mut untraced_wall) = (0.0, 0.0);
    let traced_jobs = side
        .campaigns
        .iter()
        .take(TRACED_CAMPAIGNS)
        .flat_map(|c| c.jobs.iter().map(move |job| (c, job)));
    for (i, (c, job)) in traced_jobs.enumerate() {
        let (report, secs) = run_and_check(c, job, Run::Traced(&tracer), &mut out);
        reports.push(report);
        traced_wall += secs;
        untraced_wall += inprocess[i];
    }
    let fair = tracer.take_fair_trace();
    let fair_ns = fair_step_ns(&fair, &mut out);
    let input = LayerInput {
        tracer: &tracer,
        passes: 1,
        traced_wall,
        untraced_wall,
        reports: reports.iter().collect(),
        fair_ns,
    };
    emit_layers(&input, &mut out);
    let rtts =
        |f: fn(&CampaignRun) -> f64| median(&side.campaigns.iter().map(f).collect::<Vec<_>>());
    let interval = median(&intervals);
    out.metric("daemon.submit_rtt_s", rtts(|c| c.submit_rtt), "s");
    out.metric("daemon.status_rtt_s", rtts(|c| c.status_rtt), "s");
    out.metric("procpool.job_interval_s", interval, "s");
    out.metric("procpool.overhead_s", interval - median(&inprocess), "s");
    out
}
