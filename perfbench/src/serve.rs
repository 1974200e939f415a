//! `serve`: the built `dpm serve` daemon over a store pre-filled with
//! complete campaigns. One client loop reads `/report`, `/best` and
//! `/pareto` of the complete campaigns while a second submits fresh
//! campaigns one at a time, follows `/events` to the end and reads the
//! report. The server closes every connection after one response, so
//! each loop holds one connection at a time.

use std::io::{BufRead as _, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Instant;

use dpm_campaign::{
    best_of, completed_run, front_of, report_json, run_campaign_with, CampaignResult, CampaignSpec,
    CampaignStore, RunStats, SearchDefaults,
};
use serde_json::Value;

use crate::client::{request, Response};
use crate::sweep::ground_truth;
use crate::trace::Tracer;
use crate::util::{fnv64, median, secs, vm_hwm_mb, HostProbe, SplitMix64, WorkDir};
use crate::{
    gen, layers, parse_stats_line, repeated_setup, setup_reps, traced_section, Ctx, EndToEnd,
    Layers, Outcome, Tally,
};

const MIN_READS: usize = 100;
const MIN_SUBMITS: usize = 6;
/// Reads per stored campaign and endpoint in the traced run.
const TRACED_READS: usize = 10;

/// A complete campaign in the store and the answers it must get.
struct Stored {
    id: String,
    spec: CampaignSpec,
    dir: PathBuf,
    result: CampaignResult,
    report: String,
    best: Option<usize>,
    front: Vec<usize>,
}

/// Executor threads of the daemon: one core is left to the reader, so
/// read latency measures the daemon, not how the host's scheduler
/// shares a saturated machine.
pub fn daemon_threads(ctx: &Ctx) -> usize {
    (ctx.nproc - 1).max(1)
}

/// A running `dpm serve`; killed on drop unless stopped.
struct Daemon {
    child: Option<Child>,
    addr: String,
    /// Collects the daemon's stdout: the per-campaign stats lines.
    lines: Option<JoinHandle<Vec<String>>>,
}

impl Daemon {
    fn start(ctx: &Ctx, root: &Path) -> Result<Self, String> {
        let mut child = Command::new(&ctx.dpm)
            .arg("serve")
            .arg(root)
            .args(["--addr", "127.0.0.1:0", "--workers", "1", "--threads"])
            .arg(daemon_threads(ctx).to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", ctx.dpm.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut first = String::new();
        let addr = match stdout.read_line(&mut first) {
            Ok(_) => first
                .trim()
                .strip_prefix("dpm serve: listening on http://")
                .map(str::to_string),
            Err(_) => None,
        };
        let mut daemon = Self {
            child: Some(child),
            addr: String::new(),
            lines: None,
        };
        daemon.addr =
            addr.ok_or_else(|| format!("dpm serve did not report its address: {first:?}"))?;
        // keep draining stdout (one line per served request) so the
        // daemon never blocks on a full pipe
        daemon.lines = Some(std::thread::spawn(move || {
            stdout
                .lines()
                .map_while(Result::ok)
                .filter(|l| l.contains(" complete; "))
                .collect()
        }));
        Ok(daemon)
    }

    /// Shuts the daemon down gracefully; returns its peak RSS (MiB) and
    /// the work accounting of every campaign it executed.
    fn stop(mut self) -> Result<(f64, RunStats), String> {
        let mut child = self.child.take().expect("daemon is running");
        let rss = vm_hwm_mb(&child.id().to_string()).unwrap_or(0.0);
        let shutdown = request(&self.addr, "POST", "/shutdown", b"");
        let status = child.wait().map_err(|e| e.to_string())?;
        let lines = self
            .lines
            .take()
            .expect("drain thread")
            .join()
            .map_err(|_| "stdout drain panicked")?;
        shutdown?;
        if !status.success() {
            return Err(format!("dpm serve exited with {status}"));
        }
        let mut stats = RunStats::default();
        for line in &lines {
            let at = line.find(" complete; ").expect("filtered on it") + " complete; ".len();
            stats.absorb(
                &parse_stats_line(&line[at..]).ok_or_else(|| format!("bad stats line {line:?}"))?,
            );
        }
        Ok((rss, stats))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(lines) = self.lines.take() {
            let _ = lines.join();
        }
    }
}

/// Pre-fills a store at `root` with the complete serve campaigns.
fn prefill(ctx: &Ctx, root: &Path) -> Result<Vec<Stored>, String> {
    let store = CampaignStore::open(root)?;
    (0..gen::SERVE_STORED)
        .map(|i| {
            let spec = gen::serve_grid(ctx.seed, i);
            let sub = store.submit_spec(spec.clone(), SearchDefaults::default())?;
            let run = run_campaign_with(&spec, &ctx.runner(), Some(&sub.archive))?;
            let result = run.result;
            Ok(Stored {
                report: report_json(&result, false).map_err(|e| e.to_string())?,
                best: best_of(&result, &gen::objective()).map(|b| b.index),
                front: front_of(&result, &gen::objectives())
                    .iter()
                    .map(|p| p.index)
                    .collect(),
                dir: sub.archive.dir().to_path_buf(),
                id: sub.id,
                spec,
                result,
            })
        })
        .collect()
}

/// The `k`-th campaign submitted fresh during the run.
fn fresh(ctx: &Ctx, k: usize) -> CampaignSpec {
    gen::serve_grid(ctx.seed, gen::SERVE_STORED + k as u64)
}

/// The three read endpoints.
const ENDPOINTS: [&str; 3] = ["report", "best", "pareto"];

fn read_path(c: &Stored, endpoint: &str) -> String {
    match endpoint {
        "report" => format!("/campaigns/{}/report", c.id),
        "best" => format!("/campaigns/{}/best?{}", c.id, gen::BEST_QUERY),
        _ => format!("/campaigns/{}/pareto?{}", c.id, gen::PARETO_QUERY),
    }
}

/// Whether a read's response carries the expected answer.
fn read_ok(c: &Stored, endpoint: &str, r: &Response) -> bool {
    if r.status != 200 {
        return false;
    }
    let index = |v: &Value| v.get("index").and_then(Value::as_u64).map(|i| i as usize);
    match endpoint {
        "report" => r.body == c.report.as_bytes(),
        "best" => Value::parse(&r.text()).is_ok_and(|v| v.get("best").and_then(index) == c.best),
        _ => Value::parse(&r.text()).is_ok_and(|v| match v.get("front") {
            Some(Value::Array(points)) => {
                points.iter().map(index).collect::<Vec<_>>()
                    == c.front.iter().map(|&i| Some(i)).collect::<Vec<_>>()
            }
            _ => false,
        }),
    }
}

/// The daemon checks campaign progress for `/events` every 100 ms from
/// the moment the stream is opened. A client that opened it at once
/// after every submit would see completion rounded up to that grid, so
/// each submission waits a seeded delay drawn from `[0, 100)` ms first,
/// and submit-to-report varies smoothly with the run time.
const EVENTS_PHASE_MS: u64 = 100;

/// One fresh campaign: submit, wait `delay_ms`, follow `/events` to the
/// end, read the report. Returns the report bytes (if every step
/// answered 2xx).
fn submit(
    addr: &str,
    spec: &CampaignSpec,
    delay_ms: u64,
    tracer: &mut Tracer,
) -> Result<Option<Vec<u8>>, String> {
    let posted = tracer.span("http.submit", |_| {
        request(addr, "POST", "/campaigns", spec.to_toml().as_bytes())
    })?;
    let id = Value::parse(&posted.text())
        .ok()
        .and_then(|v| v.get("id").and_then(Value::as_str).map(str::to_string));
    let Some(id) = id.filter(|_| posted.status == 201) else {
        eprintln!(
            "perfbench: submit answered {}: {}",
            posted.status,
            posted.text()
        );
        return Ok(None);
    };
    std::thread::sleep(std::time::Duration::from_millis(delay_ms));
    let events = tracer.span("http.events", |_| {
        request(
            addr,
            "GET",
            &format!("/campaigns/{id}/events?wait_ms=120000"),
            b"",
        )
    })?;
    let report = tracer.span("http.report", |_| {
        request(addr, "GET", &format!("/campaigns/{id}/report"), b"")
    })?;
    Ok((events.status == 200 && report.status == 200).then_some(report.body))
}

/// Checks served report bytes against an in-process run of the same
/// spec; returns the in-process seconds.
fn verify_submission(
    ctx: &Ctx,
    tally: &mut Tally,
    spec: &CampaignSpec,
    served: &Option<Vec<u8>>,
) -> Result<f64, String> {
    let (_, truth, s) = ground_truth(ctx, spec)?;
    tally.check(
        served.as_deref() == Some(truth.as_bytes()),
        format_args!(
            "served report of '{}' equals the in-process report",
            spec.name
        ),
    );
    Ok(s)
}

pub fn run(
    ctx: &Ctx,
    tally: &mut Tally,
    tracer: &mut Tracer,
    host: &mut HostProbe,
) -> Result<Outcome, String> {
    let work = WorkDir::new("serve");
    let mut rep = 0;
    let (setup, setup_s) = repeated_setup(setup_reps(ctx), host, || -> Result<_, String> {
        rep += 1;
        let root = work.fresh(&format!("store-{rep}"));
        let stored = prefill(ctx, &root)?;
        let daemon = Daemon::start(ctx, &root)?;
        let health = request(&daemon.addr, "GET", "/healthz", b"")?;
        if health.status != 200 {
            return Err(format!("/healthz answered {}", health.status));
        }
        Ok((stored, daemon))
    });
    let (stored, daemon) = setup?;
    for c in &stored {
        tally.check(
            c.result.failures().count() == 0,
            format_args!("pre-filled '{}' has no failed cells", c.spec.name),
        );
    }
    let digest = fnv64(
        stored
            .iter()
            .map(|c| c.report.as_str())
            .collect::<String>()
            .as_bytes(),
    );
    eprintln!("perfbench: serve report digest {digest:016x}");
    let addr = daemon.addr.clone();
    let mut phases = SplitMix64(ctx.seed ^ 0x5e57_e0e7);
    let mut delay_ms = move || phases.next_u64() % EVENTS_PHASE_MS;

    if ctx.trace {
        return traced(ctx, tally, tracer, &work, &stored, daemon, delay_ms);
    }

    let started = Instant::now();
    let deadline = ctx.seconds;
    let (reads, submits) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut samples = Vec::new();
            let mut k = 0usize;
            while samples.len() < MIN_READS || secs(started) < deadline {
                let c = &stored[k % stored.len()];
                let endpoint = ENDPOINTS[(k / stored.len()) % ENDPOINTS.len()];
                k += 1;
                let t = Instant::now();
                let r = request(&addr, "GET", &read_path(c, endpoint), b"");
                let ms = secs(t) * 1e3;
                samples.push((
                    ms,
                    r.is_ok_and(|r| read_ok(c, endpoint, &r)),
                    endpoint,
                    c.id.clone(),
                ));
            }
            samples
        });
        let submitter = s.spawn(|| {
            let mut done = Vec::new();
            while done.len() < MIN_SUBMITS || secs(started) < deadline {
                let spec = fresh(ctx, done.len());
                let t = Instant::now();
                let served = submit(&addr, &spec, delay_ms(), &mut Tracer::new(false));
                done.push((spec, served, secs(t)));
                // the daemon is idle between submissions: sample the host
                for _ in 0..3 {
                    host.probe();
                }
            }
            done
        });
        (
            reader.join().expect("reader thread"),
            submitter.join().expect("submitter thread"),
        )
    });
    let (peak_rss_mb, _) = daemon.stop()?;

    let mut read_ms = Vec::with_capacity(reads.len());
    for (ms, ok, endpoint, id) in reads {
        tally.check(ok, format_args!("GET {endpoint} of {id}"));
        read_ms.push(ms);
    }
    let mut job_s = Vec::with_capacity(submits.len());
    for (spec, served, s) in &submits {
        let served = served.clone().unwrap_or_else(|e| {
            eprintln!("perfbench: submit of '{}' failed: {e}", spec.name);
            None
        });
        verify_submission(ctx, tally, spec, &served)?;
        job_s.push(*s);
    }
    // every /best read was checked against the in-process optimum above
    Ok(Outcome::Untraced(EndToEnd {
        setup_s,
        peak_rss_mb,
        jobs_s: job_s,
        reads_ms: read_ms,
        best_pct_of_optimum: 100.0,
        feasible_pct: 100.0,
        cells_per_job: stored[0].spec.scenario_count(),
    }))
}

fn traced(
    ctx: &Ctx,
    tally: &mut Tally,
    tracer: &mut Tracer,
    work: &WorkDir,
    stored: &[Stored],
    daemon: Daemon,
    mut delay_ms: impl FnMut() -> u64,
) -> Result<Outcome, String> {
    let addr = daemon.addr.clone();
    let t = Instant::now();
    let first = submit(&addr, &fresh(ctx, 0), delay_ms(), &mut Tracer::new(false))?;
    let untraced_s = secs(t);
    let mut out = Layers::default();
    let mut failure = Ok(());
    let mut submit_s = 0.0;
    traced_section(tracer, &mut out, untraced_s, |tr, out| {
        let t = Instant::now();
        let second = submit(&addr, &fresh(ctx, 1), delay_ms(), tr);
        submit_s = secs(t);
        let (mut http, mut local) = (Vec::new(), Vec::new());
        for _ in 0..TRACED_READS {
            for c in stored {
                for endpoint in ENDPOINTS {
                    let t = Instant::now();
                    let r = tr.span("http.get", |_| {
                        request(&addr, "GET", &read_path(c, endpoint), b"")
                    });
                    http.push(secs(t));
                    tally.check(
                        r.is_ok_and(|r| read_ok(c, endpoint, &r)),
                        format_args!("GET {endpoint} of {}", c.id),
                    );
                    // the same answer computed in-process through the store
                    let t = Instant::now();
                    tr.span("store.read", |_| {
                        let root = c.dir.parent().expect("campaigns live under the store root");
                        let store = CampaignStore::open(root).expect("store opens");
                        let (archive, spec) = store.open_campaign(&c.id).expect("campaign opens");
                        let (result, _) =
                            completed_run(&archive, &spec).expect("campaign is complete");
                        std::hint::black_box(match endpoint {
                            "report" => report_json(&result, false).expect("shim serializer").len(),
                            "best" => best_of(&result, &gen::objective()).map_or(0, |b| b.index),
                            _ => front_of(&result, &gen::objectives()).len(),
                        })
                    });
                    local.push(secs(t));
                }
            }
        }
        out.set("http.overhead_ms", (median(&http) - median(&local)) * 1e3);
        let c = &stored[0];
        let costs = layers::replay(&c.spec, &c.result, tr, tally, out);
        layers::storage(&c.spec, &c.result, work.path(), tr, tally, out);
        out.set(
            "runner.busy_frac",
            costs.fine_s * costs.fine_sims as f64 / (submit_s * daemon_threads(ctx) as f64),
        );
        if let Err(e) =
            second.and_then(|served| verify_submission(ctx, tally, &fresh(ctx, 1), &served))
        {
            failure = Err(e);
            return submit_s;
        }
        submit_s
    });
    failure?;
    let local_s = verify_submission(ctx, tally, &fresh(ctx, 0), &first)?;
    out.set(
        "server.submit_overhead_s",
        (untraced_s + submit_s) / 2.0 - local_s,
    );
    let (_, stats) = daemon.stop()?;
    let jobs = 2.0;
    out.set("runner.fine_sims", stats.simulations as f64 / jobs);
    out.set(
        "runner.coarse_evals",
        stats.coarse_simulations as f64 / jobs,
    );
    out.set(
        "runner.baseline_groups",
        stats.baseline_groups as f64 / jobs,
    );
    out.set(
        "runner.reused_baselines",
        stats.reused_baselines as f64 / jobs,
    );
    Ok(Outcome::Traced(out))
}
