//! `workers`: cold `dpm campaign run --workers 2` through the built
//! binary on the `sweep` grid, then CLI resumes of the complete
//! campaign directory.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use dpm_campaign::{CampaignSpec, RunStats};

use crate::sweep::ground_truth;
use crate::trace::Tracer;
use crate::util::{children_max_rss_mb, fnv64, median, secs, HostProbe, WorkDir};
use crate::{
    gen, layers, parse_stats_line, repeated_setup, setup_reps, traced_section, Ctx, EndToEnd,
    Layers, Outcome, Tally,
};

const WORKERS: usize = 2;
const MIN_COLD: usize = 6;
const MIN_READS: usize = 100;
/// CLI resumes after each cold run: about half the cold run's time.
const READS_PER_JOB: usize = 30;
/// `dpm worker` start-ups timed on a drained directory in the traced run.
const SPAWNS: usize = 5;

/// What one `dpm` invocation produced.
struct CliRun {
    ok: bool,
    secs: f64,
    report: Vec<u8>,
    /// Stats lines of the worker processes, then of the invoking process.
    workers: Vec<RunStats>,
    own: Option<RunStats>,
}

/// Runs `dpm campaign run SPEC --resume DIR --format json --out OUT`
/// with `extra` arguments.
fn cli_run(
    ctx: &Ctx,
    spec_file: &Path,
    dir: &Path,
    out: &Path,
    extra: &[String],
) -> Result<CliRun, String> {
    let _ = std::fs::remove_file(out);
    let t = Instant::now();
    let output = Command::new(&ctx.dpm)
        .args(["campaign", "run"])
        .arg(spec_file)
        .arg("--resume")
        .arg(dir)
        .args(["--format", "json", "--out"])
        .arg(out)
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", ctx.dpm.display()))?;
    let s = secs(t);
    let stderr = String::from_utf8_lossy(&output.stderr);
    let mut workers = Vec::new();
    let mut own = None;
    for line in stderr.lines() {
        let line = line.trim_start();
        if let Some(rest) = line.strip_prefix("worker ") {
            if let Some((_, stats)) = rest.split_once(": ") {
                workers.extend(parse_stats_line(stats));
            }
        } else if line.contains(" cells: ") {
            own = parse_stats_line(line);
        }
    }
    if !output.status.success() {
        eprintln!(
            "perfbench: dpm campaign run failed ({}): {stderr}",
            output.status
        );
    }
    Ok(CliRun {
        ok: output.status.success(),
        secs: s,
        report: std::fs::read(out).unwrap_or_default(),
        workers,
        own,
    })
}

fn check_cold(tally: &mut Tally, run: &CliRun, truth: &str, truth_stats: &RunStats) {
    tally.check(run.ok, "dpm campaign run --workers exits 0");
    tally.check(
        run.report == truth.as_bytes(),
        "--workers report equals the single-process report",
    );
    let mut sum = RunStats::default();
    for w in &run.workers {
        sum.absorb(w);
    }
    let same = run.workers.len() == WORKERS
        && (
            sum.executed_cells,
            sum.simulations,
            sum.baseline_groups,
            sum.reused_baselines,
        ) == (
            truth_stats.executed_cells,
            truth_stats.simulations,
            truth_stats.baseline_groups,
            truth_stats.reused_baselines,
        );
    tally.check(
        same,
        format_args!("summed worker stats {sum:?} equal the single-process totals"),
    );
}

fn check_resume(tally: &mut Tally, run: &CliRun, truth: &str) {
    tally.check(run.ok, "dpm campaign run --resume exits 0");
    tally.check(
        run.report == truth.as_bytes(),
        "resumed report equals the single-process report",
    );
    tally.check(
        run.own
            .as_ref()
            .is_some_and(|s| s.simulations == 0 && s.executed_cells == 0),
        "resume of a complete directory runs 0 simulations",
    );
}

pub fn run(
    ctx: &Ctx,
    tally: &mut Tally,
    tracer: &mut Tracer,
    host: &mut HostProbe,
) -> Result<Outcome, String> {
    let work = WorkDir::new("workers");
    let spec_file = work.path().join("spec.toml");
    let ((spec, truth), setup_s) = repeated_setup(setup_reps(ctx), host, || {
        let spec: CampaignSpec = gen::sweep_grid(ctx.seed);
        let truth = std::fs::write(&spec_file, spec.to_toml())
            .map_err(|e| format!("cannot write {}: {e}", spec_file.display()))
            .and_then(|()| ground_truth(ctx, &spec));
        (spec, truth)
    });
    let (truth_run, truth, truth_s) = truth?;
    tally.check(
        truth_run.result.failures().count() == 0,
        "ground truth has no failed cells",
    );
    eprintln!(
        "perfbench: workers report digest {:016x}",
        fnv64(truth.as_bytes())
    );
    let threads = (ctx.nproc / WORKERS).max(1);
    let cold_args: Vec<String> = vec![
        "--workers".into(),
        WORKERS.to_string(),
        "--threads".into(),
        threads.to_string(),
    ];
    let out = work.path().join("report.json");

    if ctx.trace {
        let dir = work.fresh("cold-untraced");
        let untraced = cli_run(ctx, &spec_file, &dir, &out, &cold_args)?;
        check_cold(tally, &untraced, &truth, &truth_run.stats);
        let mut layers_out = Layers::default();
        let dir = work.fresh("cold");
        let mut failure = Ok(());
        traced_section(tracer, &mut layers_out, untraced.secs, |tr, o| {
            let cold = match tr.span("executor", |_| {
                cli_run(ctx, &spec_file, &dir, &out, &cold_args)
            }) {
                Ok(c) => c,
                Err(e) => {
                    failure = Err(e);
                    return 0.0;
                }
            };
            check_cold(tally, &cold, &truth, &truth_run.stats);
            let mut stats = RunStats::default();
            for w in &cold.workers {
                stats.absorb(w);
            }
            o.set("runner.fine_sims", stats.simulations as f64);
            o.set("runner.coarse_evals", stats.coarse_simulations as f64);
            o.set("runner.baseline_groups", stats.baseline_groups as f64);
            o.set("runner.reused_baselines", stats.reused_baselines as f64);
            o.set("executor.parity_ratio", cold.secs / truth_s);
            // a worker joining a drained directory: start-up, archive
            // open and the lease scan, nothing to simulate
            let mut spawn = Vec::new();
            for _ in 0..SPAWNS {
                let t = Instant::now();
                let status = tr.span("executor.spawn", |_| {
                    Command::new(&ctx.dpm)
                        .arg("worker")
                        .arg(&dir)
                        .args(["--threads", "1"])
                        .stdin(Stdio::null())
                        .stdout(Stdio::null())
                        .stderr(Stdio::null())
                        .status()
                });
                spawn.push(secs(t));
                tally.check(
                    status.is_ok_and(|s| s.success()),
                    "dpm worker on a drained directory exits 0",
                );
            }
            o.set("executor.spawn_ms", median(&spawn) * 1e3);
            let costs = layers::replay(&spec, &truth_run.result, tr, tally, o);
            let slots = (WORKERS * threads) as f64;
            o.set(
                "runner.busy_frac",
                costs.fine_s * costs.fine_sims as f64 / (cold.secs * slots),
            );
            layers::storage(&spec, &truth_run.result, work.path(), tr, tally, o);
            cold.secs
        });
        failure?;
        return Ok(Outcome::Traced(layers_out));
    }

    // cold runs alternate with rounds of CLI resumes for the whole run
    let started = Instant::now();
    let (mut cold, mut reads) = (Vec::new(), Vec::new());
    while cold.len() < MIN_COLD || reads.len() < MIN_READS || secs(started) < ctx.seconds {
        let dir = work.fresh("cold");
        let run = cli_run(ctx, &spec_file, &dir, &out, &cold_args)?;
        check_cold(tally, &run, &truth, &truth_run.stats);
        cold.push(run.secs);
        host.probe();
        for r in 1..=READS_PER_JOB {
            let run = cli_run(ctx, &spec_file, &dir, &out, &[])?;
            check_resume(tally, &run, &truth);
            reads.push(run.secs * 1e3);
            if r % 10 == 0 {
                host.probe();
            }
        }
    }
    Ok(Outcome::Untraced(EndToEnd {
        setup_s,
        peak_rss_mb: children_max_rss_mb(),
        jobs_s: cold,
        reads_ms: reads,
        best_pct_of_optimum: 100.0,
        feasible_pct: 100.0,
        cells_per_job: spec.scenario_count(),
    }))
}
