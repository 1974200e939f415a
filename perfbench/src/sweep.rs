//! `sweep`: cold exhaustive in-process sweeps with an archive, then
//! repeated full resumes of the complete archive (zero simulations).

use std::path::Path;
use std::time::Instant;

use dpm_campaign::{
    best_of, report_json, run_campaign_with, CampaignArchive, CampaignRun, CampaignSpec,
};

use crate::trace::Tracer;
use crate::util::{secs, vm_hwm_mb, HostProbe, WorkDir};
use crate::{
    gen, layers, repeated_setup, setup_reps, traced_section, Ctx, EndToEnd, Layers, Outcome, Tally,
};

/// Minimum cold sweeps and resumes per run.
const MIN_COLD: usize = 6;
const MIN_READS: usize = 100;
/// Resumes after each cold sweep: about half the cold sweep's time.
const READS_PER_JOB: usize = 30;

/// One archived in-process campaign run: open (or create) the archive,
/// run, render the report. Returns the run, its report and its seconds.
pub fn archived_run(
    ctx: &Ctx,
    spec: &CampaignSpec,
    dir: &Path,
) -> Result<(CampaignRun, String, f64), String> {
    let t = Instant::now();
    let archive = CampaignArchive::open(dir, spec)?;
    let run = run_campaign_with(spec, &ctx.runner(), Some(&archive))?;
    let report = report_json(&run.result, false).map_err(|e| e.to_string())?;
    Ok((run, report, secs(t)))
}

/// Checks a run's output against the ground-truth report.
pub fn check_run(
    tally: &mut Tally,
    what: &str,
    run: &CampaignRun,
    report: &str,
    truth: &str,
    resumed: bool,
) {
    let failed_cells = run.result.failures().count();
    tally.check(
        failed_cells == 0,
        format_args!("{what}: {failed_cells} failed cells"),
    );
    tally.check(
        run.archive_errors.is_empty(),
        format_args!("{what}: archive errors {:?}", run.archive_errors),
    );
    tally.check(
        report == truth,
        format_args!("{what}: report bytes differ from the ground truth"),
    );
    if resumed {
        tally.check(
            run.stats.simulations == 0 && run.stats.coarse_simulations == 0,
            format_args!("{what}: resume ran {} simulations", run.stats.simulations),
        );
    }
}

/// The ground-truth sweep of `spec` (no archive): report bytes, run and seconds.
pub fn ground_truth(ctx: &Ctx, spec: &CampaignSpec) -> Result<(CampaignRun, String, f64), String> {
    let t = Instant::now();
    let run = run_campaign_with(spec, &ctx.runner(), None)?;
    let report = report_json(&run.result, false).map_err(|e| e.to_string())?;
    Ok((run, report, secs(t)))
}

pub fn run(
    ctx: &Ctx,
    tally: &mut Tally,
    tracer: &mut Tracer,
    host: &mut HostProbe,
) -> Result<Outcome, String> {
    let work = WorkDir::new("sweep");
    let ((spec, truth), setup_s) = repeated_setup(setup_reps(ctx), host, || {
        let spec = gen::sweep_grid(ctx.seed);
        let truth = ground_truth(ctx, &spec);
        (spec, truth)
    });
    let (truth_run, truth, _) = truth?;
    check_run(tally, "ground truth", &truth_run, &truth, &truth, false);
    let cells = spec.scenario_count();

    if ctx.trace {
        let dir = work.fresh("cold-untraced");
        let (_, _, untraced_s) = archived_run(ctx, &spec, &dir)?;
        let mut out = Layers::default();
        let dir = work.fresh("cold");
        let mut result = Err(String::new());
        traced_section(tracer, &mut out, untraced_s, |tr, out| {
            let t = Instant::now();
            result = tr.span("runner", |_| archived_run(ctx, &spec, &dir));
            let job_s = secs(t);
            let Ok((run, report, _)) = &result else {
                return job_s;
            };
            check_run(tally, "traced cold sweep", run, report, &truth, false);
            let costs = layers::replay(&spec, &run.result, tr, tally, out);
            tally.check(
                costs.fine_sims == run.stats.simulations,
                format_args!(
                    "replay ran {} fine simulations, the runner {}",
                    costs.fine_sims, run.stats.simulations
                ),
            );
            out.set("runner.fine_sims", run.stats.simulations as f64);
            out.set("runner.coarse_evals", run.stats.coarse_simulations as f64);
            out.set("runner.baseline_groups", run.stats.baseline_groups as f64);
            out.set("runner.reused_baselines", run.stats.reused_baselines as f64);
            out.set(
                "runner.busy_frac",
                costs.fine_s * costs.fine_sims as f64 / (job_s * ctx.nproc as f64),
            );
            layers::storage(&spec, &run.result, work.path(), tr, tally, out);
            job_s
        });
        result?;
        return Ok(Outcome::Traced(out));
    }

    // cold sweeps alternate with rounds of resumes of the last complete
    // archive for the whole run, so load bursts on the host hit both
    let started = Instant::now();
    let (mut cold, mut reads) = (Vec::new(), Vec::new());
    let mut best = 0.0;
    let optimum = best_of(&truth_run.result, &gen::objective()).map_or(f64::NAN, |b| b.value);
    while cold.len() < MIN_COLD || reads.len() < MIN_READS || secs(started) < ctx.seconds {
        let dir = work.fresh("cold");
        let (run, report, s) = archived_run(ctx, &spec, &dir)?;
        check_run(tally, "cold sweep", &run, &report, &truth, false);
        best = best_of(&run.result, &gen::objective()).map_or(0.0, |b| b.value);
        cold.push(s);
        host.probe();
        for r in 1..=READS_PER_JOB {
            let (run, report, s) = archived_run(ctx, &spec, &dir)?;
            check_run(tally, "resume", &run, &report, &truth, true);
            reads.push(s * 1e3);
            if r % 10 == 0 {
                host.probe();
            }
        }
    }
    Ok(Outcome::Untraced(EndToEnd {
        setup_s,
        peak_rss_mb: vm_hwm_mb("self").unwrap_or(0.0),
        jobs_s: cold,
        reads_ms: reads,
        best_pct_of_optimum: 100.0 * best / optimum,
        feasible_pct: 100.0,
        cells_per_job: cells,
    }))
}
