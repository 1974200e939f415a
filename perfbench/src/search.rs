//! `search`: a fixed ladder of cold searches, each with a fresh archive
//! (climb and anneal at fine and multi fidelity, then a fine Pareto
//! search), then resumes of every leg from its complete archive.

use std::path::Path;
use std::time::Instant;

use dpm_campaign::{
    front_of, pareto_campaign, pareto_json, search_campaign, search_json, AnnealStrategy,
    CampaignArchive, CampaignResult, CampaignSpec, ClimbStrategy, ParetoSpec, ParetoStrategy,
    RunStats, ScenarioMetrics, SearchFidelity, SearchSpec, Strategy, StrategyKind,
    DEFAULT_START_POINTS,
};

use crate::sweep::ground_truth;
use crate::trace::Tracer;
use crate::util::{fnv64, median, secs, vm_hwm_mb, HostProbe, WorkDir};
use crate::{
    gen, layers, repeated_setup, setup_reps, traced_section, Ctx, EndToEnd, Layers, Outcome, Tally,
};

const MIN_LADDERS: usize = 6;
const MIN_READS: usize = 100;
/// Resumes of every leg after each cold ladder.
const RESUMES_PER_LADDER: usize = 2;
/// Independent grids per timed ladder. Which cells a search reaches, and
/// so what the ladder costs, depends on the seed's grid; a ladder over
/// two grids averages part of that out.
const GRIDS: u64 = 2;
/// Grids whose ladders the search quality is scored over: the timed
/// ones, then more that run once, untimed. About one grid in nine makes
/// both multi-fidelity legs report an infeasible best, so the share of
/// legs that find a feasible cell only settles over many grids: over
/// 16 it spread 5 % between seeds; over 2 it moves in steps of 12.5 %.
const QUALITY_GRIDS: u64 = 16;

/// The ladder's scalar legs: strategy x fidelity.
const SCALAR_LEGS: [(StrategyKind, SearchFidelity); 4] = [
    (StrategyKind::Climb, SearchFidelity::Fine),
    (StrategyKind::Anneal, SearchFidelity::Fine),
    (StrategyKind::Climb, SearchFidelity::Multi),
    (StrategyKind::Anneal, SearchFidelity::Multi),
];
const LEGS: usize = SCALAR_LEGS.len() + 1;

/// Search budget: an eighth of the grid.
fn budget(spec: &CampaignSpec) -> usize {
    spec.scenario_count() / 8
}

/// One leg's outcome: report bytes, work accounting, search counters.
struct Leg {
    /// Host seconds of the leg, archive open to rendered report.
    secs: f64,
    report: String,
    stats: RunStats,
    rounds: usize,
    evaluated: usize,
    screened: usize,
    /// The reported best value if it is feasible (scalar legs).
    best: Option<f64>,
    /// The cells reported (best or front): index, reported feasibility,
    /// reported metrics.
    cells: Vec<(usize, bool, ScenarioMetrics)>,
}

fn run_leg(spec: &CampaignSpec, leg: usize, ctx: &Ctx, dir: &Path) -> Result<Leg, String> {
    let t = Instant::now();
    let archive = CampaignArchive::open(dir, spec)?;
    let config = ctx.runner();
    if let Some(&(strategy, fidelity)) = SCALAR_LEGS.get(leg) {
        let search = SearchSpec::new(gen::objective(), budget(spec))
            .with_strategy(strategy)
            .with_fidelity(fidelity);
        let o = search_campaign(spec, &search, &config, Some(&archive))?;
        let best = o.report.best.as_ref();
        let report = search_json(&o.report).map_err(|e| e.to_string())?;
        Ok(Leg {
            secs: secs(t),
            report,
            rounds: o.report.rounds,
            evaluated: o.report.evaluated,
            screened: o.report.screened,
            best: best.filter(|b| b.feasible).map(|b| b.value),
            cells: best
                .map(|b| (b.index, b.feasible, b.metrics.clone()))
                .into_iter()
                .collect(),
            stats: o.stats,
        })
    } else {
        let pareto = ParetoSpec::new(gen::objectives(), budget(spec));
        let o = pareto_campaign(spec, &pareto, &config, Some(&archive))?;
        let report = pareto_json(&o.report).map_err(|e| e.to_string())?;
        Ok(Leg {
            secs: secs(t),
            report,
            rounds: o.report.rounds,
            evaluated: o.report.evaluated,
            screened: 0,
            best: None,
            cells: o
                .report
                .front
                .iter()
                .map(|p| (p.index, p.feasible, p.metrics.clone()))
                .collect(),
            stats: o.stats,
        })
    }
}

/// Checks that a leg reports truthfully: every reported cell (the best,
/// or the front) carries the exhaustive run's metrics and feasibility
/// for that cell. Whether a budgeted search found a feasible cell at all
/// is its quality, which `feasible_pct` scores, not a failure.
fn check_leg(
    tally: &mut Tally,
    leg_no: usize,
    leg: &Leg,
    spec: &CampaignSpec,
    truth: &CampaignResult,
) {
    let objective = gen::objective();
    let objectives = gen::objectives();
    for (i, feasible, metrics) in &leg.cells {
        let exhaustive = &truth.results[*i];
        let truthful = if leg_no < SCALAR_LEGS.len() {
            objective.score(exhaustive).is_some_and(|s| {
                s.feasible == *feasible && (!s.feasible || Some(s.value) == leg.best)
            })
        } else {
            objectives
                .score(exhaustive)
                .is_some_and(|s| s.feasible == *feasible)
        };
        tally.check(
            truthful && exhaustive.metrics.as_ref() == Some(metrics),
            format_args!(
                "leg {leg_no}: reported cell {i} ({}) matches the exhaustive run",
                spec.cell_at(*i).label()
            ),
        );
    }
    tally.check(
        !leg.cells.is_empty(),
        format_args!("leg {leg_no} reports a result"),
    );
}

/// Checks that each grid's exhaustive run has no failed cells; `first`
/// is the index of `grids[0]` among the seed's search grids.
fn check_truth(tally: &mut Tally, first: u64, grids: &[Grid]) {
    for (k, g) in (first..).zip(grids) {
        tally.check(
            g.truth.failures().count() == 0,
            format_args!("exhaustive run of search grid {k} has no failed cells"),
        );
    }
}

/// Checks every leg of a ladder over `grids`.
fn check_ladder(tally: &mut Tally, grids: &[Grid], all: &[Vec<Leg>]) {
    for (grid, legs) in grids.iter().zip(all) {
        for (i, leg) in legs.iter().enumerate() {
            check_leg(tally, i, leg, &grid.spec, &grid.truth);
        }
    }
}

/// Each scalar leg's best as a share of its grid's optimum, `None` for
/// a leg that found no feasible cell.
fn shares(grids: &[Grid], all: &[Vec<Leg>]) -> Vec<Option<f64>> {
    grids
        .iter()
        .zip(all)
        .flat_map(|(grid, legs)| {
            legs[..SCALAR_LEGS.len()]
                .iter()
                .map(|l| l.best.map(|b| b / grid.optimum))
        })
        .collect()
}

/// One search grid with its exhaustive fine results.
struct Grid {
    spec: CampaignSpec,
    truth: CampaignResult,
    /// The exhaustive optimum of [`gen::objective`].
    optimum: f64,
    /// The exhaustive Pareto front of [`gen::objectives`].
    front: Vec<usize>,
}

impl Grid {
    fn new(ctx: &Ctx, k: u64) -> Result<Self, String> {
        let spec = gen::search_grid(ctx.seed, k);
        let (run, _, _) = ground_truth(ctx, &spec)?;
        let truth = run.result;
        let optimum = gen::objective()
            .argbest(&truth.results)
            .and_then(|r| gen::objective().score(r))
            .filter(|s| s.feasible)
            .ok_or_else(|| format!("search grid {k} has no feasible cell"))?
            .value;
        let front = front_of(&truth, &gen::objectives())
            .iter()
            .map(|p| p.index)
            .collect();
        Ok(Self {
            spec,
            truth,
            optimum,
            front,
        })
    }
}

fn leg_dir(root: &Path, grid: usize, leg: usize) -> std::path::PathBuf {
    root.join(format!("grid-{grid}-leg-{leg}"))
}

/// Runs the whole ladder cold on every grid under `root`; returns the
/// legs of each grid and the seconds.
fn ladder(
    grids: &[Grid],
    ctx: &Ctx,
    root: &Path,
    tracer: &mut Tracer,
) -> Result<(Vec<Vec<Leg>>, f64), String> {
    for g in 0..grids.len() {
        for i in 0..LEGS {
            let _ = std::fs::remove_dir_all(leg_dir(root, g, i));
        }
    }
    let t = Instant::now();
    let mut all = Vec::with_capacity(grids.len());
    for (g, grid) in grids.iter().enumerate() {
        let mut legs = Vec::with_capacity(LEGS);
        for i in 0..LEGS {
            legs.push(tracer.span("search", |_| {
                run_leg(&grid.spec, i, ctx, &leg_dir(root, g, i))
            })?);
        }
        all.push(legs);
    }
    Ok((all, secs(t)))
}

/// Replays the ladder's strategies over recorded exhaustive results,
/// timing only `propose`/`observe`; returns mean microseconds per round.
fn strategy_us(spec: &CampaignSpec, truth: &CampaignResult, tracer: &mut Tracer) -> f64 {
    let n = spec.scenario_count();
    let b = budget(spec);
    let starts = DEFAULT_START_POINTS.clamp(1, b);
    let strategies: Vec<Box<dyn Strategy>> = vec![
        Box::new(ClimbStrategy::new(spec, gen::objective(), starts)),
        Box::new(AnnealStrategy::new(
            spec,
            gen::objective(),
            starts,
            &SearchSpec::new(gen::objective(), b).anneal,
        )),
        Box::new(ParetoStrategy::new(spec, gen::objectives(), starts)),
    ];
    let (mut spent, mut rounds) = (0.0, 0usize);
    for mut s in strategies {
        let mut evaluated = vec![false; n];
        let mut count = 0;
        while count < b {
            let t = Instant::now();
            let mut batch = tracer.span("search.strategy", |_| s.propose(spec));
            spent += secs(t);
            batch.retain(|&i| !evaluated[i]);
            if batch.is_empty() {
                break;
            }
            batch.truncate(b - count);
            let t = Instant::now();
            tracer.span("search.strategy", |_| {
                for &i in &batch {
                    s.observe(i, &truth.results[i]);
                }
            });
            spent += secs(t);
            for &i in &batch {
                evaluated[i] = true;
            }
            count += batch.len();
            rounds += 1;
        }
    }
    spent / rounds.max(1) as f64 * 1e6
}

pub fn run(
    ctx: &Ctx,
    tally: &mut Tally,
    tracer: &mut Tracer,
    host: &mut HostProbe,
) -> Result<Outcome, String> {
    let work = WorkDir::new("search");
    let (grids, setup_s) = repeated_setup(setup_reps(ctx), host, || {
        (0..GRIDS)
            .map(|k| Grid::new(ctx, k))
            .collect::<Result<Vec<_>, _>>()
    });
    let grids = grids?;
    check_truth(tally, 0, &grids);

    if ctx.trace {
        let (_, untraced_s) = ladder(
            &grids,
            ctx,
            &work.fresh("untraced"),
            &mut Tracer::new(false),
        )?;
        let mut out = Layers::default();
        let root = work.fresh("traced");
        let mut failure = Ok(());
        traced_section(tracer, &mut out, untraced_s, |tr, out| {
            let (all, job_s) = match ladder(&grids, ctx, &root, tr) {
                Ok(pair) => pair,
                Err(e) => {
                    failure = Err(e);
                    return 0.0;
                }
            };
            check_ladder(tally, &grids, &all);
            let legs: Vec<&Leg> = all.iter().flatten().collect();
            let mut stats = RunStats::default();
            for leg in &legs {
                stats.absorb(&leg.stats);
            }
            let g = &grids[0];
            let costs = layers::replay(&g.spec, &g.truth, tr, tally, out);
            out.set("runner.fine_sims", stats.simulations as f64);
            out.set("runner.coarse_evals", stats.coarse_simulations as f64);
            out.set("runner.baseline_groups", stats.baseline_groups as f64);
            out.set("runner.reused_baselines", stats.reused_baselines as f64);
            let busy = stats.simulations as f64 * costs.fine_s
                + stats.coarse_simulations as f64 * costs.coarse_s;
            out.set("runner.busy_frac", busy / (job_s * ctx.nproc as f64));
            let rounds: usize = legs.iter().map(|l| l.rounds).sum();
            let fine: usize = legs.iter().map(|l| l.evaluated).sum();
            let screened: usize = legs.iter().map(|l| l.screened).sum();
            out.set("search.rounds", rounds as f64);
            out.set(
                "search.cells_per_round",
                (fine + screened) as f64 / rounds.max(1) as f64,
            );
            out.set("search.fine_evals", fine as f64);
            out.set("search.screened", screened as f64);
            let (found, total) =
                grids
                    .iter()
                    .zip(&all)
                    .fold((0, 0), |(found, total), (grid, legs)| {
                        let front = &legs[LEGS - 1].cells;
                        let hit = grid
                            .front
                            .iter()
                            .filter(|i| front.iter().any(|(j, _, _)| j == *i))
                            .count();
                        (found + hit, total + grid.front.len())
                    });
            out.set("search.pareto_recall", found as f64 / total.max(1) as f64);
            out.set("search.strategy_us", strategy_us(&g.spec, &g.truth, tr));
            layers::storage(&g.spec, &g.truth, work.path(), tr, tally, out);
            job_s
        });
        failure?;
        return Ok(Outcome::Traced(out));
    }

    // the untimed grids of the quality score, each laddered once
    let extra = (GRIDS..QUALITY_GRIDS)
        .map(|k| Grid::new(ctx, k))
        .collect::<Result<Vec<_>, _>>()?;
    check_truth(tally, GRIDS, &extra);
    let (extra_legs, _) = ladder(&extra, ctx, &work.fresh("quality"), tracer)?;
    check_ladder(tally, &extra, &extra_legs);
    let mut quality = shares(&extra, &extra_legs);

    // cold ladders alternate with rounds of leg resumes for the whole run
    let started = Instant::now();
    let (mut jobs, mut reads) = (Vec::new(), Vec::new());
    let mut leg_secs = vec![Vec::new(); LEGS];
    let mut first: Option<Vec<String>> = None;
    let root = work.fresh("ladder");
    while jobs.len() < MIN_LADDERS || reads.len() < MIN_READS || secs(started) < ctx.seconds {
        let (all, s) = ladder(&grids, ctx, &root, tracer)?;
        check_ladder(tally, &grids, &all);
        for legs in &all {
            for (times, leg) in leg_secs.iter_mut().zip(legs) {
                times.push(leg.secs);
            }
        }
        let reports: Vec<String> = all.iter().flatten().map(|l| l.report.clone()).collect();
        match &first {
            None => {
                let digest = fnv64(reports.concat().as_bytes());
                eprintln!("perfbench: search report digest {digest:016x}");
                first = Some(reports);
                quality.extend(shares(&grids, &all));
            }
            Some(f) => tally.check(
                *f == reports,
                "ladder reports are identical across repetitions",
            ),
        }
        jobs.push(s);
        host.probe();
        for _ in 0..RESUMES_PER_LADDER {
            for (g, (grid, legs)) in grids.iter().zip(&all).enumerate() {
                for (i, cold) in legs.iter().enumerate() {
                    let leg = run_leg(&grid.spec, i, ctx, &leg_dir(&root, g, i))?;
                    reads.push(leg.secs * 1e3);
                    tally.check(
                        leg.stats.simulations == 0 && leg.stats.coarse_simulations == 0,
                        format_args!(
                            "resumed leg {i} of grid {g} ran {} simulations",
                            leg.stats.simulations
                        ),
                    );
                    tally.check(
                        leg.report == cold.report,
                        format_args!("resumed leg {i} of grid {g} reports as the cold one"),
                    );
                }
                host.probe();
            }
        }
    }
    // the share of scalar legs that found a feasible cell, and the mean
    // best of those legs as a share of their grid's optimum
    let found: Vec<f64> = quality.iter().flatten().copied().collect();
    let per_leg: Vec<String> = leg_secs
        .iter()
        .map(|t| format!("{:.1}", median(t) * 1e3))
        .collect();
    eprintln!(
        "perfbench: median leg ms (climb, anneal, climb multi, anneal multi, pareto): {}",
        per_leg.join(", ")
    );
    Ok(Outcome::Untraced(EndToEnd {
        setup_s,
        peak_rss_mb: vm_hwm_mb("self").unwrap_or(0.0),
        jobs_s: jobs,
        reads_ms: reads,
        best_pct_of_optimum: 100.0 * found.iter().sum::<f64>() / found.len().max(1) as f64,
        feasible_pct: 100.0 * found.len() as f64 / quality.len() as f64,
        cells_per_job: grids.iter().map(|g| budget(&g.spec)).sum::<usize>() * LEGS,
    }))
}
