//! End-to-end and per-layer benchmark of the dpm campaign stack.
//!
//! ```text
//! bash perfbench/run.sh --workload sweep|search|serve|workers \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. `run.sh` builds the `dpm` binary and
//! this program, then runs it. Human-readable results go to stderr; the
//! last line of stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`). See `perfbench/README.md`.

mod client;
mod gen;
mod layers;
mod search;
mod serve;
mod sweep;
mod trace;
mod util;
mod workers;

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use dpm_campaign::{run_campaign_with, Fidelity, RunStats, RunnerConfig};
use dpm_soc::experiment::{paper_row, run_scenario, ScenarioId};

use crate::trace::Tracer;
use crate::util::HostProbe;

/// What one invocation measures, fixed by its arguments.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    /// The `dpm` binary built from this checkout.
    pub dpm: PathBuf,
}

impl Ctx {
    /// Runner settings of every in-process run: one thread per core.
    pub fn runner(&self) -> RunnerConfig {
        RunnerConfig {
            threads: self.nproc,
            ..RunnerConfig::default()
        }
    }
}

/// Counts operations attempted and failed. Every failed output check,
/// failed cell, non-2xx response and failed child counts once.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: CHECK FAILED: {what}");
        }
    }
}

/// Per-layer metrics of a traced run. Every name of [`PER_LAYER`] is
/// reported; a layer the workload does not enter reads 0.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unregistered layer metric {name}"
        );
        self.0.insert(name, value);
    }
}

/// The per-layer metrics and their units, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.build_config_us", "us"),
    ("workload.tasks_per_cell", "count"),
    ("soc.build_us", "us"),
    ("soc.collect_us", "us"),
    ("kernel.run_us", "us"),
    ("kernel.activations", "count"),
    ("kernel.delta_cycles", "count"),
    ("kernel.timesteps", "count"),
    ("kernel.ns_per_activation", "ns"),
    ("soc.coarse_us", "us"),
    ("soc.coarse_speedup", "ratio"),
    ("soc.coarse_gap_pp", "pp"),
    ("runner.fine_sims", "count"),
    ("runner.coarse_evals", "count"),
    ("runner.baseline_groups", "count"),
    ("runner.reused_baselines", "count"),
    ("runner.busy_frac", "ratio"),
    ("search.rounds", "count"),
    ("search.cells_per_round", "count"),
    ("search.strategy_us", "us"),
    ("search.fine_evals", "count"),
    ("search.screened", "count"),
    ("search.pareto_recall", "ratio"),
    ("archive.open_ms", "ms"),
    ("archive.load_ms", "ms"),
    ("archive.store_us", "us"),
    ("archive.cell_states_ms", "ms"),
    ("archive.bytes_per_cell", "B"),
    ("lease.claim_us", "us"),
    ("lease.release_us", "us"),
    ("aggregate.report_ms", "ms"),
    ("store.completed_run_ms", "ms"),
    ("store.front_ms", "ms"),
    ("http.overhead_ms", "ms"),
    ("server.submit_overhead_s", "s"),
    ("executor.spawn_ms", "ms"),
    ("executor.parity_ratio", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.coverage_pct", "%"),
];

/// End-to-end metrics of an untraced run (see README.md for what each
/// means on each workload).
pub struct EndToEnd {
    /// Median seconds of one set-up.
    pub setup_s: f64,
    /// Peak resident set of the process doing the work, MiB.
    pub peak_rss_mb: f64,
    /// Host seconds of each cold job.
    pub jobs_s: Vec<f64>,
    /// Zero-simulation read latencies, milliseconds.
    pub reads_ms: Vec<f64>,
    /// Mean best-found objective value as a share of the exhaustive
    /// optimum, over the searches that found a feasible cell, percent.
    pub best_pct_of_optimum: f64,
    /// Share of searches that found a feasible cell, percent.
    pub feasible_pct: f64,
    /// Grid cells per cold job (for the derived cells/s figure).
    pub cells_per_job: usize,
}

/// What a workload hands back.
pub enum Outcome {
    Untraced(EndToEnd),
    Traced(Layers),
}

/// Runs `setup` `reps` times, probing the host after each, returning
/// the last product and the median set-up time in seconds.
pub fn repeated_setup<T>(
    reps: usize,
    host: &mut HostProbe,
    mut setup: impl FnMut() -> T,
) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        last = Some(setup());
        times.push(util::secs(t));
        host.probe();
    }
    (last.expect("at least one set-up"), util::median(&times))
}

/// Set-ups per untraced run; the traced run sets up once.
pub fn setup_reps(ctx: &Ctx) -> usize {
    if ctx.trace {
        1
    } else {
        5
    }
}

/// Parses the stats line `dpm` prints (`report::run_stats_line`).
pub fn parse_stats_line(line: &str) -> Option<RunStats> {
    let num_before = |key: &str| -> Option<usize> {
        let at = line.find(key)?;
        line[..at]
            .split_whitespace()
            .last()?
            .trim_start_matches('(')
            .parse()
            .ok()
    };
    Some(RunStats {
        total_cells: num_before(" cells:")?,
        archived_cells: num_before(" archived")?,
        executed_cells: num_before(" executed")?,
        simulations: num_before(" simulations")?,
        baseline_groups: num_before(" shared baselines")?,
        reused_baselines: num_before(" always-on reuses")?,
        coarse_simulations: num_before(" coarse evaluations").unwrap_or(0),
        ..RunStats::default()
    })
}

fn parse_args() -> Result<(String, u64, f64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut found: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" => "workload",
            "--seed" => "seed",
            "--seconds" => "seconds",
            "--trace" => "trace",
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        found.insert(key, value);
    }
    let get = |k: &str| found.get(k).copied().ok_or(format!("missing --{k}"));
    let workload = get("workload")?.to_string();
    if !["sweep", "search", "serve", "workers"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok((workload, seed, seconds, trace))
}

/// Prints the model's error beside the speed numbers: Table 2 against
/// the paper's values, and coarse against fine on the first search grid.
fn print_model_error(ctx: &Ctx, tally: &mut Tally) {
    let mut abs_err = Vec::new();
    for id in ScenarioId::ALL {
        let got = run_scenario(id).row;
        let want = paper_row(id);
        let err = [
            got.energy_saving_pct - want.energy_saving_pct,
            got.temp_reduction_pct - want.temp_reduction_pct,
            got.delay_overhead_pct - want.delay_overhead_pct,
        ];
        eprintln!(
            "model: table2 {id}: energy saving {:+.1} pp, temp reduction {:+.1} pp, delay overhead {:+.1} pp vs paper",
            err[0], err[1], err[2]
        );
        abs_err.push(err[0].abs());
    }
    eprintln!(
        "model: table2 mean |energy-saving error| {:.2} pp over {} scenarios",
        abs_err.iter().sum::<f64>() / abs_err.len() as f64,
        abs_err.len()
    );
    let spec = gen::search_grid(ctx.seed, 0);
    let fine = run_campaign_with(&spec, &ctx.runner(), None);
    let coarse = run_campaign_with(&spec, &ctx.runner().with_fidelity(Fidelity::Coarse), None);
    let (Ok(fine), Ok(coarse)) = (fine, coarse) else {
        tally.check(false, "search grid runs at both fidelities");
        return;
    };
    let gaps: Vec<f64> = fine
        .result
        .results
        .iter()
        .zip(&coarse.result.results)
        .filter_map(|(f, c)| {
            Some(
                (f.metrics.as_ref()?.energy_saving_pct - c.metrics.as_ref()?.energy_saving_pct)
                    .abs(),
            )
        })
        .collect();
    tally.check(
        gaps.len() == spec.scenario_count(),
        "every search-grid cell runs at both fidelities",
    );
    eprintln!(
        "model: coarse vs fine on the search grid ({} cells): energy saving gap mean {:.2} pp, max {:.2} pp",
        gaps.len(),
        gaps.iter().sum::<f64>() / gaps.len().max(1) as f64,
        gaps.iter().copied().fold(0.0, f64::max)
    );
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let (workload, seed, seconds, trace) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let Some(dpm) = std::env::var_os("PERFBENCH_DPM").map(PathBuf::from) else {
        eprintln!("perfbench: PERFBENCH_DPM is unset; run through perfbench/run.sh");
        return ExitCode::from(2);
    };
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        trace,
        nproc,
        dpm,
    };
    // load discipline: the in-process runs use nproc threads, serve uses
    // two client connections and one daemon slot of nproc - 1 threads,
    // and workers uses two processes of nproc / 2 threads
    let (threads, connections, slots) = match ctx.workload.as_str() {
        "serve" => (serve::daemon_threads(&ctx), 2, 1),
        "workers" => (2 * (nproc / 2).max(1), 0, 0),
        _ => (nproc, 0, 0),
    };
    eprintln!(
        "perfbench: meta {{\"workload\":\"{}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\
         \"nproc\":{nproc},\"threads\":{threads},\"connections\":{connections},\"daemon_slots\":{slots},\
         \"rustc\":\"{}\",\"git\":\"{}\",\"source_digest\":\"{}\"}}",
        ctx.workload,
        std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
        std::env::var("PERFBENCH_GIT").unwrap_or_else(|_| "none".into()),
        util::source_digest(),
    );
    if threads > nproc || connections > nproc {
        eprintln!(
            "perfbench: refusing to run: {threads} threads / {connections} connections exceed nproc = {nproc}"
        );
        return ExitCode::from(3);
    }

    let mut tally = Tally::default();
    print_model_error(&ctx, &mut tally);
    let started = Instant::now();
    let mut tracer = Tracer::new(ctx.trace);
    let mut host = HostProbe::new(ctx.nproc);
    let outcome = match ctx.workload.as_str() {
        "sweep" => sweep::run(&ctx, &mut tally, &mut tracer, &mut host),
        "search" => search::run(&ctx, &mut tally, &mut tracer, &mut host),
        "serve" => serve::run(&ctx, &mut tally, &mut tracer, &mut host),
        _ => workers::run(&ctx, &mut tally, &mut tracer, &mut host),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "perfbench: {} finished in {:.1} s",
        ctx.workload,
        util::secs(started)
    );

    let metrics: Vec<(String, f64, &str)> = match outcome {
        Outcome::Untraced(e) => untraced_metrics(&ctx, &tally, &e, &host),
        Outcome::Traced(layers) => {
            let out = PathBuf::from(".bench_out");
            let path = out.join(format!("trace-{}-seed{}.jsonl", ctx.workload, ctx.seed));
            if let Err(e) = std::fs::create_dir_all(&out).and_then(|()| tracer.write_jsonl(&path)) {
                eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("perfbench: spans written to {}", path.display());
            PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let v = layers.0.get(name).copied().unwrap_or(0.0);
                    eprintln!("  {name:<28} {v:>14.4} {unit}");
                    (name.to_string(), v, unit)
                })
                .collect()
        }
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// The end-to-end metrics, printed with the workload-specific names too.
///
/// Timings are medians (p90 for the tail) divided by the host slowdown
/// the run's probes saw, so they read as seconds on a lightly loaded
/// reference host; stderr also prints the raw values.
fn untraced_metrics(
    ctx: &Ctx,
    tally: &Tally,
    e: &EndToEnd,
    host: &HostProbe,
) -> Vec<(String, f64, &'static str)> {
    let slowdown = host.slowdown();
    let n = e.reads_ms.len();
    let raw_job = util::median(&e.jobs_s);
    let raw_p50 = util::median(&e.reads_ms);
    let raw_p90 = util::quantile(&e.reads_ms, 0.9);
    let (probes, fastest, typical) = host.summary();
    eprintln!(
        "perfbench: host slowdown {slowdown:.3} ({probes} probes, fastest {:.3} ms, median {:.3} ms); \
         raw setup {:.4} s, job {raw_job:.4} s ({} jobs), read p50 {raw_p50:.4} ms, p90 {raw_p90:.4} ms \
         ({n} reads, {} beyond p90)",
        fastest * 1e3,
        typical * 1e3,
        e.setup_s,
        e.jobs_s.len(),
        util::beyond(n, 0.9)
    );
    let (setup_s, job_s) = (e.setup_s / slowdown, raw_job / slowdown);
    let (read_p50, read_p90) = (raw_p50 / slowdown, raw_p90 / slowdown);
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    let cells_per_s = e.cells_per_job as f64 / job_s;
    let named: Vec<(&str, f64, &str)> = match ctx.workload.as_str() {
        "sweep" => vec![
            ("sweep_cells_per_s", cells_per_s, "cells/s"),
            ("resume_p50_ms", read_p50, "ms"),
        ],
        "search" => vec![
            ("search_s", job_s, "s"),
            ("search_regret_pct", 100.0 - e.best_pct_of_optimum, "%"),
            ("search_feasible_pct", e.feasible_pct, "%"),
        ],
        "serve" => vec![
            ("serve_read_p50_ms", read_p50, "ms"),
            ("serve_read_p90_ms", read_p90, "ms"),
            ("serve_submit_to_report_p50_s", job_s, "s"),
        ],
        _ => vec![("workers_cells_per_s", cells_per_s, "cells/s")],
    };
    for (name, v, unit) in named.iter().chain(&[("failed_frac", failed_frac, "ratio")]) {
        eprintln!("  {name:<30} {v:>12.4} {unit}");
    }
    vec![
        ("setup_s".into(), setup_s, "s"),
        ("peak_rss_mb".into(), e.peak_rss_mb, "MiB"),
        ("job_s".into(), job_s, "s"),
        ("read_p50_ms".into(), read_p50, "ms"),
        ("read_p90_ms".into(), read_p90, "ms"),
        ("best_pct_of_optimum".into(), e.best_pct_of_optimum, "%"),
        ("feasible_pct".into(), e.feasible_pct, "%"),
    ]
}

/// Runs the traced section of a workload inside a root `bench` span:
/// `body` replays the job with spans around each layer call and
/// returns the traced job's seconds. Records the tracing overhead
/// against `untraced_job_s` and the share of the section's wall time
/// that layer spans cover.
pub fn traced_section(
    tracer: &mut Tracer,
    layers: &mut Layers,
    untraced_job_s: f64,
    body: impl FnOnce(&mut Tracer, &mut Layers) -> f64,
) {
    let t = Instant::now();
    let traced_job_s = tracer.span("bench", |tr| body(tr, layers));
    let wall = util::secs(t);
    let root_self = tracer.self_times().get("bench").copied().unwrap_or(0.0);
    eprintln!(
        "perfbench: traced section {:.2} s, {} spans; job {:.1} ms traced vs {:.1} ms untraced",
        wall,
        tracer.len(),
        traced_job_s * 1e3,
        untraced_job_s * 1e3
    );
    layers.set("trace.overhead_ms", (traced_job_s - untraced_job_s) * 1e3);
    layers.set("trace.coverage_pct", 100.0 * (1.0 - root_self / wall));
}
