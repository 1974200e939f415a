//! Per-layer probes for the traced run. Each probe times calls into one
//! layer's public functions from outside, inside tracer spans, and
//! returns the layer's metrics.

use std::path::Path;
use std::time::Instant;

use dpm_campaign::{
    completed_run, front_of, report_json, CampaignArchive, CampaignResult, CampaignSpec,
    LeaseConfig,
};
use dpm_kernel::Simulation;
use dpm_soc::experiment::table2_row;
use dpm_soc::{build_soc, collect_metrics, run_config_coarse, ControllerKind, SocMetrics};

use crate::trace::Tracer;
use crate::util::{dir_bytes, median, secs};
use crate::{Layers, Tally};

/// Mean per-evaluation costs measured by [`replay`], in seconds.
pub struct ReplayCosts {
    /// One fine simulation: SoC build + kernel run + metric collection.
    pub fine_s: f64,
    /// One coarse evaluation.
    pub coarse_s: f64,
    /// Fine simulations replayed.
    pub fine_sims: usize,
}

fn fine(
    tracer: &mut Tracer,
    cfg: &dpm_soc::SocConfig,
    horizon: dpm_units::SimTime,
) -> (SocMetrics, dpm_kernel::KernelStats) {
    let mut sim = tracer.span("kernel.new", |_| Simulation::new());
    let handles = tracer.span("soc.build", |_| build_soc(&mut sim, cfg));
    tracer.span("kernel.run", |_| sim.run_until(horizon));
    let stats = sim.stats().clone();
    let metrics = tracer.span("soc.collect", |_| {
        collect_metrics(&mut sim, &handles, horizon)
    });
    (metrics, stats)
}

/// Replays the simulations a deduplicating runner performs on `spec`
/// (one always-ON1 baseline per baseline group, one run per cell), one
/// call per layer, plus a coarse evaluation of the same configurations.
/// Checks each replayed energy saving against `result`.
pub fn replay(
    spec: &CampaignSpec,
    result: &CampaignResult,
    tracer: &mut Tracer,
    tally: &mut Tally,
    out: &mut Layers,
) -> ReplayCosts {
    let horizon = spec.horizon();
    let cells = spec.expand();
    let (mut tasks, mut gap_pp) = (0usize, 0f64);
    let (mut acts, mut deltas, mut steps) = (0u64, 0u64, 0u64);
    let mut baselines: Vec<Option<(SocMetrics, SocMetrics)>> = vec![None; spec.group_count()];
    let (mut fine_sims, mut coarse_evals) = (0usize, 0usize);
    let before = tracer.self_times();
    for cell in &cells {
        let cfg = tracer.span("workload.build_config", |_| cell.build_config(spec));
        let group = spec.group_of(cell.index);
        if baselines[group].is_none() {
            let base_cfg = cfg.clone().with_controller(ControllerKind::AlwaysOn);
            let (base, ks) = fine(tracer, &base_cfg, horizon);
            let coarse = tracer.span("soc.coarse", |_| run_config_coarse(&base_cfg, horizon));
            (acts, deltas, steps) = (
                acts + ks.process_activations,
                deltas + ks.delta_cycles,
                steps + ks.timesteps,
            );
            fine_sims += 1;
            coarse_evals += 1;
            baselines[group] = Some((base, coarse));
        }
        let (dpm, ks) = fine(tracer, &cfg, horizon);
        let coarse = tracer.span("soc.coarse", |_| run_config_coarse(&cfg, horizon));
        (acts, deltas, steps) = (
            acts + ks.process_activations,
            deltas + ks.delta_cycles,
            steps + ks.timesteps,
        );
        fine_sims += 1;
        coarse_evals += 1;
        tasks += dpm.total_tasks();
        let (base, base_coarse) = baselines[group].as_ref().expect("baseline replayed above");
        let fine_saving = table2_row(&dpm, base).energy_saving_pct;
        let coarse_saving = table2_row(&coarse, base_coarse).energy_saving_pct;
        gap_pp = gap_pp.max((fine_saving - coarse_saving).abs());
        let expected = result.results[cell.index]
            .metrics
            .as_ref()
            .map(|m| m.energy_saving_pct);
        tally.check(
            expected == Some(fine_saving),
            format_args!(
                "replayed cell {} matches the runner's energy saving",
                cell.index
            ),
        );
    }
    let after = tracer.self_times();
    let spent = |name: &str| {
        after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
    };
    let n = cells.len() as f64;
    let sims = fine_sims as f64;
    let fine_s =
        (spent("kernel.new") + spent("soc.build") + spent("kernel.run") + spent("soc.collect"))
            / sims;
    let coarse_s = spent("soc.coarse") / coarse_evals as f64;
    out.set(
        "workload.build_config_us",
        spent("workload.build_config") / n * 1e6,
    );
    out.set("workload.tasks_per_cell", tasks as f64 / n);
    out.set(
        "soc.build_us",
        (spent("kernel.new") + spent("soc.build")) / sims * 1e6,
    );
    out.set("soc.collect_us", spent("soc.collect") / sims * 1e6);
    out.set("kernel.run_us", spent("kernel.run") / sims * 1e6);
    out.set("kernel.activations", acts as f64 / sims);
    out.set("kernel.delta_cycles", deltas as f64 / sims);
    out.set("kernel.timesteps", steps as f64 / sims);
    out.set(
        "kernel.ns_per_activation",
        spent("kernel.run") * 1e9 / acts.max(1) as f64,
    );
    out.set("soc.coarse_us", coarse_s * 1e6);
    out.set("soc.coarse_speedup", fine_s / coarse_s);
    out.set("soc.coarse_gap_pp", gap_pp);
    ReplayCosts {
        fine_s,
        coarse_s,
        fine_sims,
    }
}

/// Median wall seconds of `reps` calls of `f`, each in a span.
fn probe<T>(tracer: &mut Tracer, name: &'static str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        tracer.span(name, |_| std::hint::black_box(f()));
        samples.push(secs(t));
    }
    median(&samples)
}

/// Times the archive, lease, aggregate and store layers: appends
/// `result` (the fine results of `spec`) to a fresh campaign directory
/// under `scratch`, then reads the complete directory back.
pub fn storage(
    spec: &CampaignSpec,
    result: &CampaignResult,
    scratch: &Path,
    tracer: &mut Tracer,
    tally: &mut Tally,
    out: &mut Layers,
) {
    const REPS: usize = 15;
    let cells = spec.expand();
    let n = cells.len();
    let dir = scratch.join("storage-probe");
    let _ = std::fs::remove_dir_all(&dir);
    let fresh = CampaignArchive::open(&dir, spec).expect("scratch archive opens");
    let t = Instant::now();
    tracer.span("archive.store", |_| {
        for r in &result.results {
            fresh.store(spec, r).expect("scratch archive append");
        }
    });
    out.set("archive.store_us", secs(t) / n as f64 * 1e6);
    drop(fresh);

    out.set(
        "archive.open_ms",
        probe(tracer, "archive.open", REPS, || {
            CampaignArchive::open(&dir, spec).expect("complete archive opens")
        }) * 1e3,
    );
    let archive = CampaignArchive::open(&dir, spec).expect("complete archive opens");
    out.set(
        "archive.load_ms",
        probe(tracer, "archive.load", REPS, || archive.load(spec, &cells)) * 1e3,
    );
    out.set(
        "archive.cell_states_ms",
        probe(tracer, "archive.cell_states", REPS, || {
            archive.cell_states(spec, 60_000)
        }) * 1e3,
    );
    out.set(
        "archive.bytes_per_cell",
        dir_bytes(&dir.join("segments")) as f64 / n as f64,
    );
    let replayed = completed_run(&archive, spec).map(|(run, _)| run.results == result.results);
    tally.check(
        replayed == Ok(true),
        "the archive replays the run's results",
    );
    out.set(
        "store.completed_run_ms",
        probe(tracer, "store.completed_run", REPS, || {
            completed_run(&archive, spec)
        }) * 1e3,
    );
    out.set(
        "aggregate.report_ms",
        probe(tracer, "aggregate.report", REPS, || {
            report_json(result, false)
        }) * 1e3,
    );
    let objectives = crate::gen::objectives();
    out.set(
        "store.front_ms",
        probe(tracer, "store.front", REPS, || {
            front_of(result, &objectives)
        }) * 1e3,
    );

    let lease = LeaseConfig::for_process();
    let groups = spec.group_count();
    let (mut claim_s, mut release_s) = (0.0, 0.0);
    for g in 0..groups {
        let t = Instant::now();
        let held = tracer.span("lease.claim", |_| archive.try_claim(g, &lease));
        claim_s += secs(t);
        let Ok(Some(held)) = held else {
            tally.check(
                false,
                format_args!("lease on group {g} of an unleased archive"),
            );
            continue;
        };
        let t = Instant::now();
        tracer.span("lease.release", |_| archive.release(held));
        release_s += secs(t);
    }
    out.set("lease.claim_us", claim_s / groups as f64 * 1e6);
    out.set("lease.release_us", release_s / groups as f64 * 1e6);
    let _ = std::fs::remove_dir_all(&dir);
}
