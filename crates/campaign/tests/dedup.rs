//! Baseline-dedup contract: sharing one always-`ON1` baseline across
//! cells that differ only in controller/tuning changes *nothing* about
//! the results — it only removes simulations (counted by the runner's
//! [`RunStats`] hook).

use dpm_campaign::{
    campaign_json, run_campaign_with, run_cells_with, summarize, BaselineCache, BatteryAxis,
    CampaignRun, CampaignSpec, ControllerAxis, RunnerConfig, ThermalAxis, TuningAxis, WorkloadAxis,
};

/// A controller×tuning-heavy grid: 4 controllers × 2 tunings over a
/// single (workload, seed, battery, thermal, ip-count) pair of groups.
fn controller_grid() -> CampaignSpec {
    CampaignSpec {
        name: "dedup".into(),
        horizon_ms: 6,
        master_seed: 0xDED0_0001,
        initial_soc: 0.9,
        controllers: vec![
            ControllerAxis::Dpm,
            ControllerAxis::AlwaysOn,
            ControllerAxis::Timeout500us,
            ControllerAxis::Oracle,
        ],
        tunings: vec![TuningAxis::Paper, TuningAxis::Eager],
        workloads: vec![WorkloadAxis::Low],
        seeds: vec![1, 2],
        batteries: vec![BatteryAxis::Linear],
        thermals: vec![ThermalAxis::Cool],
        ip_counts: vec![1],
    }
}

fn run(spec: &CampaignSpec, threads: usize, dedup: bool) -> CampaignRun {
    let config = RunnerConfig {
        threads,
        progress: false,
        dedup_baselines: dedup,
        ..RunnerConfig::default()
    };
    run_campaign_with(spec, &config, None).expect("valid spec")
}

#[test]
fn dedup_preserves_results_and_strictly_cuts_simulations() {
    let spec = controller_grid();
    let with = run(&spec, 1, true);
    let without = run(&spec, 1, false);

    // identical ScenarioMetrics, cell for cell
    assert_eq!(with.result, without.result);
    // ... down to the rendered bytes
    assert_eq!(
        campaign_json(&summarize(&with.result), Some(&with.result)).unwrap(),
        campaign_json(&summarize(&without.result), Some(&without.result)).unwrap(),
    );

    // run-counter hook: strictly fewer simulations with dedup
    let cells = spec.scenario_count();
    assert_eq!(without.stats.simulations, 2 * cells);
    assert!(
        with.stats.simulations < without.stats.simulations,
        "dedup must run strictly fewer simulations: {} vs {}",
        with.stats.simulations,
        without.stats.simulations
    );
    // exact accounting: 2 baseline groups (one per seed); per group the
    // 2 always-ON1 cells reuse the baseline, the other 6 cells run one
    // scenario simulation each
    assert_eq!(with.stats.baseline_groups, 2);
    assert_eq!(with.stats.reused_baselines, 4);
    assert_eq!(with.stats.simulations, 2 + 2 * 6);
}

#[test]
fn dedup_is_thread_count_invariant() {
    let spec = controller_grid();
    let serial = run(&spec, 1, true);
    for threads in [2, 4, 8] {
        let parallel = run(&spec, threads, true);
        assert_eq!(parallel.result, serial.result, "threads={threads}");
        assert_eq!(parallel.stats.simulations, serial.stats.simulations);
    }
}

#[test]
fn multi_ip_groups_dedup_too() {
    let mut spec = controller_grid();
    spec.controllers = vec![ControllerAxis::Dpm, ControllerAxis::AlwaysOn];
    spec.tunings = vec![TuningAxis::Paper];
    spec.seeds = vec![1];
    spec.ip_counts = vec![1, 4];
    let with = run(&spec, 2, true);
    let without = run(&spec, 2, false);
    assert_eq!(with.result, without.result);
    // two groups (ip_count 1 and 4); each<ip-count group's always-ON1
    // cell reuses, each DPM cell runs once
    assert_eq!(with.stats.baseline_groups, 2);
    assert_eq!(with.stats.simulations, 2 + 2);
    assert_eq!(without.stats.simulations, 8);
}

#[test]
fn a_baseline_cache_never_serves_another_specs_results() {
    // the cache keys hold neither the master seed, the horizon nor the
    // starting charge: a cache filled on one spec and handed a spec that
    // differs only there must start over, not serve stale baselines
    let mut spec = CampaignSpec::default_sweep();
    spec.horizon_ms = 20;
    let cells = spec.expand();
    let config = RunnerConfig::default();
    let mut cache = BaselineCache::new();
    run_cells_with(&spec, &cells, &config, None, Some(&mut cache)).expect("valid spec");
    assert!(!cache.is_empty());

    let mut variants = Vec::new();
    for change in 0..3 {
        let mut other = spec.clone();
        match change {
            0 => other.master_seed += 1,
            1 => other.horizon_ms += 4,
            _ => other.initial_soc = 0.22,
        }
        variants.push(other);
    }
    for other in variants.iter().chain([&spec]) {
        let cells = other.expand();
        let reused = run_cells_with(other, &cells, &config, None, Some(&mut cache))
            .expect("valid spec")
            .result;
        let fresh = run_cells_with(other, &cells, &config, None, None)
            .expect("valid spec")
            .result;
        assert_eq!(reused, fresh, "a reused cache changed the results");
    }
}
