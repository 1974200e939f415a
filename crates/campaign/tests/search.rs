//! Search contract: the adaptive climber finds the exhaustive-campaign
//! argmax while running measurably fewer simulations, degenerates to the
//! exhaustive winner when the budget covers the grid, and its report is
//! **byte-identical** across thread counts and archived/fresh mixes.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use dpm_campaign::{
    parse_campaign_toml, run_campaign_with, search_campaign, search_json, BatteryAxis,
    CampaignArchive, CampaignSpec, Constraint, ControllerAxis, Metric, Objective, RunnerConfig,
    SearchSpec, ThermalAxis, TuningAxis, WorkloadAxis,
};
use proptest::prelude::*;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "search-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(threads: usize) -> RunnerConfig {
    RunnerConfig {
        threads,
        ..RunnerConfig::default()
    }
}

/// A 64-cell grid (4 controllers × 2 tunings × 2 workloads × 2 seeds ×
/// 2 thermals) — big enough that a 40-evaluation search is a real
/// saving over sweeping it.
fn grid64() -> CampaignSpec {
    CampaignSpec {
        name: "search64".into(),
        horizon_ms: 5,
        master_seed: 0x5EA2_C805,
        initial_soc: 0.9,
        controllers: vec![
            ControllerAxis::Dpm,
            ControllerAxis::Timeout500us,
            ControllerAxis::Timeout2ms,
            ControllerAxis::Oracle,
        ],
        tunings: vec![TuningAxis::Paper, TuningAxis::Eager],
        workloads: vec![WorkloadAxis::Low, WorkloadAxis::High],
        seeds: vec![1, 2],
        batteries: vec![BatteryAxis::Linear],
        thermals: vec![ThermalAxis::Cool, ThermalAxis::Hot],
        ip_counts: vec![1],
    }
}

fn small_spec(master_seed: u64, seeds: Vec<u64>, two_controllers: bool) -> CampaignSpec {
    CampaignSpec {
        name: "search_small".into(),
        horizon_ms: 6,
        master_seed,
        initial_soc: 0.9,
        controllers: if two_controllers {
            vec![ControllerAxis::Dpm, ControllerAxis::AlwaysOn]
        } else {
            vec![ControllerAxis::Dpm]
        },
        tunings: vec![TuningAxis::Paper],
        workloads: vec![WorkloadAxis::Low],
        seeds,
        batteries: vec![BatteryAxis::Linear],
        thermals: vec![ThermalAxis::Cool],
        ip_counts: vec![1],
    }
}

#[test]
fn search_matches_exhaustive_argmax_with_fewer_simulations() {
    let spec = grid64();
    let objective = Objective::for_metric(Metric::EnergySavingPct);

    let exhaustive = run_campaign_with(&spec, &config(0), None).expect("exhaustive sweep");
    let reference = objective
        .argbest(&exhaustive.result.results)
        .expect("grid has successful cells")
        .scenario
        .index;

    let search = SearchSpec::new(objective, 40);
    let outcome = search_campaign(&spec, &search, &config(0), None).expect("search");
    let best = outcome.report.best.as_ref().expect("search found a best");

    assert_eq!(
        best.index, reference,
        "search must find the exhaustive winner"
    );
    assert!(outcome.report.evaluated <= 40);
    assert!(
        outcome.stats.simulations < exhaustive.stats.simulations,
        "search must run measurably fewer simulations: {} vs {}",
        outcome.stats.simulations,
        exhaustive.stats.simulations,
    );
}

#[test]
fn constrained_search_matches_the_constrained_exhaustive_winner() {
    let spec = grid64();
    // bound the delay overhead at the exhaustive median so the
    // constraint genuinely excludes cells, whatever the platform's
    // floating point does
    let exhaustive = run_campaign_with(&spec, &config(0), None).unwrap();
    let median =
        dpm_campaign::metric_stat_where(&exhaustive.result, Metric::DelayOverheadPct, |_| true)
            .percentile(50.0);
    let objective = Objective::for_metric(Metric::EnergySavingPct).with_constraint(Constraint {
        metric: Metric::DelayOverheadPct,
        op: dpm_campaign::ConstraintOp::Le,
        bound: median,
    });
    let reference = objective.argbest(&exhaustive.result.results).unwrap();
    assert!(
        objective.score(reference).unwrap().feasible,
        "some cell satisfies the median bound by construction"
    );

    // a full-budget search must land on the same constrained winner
    let search = SearchSpec::new(objective, spec.scenario_count());
    let outcome = search_campaign(&spec, &search, &config(0), None).unwrap();
    let best = outcome.report.best.as_ref().unwrap();
    assert_eq!(best.index, reference.scenario.index);
    assert!(best.feasible);
}

#[test]
fn repeated_resume_search_runs_zero_fresh_simulations() {
    let spec = grid64();
    let search = SearchSpec::new(Objective::for_metric(Metric::EnergySavingPct), 24);
    let dir = scratch_dir();

    let archive = CampaignArchive::open(&dir, &spec).unwrap();
    let first = search_campaign(&spec, &search, &config(2), Some(&archive)).unwrap();
    assert!(first.stats.simulations > 0);
    assert!(first.archive_errors.is_empty());

    let archive = CampaignArchive::open(&dir, &spec).unwrap();
    let second = search_campaign(&spec, &search, &config(4), Some(&archive)).unwrap();
    assert_eq!(
        second.stats.simulations, 0,
        "the campaign directory is a complete result cache for the search"
    );
    assert_eq!(second.stats.archived_cells, second.report.evaluated);
    assert_eq!(
        search_json(&second.report).unwrap(),
        search_json(&first.report).unwrap(),
        "cached and fresh searches must render byte-identical reports"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// Speculative prefetch was removed: a spec or command line still
// asking for it must fail loudly rather than silently run without it.
#[test]
fn search_prefetch_is_an_unknown_key() {
    let err = parse_campaign_toml("[search]\nprefetch = true\n").unwrap_err();
    assert!(err.contains("unknown key 'search.prefetch'"), "{err}");
}

#[test]
fn search_prefetch_is_an_unknown_flag() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_dpm"))
        .args(["search", "--builtin", "--objective", "energy_saving"])
        .arg("--prefetch")
        .output()
        .expect("run dpm");
    assert!(!out.status.success(), "--prefetch must be refused");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag '--prefetch'"), "{stderr}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // With budget >= grid size the search *is* an exhaustive sweep:
    // same winner as the campaign argmax, every cell evaluated.
    #[test]
    fn full_budget_search_equals_exhaustive_argmax(
        master in 0u64..u64::MAX / 2,
        seeds in prop::collection::vec(0u64..1000, 1..4),
        two_controllers in prop::sample::select(vec![false, true]),
        metric in prop::sample::select(vec![
            Metric::EnergySavingPct,
            Metric::EnergyJ,
            Metric::MeanLatencyUs,
            Metric::LowPowerFrac,
        ]),
        extra_budget in 0usize..3,
    ) {
        let spec = small_spec(master, seeds, two_controllers);
        let objective = Objective::for_metric(metric);
        let exhaustive = run_campaign_with(&spec, &config(1), None).unwrap();
        let reference = objective.argbest(&exhaustive.result.results).unwrap();

        let search = SearchSpec::new(objective, spec.scenario_count() + extra_budget);
        let outcome = search_campaign(&spec, &search, &config(1), None).unwrap();
        prop_assert_eq!(outcome.report.evaluated, spec.scenario_count());
        let best = outcome.report.best.as_ref().unwrap();
        prop_assert_eq!(best.index, reference.scenario.index);
        prop_assert_eq!(&best.metrics, reference.metrics.as_ref().unwrap());
    }

    // The report is byte-identical on 1/2/8 threads and for any
    // archived/fresh mix of cells.
    #[test]
    fn search_report_is_byte_deterministic(
        master in 0u64..u64::MAX / 2,
        seeds in prop::collection::vec(0u64..1000, 2..4),
        budget in 1usize..9,
        keep_mask in prop::bits::u8::masked(0b1111_1111),
    ) {
        let spec = small_spec(master, seeds, true);
        let search = SearchSpec::new(Objective::for_metric(Metric::EnergySavingPct), budget);
        let reference = search_json(
            &search_campaign(&spec, &search, &config(1), None).unwrap().report,
        ).unwrap();

        for threads in [2, 8] {
            let report = search_campaign(&spec, &search, &config(threads), None).unwrap().report;
            prop_assert_eq!(
                &search_json(&report).unwrap(),
                &reference,
                "threads={} diverged", threads
            );
        }

        // pre-archive an arbitrary subset of the exhaustive results and
        // re-search: identical bytes again
        let exhaustive = run_campaign_with(&spec, &config(1), None).unwrap();
        let dir = scratch_dir();
        let archive = CampaignArchive::open(&dir, &spec).unwrap();
        for (i, r) in exhaustive.result.results.iter().enumerate() {
            if keep_mask & (1 << (i % 8)) != 0 {
                archive.store(&spec, r).unwrap();
            }
        }
        let mixed = search_campaign(&spec, &search, &config(2), Some(&archive)).unwrap();
        prop_assert_eq!(
            &search_json(&mixed.report).unwrap(),
            &reference,
            "archived/fresh mix diverged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
