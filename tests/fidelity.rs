//! Coarse-vs-fine fidelity contract on the paper's Table 2 corpus.
//!
//! The coarse evaluator (`dpm_soc::run_config_coarse`) replaces the
//! event-driven kernel with an analytic dwell-time walk. It is the
//! screening stage of multi-fidelity search, so its value is *relative*
//! accuracy: a cell that wins at fine fidelity must also look good at
//! coarse fidelity. These tests pin that contract on the six hand-wired
//! scenarios of the paper's Table 2:
//!
//! * **Tolerance band** — coarse energy saving stays within a few
//!   percentage points of fine (measured worst case ~1.1 pp; asserted
//!   at 2.5 pp so constant retunes don't flake the suite).
//! * **Rank agreement** — ordering the six scenarios by coarse saving
//!   agrees with the fine ordering up to near-ties (Spearman ≥ 0.9;
//!   A2/A4 differ by ~0.1 pp at fine fidelity and may legally swap).
//!
//! Absolute thermal numbers are *not* pinned: the coarse path models
//! temperature from average power, which is enough for ranking but not
//! for the fine path's transient peaks (see crates/soc/src/coarse.rs).
//!
//! One rung up the ladder, the cycle-accurate mode (one free-running
//! clock per IP, as the paper's SystemC model evaluates) must agree with
//! the event-driven run it instruments: energy bit for bit, the same
//! completed tasks, and monitor readings within a stated bound.

use dpmsim::soc::experiment::{
    run_config, scenario_config, scenario_config_seeded, table2_row, ScenarioId, HORIZON,
};
use dpmsim::soc::{run_config_coarse, ControllerKind, SocConfig, SocMetrics};
use dpmsim::units::SimTime;

/// Worst observed gap is ~1.1 pp (scenario A3); leave headroom for
/// power-constant retunes without letting the band go vacuous.
const SAVING_TOLERANCE_PP: f64 = 2.5;

/// One scenario evaluated at both fidelities, DPM vs always-on baseline.
struct Pair {
    id: ScenarioId,
    fine_saving_pct: f64,
    coarse_saving_pct: f64,
    fine: SocMetrics,
    coarse: SocMetrics,
}

fn evaluate(id: ScenarioId) -> Pair {
    let cfg = scenario_config(id);
    let base: SocConfig = cfg.clone().with_controller(ControllerKind::AlwaysOn);
    let fine = run_config(&cfg, HORIZON);
    let fine_row = table2_row(&fine, &run_config(&base, HORIZON));
    let coarse = run_config_coarse(&cfg, HORIZON);
    let coarse_row = table2_row(&coarse, &run_config_coarse(&base, HORIZON));
    Pair {
        id,
        fine_saving_pct: fine_row.energy_saving_pct,
        coarse_saving_pct: coarse_row.energy_saving_pct,
        fine,
        coarse,
    }
}

fn corpus() -> Vec<Pair> {
    ScenarioId::ALL.iter().map(|&id| evaluate(id)).collect()
}

/// Ranks (0 = smallest) of a value slice; ties broken by position,
/// which is fine here because exact ties do not occur in the corpus.
fn ranks(values: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut out = vec![0usize; values.len()];
    for (rank, &idx) in order.iter().enumerate() {
        out[idx] = rank;
    }
    out
}

fn spearman(a: &[f64], b: &[f64]) -> f64 {
    let (ra, rb) = (ranks(a), ranks(b));
    let n = a.len() as f64;
    let d2: f64 = ra
        .iter()
        .zip(&rb)
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum();
    1.0 - 6.0 * d2 / (n * (n * n - 1.0))
}

#[test]
fn coarse_energy_saving_tracks_fine_within_the_band() {
    for p in corpus() {
        let gap = (p.coarse_saving_pct - p.fine_saving_pct).abs();
        assert!(
            gap <= SAVING_TOLERANCE_PP,
            "{}: coarse saving {:.3}% vs fine {:.3}% — gap {gap:.3} pp exceeds {SAVING_TOLERANCE_PP} pp",
            p.id,
            p.coarse_saving_pct,
            p.fine_saving_pct,
        );
    }
}

#[test]
fn coarse_ranks_the_corpus_like_fine() {
    let pairs = corpus();
    let fine: Vec<f64> = pairs.iter().map(|p| p.fine_saving_pct).collect();
    let coarse: Vec<f64> = pairs.iter().map(|p| p.coarse_saving_pct).collect();
    let rho = spearman(&fine, &coarse);
    assert!(
        rho >= 0.9,
        "rank agreement too weak: Spearman {rho:.3}\nfine: {fine:?}\ncoarse: {coarse:?}"
    );
    // The clear (non-tied) regime calls must agree exactly: battery-Low
    // scenarios save more than their battery-Full siblings, and the
    // multi-IP GEM scenarios save the most — at both fidelities.
    for vals in [&fine, &coarse] {
        let by = |id: ScenarioId| vals[ScenarioId::ALL.iter().position(|&x| x == id).unwrap()];
        assert!(by(ScenarioId::A2) > by(ScenarioId::A1) + 10.0);
        assert!(by(ScenarioId::A4) > by(ScenarioId::A3) + 10.0);
        assert!(by(ScenarioId::B) > by(ScenarioId::A2));
        assert!(by(ScenarioId::C) > by(ScenarioId::A4));
    }
}

#[test]
fn coarse_preserves_task_accounting_and_conserves_time() {
    for p in corpus() {
        // Clairvoyant dwell walk executes the same trace: the work the
        // fine kernel completes must also complete coarsely (the coarse
        // path has no queueing delays, so it can only complete more).
        assert_eq!(p.coarse.total_tasks(), p.fine.total_tasks(), "{}", p.id);
        assert!(
            p.coarse.completed() >= p.fine.completed(),
            "{}: coarse completed {} < fine {}",
            p.id,
            p.coarse.completed(),
            p.fine.completed()
        );
        // Σ residency + transition time covers the horizon exactly.
        for ip in &p.coarse.per_ip {
            let covered = ip
                .residency
                .iter()
                .copied()
                .sum::<dpmsim::units::SimDuration>()
                + ip.psm.transition_time;
            assert_eq!(
                covered,
                HORIZON.saturating_duration_since(dpmsim::units::SimTime::ZERO),
                "{}",
                p.id
            );
        }
    }
}

/// Horizon of the cycle-accurate comparison: a clock edge every 5 ns per
/// IP makes longer runs slow in debug builds.
const CYCLE_HORIZON: SimTime = SimTime::from_millis(1);

/// The battery and thermal monitors report their state as of their last
/// activation, and the clock edges move that activation later inside
/// the final sample period. Measured worst cases over A1/A3/B/C x seeds
/// 1-2 at 1-5 ms: 0.039 K (A3, seed 2) and 7.9e-8 state of charge.
const MAX_TEMP_GAP_K: f64 = 0.05;
const FINAL_SOC_GAP: f64 = 1e-7;

fn assert_cycle_accurate_agrees(id: ScenarioId) {
    for seed in [1, 2] {
        let event_driven = scenario_config_seeded(id, seed);
        let mut clocked = event_driven.clone();
        clocked.cycle_accurate = true;
        let ed = run_config(&event_driven, CYCLE_HORIZON);
        let ca = run_config(&clocked, CYCLE_HORIZON);
        assert_eq!(
            ca.total_energy.as_joules().to_bits(),
            ed.total_energy.as_joules().to_bits(),
            "{id} seed {seed}: energy {} J clocked vs {} J event-driven",
            ca.total_energy.as_joules(),
            ed.total_energy.as_joules(),
        );
        assert_eq!(ca.completed(), ed.completed(), "{id} seed {seed}");
        let temp_gap = (ca.max_temp.as_celsius() - ed.max_temp.as_celsius()).abs();
        assert!(
            temp_gap < MAX_TEMP_GAP_K,
            "{id} seed {seed}: max temperature gap {temp_gap:.4} K"
        );
        let soc_gap = (ca.final_soc - ed.final_soc).abs();
        assert!(
            soc_gap < FINAL_SOC_GAP,
            "{id} seed {seed}: final state-of-charge gap {soc_gap:.3e}"
        );
    }
}

#[test]
fn cycle_accurate_agrees_with_event_driven_a1() {
    assert_cycle_accurate_agrees(ScenarioId::A1);
}

#[test]
fn cycle_accurate_agrees_with_event_driven_a3() {
    assert_cycle_accurate_agrees(ScenarioId::A3);
}

#[test]
fn cycle_accurate_agrees_with_event_driven_b() {
    assert_cycle_accurate_agrees(ScenarioId::B);
}

#[test]
fn cycle_accurate_agrees_with_event_driven_c() {
    assert_cycle_accurate_agrees(ScenarioId::C);
}
