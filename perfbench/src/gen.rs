//! Seeded input generation. Every grid the program sees is derived here
//! from the benchmark's `--seed`: the seed picks each grid's
//! `master_seed` and its `seeds` axis, the shapes below are fixed.

use dpm_campaign::{
    BatteryAxis, CampaignSpec, Constraint, ControllerAxis, MultiObjective, Objective, ThermalAxis,
    TuningAxis, WorkloadAxis,
};

use crate::util::SplitMix64;

/// Simulated horizon of every benchmark grid: eight times the shipped
/// exploration spec, so that each path does measurable work.
pub const HORIZON_MS: u64 = 200;

/// An exploration-shaped grid: 3 controllers x 2 tunings x `workloads`
/// x `seeds` trace seeds x 2 batteries x `thermals` x `ip_counts`.
fn grid(
    name: String,
    rng: &mut SplitMix64,
    workloads: &[WorkloadAxis],
    seeds: usize,
    thermals: &[ThermalAxis],
    ip_counts: &[usize],
) -> CampaignSpec {
    CampaignSpec {
        name,
        horizon_ms: HORIZON_MS,
        master_seed: rng.next_u64() >> 1,
        initial_soc: 0.95,
        controllers: vec![
            ControllerAxis::Dpm,
            ControllerAxis::Timeout500us,
            ControllerAxis::Oracle,
        ],
        tunings: vec![TuningAxis::Paper, TuningAxis::EnergyOptimal],
        workloads: workloads.to_vec(),
        seeds: (0..seeds).map(|_| 1 + rng.next_u64() % 1_000_000).collect(),
        batteries: vec![BatteryAxis::Linear, BatteryAxis::Kibam],
        thermals: thermals.to_vec(),
        ip_counts: ip_counts.to_vec(),
    }
}

const BOTH_LEVELS: [WorkloadAxis; 2] = [WorkloadAxis::Low, WorkloadAxis::High];

/// Independent generator streams per use, so adding a grid to one
/// workload never shifts another workload's inputs.
fn stream(seed: u64, tag: u64) -> SplitMix64 {
    let mut r = SplitMix64(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    r.next_u64();
    r
}

/// The 192-cell grid of the `sweep` and `workers` workloads.
pub fn sweep_grid(seed: u64) -> CampaignSpec {
    grid(
        format!("bench-sweep-{seed}"),
        &mut stream(seed, 1),
        &BOTH_LEVELS,
        2,
        &ThermalAxis::ALL,
        &[1, 4],
    )
}

/// The `k`-th 192-cell grid of the `search` workload: 8 trace seeds of
/// the quiet workload on a 4-IP SoC under the GEM. A cell costs about
/// the same anywhere in it, so a ladder's time does not depend on which
/// cells a seed's search path reaches (on a mixed 1-/4-IP, quiet/busy
/// grid that alone moves one grid's ladder by up to +-40 %).
pub fn search_grid(seed: u64, k: u64) -> CampaignSpec {
    grid(
        format!("bench-search-{seed}-{k}"),
        &mut stream(seed, 1000 + k),
        &[WorkloadAxis::Low],
        8,
        &ThermalAxis::ALL,
        &[4],
    )
}

/// The `i`-th 96-cell serve grid: `i < SERVE_STORED` are pre-filled
/// complete campaigns, later ones are submitted fresh.
pub fn serve_grid(seed: u64, i: u64) -> CampaignSpec {
    grid(
        format!("bench-serve-{seed}-{i}"),
        &mut stream(seed, 3 + i),
        &BOTH_LEVELS,
        2,
        &[ThermalAxis::Hot],
        &[1, 4],
    )
}

/// Complete campaigns pre-filled into the serve store.
pub const SERVE_STORED: u64 = 3;

/// The scalar objective of the search ladder and the serve `/best`
/// reads: highest energy saving with at most 10 % delay overhead.
pub fn objective() -> Objective {
    Objective::parse("energy_saving")
        .expect("valid objective")
        .with_constraint(Constraint::parse("delay_overhead_pct<=10").expect("valid constraint"))
}

/// The Pareto objectives of the search ladder and the serve `/pareto`
/// reads.
pub fn objectives() -> MultiObjective {
    MultiObjective::parse("max:energy_saving,min:delay").expect("valid objectives")
}

/// The query strings matching [`objective`] and [`objectives`].
pub const BEST_QUERY: &str = "objective=energy_saving&constraint=delay_overhead_pct%3C%3D10";
pub const PARETO_QUERY: &str = "objectives=max:energy_saving,min:delay";
