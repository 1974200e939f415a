//! Segment-store contract: records round-trip bit-identically through
//! the append-only segment files, torn tails re-run exactly the cell
//! they hid, and the segment store is the only record format — a stray
//! per-cell JSON file under `cells/` is never read, swept or migrated.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use dpm_campaign::{
    campaign_json, run_campaign_with, spec_fingerprint, summarize, BatteryAxis, CampaignArchive,
    CampaignResult, CampaignSpec, CellRecord, ControllerAxis, Fidelity, LeaseConfig, LeaseRecord,
    RunnerConfig, ScenarioMetrics, ScenarioResult, ThermalAxis, TuningAxis, WorkloadAxis,
    ARCHIVE_VERSION, LEASE_VERSION,
};
use proptest::prelude::*;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "segments-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec_with(seeds: Vec<u64>) -> CampaignSpec {
    CampaignSpec {
        name: "segments".into(),
        horizon_ms: 6,
        master_seed: 0x5E6_2005,
        initial_soc: 0.9,
        controllers: vec![ControllerAxis::Dpm],
        tunings: vec![TuningAxis::Paper],
        workloads: vec![WorkloadAxis::Low],
        seeds,
        batteries: vec![BatteryAxis::Linear],
        thermals: vec![ThermalAxis::Cool],
        ip_counts: vec![1],
    }
}

fn config(threads: usize) -> RunnerConfig {
    RunnerConfig {
        threads,
        ..RunnerConfig::default()
    }
}

fn archive_bytes(result: &CampaignResult) -> String {
    campaign_json(&summarize(result), Some(result)).expect("render json")
}

/// A synthetic result for one grid cell, its metrics derived from an
/// arbitrary bag of floats — the payloads never see a simulator, so the
/// round-trip is tested on arbitrary bit patterns, not just the ones
/// the kernel happens to produce.
fn synthetic_result(
    spec: &CampaignSpec,
    index: usize,
    floats: &[f64],
    ints: &[usize],
) -> ScenarioResult {
    let f = |i: usize| floats[i % floats.len()];
    let n = |i: usize| ints[i % ints.len()];
    ScenarioResult {
        scenario: spec.cell_at(index),
        metrics: Some(ScenarioMetrics {
            completed: n(0),
            total_tasks: n(1),
            deferred: n(2),
            energy_j: f(0),
            baseline_energy_j: f(1),
            energy_saving_pct: f(2),
            temp_reduction_pct: f(3),
            delay_overhead_pct: f(4),
            mean_latency_us: f(5),
            max_temp_c: f(6),
            final_soc: f(7),
            low_power_frac: f(8),
        }),
        error: None,
    }
}

/// The single segment file of an archive that had exactly one writer.
fn only_segment(dir: &std::path::Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir.join("segments"))
        .expect("segments dir exists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.to_string_lossy().ends_with(".log"))
        .collect();
    assert_eq!(segments.len(), 1, "one writer allocates one segment");
    segments.pop().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Arbitrary cell payloads -> append -> reopen: the rebuilt index
    // serves every record, and the loaded results (and their rendered
    // bytes) are identical to what was stored — before and after
    // compaction.
    #[test]
    fn segment_records_round_trip(
        cell_count in 1usize..10,
        floats in prop::collection::vec(
            // spread draws across wildly different magnitudes — including
            // subnormals — so the round-trip is exercised on bit patterns
            // the simulator itself would never produce
            (0u8..4, -1.0f64..1.0).prop_map(|(scale, v)| match scale {
                0 => v,
                1 => v * 1.0e18,
                2 => v * 1.0e-300,
                _ => v * f64::MIN_POSITIVE,
            }),
            1..12,
        ),
        ints in prop::collection::vec(0usize..1_000_000, 1..4),
    ) {
        let spec = spec_with((1..=cell_count as u64).collect());
        let dir = scratch_dir();
        let stored: Vec<ScenarioResult> = (0..spec.scenario_count())
            .map(|i| synthetic_result(&spec, i, &floats, &ints))
            .collect();
        {
            let archive = CampaignArchive::open(&dir, &spec).expect("open");
            for r in &stored {
                archive.store(&spec, r).expect("store");
            }
        }
        // reopen: the index is rebuilt from the segment scan alone
        let reopened = CampaignArchive::open(&dir, &spec).expect("reopen");
        let load = reopened.load(&spec, &spec.expand());
        prop_assert_eq!(load.loaded, stored.len());
        prop_assert_eq!(load.skipped, 0);
        let loaded: Vec<ScenarioResult> =
            load.slots.into_iter().map(Option::unwrap).collect();
        prop_assert_eq!(&loaded, &stored);
        let result = |results: Vec<ScenarioResult>| CampaignResult {
            name: spec.name.clone(),
            horizon_ms: spec.horizon_ms,
            master_seed: spec.master_seed,
            results,
        };
        let reference = archive_bytes(&result(stored.clone()));
        prop_assert_eq!(&archive_bytes(&result(loaded)), &reference);
        // compaction preserves every byte of the rendered aggregate
        let report = reopened.compact(&spec).expect("compact");
        prop_assert_eq!(report.records, stored.len());
        let recompacted = CampaignArchive::open(&dir, &spec).expect("reopen after compact");
        let load = recompacted.load(&spec, &spec.expand());
        prop_assert_eq!(load.loaded, stored.len());
        let loaded: Vec<ScenarioResult> =
            load.slots.into_iter().map(Option::unwrap).collect();
        prop_assert_eq!(&archive_bytes(&result(loaded)), &reference);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn torn_final_record_reruns_exactly_that_cell() {
    // a writer killed mid-append leaves a truncated final frame: the
    // reopened archive must skip it — and only it — and a resume must
    // re-run exactly that cell, byte-identically
    let spec = spec_with(vec![1, 2, 3]);
    let cold = run_campaign_with(&spec, &config(1), None).expect("cold run");
    let dir = scratch_dir();
    {
        let archive = CampaignArchive::open(&dir, &spec).expect("open");
        for r in &cold.result.results {
            archive.store(&spec, r).expect("store");
        }
    }
    let segment = only_segment(&dir);
    let full = std::fs::metadata(&segment).expect("segment stat").len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&segment)
        .expect("open segment");
    file.set_len(full - 3).expect("tear the final record");
    drop(file);

    let archive = CampaignArchive::open(&dir, &spec).expect("reopen torn");
    let load = archive.load(&spec, &spec.expand());
    assert_eq!(
        load.loaded,
        spec.scenario_count() - 1,
        "torn cell is missing"
    );
    assert_eq!(load.skipped, 0, "a torn tail is not a corrupt record");

    let resumed = run_campaign_with(&spec, &config(2), Some(&archive)).expect("resume");
    assert_eq!(
        resumed.stats.executed_cells, 1,
        "exactly the torn cell re-runs"
    );
    assert_eq!(
        archive_bytes(&resumed.result),
        archive_bytes(&cold.result),
        "the healed campaign is byte-identical"
    );
    // the re-run stored the cell again: a second resume is all-archive
    let again = run_campaign_with(&spec, &config(1), Some(&archive)).expect("second resume");
    assert_eq!(again.stats.simulations, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compact_refuses_under_a_live_lease_and_proceeds_once_it_is_gone() {
    // the two-writer race compaction must refuse to enter: a worker
    // holding a group lease may append a record to the current segments
    // at any moment; compaction rewrites-and-deletes those segments, so
    // running the two concurrently would silently drop the append
    let spec = spec_with(vec![1, 2]);
    let dir = scratch_dir();
    let archive = CampaignArchive::open(&dir, &spec).expect("open");
    let stored = synthetic_result(&spec, 0, &[0.25, -3.5e17], &[7]);
    archive.store(&spec, &stored).expect("store");

    let lease_cfg = LeaseConfig::for_process();
    let lease = archive
        .try_claim(0, &lease_cfg)
        .expect("claim io")
        .expect("group 0 free");
    let err = archive
        .compact(&spec)
        .expect_err("compact must refuse while a lease is live");
    assert!(err.contains("unexpired lease"), "unexpected error: {err}");
    // the refusal left the store untouched: the record still loads
    assert_eq!(archive.load(&spec, &spec.expand()).loaded, 1);

    // released lease -> compaction proceeds and keeps every record
    archive.release(lease);
    let report = archive.compact(&spec).expect("compact after release");
    assert_eq!(report.records, 1);

    // a *stale* lease — the on-disk residue of a killed worker — must
    // not block compaction forever: only unexpired claims refuse
    let dead = LeaseRecord {
        lease_version: LEASE_VERSION,
        spec_fingerprint: archive.fingerprint(),
        group: 1,
        holder: "dead-worker".into(),
        heartbeat_ms: 0,
    };
    std::fs::write(
        archive.lease_path(1),
        serde_json::to_string(&dead).expect("serialize lease"),
    )
    .expect("write stale lease");
    let report = archive
        .compact(&spec)
        .expect("stale leases never block compaction");
    assert_eq!(report.records, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_stray_cells_directory_is_inert() {
    // the per-cell JSON layout older archives used: nothing creates it,
    // reads it, sweeps it or migrates it any more
    let spec = spec_with(vec![4, 5]);
    let cold = run_campaign_with(&spec, &config(1), None).expect("cold run");
    let dir = scratch_dir();
    let archive = CampaignArchive::open(&dir, &spec).expect("open");
    assert!(!dir.join("cells").exists(), "open creates no cells/");

    // a complete campaign directory, except that cell 0's record sits
    // only in a valid-looking per-cell file
    for r in &cold.result.results[1..] {
        archive.store(&spec, r).expect("store");
    }
    let first = &cold.result.results[0];
    let record = CellRecord {
        archive_version: ARCHIVE_VERSION,
        spec_fingerprint: spec_fingerprint(&spec),
        master_seed: spec.master_seed,
        horizon_ms: spec.horizon_ms,
        scenario: first.scenario,
        metrics: first.metrics.clone().expect("cell 0 ran"),
        fidelity: Fidelity::Fine,
    };
    let stray = dir.join("cells").join("cell-00000000.json");
    std::fs::create_dir_all(stray.parent().unwrap()).expect("create cells/");
    let stray_bytes = serde_json::to_string_pretty(&record).expect("serialize record");
    std::fs::write(&stray, &stray_bytes).expect("write stray record");

    let reopened = CampaignArchive::open(&dir, &spec).expect("reopen");
    let resumed = run_campaign_with(&spec, &config(2), Some(&reopened)).expect("resume");
    assert_eq!(
        resumed.stats.executed_cells, 1,
        "exactly the cell held only in cells/ re-runs"
    );
    assert_eq!(resumed.stats.archived_cells, spec.scenario_count() - 1);
    assert_eq!(
        archive_bytes(&resumed.result),
        archive_bytes(&cold.result),
        "the resumed report is byte-identical to a cold run"
    );

    // hygiene passes leave the stray file exactly as it was
    reopened.gc(&spec, 60_000).expect("gc");
    let report = reopened.compact(&spec).expect("compact");
    assert_eq!(report.records, spec.scenario_count());
    assert_eq!(
        std::fs::read_to_string(&stray).expect("stray file survives"),
        stray_bytes
    );
    let again = run_campaign_with(&spec, &config(1), Some(&reopened)).expect("second resume");
    assert_eq!(again.stats.simulations, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn record_bytes_changed_after_open_are_rerun_never_served() {
    // the index is built on open; a record whose bytes change afterwards
    // (disk corruption, a stray writer) must fail the read-time checksum
    // on that same handle: its cell is skipped and re-simulated, never
    // served with different metrics
    let spec = spec_with(vec![1, 2, 3]);
    let cold = run_campaign_with(&spec, &config(1), None).expect("cold run");
    let dir = scratch_dir();
    {
        let archive = CampaignArchive::open(&dir, &spec).expect("open");
        for r in &cold.result.results {
            archive.store(&spec, r).expect("store");
        }
    }
    let archive = CampaignArchive::open(&dir, &spec).expect("reopen: index scanned");

    // flip one digit of the middle record's energy_j
    let segment = only_segment(&dir);
    let mut bytes = std::fs::read(&segment).expect("read segment");
    let key = b"\"energy_j\":";
    let starts: Vec<usize> = bytes
        .windows(key.len())
        .enumerate()
        .filter(|(_, w)| *w == key)
        .map(|(at, _)| at + key.len())
        .collect();
    assert_eq!(starts.len(), spec.scenario_count(), "one record per cell");
    let digit = (starts[1]..)
        .find(|&at| matches!(bytes[at], b'1'..=b'9'))
        .expect("energy_j has a nonzero digit");
    bytes[digit] = if bytes[digit] == b'9' {
        b'1'
    } else {
        bytes[digit] + 1
    };
    std::fs::write(&segment, &bytes).expect("write flipped segment");

    let load = archive.load(&spec, &spec.expand());
    assert_eq!(load.loaded, spec.scenario_count() - 1);
    assert_eq!(load.skipped, 1, "the changed record is rejected");
    assert!(load.slots[1].is_none());
    assert_eq!(load.slots[0].as_ref(), Some(&cold.result.results[0]));
    assert_eq!(load.slots[2].as_ref(), Some(&cold.result.results[2]));
    assert!(archive.load_cell(&spec, &spec.cell_at(1)).is_none());

    let resumed = run_campaign_with(&spec, &config(2), Some(&archive)).expect("resume");
    assert_eq!(
        resumed.stats.executed_cells, 1,
        "exactly the changed cell re-runs"
    );
    assert_eq!(
        archive_bytes(&resumed.result),
        archive_bytes(&cold.result),
        "the re-run campaign is byte-identical"
    );
    // the re-run record replaced the rejected one in this handle's index
    let again = run_campaign_with(&spec, &config(1), Some(&archive)).expect("second resume");
    assert_eq!(again.stats.simulations, 0);
    assert_eq!(archive_bytes(&again.result), archive_bytes(&cold.result));
    let _ = std::fs::remove_dir_all(&dir);
}
