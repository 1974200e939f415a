//! End-to-end contract of the `dpm serve` daemon: submit over HTTP,
//! follow the event stream to completion, and read back the **exact**
//! report bytes `dpm campaign run` would print — plus the edges: idempotent
//! concurrent submission, JSON errors for malformed specs and unknown
//! routes, and the 409 completeness gate that guarantees a `GET` never
//! simulates.
//!
//! The suite speaks raw HTTP/1.1 over `TcpStream` — the same protocol
//! surface `curl` sees in the CI `serve-smoke` job — including chunked
//! transfer decoding for the NDJSON event stream.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use dpm_campaign::{
    campaign_json, completed_run, run_campaign_with, spawn_server, summarize, CampaignStore,
    LeaseConfig, RunnerConfig, ServeOptions,
};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory under the cargo-managed tmp dir.
fn scratch_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "serve-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A four-cell grid quick enough for an in-test daemon run.
const SPEC_TOML: &str = r#"
name = "serve-e2e"
horizon_ms = 5
master_seed = 42
initial_soc = 0.9

[axes]
controllers = ["dpm", "always_on"]
tunings = ["paper"]
workloads = ["low"]
seeds = [1, 2]
batteries = ["linear"]
thermals = ["cool"]
ip_counts = [1]
"#;

fn serve_options(job_slots: usize) -> ServeOptions {
    ServeOptions {
        job_slots,
        threads: 1,
        poll_ms: 1,
        ..ServeOptions::default()
    }
}

/// One parsed HTTP response (chunked bodies already decoded).
struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Sends one request and reads the response to EOF (the server speaks
/// `Connection: close`), decoding chunked transfer when announced.
fn http(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: e2e\r\nContent-Length: {}\r\n\r\n{body}",
        body.len(),
    )
    .expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("response is UTF-8");
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .expect("response has a header block");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable status line '{status_line}'"));
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(": "))
        .map(|(k, v)| (k.to_ascii_lowercase(), v.to_string()))
        .collect();
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v == "chunked");
    let body = if chunked {
        decode_chunked(payload)
    } else {
        payload.to_string()
    };
    Response {
        status,
        headers,
        body,
    }
}

/// Decodes a chunked transfer body: `{hex-size}\r\n{data}\r\n` frames
/// until the zero-length terminator.
fn decode_chunked(payload: &str) -> String {
    let mut rest = payload;
    let mut out = String::new();
    loop {
        let (size_line, tail) = rest.split_once("\r\n").expect("chunk size line");
        let size = usize::from_str_radix(size_line.trim(), 16)
            .unwrap_or_else(|_| panic!("bad chunk size '{size_line}'"));
        if size == 0 {
            return out;
        }
        out.push_str(&tail[..size]);
        rest = tail[size..].strip_prefix("\r\n").expect("chunk terminator");
    }
}

/// Pulls `"key": "value"` or `"key":"value"` out of a JSON response —
/// enough for assertions without a parser dependency in the test.
fn json_str<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle)? + needle.len();
    let rest = body[at..].trim_start();
    let rest = rest.strip_prefix('"')?;
    rest.split_once('"').map(|(v, _)| v)
}

/// The tentpole contract end to end: POST a spec, watch the NDJSON
/// event stream to the terminal `complete` event, then read the report
/// back byte-identical to `dpm campaign run --format json` — and verify
/// via the store that serving it performed **zero** simulations.
#[test]
fn submit_stream_and_report_match_the_cli_byte_for_byte() {
    let root = scratch_dir();
    let server = spawn_server(&root, serve_options(1)).expect("spawn daemon");
    let addr = server.addr();

    // submit: a fresh spec is 201 Created and queued for the executor
    let created = http(addr, "POST", "/campaigns", Some(SPEC_TOML));
    assert_eq!(created.status, 201, "{}", created.body);
    assert_eq!(created.header("content-type"), Some("application/json"));
    let id = json_str(&created.body, "id")
        .expect("submission has an id")
        .to_string();
    assert!(id.starts_with("c-"), "fingerprint-keyed id, got '{id}'");
    assert!(
        created.body.contains("\"existed\": false"),
        "{}",
        created.body
    );

    // events: the chunked NDJSON long-poll replays one `cell` line per
    // archived cell in seq order and closes with the terminal line
    let events = http(
        addr,
        "GET",
        &format!("/campaigns/{id}/events?wait_ms=60000"),
        None,
    );
    assert_eq!(events.status, 200, "{}", events.body);
    assert_eq!(events.header("content-type"), Some("application/x-ndjson"));
    let lines: Vec<&str> = events.body.lines().collect();
    assert_eq!(lines.len(), 5, "4 cells + terminal: {:?}", lines);
    for (seq, line) in lines.iter().enumerate() {
        assert!(line.starts_with(&format!("{{\"seq\":{seq},")), "{line}");
    }
    assert!(lines[4].contains("\"event\":\"complete\""), "{}", lines[4]);
    assert!(lines[4].contains("\"cells\":4"), "{}", lines[4]);

    // replay: a cursor past the archived prefix returns only the tail
    let tail = http(
        addr,
        "GET",
        &format!("/campaigns/{id}/events?since=4&wait_ms=60000"),
        None,
    );
    assert_eq!(tail.body.lines().count(), 1, "{}", tail.body);

    // report: byte-identical to the CLI on the same spec, both shapes
    let (spec, _) = dpm_campaign::parse_campaign_toml(SPEC_TOML).expect("parse spec");
    let config = RunnerConfig {
        threads: 1,
        ..RunnerConfig::default()
    };
    let cli = run_campaign_with(&spec, &config, None).expect("reference run");
    let summary = summarize(&cli.result);
    let report = http(addr, "GET", &format!("/campaigns/{id}/report"), None);
    assert_eq!(report.status, 200);
    assert_eq!(report.body, campaign_json(&summary, None).expect("render"));
    let full = http(
        addr,
        "GET",
        &format!("/campaigns/{id}/report?per_scenario=1"),
        None,
    );
    assert_eq!(
        full.body,
        campaign_json(&summary, Some(&cli.result)).expect("render")
    );

    // the zero-simulation guarantee, asserted at the serving layer: the
    // complete campaign loads entirely from the archive
    let store = CampaignStore::open(&root).expect("open store");
    let (archive, stored_spec) = store.open_campaign(&id).expect("open campaign");
    let (_, stats) = completed_run(&archive, &stored_spec).expect("campaign is complete");
    assert_eq!(stats.simulations, 0);
    assert_eq!(stats.archived_cells, spec.scenario_count());

    // best and pareto answer from the same archive
    let best = http(addr, "GET", &format!("/campaigns/{id}/best"), None);
    assert_eq!(best.status, 200, "{}", best.body);
    assert!(best.body.contains("\"objective\""), "{}", best.body);
    assert!(best.body.contains("\"best\""), "{}", best.body);
    let pareto = http(
        addr,
        "GET",
        &format!("/campaigns/{id}/pareto?objectives=energy_saving,min:delay"),
        None,
    );
    assert_eq!(pareto.status, 200, "{}", pareto.body);
    assert!(pareto.body.contains("\"front\""), "{}", pareto.body);

    // the store list shows one complete campaign with a complete job
    let list = http(addr, "GET", "/campaigns", None);
    assert!(list.body.contains("\"count\": 1"), "{}", list.body);
    assert!(list.body.contains(&id), "{}", list.body);
    assert!(
        list.body.contains("\"state\": \"complete\""),
        "{}",
        list.body
    );

    // resubmission dedups: 200 (not 201), existed, nothing re-queued
    let again = http(addr, "POST", "/campaigns", Some(SPEC_TOML));
    assert_eq!(again.status, 200, "{}", again.body);
    assert_eq!(json_str(&again.body, "id"), Some(id.as_str()));
    assert!(again.body.contains("\"existed\": true"), "{}", again.body);
    assert_eq!(json_str(&again.body, "job"), Some("complete"));

    // compaction over the API rewrites the archive into one segment —
    // and the report the daemon serves afterwards is byte-identical
    let compacted = http(addr, "POST", &format!("/campaigns/{id}/compact"), None);
    assert_eq!(compacted.status, 200, "{}", compacted.body);
    assert!(
        compacted.body.contains("\"records\": 4"),
        "{}",
        compacted.body
    );
    let after = http(addr, "GET", &format!("/campaigns/{id}/report"), None);
    assert_eq!(after.body, report.body, "compaction changed the report");

    // graceful shutdown over the API; join() returns once drained
    let bye = http(addr, "POST", "/shutdown", None);
    assert_eq!(bye.status, 200);
    server.join();
    let _ = std::fs::remove_dir_all(&root);
}

/// Submission is idempotent under concurrency: N clients racing the
/// same new spec all land on one campaign id, exactly one directory is
/// created, and exactly one response is `201 Created`.
#[test]
fn concurrent_submissions_dedup_into_one_campaign() {
    let root = scratch_dir();
    // coordination-only daemon: no executor, so nothing simulates here
    let server = spawn_server(&root, serve_options(0)).expect("spawn daemon");
    let addr = server.addr();

    let responses: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| scope.spawn(move || http(addr, "POST", "/campaigns", Some(SPEC_TOML))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });

    let ids: Vec<&str> = responses
        .iter()
        .map(|r| json_str(&r.body, "id").expect("id"))
        .collect();
    assert!(
        ids.windows(2).all(|w| w[0] == w[1]),
        "ids diverged: {ids:?}"
    );
    let created = responses.iter().filter(|r| r.status == 201).count();
    assert_eq!(created, 1, "exactly one submission creates the campaign");
    assert!(responses.iter().all(|r| matches!(r.status, 200 | 201)));
    // with no executor slots the job is the external workers' business
    assert!(responses
        .iter()
        .all(|r| json_str(&r.body, "job") == Some("external")));

    let campaign_dirs = std::fs::read_dir(&root)
        .expect("list root")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().join("campaign.toml").is_file())
        .count();
    assert_eq!(campaign_dirs, 1);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Every failure mode answers structured JSON: malformed TOML and JSON
/// specs are 400s carrying the parser's message, unknown campaigns are
/// 404s, wrong methods are 405s, and reading an **incomplete** campaign
/// is the 409 completeness gate (the response carries progress, and no
/// simulation ever starts on a `GET`).
#[test]
fn errors_are_structured_json_and_reads_never_simulate() {
    let root = scratch_dir();
    let server = spawn_server(&root, serve_options(0)).expect("spawn daemon");
    let addr = server.addr();

    // malformed TOML spec
    let bad_toml = http(addr, "POST", "/campaigns", Some("horizon_ms = ]["));
    assert_eq!(bad_toml.status, 400, "{}", bad_toml.body);
    assert!(bad_toml.body.contains("\"error\""), "{}", bad_toml.body);
    assert!(
        bad_toml.body.contains("\"status\":400"),
        "{}",
        bad_toml.body
    );

    // malformed JSON spec (a `{` body routes to the JSON parser)
    let bad_json = http(addr, "POST", "/campaigns", Some("{\"name\": 12"));
    assert_eq!(bad_json.status, 400, "{}", bad_json.body);
    assert!(bad_json.body.contains("\"error\""), "{}", bad_json.body);

    // a spec that parses but fails validation is also a 400
    let empty_axis = http(
        addr,
        "POST",
        "/campaigns",
        Some(&SPEC_TOML.replace("controllers = [\"dpm\", \"always_on\"]", "controllers = []")),
    );
    assert_eq!(empty_axis.status, 400, "{}", empty_axis.body);

    // unknown campaign and unknown route are 404s; wrong method is 405
    for path in [
        "/campaigns/c-cafecafecafecafe",
        "/campaigns/nope/report",
        "/nowhere",
    ] {
        let missing = http(addr, "GET", path, None);
        assert_eq!(missing.status, 404, "{path}: {}", missing.body);
        assert!(missing.body.contains("\"error\""), "{}", missing.body);
    }
    let wrong = http(addr, "DELETE", "/campaigns", None);
    assert_eq!(wrong.status, 405, "{}", wrong.body);

    // a hostile id must not escape the store root
    let hostile = http(addr, "GET", "/campaigns/%2e%2e/report", None);
    assert_eq!(hostile.status, 404, "{}", hostile.body);

    // submit a real spec on the no-executor daemon: it stays incomplete,
    // so every result read hits the 409 completeness gate with progress
    let submitted = http(addr, "POST", "/campaigns", Some(SPEC_TOML));
    assert_eq!(submitted.status, 201, "{}", submitted.body);
    let id = json_str(&submitted.body, "id").expect("id").to_string();
    for endpoint in ["report", "best", "pareto"] {
        let gated = http(addr, "GET", &format!("/campaigns/{id}/{endpoint}"), None);
        assert_eq!(gated.status, 409, "{endpoint}: {}", gated.body);
        assert!(gated.body.contains("\"archived\":0"), "{}", gated.body);
        assert!(gated.body.contains("\"cells\":4"), "{}", gated.body);
    }
    // ... and indeed nothing has simulated: every cell is still pending
    let grid = http(addr, "GET", &format!("/campaigns/{id}"), None);
    assert_eq!(grid.status, 200);
    assert!(
        !grid.body.contains("\"archived\""),
        "no cell may be archived: {}",
        grid.body
    );

    // gc over HTTP on the fresh campaign is a clean no-op report
    let gc = http(addr, "POST", &format!("/campaigns/{id}/gc"), None);
    assert_eq!(gc.status, 200, "{}", gc.body);
    assert!(gc.body.contains("\"records_removed\": 0"), "{}", gc.body);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// The `?since=` cursor's edges: a non-numeric cursor is a 400 with a
/// structured JSON error (not a silent replay from zero), and a cursor
/// beyond the log tail long-polls cleanly — an empty 200 stream, never
/// an error.
#[test]
fn event_cursor_rejects_garbage_and_longpolls_past_the_tail() {
    let root = scratch_dir();
    let server = spawn_server(&root, serve_options(0)).expect("spawn daemon");
    let addr = server.addr();

    let submitted = http(addr, "POST", "/campaigns", Some(SPEC_TOML));
    assert_eq!(submitted.status, 201, "{}", submitted.body);
    let id = json_str(&submitted.body, "id").expect("id").to_string();

    // non-numeric cursors are client bugs and must fail loudly
    for bad in ["abc", "-1", "1.5", "0x10", ""] {
        let rejected = http(
            addr,
            "GET",
            &format!("/campaigns/{id}/events?since={bad}"),
            None,
        );
        assert_eq!(rejected.status, 400, "since={bad}: {}", rejected.body);
        assert_eq!(rejected.header("content-type"), Some("application/json"));
        assert!(
            rejected.body.contains("\"error\"") && rejected.body.contains("since"),
            "since={bad}: {}",
            rejected.body
        );
    }

    // a cursor past the tail of an incomplete campaign is *not* an
    // error: the stream long-polls for wait_ms and closes empty
    let start = std::time::Instant::now();
    let tail = http(
        addr,
        "GET",
        &format!("/campaigns/{id}/events?since=999&wait_ms=120"),
        None,
    );
    assert_eq!(tail.status, 200, "{}", tail.body);
    assert_eq!(tail.header("content-type"), Some("application/x-ndjson"));
    assert_eq!(tail.body, "", "no events past the tail: {}", tail.body);
    assert!(
        start.elapsed() >= std::time::Duration::from_millis(100),
        "beyond-tail cursor must long-poll, not return instantly"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A parked `/events` long-poll must not hold the daemon open: shutdown
/// wakes the stream's wait, so `POST /shutdown` drains in milliseconds
/// even with a 60-second poller in flight (before the fix, `join()`
/// blocked for the full `wait_ms`).
#[test]
fn events_longpoll_releases_promptly_on_shutdown() {
    let root = scratch_dir();
    let server = spawn_server(&root, serve_options(0)).expect("spawn daemon");
    let addr = server.addr();

    let submitted = http(addr, "POST", "/campaigns", Some(SPEC_TOML));
    assert_eq!(submitted.status, 201, "{}", submitted.body);
    let id = json_str(&submitted.body, "id").expect("id").to_string();

    // park a poller far past the tail with a long deadline, give it a
    // moment to reach the wait loop, then shut the daemon down
    let poller = std::thread::spawn(move || {
        http(
            addr,
            "GET",
            &format!("/campaigns/{id}/events?since=999&wait_ms=60000"),
            None,
        )
    });
    std::thread::sleep(std::time::Duration::from_millis(100));
    let bye = http(addr, "POST", "/shutdown", None);
    assert_eq!(bye.status, 200);

    let start = std::time::Instant::now();
    server.join();
    assert!(
        start.elapsed() < std::time::Duration::from_secs(5),
        "shutdown blocked on the parked long-poll for {:?}",
        start.elapsed()
    );
    // the poller's stream closed cleanly: an empty 200, not an error
    let streamed = poller.join().expect("join poller");
    assert_eq!(streamed.status, 200, "{}", streamed.body);
    assert_eq!(streamed.body, "", "{}", streamed.body);
    let _ = std::fs::remove_dir_all(&root);
}

/// `POST /campaigns/{id}/compact` refuses with `409 Conflict` while a
/// worker holds an unexpired lease on the campaign — the HTTP face of
/// the compaction/append race fix — and proceeds once it is released.
#[test]
fn compact_conflicts_while_a_worker_holds_a_lease() {
    let root = scratch_dir();
    let server = spawn_server(&root, serve_options(0)).expect("spawn daemon");
    let addr = server.addr();

    let submitted = http(addr, "POST", "/campaigns", Some(SPEC_TOML));
    assert_eq!(submitted.status, 201, "{}", submitted.body);
    let id = json_str(&submitted.body, "id").expect("id").to_string();

    // an external worker claims a group, as `dpm campaign worker` would
    let store = CampaignStore::open(&root).expect("open store");
    let (archive, _) = store.open_campaign(&id).expect("open campaign");
    let lease = archive
        .try_claim(0, &LeaseConfig::for_process())
        .expect("claim io")
        .expect("group 0 free");

    let refused = http(addr, "POST", &format!("/campaigns/{id}/compact"), None);
    assert_eq!(refused.status, 409, "{}", refused.body);
    assert!(refused.body.contains("unexpired lease"), "{}", refused.body);

    // released -> the same request compacts cleanly
    archive.release(lease);
    let compacted = http(addr, "POST", &format!("/campaigns/{id}/compact"), None);
    assert_eq!(compacted.status, 200, "{}", compacted.body);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// `POST /shutdown` drains and actually stops: `join()` returns and the
/// listening socket closes.
#[test]
fn shutdown_drains_and_closes_the_listener() {
    let root = scratch_dir();
    let server = spawn_server(&root, serve_options(0)).expect("spawn daemon");
    let addr = server.addr();

    let bye = http(addr, "POST", "/shutdown", None);
    assert_eq!(bye.status, 200);
    server.join();

    // the socket is gone once the daemon drains
    assert!(TcpStream::connect(addr).is_err(), "daemon still listening");
    let _ = std::fs::remove_dir_all(&root);
}
