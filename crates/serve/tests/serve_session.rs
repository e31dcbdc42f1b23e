//! End-to-end acceptance of the verification service over real TCP:
//! a spawned `moccml serve` daemon answering a multi-request session —
//! concurrent jobs whose verdicts byte-match the one-shot CLI, a cache
//! hit observable through `status`, a cancelled long-running explore
//! that leaves the worker pool healthy, and a graceful shutdown.

use moccml_serve::json::Json;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn example(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/specs")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A running daemon on an ephemeral port, killed on drop so a failing
/// test never leaks the process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_moccml"))
            .arg("serve")
            .args(["--listen", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .spawn()
            .expect("daemon spawns");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut banner = String::new();
        BufReader::new(stdout)
            .read_line(&mut banner)
            .expect("banner line");
        let addr = banner
            .trim()
            .rsplit(' ')
            .next()
            .expect("address in banner")
            .to_owned();
        assert!(banner.starts_with("moccml-serve listening on "), "{banner}");
        Daemon { child, addr }
    }

    /// Sends request lines on one connection and reads events until
    /// every sent id has its terminal event.
    fn session(&self, lines: &[String]) -> Vec<Json> {
        let stream = TcpStream::connect(&self.addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("read timeout");
        let mut writer = stream.try_clone().expect("clones");
        for line in lines {
            writer.write_all(line.as_bytes()).expect("sends");
            writer.write_all(b"\n").expect("sends");
        }
        writer.flush().expect("flushes");
        let mut pending: HashSet<String> = lines
            .iter()
            .map(|l| {
                Json::parse(l)
                    .expect("requests are JSON")
                    .get("id")
                    .and_then(Json::as_str)
                    .expect("requests carry ids")
                    .to_owned()
            })
            .collect();
        let mut events = Vec::new();
        let reader = BufReader::new(stream);
        for line in reader.lines() {
            let line = line.expect("events arrive before the read timeout");
            let event = Json::parse(&line).expect("events are JSON");
            if matches!(
                event.get("event").and_then(Json::as_str),
                Some("result" | "error" | "cancelled")
            ) {
                if let Some(id) = event.get("id").and_then(Json::as_str) {
                    pending.remove(id);
                }
            }
            events.push(event);
            if pending.is_empty() {
                break;
            }
        }
        assert!(pending.is_empty(), "unanswered requests: {pending:?}");
        events
    }

    fn shutdown(mut self) {
        let events = self.session(&[r#"{"id":"bye","method":"shutdown"}"#.to_owned()]);
        assert_eq!(
            terminal(&events, "bye").get("event").and_then(Json::as_str),
            Some("result"),
            "graceful shutdown answers before exiting"
        );
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait().expect("child status") {
                Some(status) => {
                    assert!(status.success(), "daemon exits cleanly: {status:?}");
                    break;
                }
                None => {
                    assert!(Instant::now() < deadline, "daemon never exited");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn terminal(events: &[Json], id: &str) -> Json {
    events
        .iter()
        .find(|e| {
            e.get("id").and_then(Json::as_str) == Some(id)
                && matches!(
                    e.get("event").and_then(Json::as_str),
                    Some("result" | "error" | "cancelled")
                )
        })
        .unwrap_or_else(|| panic!("no terminal event for {id}: {events:?}"))
        .clone()
}

fn result_payload(events: &[Json], id: &str) -> Json {
    let event = terminal(events, id);
    assert_eq!(
        event.get("event").and_then(Json::as_str),
        Some("result"),
        "{id} must succeed: {event:?}"
    );
    event.get("result").cloned().expect("result payload")
}

/// Runs the one-shot CLI binary in `--format json` mode and returns
/// its single output line.
fn one_shot_json(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_moccml"))
        .args(args)
        .args(["--format", "json"])
        .output()
        .expect("one-shot CLI runs");
    String::from_utf8_lossy(&output.stdout).trim().to_owned()
}

fn request(id: &str, method: &str, extra: &[(&'static str, Json)]) -> String {
    let mut members = vec![("id", Json::str(id)), ("method", Json::str(method))];
    members.extend(extra.iter().cloned());
    Json::obj(members).to_line()
}

#[test]
fn concurrent_session_verdicts_byte_match_the_one_shot_cli() {
    let pam = example("pam.mcc");
    let verification = example("verification.mcc");
    let trace = example("verification.trace");
    let pam_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs/pam.mcc");
    let ver_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs/verification.mcc");
    let trace_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs/verification.trace");

    // the one-shot CLI answers, computed independently of the daemon
    let expected_check = one_shot_json(&["check", pam_path.to_str().expect("utf8")]);
    let expected_explore = one_shot_json(&["explore", pam_path.to_str().expect("utf8")]);
    let expected_conformance = one_shot_json(&[
        "conformance",
        ver_path.to_str().expect("utf8"),
        trace_path.to_str().expect("utf8"),
    ]);

    let daemon = Daemon::start(&["--workers", "2", "--cache-capacity", "8"]);
    // three concurrent jobs on one connection: two methods against the
    // same spec (exercising the cache) plus an independent conformance
    let events = daemon.session(&[
        request("check-1", "check", &[("spec", Json::str(&pam))]),
        request("explore-1", "explore", &[("spec", Json::str(&pam))]),
        request(
            "conf-1",
            "conformance",
            &[
                ("spec", Json::str(&verification)),
                ("trace", Json::str(&trace)),
            ],
        ),
    ]);
    assert_eq!(
        result_payload(&events, "check-1").to_line(),
        expected_check,
        "served check verdict byte-matches the one-shot CLI"
    );
    assert_eq!(
        result_payload(&events, "explore-1").to_line(),
        expected_explore,
        "served explore metrics byte-match the one-shot CLI"
    );
    assert_eq!(
        result_payload(&events, "conf-1").to_line(),
        expected_conformance,
        "served conformance verdict byte-matches the one-shot CLI"
    );

    // the pam spec was compiled once and hit once; a reformatted copy
    // (extra whitespace) still hits the canonical cache key
    let reformatted = format!("// reformatted\n{}\n", pam.replace("  ", "\t  "));
    let events = daemon.session(&[request(
        "check-2",
        "check",
        &[("spec", Json::str(&reformatted))],
    )]);
    assert_eq!(
        result_payload(&events, "check-2").to_line(),
        expected_check,
        "a reformatted spec produces the identical verdict"
    );
    // status only after check-2's terminal: it is answered
    // synchronously and would otherwise race the queued job
    let events = daemon.session(&[request("status-1", "status", &[])]);
    let status = result_payload(&events, "status-1");
    let cache = status.get("cache").expect("cache stats");
    let hits = cache.get("hits").and_then(Json::as_i64).expect("hits");
    let misses = cache.get("misses").and_then(Json::as_i64).expect("misses");
    assert!(hits >= 2, "cache hits observable via status: {status:?}");
    assert_eq!(
        misses, 2,
        "pam + verification compiled once each: {status:?}"
    );

    daemon.shutdown();
}

#[test]
fn cancelled_explore_does_not_poison_the_worker_pool() {
    // a single worker so a poisoned pool would hang the follow-up job
    let daemon = Daemon::start(&["--workers", "1"]);
    let big = "spec big {\n  events a, b, c;\n  constraint c1 = precedes(a, b);\n  constraint c2 = precedes(b, c);\n}\n";

    let stream = TcpStream::connect(&daemon.addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clones");
    let explore = request(
        "big-1",
        "explore",
        &[
            ("spec", Json::str(big)),
            ("max_states", Json::Int(100_000_000)),
            ("timeout_ms", Json::Int(120_000)),
        ],
    );
    writer.write_all(explore.as_bytes()).expect("sends");
    writer.write_all(b"\n").expect("sends");
    writer.flush().expect("flushes");

    // wait until the job demonstrably runs, then cancel it
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut saw_progress = false;
    let cancel = request("kill-1", "cancel", &[("target", Json::str("big-1"))]);
    let outcome = loop {
        line.clear();
        assert!(
            reader.read_line(&mut line).expect("reads") > 0,
            "daemon hung up"
        );
        let event = Json::parse(line.trim()).expect("events are JSON");
        match event.get("event").and_then(Json::as_str) {
            Some("progress") if !saw_progress => {
                saw_progress = true;
                // the explorer's live gauges, all eight of them
                for key in [
                    "states",
                    "transitions",
                    "depth",
                    "states_per_sec",
                    "pending",
                    "peak_frontier",
                    "interned",
                    "interner_occupancy",
                ] {
                    assert!(event.get(key).is_some(), "missing `{key}`: {event:?}");
                }
                let states = event.get("states").and_then(Json::as_i64);
                assert!(states > Some(0), "{event:?}");
                writer.write_all(cancel.as_bytes()).expect("sends");
                writer.write_all(b"\n").expect("sends");
                writer.flush().expect("flushes");
            }
            Some("result" | "error" | "cancelled")
                if event.get("id").and_then(Json::as_str) == Some("big-1") =>
            {
                break event;
            }
            _ => {}
        }
    };
    assert!(saw_progress, "the explore streamed progress before dying");
    assert_eq!(
        outcome.get("event").and_then(Json::as_str),
        Some("cancelled"),
        "a cancelled job reports `cancelled`, never a verdict: {outcome:?}"
    );

    // the lone worker survives: an ordinary job completes afterwards
    let alt = "spec alt {\n  events a, b;\n  constraint alt = alternates(a, b);\n  assert never((a && b));\n}\n";
    let events = daemon.session(&[request("after", "check", &[("spec", Json::str(alt))])]);
    let payload = result_payload(&events, "after");
    assert_eq!(payload.get("violated").and_then(Json::as_bool), Some(false));

    daemon.shutdown();
}

#[test]
fn lint_simulate_and_error_paths_over_tcp() {
    let daemon = Daemon::start(&[]);
    let warny = "spec s {\n  events a, b, orphan;\n  constraint c = alternates(a, b);\n  assert never((a && b));\n}\n";
    let events = daemon.session(&[
        request(
            "lint-1",
            "lint",
            &[
                ("spec", Json::str(warny)),
                ("deny_warnings", Json::Bool(true)),
            ],
        ),
        request(
            "sim-1",
            "simulate",
            &[("spec", Json::str(warny)), ("steps", Json::Int(4))],
        ),
        request("bad-1", "check", &[("spec", Json::str("spec broken {"))]),
        request("nospec", "check", &[]),
    ]);
    let lint = result_payload(&events, "lint-1");
    assert_eq!(lint.get("warnings").and_then(Json::as_i64), Some(1));
    assert_eq!(lint.get("failed").and_then(Json::as_bool), Some(true));
    let sim = result_payload(&events, "sim-1");
    assert_eq!(
        sim.get("schedule").and_then(Json::as_str),
        Some("a ; b ; a ; b")
    );
    assert_eq!(
        terminal(&events, "bad-1")
            .get("event")
            .and_then(Json::as_str),
        Some("error"),
        "compile failures are error events"
    );
    assert_eq!(
        terminal(&events, "nospec")
            .get("event")
            .and_then(Json::as_str),
        Some("error")
    );
    daemon.shutdown();
}

#[test]
fn oversized_step_sets_are_error_events_and_the_daemon_keeps_serving() {
    let wide = wide41();
    let daemon = Daemon::start(&[]);
    let events = daemon.session(&[
        request(
            "wide",
            "simulate",
            &[
                ("spec", Json::str(&wide)),
                ("steps", Json::Int(1)),
                ("policy", Json::str("max-parallel")),
            ],
        ),
        request("status", "status", &[]),
    ]);
    let error = terminal(&events, "wide");
    assert_eq!(error.get("event").and_then(Json::as_str), Some("error"));
    let message = error
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or_default();
    assert!(message.contains("more acceptable steps"), "{error:?}");
    assert_eq!(
        terminal(&events, "status")
            .get("event")
            .and_then(Json::as_str),
        Some("result")
    );
    daemon.shutdown();
}

/// 41 independent subclock pairs: 3^41 steps per state, more than a
/// policy or the explorer can index.
fn wide41() -> String {
    let n = 41;
    let events: Vec<String> = (0..n).map(|i| format!("a{i}, b{i}")).collect();
    let constraints: String = (0..n)
        .map(|i| format!("  constraint s{i} = subclock(a{i}, b{i});\n"))
        .collect();
    format!(
        "spec wide {{\n  events {};\n{constraints}  assert deadlock-free;\n}}\n",
        events.join(", ")
    )
}

#[test]
fn unindexable_explorations_are_error_events_and_both_workers_keep_serving() {
    // three jobs meet the 3^41-step root: an explore, an exhaustive
    // check and a statistical one. Each is an `error` event; no worker
    // thread dies, so a PAM check afterwards is answered and shutdown
    // drains the pool
    let wide = wide41();
    let spec = ("spec", Json::str(&wide));
    let bound = ("max_states", Json::Int(10));
    let daemon = Daemon::start(&["--workers", "2"]);
    let events = daemon.session(&[
        request("explore", "explore", &[spec.clone(), bound.clone()]),
        request("check", "check", &[spec.clone(), bound]),
        request("smc", "smc", &[spec, ("max_trace_len", Json::Int(4))]),
    ]);
    for id in ["explore", "check", "smc"] {
        let error = terminal(&events, id);
        assert_eq!(
            error.get("event").and_then(Json::as_str),
            Some("error"),
            "{id}: {error:?}"
        );
        let message = error
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or_default();
        assert!(message.contains("more acceptable steps"), "{id}: {error:?}");
    }
    let events = daemon.session(&[request(
        "pam",
        "check",
        &[("spec", Json::str(&example("pam.mcc")))],
    )]);
    let result = terminal(&events, "pam");
    assert_eq!(result.get("event").and_then(Json::as_str), Some("result"));
    let kind = result
        .get("result")
        .and_then(|r| r.get("kind"))
        .and_then(Json::as_str);
    assert_eq!(kind, Some("check"), "{result:?}");
    daemon.shutdown();
}
