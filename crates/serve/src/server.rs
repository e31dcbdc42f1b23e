//! The TCP front end: newline-delimited JSON over a plain socket.
//!
//! One reader thread per connection feeds request lines to the shared
//! [`Service`]; response events — which may originate on worker
//! threads — are serialized back through a per-connection writer lock,
//! one event per line. The first thing the daemon prints on stdout is
//!
//! ```text
//! moccml-serve listening on 127.0.0.1:7315
//! ```
//!
//! flushed immediately, so scripts can bind port `0` and scrape the
//! actual address. A `shutdown` request stops intake, drains in-flight
//! jobs, answers with the final `result` event and exits the accept
//! loop.

use crate::json::Json;
use crate::protocol;
use crate::service::{Dispatch, EventSink, Service, ServiceConfig};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// The default listen address of `moccml serve`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7315";

/// The longest request line the daemon reads, newline excluded. A
/// longer line is answered with an `error` event and skipped, so a
/// client streaming bytes without a newline cannot grow the daemon's
/// memory without bound.
const MAX_LINE_BYTES: usize = 8 << 20;

/// An [`EventSink`] writing one event per line to a TCP stream. Write
/// failures (client hung up mid-job) latch the sink shut instead of
/// failing the job.
struct LineSink {
    writer: Mutex<BufWriter<TcpStream>>,
    broken: AtomicBool,
}

impl LineSink {
    fn new(stream: TcpStream) -> LineSink {
        LineSink {
            writer: Mutex::new(BufWriter::new(stream)),
            broken: AtomicBool::new(false),
        }
    }
}

impl EventSink for LineSink {
    fn emit(&self, event: &Json) {
        if self.broken.load(Ordering::Relaxed) {
            return;
        }
        let mut writer = self.writer.lock().expect("writer lock");
        let line = event.to_line();
        if writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_err()
        {
            self.broken.store(true, Ordering::Relaxed);
        }
    }
}

/// Runs the daemon: binds `addr`, prints and flushes the
/// `listening on` line to `out`, then serves connections until a
/// `shutdown` request arrives.
///
/// # Errors
///
/// Returns a message when the address cannot be bound.
pub fn serve(addr: &str, config: ServiceConfig, out: &mut dyn Write) -> Result<(), String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind `{addr}`: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve the bound address: {e}"))?;
    let _ = writeln!(out, "moccml-serve listening on {local}");
    let _ = out.flush();
    let service = Arc::new(Service::new(config));
    let shutting_down = Arc::new(AtomicBool::new(false));
    for stream in listener.incoming() {
        if shutting_down.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // events are small separate writes: keep Nagle from holding
        // one back for the client's delayed ACK of the previous
        let _ = stream.set_nodelay(true);
        let service = Arc::clone(&service);
        let shutting_down = Arc::clone(&shutting_down);
        // detached: the shutdown handler drains in-flight jobs before
        // its `result` goes out, so exiting must not wait for idle
        // clients that never hang up
        std::thread::Builder::new()
            .name("moccml-serve-conn".to_owned())
            .spawn(move || handle_connection(stream, &service, &shutting_down, local))
            .expect("connection thread spawns");
    }
    service.shutdown();
    Ok(())
}

fn handle_connection(
    stream: TcpStream,
    service: &Arc<Service>,
    shutting_down: &Arc<AtomicBool>,
    local: std::net::SocketAddr,
) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let sink: Arc<dyn EventSink> = Arc::new(LineSink::new(write_half));
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        let line = match read_capped_line(&mut reader, &mut buf) {
            Ok(Some(true)) => buf.as_slice(),
            Ok(Some(false)) => {
                let message = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                sink.emit(&protocol::error("", &message));
                continue;
            }
            Ok(None) | Err(_) => break,
        };
        let Ok(line) = std::str::from_utf8(line) else {
            sink.emit(&protocol::error("", "request line is not valid UTF-8"));
            continue;
        };
        if line.trim().is_empty() {
            continue;
        }
        match service.handle_line(line, &sink) {
            Dispatch::Continue => {}
            Dispatch::Shutdown { id } => {
                shutting_down.store(true, Ordering::Relaxed);
                service.shutdown();
                sink.emit(&protocol::result(
                    &id,
                    Json::obj([("kind", Json::str("shutdown"))]),
                ));
                // the accept loop blocks in `incoming()`: poke it with
                // a throwaway connection so it observes the flag
                let _ = TcpStream::connect(local);
                return;
            }
        }
    }
}

/// Reads the next line into `buf`, without its `\n` (or `\r\n`).
/// Returns `Some(true)` for a line of at most [`MAX_LINE_BYTES`],
/// `Some(false)` for a longer one, whose bytes are skipped up to its
/// newline instead of stored, and `None` at the end of the stream.
fn read_capped_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<Option<bool>> {
    buf.clear();
    let limit = u64::try_from(MAX_LINE_BYTES + 1).unwrap_or(u64::MAX);
    if (&mut *reader).take(limit).read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        return Ok(Some(true));
    }
    if buf.len() <= MAX_LINE_BYTES {
        // the stream ended without a final newline
        return Ok(Some(true));
    }
    buf.clear();
    reader.skip_until(b'\n')?;
    Ok(Some(false))
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALT: &str = "spec alt {\n  events a, b;\n  constraint alt = alternates(a, b);\n  assert never((a && b));\n}\n";

    /// Boots a daemon on an ephemeral port, returns its address and
    /// the thread handle.
    fn boot() -> (String, std::thread::JoinHandle<()>) {
        struct PipeOut {
            tx: std::sync::mpsc::Sender<String>,
            buffer: Vec<u8>,
        }
        impl Write for PipeOut {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.buffer.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                let text = String::from_utf8_lossy(&self.buffer).to_string();
                let _ = self.tx.send(text);
                Ok(())
            }
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let mut out = PipeOut {
                tx,
                buffer: Vec::new(),
            };
            serve("127.0.0.1:0", ServiceConfig::default(), &mut out).expect("serves");
        });
        let banner = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("banner");
        let addr = banner
            .trim()
            .rsplit(' ')
            .next()
            .expect("address in banner")
            .to_owned();
        (addr, handle)
    }

    fn send_lines(addr: &str, lines: &[String]) -> Vec<Json> {
        let stream = TcpStream::connect(addr).expect("connects");
        let mut writer = BufWriter::new(stream.try_clone().expect("clones"));
        for line in lines {
            writer.write_all(line.as_bytes()).expect("writes");
            writer.write_all(b"\n").expect("writes");
        }
        writer.flush().expect("flushes");
        drop(writer);
        let reader = BufReader::new(stream);
        let mut events = Vec::new();
        let mut pending: std::collections::HashSet<String> = lines
            .iter()
            .filter_map(|l| Json::parse(l).ok())
            .filter_map(|v| v.get("id").and_then(Json::as_str).map(str::to_owned))
            .collect();
        for line in reader.lines() {
            let line = line.expect("reads");
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
        events
    }

    #[test]
    fn tcp_round_trip_check_status_shutdown() {
        let (addr, handle) = boot();
        let check = Json::obj([
            ("id", Json::str("r1")),
            ("method", Json::str("check")),
            ("spec", Json::str(ALT)),
        ])
        .to_line();
        let events = send_lines(&addr, &[check]);
        let result = events
            .iter()
            .find(|e| e.get("event").and_then(Json::as_str) == Some("result"))
            .expect("result");
        assert_eq!(
            result
                .get("result")
                .and_then(|r| r.get("violated"))
                .and_then(Json::as_bool),
            Some(false)
        );
        // second connection: cache hit shows up in status
        let status = send_lines(&addr, &[r#"{"id":"s1","method":"status"}"#.to_owned()]);
        let payload = status
            .iter()
            .find(|e| e.get("event").and_then(Json::as_str) == Some("result"))
            .and_then(|e| e.get("result"))
            .cloned()
            .expect("status payload");
        assert_eq!(
            payload
                .get("cache")
                .and_then(|c| c.get("misses"))
                .and_then(Json::as_i64),
            Some(1)
        );
        shut_down(&addr, handle);
    }

    fn shut_down(addr: &str, handle: std::thread::JoinHandle<()>) {
        let bye = send_lines(addr, &[r#"{"id":"bye","method":"shutdown"}"#.to_owned()]);
        assert!(bye
            .iter()
            .any(|e| e.get("event").and_then(Json::as_str) == Some("result")));
        handle.join().expect("accept loop exits");
    }

    /// The `status` result on a fresh connection.
    fn status(addr: &str) -> Option<Json> {
        let events = send_lines(addr, &[r#"{"id":"s","method":"status"}"#.to_owned()]);
        events
            .into_iter()
            .find(|e| e.get("event").and_then(Json::as_str) == Some("result"))
    }

    #[test]
    fn a_deeply_nested_line_is_an_error_and_the_daemon_keeps_serving() {
        let (addr, handle) = boot();
        let stream = TcpStream::connect(&addr).expect("connects");
        let mut writer = stream.try_clone().expect("clones");
        writer
            .write_all(format!("{}\n", "[".repeat(200_000)).as_bytes())
            .expect("writes");
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .expect("the daemon answers");
        let event = Json::parse(&line).expect("an event");
        assert_eq!(event.get("event").and_then(Json::as_str), Some("error"));
        let message = event.get("error").and_then(Json::as_str).unwrap_or("");
        assert!(message.contains("nesting"), "{line}");
        // the daemon survived: a second connection is still served
        assert!(status(&addr).is_some(), "second connection served");
        shut_down(&addr, handle);
    }

    /// Writes `bytes` on a fresh connection and returns it with a
    /// reader of the events that come back.
    fn connect_with(addr: &str, bytes: &[u8]) -> (TcpStream, impl FnMut() -> Json) {
        let stream = TcpStream::connect(addr).expect("connects");
        let mut writer = BufWriter::new(stream.try_clone().expect("clones"));
        writer.write_all(bytes).expect("writes");
        writer.flush().expect("flushes");
        let mut reader = BufReader::new(stream.try_clone().expect("clones"));
        let next_event = move || {
            let mut line = String::new();
            reader.read_line(&mut line).expect("the daemon answers");
            Json::parse(&line).expect("an event")
        };
        (stream, next_event)
    }

    /// Asserts that the next events are an `error` whose message
    /// contains `needle`, then the result of the `status` request with
    /// id "s"; returns the error.
    fn expect_error_then_status(mut next_event: impl FnMut() -> Json, needle: &str) -> Json {
        let error = next_event();
        assert_eq!(error.get("event").and_then(Json::as_str), Some("error"));
        let message = error.get("error").and_then(Json::as_str).unwrap_or("");
        assert!(message.contains(needle), "{message}");
        let status = loop {
            let event = next_event();
            if event.get("event").and_then(Json::as_str) == Some("result") {
                break event;
            }
        };
        assert_eq!(status.get("id").and_then(Json::as_str), Some("s"));
        assert!(status.get("result").and_then(|r| r.get("cache")).is_some());
        error
    }

    const STATUS_LINE: &[u8] = b"{\"id\":\"s\",\"method\":\"status\"}\n";

    #[test]
    fn an_over_long_line_is_an_error_and_the_connection_keeps_serving() {
        let (addr, handle) = boot();
        let mut bytes = vec![b'x'; MAX_LINE_BYTES + 1];
        bytes.push(b'\n');
        bytes.extend_from_slice(STATUS_LINE);
        let (stream, next_event) = connect_with(&addr, &bytes);
        // the request after the long line is served on the same connection
        expect_error_then_status(next_event, "exceeds");
        drop(stream);
        shut_down(&addr, handle);
    }

    #[test]
    fn an_invalid_utf8_line_is_an_error_and_the_connection_keeps_serving() {
        let (addr, handle) = boot();
        let mut bytes = b"{\"id\":\"x\",\"method\":\"status\"}\xff\n".to_vec();
        bytes.extend_from_slice(STATUS_LINE);
        let (stream, next_event) = connect_with(&addr, &bytes);
        let error = expect_error_then_status(next_event, "UTF-8");
        assert_eq!(error.get("id").and_then(Json::as_str), Some(""));
        drop(stream);
        shut_down(&addr, handle);
    }

    /// A spec whose one library guard is `guard`.
    fn guard_spec(guard: &str) -> String {
        format!(
            "spec deep {{\n  events a;\n  library L {{\n    constraint C(a: event)\n    \
             automaton D implements C {{\n      var v: int = 0;\n      \
             initial final state S;\n      from S to S when {{a}} guard [{guard}];\n    \
             }}\n  }}\n}}\n"
        )
    }

    /// A `lint` request of `spec`, with id `id`.
    fn lint_request(id: &str, spec: &str) -> String {
        Json::obj([
            ("id", Json::str(id)),
            ("method", Json::str("lint")),
            ("spec", Json::str(spec)),
        ])
        .to_line()
    }

    /// Sends a `lint` of a spec whose one library guard is `guard`, then
    /// a `status`, on one connection; returns the lint's error message
    /// after checking that it is an `error` and that `status` is
    /// answered.
    fn lint_guard_then_status(guard: &str) -> String {
        let (addr, handle) = boot();
        let lint = lint_request("deep", &guard_spec(guard));
        let events = send_lines(&addr, &[lint, r#"{"id":"s","method":"status"}"#.to_owned()]);
        let answer = |id: &str| {
            events
                .iter()
                .filter(|e| e.get("id").and_then(Json::as_str) == Some(id))
                .find(|e| e.get("event").and_then(Json::as_str) != Some("accepted"))
                .and_then(|e| e.get("event").and_then(Json::as_str))
        };
        // the lint is refused with a positioned parse error, and the
        // status request after it on the same connection is answered
        assert_eq!(answer("deep"), Some("error"), "{events:?}");
        assert_eq!(answer("s"), Some("result"), "{events:?}");
        let error = events
            .iter()
            .find(|e| e.get("event").and_then(Json::as_str) == Some("error"))
            .and_then(|e| e.get("error").and_then(Json::as_str))
            .unwrap_or("")
            .to_owned();
        shut_down(&addr, handle);
        error
    }

    #[test]
    fn a_deeply_nested_library_guard_is_a_lint_error_and_the_daemon_keeps_serving() {
        let n = 100_000;
        let error = lint_guard_then_status(&format!("{}v{} > 0", "(".repeat(n), ")".repeat(n)));
        assert!(
            error.contains("line 8") && error.contains("nested deeper"),
            "{error}"
        );
    }

    #[test]
    fn a_long_library_guard_chain_is_a_lint_error_and_the_daemon_keeps_serving() {
        let error = lint_guard_then_status(&format!("{} > 0", vec!["v"; 1_000_000].join(" + ")));
        assert!(
            error.contains("line 8") && error.contains("chains more than 2700 operands"),
            "{error}"
        );
    }

    #[test]
    fn long_library_guard_chains_lint_alike_in_a_daemon_and_the_cli() {
        let (addr, handle) = boot();
        let dir = std::env::temp_dir();
        for n in [70, 2_700] {
            for guard in [
                format!("{} > 0", vec!["v"; n].join(" + ")),
                vec!["v > 0"; n].join(" && "),
            ] {
                let spec = guard_spec(&guard);
                let path = dir.join(format!("moccml-guard-{}-{n}.mcc", std::process::id()));
                std::fs::write(&path, &spec).expect("writes the spec");
                let mut out = String::new();
                let args = [
                    "lint",
                    path.to_str().expect("utf-8 path"),
                    "--format",
                    "json",
                ];
                let code = crate::cli::run(&args.map(str::to_owned), &mut out);
                std::fs::remove_file(&path).expect("removes the spec");
                assert_eq!(code, 0, "{out}");
                let events = send_lines(&addr, &[lint_request("chain", &spec)]);
                let result = events
                    .iter()
                    .find(|e| e.get("event").and_then(Json::as_str) != Some("accepted"))
                    .expect("the lint is answered");
                assert_eq!(
                    result.get("event").and_then(Json::as_str),
                    Some("result"),
                    "{n} operands: {result:?}"
                );
                // the same findings; each side names the spec its own way
                let findings = |diagnostics: &Json| -> Vec<Vec<(String, Json)>> {
                    let entries = diagnostics.as_arr().expect("diagnostics array");
                    entries
                        .iter()
                        .map(|d| match d {
                            Json::Obj(members) => members
                                .iter()
                                .filter(|(k, _)| k != "path")
                                .cloned()
                                .collect(),
                            other => panic!("diagnostic is an object: {other:?}"),
                        })
                        .collect()
                };
                let served = result.get("result").and_then(|r| r.get("diagnostics"));
                let cli = Json::parse(&out).expect("the CLI prints JSON");
                assert_eq!(
                    findings(served.expect("diagnostics")),
                    findings(&cli),
                    "{n} operands"
                );
            }
        }
        shut_down(&addr, handle);
    }

    #[test]
    fn plain_clients_see_no_delayed_ack_stall() {
        // a std::net client with the OS's default delayed ACKs: the
        // daemon's `accepted` and `result` lines are two small writes,
        // which Nagle would hold apart for the client's delayed ACK
        // (about 40 ms per request)
        let (addr, handle) = boot();
        let stream = TcpStream::connect(&addr).expect("connects");
        let mut writer = stream.try_clone().expect("clones");
        let mut reader = BufReader::new(stream);
        let mut round_trips = Vec::new();
        for i in 0..20 {
            let started = std::time::Instant::now();
            writer
                .write_all(format!("{{\"id\":\"s{i}\",\"method\":\"status\"}}\n").as_bytes())
                .expect("writes");
            loop {
                let mut line = String::new();
                reader.read_line(&mut line).expect("reads");
                let event = Json::parse(&line).expect("events are JSON");
                if event.get("event").and_then(Json::as_str) == Some("result") {
                    break;
                }
            }
            round_trips.push(started.elapsed());
        }
        round_trips.sort();
        let median = round_trips[round_trips.len() / 2];
        assert!(
            median < std::time::Duration::from_millis(20),
            "median status round trip {median:?}"
        );
        drop((writer, reader));
        shut_down(&addr, handle);
    }
}
