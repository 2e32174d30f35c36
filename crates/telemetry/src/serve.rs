//! The in-process scrape endpoint: a `std`-only HTTP server on a
//! background thread, serving live registry snapshots while the process
//! runs.
//!
//! The dump-at-exit exporters in [`crate::export`] answer "what happened
//! over the whole run"; this module answers "what is happening *now*".
//! A [`MetricsServer`] binds a blocking [`TcpListener`], accepts plain
//! HTTP/1.1 `GET`s on a background thread, and renders a fresh snapshot
//! per request — no framework, no dependency, one short-lived connection
//! at a time (a scrape endpoint, not a web server).
//!
//! Routes:
//!
//! * `GET /metrics` — Prometheus text exposition
//!   (`text/plain; version=0.0.4`), via
//!   [`export::prometheus_text_with_help`].
//! * `GET /metrics.json` — the JSON exporter; append `?delta=1` to get
//!   counter values as deltas since the previous delta scrape (gauges
//!   and histograms stay cumulative), for cheap rate computation by a
//!   poller that cannot keep state.
//! * `GET /healthz` — `ok`, for liveness probes.
//!
//! The snapshot source is a closure, so the endpoint can serve one
//! registry or a merged per-shard view rebuilt on every scrape (what
//! `watchmen-fleet` does). Drivers enable it with the `WATCHMEN_METRICS_ADDR` env knob
//! ([`MetricsServer::from_env`], e.g. `127.0.0.1:9464`, port `0` for an
//! ephemeral port).
//!
//! # Examples
//!
//! ```
//! use watchmen_telemetry::serve::MetricsServer;
//! use watchmen_telemetry::Registry;
//! use std::sync::Arc;
//!
//! let registry = Arc::new(Registry::new());
//! registry.counter("demo_total").add(3);
//! let source = Arc::clone(&registry);
//! let server = MetricsServer::bind(
//!     "127.0.0.1:0",
//!     Arc::new(move || source.snapshot()),
//!     Arc::new(|_| None),
//! )
//! .unwrap();
//! let addr = server.local_addr();
//! assert_ne!(addr.port(), 0);
//! // `curl http://{addr}/metrics` would now return `demo_total 3`.
//! ```

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::export;
use crate::registry::{MetricValue, Snapshot};

/// Produces a fresh [`Snapshot`] per scrape.
pub type SnapshotSource = Arc<dyn Fn() -> Snapshot + Send + Sync>;

/// Looks up `# HELP` text per metric name (normally a registry's
/// [`crate::Registry::help_for`]).
pub type HelpSource = Arc<dyn Fn(&str) -> Option<&'static str> + Send + Sync>;

/// How long the accept loop sleeps between polls of the stop flag.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Per-connection read/write timeout — a stuck scraper must not wedge
/// the endpoint.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// The live scrape endpoint. Dropping the server stops the accept loop
/// and joins the background thread.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsServer").field("addr", &self.addr).finish_non_exhaustive()
    }
}

impl MetricsServer {
    /// Binds `addr` and starts serving snapshots from `source` on a
    /// background thread.
    ///
    /// # Errors
    ///
    /// Returns the bind error (address in use, permission) verbatim.
    pub fn bind(addr: &str, source: SnapshotSource, help: HelpSource) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("watchmen-metrics".into())
            .spawn(move || accept_loop(&listener, &stop_flag, &source, &help))
            .expect("spawn metrics thread");
        Ok(MetricsServer { addr: local, stop, handle: Some(handle) })
    }

    /// Starts a server on `WATCHMEN_METRICS_ADDR` when the knob is set
    /// and non-empty; `Ok(None)` when unset.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the knob names an unusable address —
    /// an explicitly requested endpoint that cannot come up should fail
    /// the run, not silently vanish.
    pub fn from_env(source: SnapshotSource, help: HelpSource) -> io::Result<Option<Self>> {
        match std::env::var("WATCHMEN_METRICS_ADDR") {
            Ok(addr) if !addr.trim().is_empty() => Self::bind(addr.trim(), source, help).map(Some),
            _ => Ok(None),
        }
    }

    /// The bound address — the real port when the knob asked for `:0`.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    source: &SnapshotSource,
    help: &HelpSource,
) {
    // Counter values as of the last `?delta=1` scrape, keyed by the
    // rendered `name{labels}` identity. The accept loop is the only
    // reader/writer, so plain mutable state suffices.
    let mut deltas: BTreeMap<String, u64> = BTreeMap::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                // One connection at a time, fully handled inline: a
                // scrape is a single short GET and the poll cadence is
                // seconds — no need for a connection pool.
                let _ = handle_connection(stream, source, help, &mut deltas);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    source: &SnapshotSource,
    help: &HelpSource,
    prev_counters: &mut BTreeMap<String, u64>,
) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nonblocking(false)?;
    let mut reader = BufReader::new(stream);

    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain the headers so well-behaved clients see a clean close.
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line)?;
        if n == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }

    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };

    let mut stream = reader.into_inner();
    if method != "GET" {
        return respond(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain",
            "method not allowed\n",
        );
    }
    match path {
        "/metrics" => {
            let body = export::prometheus_text_with_help(&(source)(), &|n| (help)(n));
            respond(&mut stream, "200 OK", "text/plain; version=0.0.4; charset=utf-8", &body)
        }
        "/metrics.json" => {
            let mut snapshot = (source)();
            if query.split('&').any(|kv| kv == "delta=1" || kv == "delta=true") {
                apply_counter_deltas(&mut snapshot, prev_counters);
            }
            let body = export::json(&snapshot);
            respond(&mut stream, "200 OK", "application/json", &body)
        }
        "/healthz" => respond(&mut stream, "200 OK", "text/plain", "ok\n"),
        _ => respond(&mut stream, "404 Not Found", "text/plain", "not found\n"),
    }
}

/// Rewrites counter entries in place to their delta since the previous
/// delta scrape, updating the stored floor. Gauges and histograms pass
/// through cumulative.
fn apply_counter_deltas(snapshot: &mut Snapshot, prev: &mut BTreeMap<String, u64>) {
    for entry in &mut snapshot.entries {
        if let MetricValue::Counter(v) = entry.value {
            let mut key = entry.name.to_owned();
            for (k, val) in &entry.labels {
                key.push('|');
                key.push_str(k);
                key.push('=');
                key.push_str(val);
            }
            let floor = prev.insert(key, v).unwrap_or(0);
            entry.value = MetricValue::Counter(v.saturating_sub(floor));
        }
    }
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) -> io::Result<()> {
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;
    use std::io::Read as _;

    fn scrape(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("write");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read");
        out
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        scrape(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
    }

    fn server_for(registry: Arc<Registry>) -> MetricsServer {
        let source = Arc::clone(&registry);
        let help = Arc::clone(&registry);
        MetricsServer::bind(
            "127.0.0.1:0",
            Arc::new(move || source.snapshot()),
            Arc::new(move |name| help.help_for(name)),
        )
        .expect("bind")
    }

    #[test]
    fn serves_prometheus_text_and_health() {
        let registry = Arc::new(Registry::new());
        registry.describe("demo_total", "a demo counter");
        registry.counter("demo_total").add(3);
        let server = server_for(Arc::clone(&registry));
        let addr = server.local_addr();

        let body = get(addr, "/metrics");
        assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
        assert!(body.contains("text/plain; version=0.0.4"), "{body}");
        assert!(body.contains("# TYPE demo_total counter"), "{body}");
        assert!(body.contains("demo_total 3"), "{body}");

        // The snapshot is taken per scrape: a later increment shows up.
        registry.counter("demo_total").inc();
        assert!(get(addr, "/metrics").contains("demo_total 4"));

        assert!(get(addr, "/healthz").contains("ok"));
        assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));
    }

    #[test]
    fn json_delta_scrapes_subtract_the_previous_floor() {
        let registry = Arc::new(Registry::new());
        registry.counter("work_total").add(10);
        let server = server_for(Arc::clone(&registry));
        let addr = server.local_addr();

        assert!(get(addr, "/metrics.json").contains("\"work_total\": 10"));
        // First delta scrape sees the full value, and sets the floor.
        assert!(get(addr, "/metrics.json?delta=1").contains("\"work_total\": 10"));
        registry.counter("work_total").add(4);
        // Second delta scrape sees only what happened since.
        assert!(get(addr, "/metrics.json?delta=1").contains("\"work_total\": 4"));
        // Cumulative scrapes are unaffected by the delta floor.
        assert!(get(addr, "/metrics.json").contains("\"work_total\": 14"));
    }

    #[test]
    fn rejects_non_get_methods() {
        let server = server_for(Arc::new(Registry::new()));
        let out = scrape(server.local_addr(), "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 405"), "{out}");
    }

    #[test]
    fn from_env_is_none_when_unset() {
        // The knob is process-global; this test only asserts the unset
        // path (other tests must not set it).
        if std::env::var("WATCHMEN_METRICS_ADDR").is_err() {
            let server = MetricsServer::from_env(Arc::new(Snapshot::default), Arc::new(|_| None))
                .expect("from_env");
            assert!(server.is_none());
        }
    }
}
