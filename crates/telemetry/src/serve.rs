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
//!   [`export::prometheus_text_with_help`]. A rate is the scraper's to
//!   compute from two cumulative scrapes, so the server keeps no state.
//! * `GET /healthz` — `ok`, for liveness probes.
//!
//! The snapshot source is a closure, so the endpoint can serve one
//! registry or a merged per-shard view rebuilt on every scrape (what
//! `watchmen-fleet` does). Drivers enable it with the `WATCHMEN_METRICS_ADDR` env knob
//! ([`MetricsServer::from_env`], e.g. `127.0.0.1:9464`, port `0` for an
//! ephemeral port); `WATCHMEN_METRICS_HOLD_MS` keeps it up that long
//! after the run ([`MetricsServer::hold_then_stop`]).
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

use std::io::{self, BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::export;
use crate::registry::Snapshot;

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
    hold: Duration,
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
        Ok(MetricsServer { addr: local, hold: Duration::ZERO, stop, handle: Some(handle) })
    }

    /// Starts a server on `WATCHMEN_METRICS_ADDR` when the knob is set
    /// and non-empty, to be held up for `WATCHMEN_METRICS_HOLD_MS`
    /// (default 0) by [`MetricsServer::hold_then_stop`]; `Ok(None)` when
    /// the address is unset.
    ///
    /// # Errors
    ///
    /// Names the knob when the address is unusable or the hold is not a
    /// whole number of milliseconds — an explicitly requested endpoint
    /// that cannot come up as asked should fail the run, not silently
    /// vanish.
    pub fn from_env(source: SnapshotSource, help: HelpSource) -> io::Result<Option<Self>> {
        let addr = match std::env::var("WATCHMEN_METRICS_ADDR") {
            Ok(addr) if !addr.trim().is_empty() => addr,
            _ => return Ok(None),
        };
        let hold = parse_hold(std::env::var("WATCHMEN_METRICS_HOLD_MS").ok().as_deref())?;
        let mut server = Self::bind(addr.trim(), source, help).map_err(|e| {
            io::Error::new(e.kind(), format!("WATCHMEN_METRICS_ADDR={addr:?}: {e}"))
        })?;
        server.hold = hold;
        Ok(Some(server))
    }

    /// Keeps serving for the hold [`MetricsServer::from_env`] read, for
    /// scrapers that want the settled final snapshot, then stops.
    pub fn hold_then_stop(self) {
        thread::sleep(self.hold);
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

/// A `WATCHMEN_METRICS_HOLD_MS` value: unset or blank is no hold.
fn parse_hold(value: Option<&str>) -> io::Result<Duration> {
    match value.map(str::trim) {
        None | Some("") => Ok(Duration::ZERO),
        Some(ms) => ms.parse().map(Duration::from_millis).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("WATCHMEN_METRICS_HOLD_MS={ms:?} is not a whole number of milliseconds"),
            )
        }),
    }
}

fn accept_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    source: &SnapshotSource,
    help: &HelpSource,
) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                // One connection at a time, fully handled inline: a
                // scrape is a single short GET and the poll cadence is
                // seconds — no need for a connection pool.
                let _ = handle_connection(stream, source, help);
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
    let path = parts.next().unwrap_or("").split('?').next().unwrap_or("");

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
        "/healthz" => respond(&mut stream, "200 OK", "text/plain", "ok\n"),
        _ => respond(&mut stream, "404 Not Found", "text/plain", "not found\n"),
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
    fn rejects_non_get_methods() {
        let server = server_for(Arc::new(Registry::new()));
        let out = scrape(server.local_addr(), "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 405"), "{out}");
    }

    #[test]
    fn hold_is_whole_milliseconds_or_an_error() {
        assert_eq!(parse_hold(None).expect("unset"), Duration::ZERO);
        assert_eq!(parse_hold(Some(" ")).expect("blank"), Duration::ZERO);
        assert_eq!(parse_hold(Some("2000")).expect("ms"), Duration::from_millis(2000));
        for junk in ["2s", "-5", "1.5", "lots"] {
            let e = parse_hold(Some(junk)).expect_err(junk);
            assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
            assert!(e.to_string().contains("WATCHMEN_METRICS_HOLD_MS"), "{e}");
        }
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
