//! A hand-rolled Prometheus text-format scrape endpoint.
//!
//! [`render_prometheus`] maps the `pbc_trace` registry onto the
//! Prometheus exposition format (text version 0.0.4): dotted metric
//! names become underscore-mangled names under a `pbc_` prefix
//! (`serve.requests` → `pbc_serve_requests`), counters get a
//! `# TYPE … counter` header, gauges `# TYPE … gauge`. No client
//! library, no HTTP framework — the endpoint speaks just enough
//! HTTP/1.1 for a Prometheus scraper (or `curl`): it reads a request
//! head, answers `GET /metrics` with `200 text/plain`, anything else
//! with `404`, and closes the connection (`Connection: close`).
//!
//! The endpoint serves the body cached by the last export tick, so a
//! scrape is two syscalls, never a registry walk on the scrape path;
//! after the daemon quiesces (one tick with no traffic), scrape totals
//! are exactly the final trace counters — an equality the e2e smoke
//! test asserts.

use crate::exporter::Exporter;
use crate::server;
use pbc_trace::{names, Snapshot};
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Mangle a dotted trace name into a Prometheus metric name.
#[must_use]
pub fn mangle(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("pbc_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Render a snapshot in the Prometheus text exposition format.
#[must_use]
pub fn render_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let m = mangle(name);
        let _ = writeln!(out, "# TYPE {m} counter");
        let _ = writeln!(out, "{m} {v}");
    }
    for (name, v) in &snap.gauges {
        let m = mangle(name);
        let _ = writeln!(out, "# TYPE {m} gauge");
        let _ = writeln!(out, "{m} {v}");
    }
    out
}

/// The shared body cell: export ticks write, scrape threads read.
type Body = Arc<Mutex<String>>;

/// The exporter half: refreshes the cached scrape body each tick.
pub struct PrometheusExporter {
    body: Body,
}

impl Exporter for PrometheusExporter {
    fn name(&self) -> &'static str {
        "prometheus"
    }

    fn export(&mut self, snap: &Snapshot) -> io::Result<()> {
        let rendered = render_prometheus(snap);
        *self.body.lock().unwrap_or_else(PoisonError::into_inner) = rendered;
        Ok(())
    }
}

/// The listener half: a running scrape endpoint.
pub struct PromEndpoint {
    addr: SocketAddr,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl PromEndpoint {
    /// The address the endpoint is listening on.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wake the listener and join its thread (after the shutdown flag
    /// is set).
    pub fn join(mut self) {
        server::wake(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Bind the scrape endpoint on `addr` and return the paired
/// `(exporter, endpoint)`. The listener blocks in `accept` and exits
/// at the first connection after `shutdown` flips; [`PromEndpoint::join`]
/// makes that connection.
#[must_use = "a failed bind leaves the daemon without its scrape endpoint"]
pub fn start_endpoint(
    addr: &str,
    shutdown: Arc<AtomicBool>,
) -> io::Result<(PrometheusExporter, PromEndpoint)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let body: Body = Arc::new(Mutex::new(String::new()));
    let serve_body = Arc::clone(&body);
    let thread = std::thread::Builder::new()
        .name("pbc-serve-prom".into())
        .spawn(move || {
            server::accept_until(&listener, &shutdown, |stream| {
                let _ = answer_scrape(stream, &serve_body);
            });
        })?;
    Ok((
        PrometheusExporter { body },
        PromEndpoint { addr: local, thread: Some(thread) },
    ))
}

/// Speak one HTTP/1.1 exchange on an accepted connection.
fn answer_scrape(mut stream: std::net::TcpStream, body: &Body) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    // Read until the end of the request head (CRLFCRLF) or the buffer
    // cap; a Prometheus GET has no body.
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&chunk[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
            break;
        }
    }
    let request = String::from_utf8_lossy(&head);
    let target = request
        .lines()
        .next()
        .and_then(|l| l.split_ascii_whitespace().nth(1))
        .unwrap_or("");
    let ok = request.starts_with("GET ") && (target == "/metrics" || target == "/");
    if ok {
        pbc_trace::counter(names::SERVE_SCRAPES).incr();
        let text = body.lock().unwrap_or_else(PoisonError::into_inner).clone();
        let header = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            text.len()
        );
        stream.write_all(header.as_bytes())?;
        stream.write_all(text.as_bytes())?;
    } else {
        let msg = "only GET /metrics lives here\n";
        let header = format!(
            "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            msg.len()
        );
        stream.write_all(header.as_bytes())?;
        stream.write_all(msg.as_bytes())?;
    }
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::Ordering;

    fn snap() -> Snapshot {
        let mut counters = BTreeMap::new();
        counters.insert("serve.requests".into(), 42u64);
        let mut gauges = BTreeMap::new();
        gauges.insert("serve.sessions".into(), 3.0);
        Snapshot { counters, gauges, spans: Vec::new() }
    }

    #[test]
    fn renders_text_format() {
        let text = render_prometheus(&snap());
        assert!(text.contains("# TYPE pbc_serve_requests counter"));
        assert!(text.contains("pbc_serve_requests 42"));
        assert!(text.contains("# TYPE pbc_serve_sessions gauge"));
        assert!(text.contains("pbc_serve_sessions 3"));
    }

    #[test]
    fn mangles_dots_and_dashes() {
        assert_eq!(mangle("serve.requests"), "pbc_serve_requests");
        assert_eq!(mangle("coord.cpu.regime_a"), "pbc_coord_cpu_regime_a");
    }

    #[test]
    fn endpoint_answers_a_real_scrape() {
        let shutdown = Arc::new(AtomicBool::new(false));
        let (mut exporter, endpoint) =
            start_endpoint("127.0.0.1:0", Arc::clone(&shutdown)).unwrap();
        exporter.export(&snap()).unwrap();
        let mut stream = std::net::TcpStream::connect(endpoint.addr()).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("pbc_serve_requests 42"), "{response}");
        // Unknown paths 404 without killing the listener.
        let mut stream = std::net::TcpStream::connect(endpoint.addr()).unwrap();
        stream
            .write_all(b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 404"), "{response}");
        shutdown.store(true, Ordering::SeqCst);
        endpoint.join();
    }
}
