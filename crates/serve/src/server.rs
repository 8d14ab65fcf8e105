//! The daemon shell: TCP transport, export ticker, and graceful drain.
//!
//! [`Server::start`] binds the protocol listener (and optionally the
//! Prometheus endpoint), spawns the accept loop and the export ticker,
//! and returns a handle. The caller-facing lifecycle is:
//!
//! ```text
//! engine ─┬─ accept thread ── one handler thread per connection
//!         ├─ prometheus listener (optional)
//!         └─ export ticker (snapshot → every exporter, each interval)
//! ```
//!
//! [`Server::drain`] is the graceful shutdown contract: flip the
//! shutdown flag and wake the accept loop, let every handler finish the
//! request it is reading (handlers poll the flag on a read timeout),
//! join accept + handlers + ticker, then run one final export pass and
//! flush every exporter. The trace-snapshot exporter writes through a
//! tmp-file + rename, so there is no instant at which a scraping reader
//! or a crashed drain can observe a torn trace file.
//!
//! Both listeners (protocol and Prometheus) block in `accept`; nothing
//! polls them. Whoever sets the shutdown flag wakes a listener with a
//! self-connect (`wake`), and the loop stops at the first connection
//! that finds the flag set.

use crate::engine::{Disposition, ServeEngine};
use crate::exporter::Exporter;
use crate::prom::{self, PromEndpoint};
use pbc_trace::names;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tuning knobs.
pub struct ServerConfig {
    /// Protocol listener address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Prometheus scrape endpoint address; `None` disables it.
    pub prom_addr: Option<String>,
    /// How often the export ticker publishes a snapshot.
    pub export_interval: Duration,
    /// The exporter fleet (the Prometheus exporter is added internally
    /// when `prom_addr` is set).
    pub exporters: Vec<Box<dyn Exporter>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            prom_addr: None,
            export_interval: Duration::from_millis(200),
            exporters: Vec::new(),
        }
    }
}

/// A running daemon.
pub struct Server {
    engine: Arc<ServeEngine>,
    shutdown: Arc<AtomicBool>,
    local_addr: SocketAddr,
    prom: Option<PromEndpoint>,
    accept_thread: Option<JoinHandle<()>>,
    export_thread: Option<JoinHandle<()>>,
    exporters: Arc<Mutex<Vec<Box<dyn Exporter>>>>,
}

/// How long a handler blocks in one read before re-checking the
/// shutdown flag. Partial lines survive the timeout: `read_line`
/// appends, so a line split across timeouts is still read whole.
const READ_POLL: Duration = Duration::from_millis(50);

/// How long an accept loop backs off after a failed `accept` (e.g. out
/// of descriptors) instead of spinning on the error.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(2);

/// A handle that asks a running [`Server`] to stop accepting: it sets
/// the shutdown flag and wakes the blocking accept loop. The handler of
/// a `shutdown` request uses one; so can any other transport, such as
/// the stdin loop of `pbc serve`.
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Request the shutdown. [`Server::wait`] returns once the accept
    /// loop and every connection handler have finished.
    pub fn request(&self) {
        self.flag.store(true, Ordering::SeqCst);
        wake(self.addr);
    }
}

impl Server {
    /// Bind, spawn the threads, and return the handle.
    #[must_use = "dropping the handle leaks the daemon threads; call drain()"]
    pub fn start(engine: Arc<ServeEngine>, mut config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = ShutdownHandle { flag: Arc::clone(&shutdown), addr: local_addr };

        let prom = match &config.prom_addr {
            Some(addr) => {
                let (exporter, endpoint) = prom::start_endpoint(addr, Arc::clone(&shutdown))?;
                config.exporters.push(Box::new(exporter));
                Some(endpoint)
            }
            None => None,
        };
        let exporters = Arc::new(Mutex::new(config.exporters));

        // Export ticker: publish a snapshot every interval, polling the
        // shutdown flag at a finer grain so drain is prompt.
        let export_thread = {
            let exporters = Arc::clone(&exporters);
            let flag = Arc::clone(&shutdown);
            let interval = config.export_interval;
            std::thread::Builder::new()
                .name("pbc-serve-export".into())
                .spawn(move || {
                    let mut elapsed = Duration::ZERO;
                    let tick = Duration::from_millis(20).min(interval);
                    while !flag.load(Ordering::SeqCst) {
                        std::thread::sleep(tick);
                        elapsed += tick;
                        if elapsed >= interval {
                            elapsed = Duration::ZERO;
                            export_once(&exporters);
                        }
                    }
                })?
        };

        // Accept loop: hand each connection its own handler thread and
        // join them all on the way out, so drain waits for in-flight
        // requests.
        let accept_thread = {
            let engine = Arc::clone(&engine);
            let flag = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("pbc-serve-accept".into())
                .spawn(move || {
                    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
                    let open = Arc::new(AtomicI64::new(0));
                    accept_until(&listener, &flag, |stream| {
                        pbc_trace::counter(names::SERVE_CONNECTIONS).incr();
                        let engine = Arc::clone(&engine);
                        let flag = Arc::clone(&flag);
                        let stop = stop.clone();
                        let open = Arc::clone(&open);
                        let gauge = |n: i64| {
                            #[allow(clippy::cast_precision_loss)]
                            pbc_trace::gauge(names::SERVE_OPEN_CONNECTIONS).set(n as f64);
                        };
                        gauge(open.fetch_add(1, Ordering::SeqCst) + 1);
                        let spawned = std::thread::Builder::new()
                            .name("pbc-serve-conn".into())
                            .spawn(move || {
                                let outcome = handle_connection(&engine, stream, &flag);
                                gauge(open.fetch_sub(1, Ordering::SeqCst) - 1);
                                if outcome == Disposition::Shutdown {
                                    stop.request();
                                }
                            });
                        if let Ok(t) = spawned {
                            handlers.push(t);
                        }
                    });
                    for t in handlers {
                        let _ = t.join();
                    }
                })?
        };

        Ok(Server {
            engine,
            shutdown,
            local_addr,
            prom,
            accept_thread: Some(accept_thread),
            export_thread: Some(export_thread),
            exporters,
        })
    }

    /// The protocol listener's bound address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The Prometheus endpoint's bound address, when enabled.
    #[must_use]
    pub fn prom_addr(&self) -> Option<SocketAddr> {
        self.prom.as_ref().map(PromEndpoint::addr)
    }

    /// A handle another transport (e.g. the stdin loop) uses to request
    /// a drain.
    #[must_use]
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle { flag: Arc::clone(&self.shutdown), addr: self.local_addr }
    }

    /// Block until a shutdown is requested — by a `shutdown` request on
    /// a connection or through a [`ShutdownHandle`] — and the accept
    /// loop and every connection handler have finished.
    pub fn wait(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Graceful shutdown: stop accepting, reject new work, wait for
    /// in-flight requests, then publish and flush one final snapshot.
    #[must_use = "a failed drain means exporters were not flushed"]
    pub fn drain(mut self) -> io::Result<()> {
        self.engine.begin_drain();
        self.shutdown_handle().request();
        self.wait();
        if let Some(t) = self.export_thread.take() {
            let _ = t.join();
        }
        if let Some(p) = self.prom.take() {
            p.join();
        }
        // Final export after every handler has finished: the published
        // telemetry includes the last request served.
        export_once(&self.exporters);
        let mut exporters = self.exporters.lock().unwrap_or_else(PoisonError::into_inner);
        for e in exporters.iter_mut() {
            e.flush()?;
        }
        Ok(())
    }
}

/// The accept idiom of both listeners: block in `accept`, hand each
/// connection to `serve`, and stop at the first connection that finds
/// `shutdown` set (normally the self-connect of [`wake`]).
pub(crate) fn accept_until(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    mut serve: impl FnMut(TcpStream),
) {
    for conn in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match conn {
            Ok(stream) => serve(stream),
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

/// Wake a listener blocked in [`accept_until`] by connecting to it. A
/// wildcard bind address is reached through the loopback interface.
pub(crate) fn wake(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(if addr.is_ipv4() {
            Ipv4Addr::LOCALHOST.into()
        } else {
            Ipv6Addr::LOCALHOST.into()
        });
    }
    let _ = TcpStream::connect(addr);
}

/// Should a reply written with `buffered` still unread be flushed now?
/// Only a complete buffered request line (one holding `\n`) is sure to
/// be answered at once, its reply then flushing both; a partial tail
/// such as `pi` can wait a whole [`READ_POLL`] for its newline, and must
/// not hold the reply back that long.
fn flush_due(buffered: &[u8]) -> bool {
    !buffered.contains(&b'\n')
}

/// One export pass over the exporter fleet.
fn export_once(exporters: &Arc<Mutex<Vec<Box<dyn Exporter>>>>) {
    let snap = pbc_trace::snapshot();
    let mut fleet = exporters.lock().unwrap_or_else(PoisonError::into_inner);
    for e in fleet.iter_mut() {
        // An exporter whose sink fails (closed pipe, full disk) must
        // not take the serving loop down with it; the tick is retried
        // at the next interval.
        let _ = e.export(&snap);
    }
    drop(fleet);
    pbc_trace::counter(names::SERVE_EXPORTS).incr();
}

/// Serve one protocol connection until quit/EOF/shutdown.
fn handle_connection(
    engine: &ServeEngine,
    stream: TcpStream,
    shutdown: &AtomicBool,
) -> Disposition {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let Ok(write_half) = stream.try_clone() else {
        return Disposition::Quit;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);
    let mut line = String::new();
    let mut response = String::new();
    loop {
        // `line` is cleared only after a complete dispatch: `read_line`
        // appends, so a line split across read timeouts accumulates
        // until its newline arrives.
        match reader.read_line(&mut line) {
            Ok(0) => break Disposition::Quit, // client closed
            Ok(_) => {
                if !line.trim().is_empty() {
                    let disposition = engine.dispatch_into(&line, &mut response);
                    if writeln!(writer, "{response}").is_err() {
                        break Disposition::Quit;
                    }
                    // Flush unless a further complete request is already
                    // buffered — this is what lets a pipelining client
                    // amortize syscalls over a whole batch.
                    if flush_due(reader.buffer()) && writer.flush().is_err() {
                        break Disposition::Quit;
                    }
                    if disposition != Disposition::Respond {
                        let _ = writer.flush();
                        break disposition;
                    }
                }
                line.clear();
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle (or mid-line) read timeout: flush anything
                // buffered and re-check the shutdown flag. Any partial
                // line stays in `line` for the next read to extend.
                let _ = writer.flush();
                if shutdown.load(Ordering::SeqCst) {
                    break Disposition::Quit;
                }
            }
            Err(_) => break Disposition::Quit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn flushes_unless_a_complete_line_is_buffered() {
        assert!(flush_due(b""));
        assert!(flush_due(b"pi"));
        assert!(!flush_due(b"ping\n"));
        assert!(!flush_due(b"ping\npi"));
    }

    #[test]
    fn drains_a_server_no_client_ever_reached() {
        let config = ServerConfig {
            prom_addr: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        };
        let server = Server::start(Arc::new(ServeEngine::new()), config).unwrap();
        // A drain that never returns fails the test instead of hanging it.
        let (tx, rx) = mpsc::channel();
        let drainer = std::thread::spawn(move || tx.send(server.drain().is_ok()));
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(true));
        drainer.join().unwrap().unwrap();
    }
}
