//! The serving workloads: open-loop line-protocol traffic against a
//! `pbc serve` child process over one TCP connection.
//!
//! 1024 sessions (512 ivybridge/stream, 512 haswell/dgemm) are opened
//! with two `provision` requests. One generator thread sends request `k`
//! at its scheduled time `k / RATE`, batching whatever fell due into one
//! write, and reads the in-order responses between sends; each response
//! is checked and timed from its request's scheduled send time, so a
//! stall is charged to every request it delays.
//!
//! * `serve-budget` — 10k req/s, every request `budget ID W` with `W`
//!   drawn inside the class band and never equal to the session's
//!   current budget: each one re-seeds the session from its curve table.
//! * `serve-observe` — 10k req/s, ~95% `observe` requests reporting the
//!   operating point the simulator gives for the session's last probe,
//!   ~5% budget changes that restart the climb.
//!
//! The traced run repeats a shorter open-loop window (for the transport
//! share and the generator's own health), then replays the same stream
//! through an in-process `ServeEngine` with one span around each public
//! call into a layer.

use crate::layers::{self, span, Layers};
use crate::stats::{mean, percentile, ratio, sorted};
use crate::{cpu, mix_seed, procfs, Args, Outcome};
use pbc_platform::{presets, PlatformId};
use pbc_powersim::SolveMemo;
use pbc_serve::{proto, ServeEngine, Session};
use pbc_trace::names;
use pbc_types::rng::XorShift64Star;
use pbc_types::{PowerAllocation, Watts, CAP_QUANTUM};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The traffic mix.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Budget,
    Observe,
}

impl Mix {
    fn budget_share(self) -> f64 {
        match self {
            Mix::Budget => 1.0,
            Mix::Observe => 0.05,
        }
    }
}

/// Requests per second both mixes send.
const RATE: f64 = 10_000.0;
/// `(platform, bench, provisioning budget W)` per session class.
const CLASSES: [(&str, &str, f64); 2] =
    [("ivybridge", "stream", 208.0), ("haswell", "dgemm", 190.5)];
const PER_CLASS: usize = 512;
const SESSIONS: usize = PER_CLASS * CLASSES.len();
/// Daemon start-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Open-loop traffic sent before the measured window opens.
const WARMUP_S: f64 = 0.5;
/// Budget replies priced for `decision_perf`: one in this many, the
/// pick rotating by one each round of the visiting order so every
/// session (and so each class) is priced equally often: a fixed subset
/// of sessions has a class mix that changes with the seed, and moved
/// the mean ~1.4% between seeds.
const PRICE_EVERY: usize = 16;
/// Budgets are drawn on this grid (W), like a controller's setpoints.
const BUDGET_GRID: f64 = 0.125;
/// How long the generator waits for responses after the last send, or
/// for any response while requests are in flight.
const DRAIN_WAIT: Duration = Duration::from_secs(3);
/// How long a closed-loop call waits for its reply.
const CALL_WAIT: Duration = Duration::from_secs(10);
/// Requests replayed in-process by the traced run.
const REPLAY_MAX: usize = 40_000;

/// One session class as the generator sees it.
struct Class {
    floor: f64,
    ceiling: f64,
    initial: f64,
    memo: Arc<SolveMemo>,
}

fn class_of(classes: &[Class], s: usize) -> &Class {
    &classes[s / PER_CLASS]
}

/// The seeded request schedule: which session request `k` targets,
/// whether it is a budget change, and the budget its reply must echo.
struct Plan {
    session: Vec<u32>,
    is_budget: Vec<bool>,
    echo: Vec<f64>,
}

fn make_plan(mix: Mix, seed: u64, n: usize, classes: &[Class]) -> Plan {
    let mut rng = XorShift64Star::new(mix_seed(seed, 1));
    // A seeded visiting order, repeated round-robin, so each session's
    // turn comes every SESSIONS requests.
    let mut order: Vec<u32> = (0..SESSIONS as u32).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut current: Vec<f64> = (0..SESSIONS)
        .map(|s| class_of(classes, s).initial)
        .collect();
    let mut plan = Plan {
        session: Vec::with_capacity(n),
        is_budget: Vec::with_capacity(n),
        echo: Vec::with_capacity(n),
    };
    for k in 0..n {
        let s = order[k % SESSIONS] as usize;
        let is_budget = rng.next_f64() < mix.budget_share();
        if is_budget {
            let c = class_of(classes, s);
            let steps = ((c.ceiling - c.floor) / BUDGET_GRID).floor() as usize;
            let w = loop {
                let w = c.floor + BUDGET_GRID * rng.below(steps + 1) as f64;
                if w.to_bits() != current[s].to_bits() {
                    break w;
                }
            };
            current[s] = w;
        }
        plan.session.push(s as u32);
        plan.is_budget.push(is_budget);
        plan.echo.push(current[s]);
    }
    plan
}

/// The operating point reported by an `observe`: `[perf, proc W, mem W,
/// cap proc, cap mem]`, simulated at the session's last probe.
type Report = [f64; 5];

fn simulate(memo: &SolveMemo, alloc: PowerAllocation) -> Result<Report, String> {
    let op = memo
        .solve(alloc)
        .map_err(|e| format!("simulating {alloc:?}: {e}"))?;
    Ok([
        op.perf_rel,
        op.proc_power.value(),
        op.mem_power.value(),
        alloc.proc.value(),
        alloc.mem.value(),
    ])
}

fn format_request(out: &mut String, plan: &Plan, k: usize, report: Option<Report>) {
    let s = plan.session[k];
    match report {
        None => {
            let _ = writeln!(out, "budget {s} {}", plan.echo[k]);
        }
        Some([perf, p, m, cp, cm]) => {
            let _ = writeln!(out, "observe {s} {perf} {p} {m} {cp} {cm}");
        }
    }
}

/// Check one response against the plan: an `alloc` line for the right
/// session that echoes the expected budget bit-exactly and fits in it.
fn check_reply(line: &str, plan: &Plan, k: usize) -> Result<PowerAllocation, String> {
    let line = line.trim_end();
    let mut fields = line.split_ascii_whitespace();
    if fields.next() != Some("alloc") {
        return Err(format!("request {k}: expected an alloc line, got {line:?}"));
    }
    let id = fields.next().and_then(|f| f.parse::<u32>().ok());
    if id != Some(plan.session[k]) {
        return Err(format!(
            "request {k}: reply for session {id:?}, sent to {}",
            plan.session[k]
        ));
    }
    let budget = line
        .split_ascii_whitespace()
        .find_map(|f| f.strip_prefix("budget="))
        .and_then(|v| v.parse::<f64>().ok());
    let want = plan.echo[k];
    if budget.map(f64::to_bits) != Some(want.to_bits()) {
        return Err(format!(
            "request {k}: budget echo {budget:?}, expected {want}"
        ));
    }
    let outcome = line
        .split_ascii_whitespace()
        .find_map(|f| f.strip_prefix("outcome="));
    let ok_outcome = if plan.is_budget[k] {
        outcome == Some("applied")
    } else {
        matches!(outcome, Some("used" | "watchdog"))
    };
    if !ok_outcome {
        return Err(format!("request {k}: unexpected outcome in {line:?}"));
    }
    let alloc = proto::parse_alloc_line(line)
        .ok_or_else(|| format!("request {k}: unparseable allocation in {line:?}"))?;
    if alloc.total().value() > want + CAP_QUANTUM {
        return Err(format!(
            "request {k}: allocation {alloc:?} exceeds budget {want}"
        ));
    }
    Ok(alloc)
}

/// A running `pbc serve` child.
struct Daemon {
    child: Child,
    /// Kept open until the child exits: the daemon prints its drain
    /// message to standard output on the way out.
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(pbc: &std::path::Path) -> Result<Daemon, String> {
        let mut child = Command::new(pbc)
            .arg("serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {} serve: {e}", pbc.display()))?;
        let Some(out) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout was not captured".into());
        };
        let mut stdout = BufReader::new(out);
        let mut first = String::new();
        let addr = stdout.read_line(&mut first).ok().and_then(|_| {
            first
                .trim()
                .strip_prefix("listening ")?
                .parse::<SocketAddr>()
                .ok()
        });
        match addr {
            Some(addr) => Ok(Daemon {
                child,
                stdout,
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not announce its address: {first:?}"))
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Close standard input (the daemon drains and exits 0) and wait;
    /// kill it if it has not exited within ten seconds.
    fn stop(mut self) -> Result<(), String> {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let mut rest = String::new();
                    let _ = self.stdout.read_to_string(&mut rest);
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("daemon exited with {status}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("daemon did not drain within 10 s; killed".into());
                }
            }
        }
    }
}

fn field<T: std::str::FromStr>(reply: &str, key: &str) -> Result<T, String> {
    reply
        .split_ascii_whitespace()
        .find_map(|f| f.strip_prefix(key))
        .and_then(|v| v.parse::<T>().ok())
        .ok_or_else(|| format!("no {key} field in {reply:?}"))
}

/// Provision the session classes; returns the class table.
fn provision(send: &mut dyn FnMut(&str) -> Result<String, String>) -> Result<Vec<Class>, String> {
    let mut classes = Vec::new();
    for (i, (platform, bench, initial)) in CLASSES.iter().enumerate() {
        let reply = send(&format!(
            "provision {PER_CLASS} {platform} {bench} {initial}"
        ))?;
        if !reply.starts_with("ok provision") {
            return Err(format!("provision {platform}/{bench} failed: {reply}"));
        }
        let base: usize = field(&reply, "base=")?;
        if base != i * PER_CLASS {
            return Err(format!(
                "provision {platform}/{bench} started at base {base}"
            ));
        }
        let id = PlatformId::from_slug(platform).ok_or("unknown platform")?;
        let demand = pbc_workloads::by_name(bench).ok_or("unknown bench")?.demand;
        classes.push(Class {
            floor: field(&reply, "floor=")?,
            ceiling: field(&reply, "ceiling=")?,
            initial: *initial,
            memo: SolveMemo::for_problem(&presets::by_id(id), &demand),
        });
    }
    Ok(classes)
}

/// A daemon not stopped by [`Daemon::stop`] (an early return on an
/// error) is killed and reaped, never left running.
impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Spawn a daemon and provision it; returns it with the set-up time.
fn start(pbc: &std::path::Path) -> Result<(Daemon, Connection, Vec<Class>, f64), String> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn(pbc)?;
    let mut conn = Connection::open(daemon.addr)?;
    let classes = provision(&mut |l| conn.call(l))?;
    Ok((daemon, conn, classes, t0.elapsed().as_secs_f64()))
}

struct Connection {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Connection {
    fn open(addr: SocketAddr) -> Result<Connection, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        // Shared with the reader's clone: a daemon that stops answering
        // fails the call instead of blocking the bench.
        stream
            .set_read_timeout(Some(CALL_WAIT))
            .map_err(|e| format!("setting a read timeout: {e}"))?;
        let reader = BufReader::with_capacity(
            1 << 16,
            stream
                .try_clone()
                .map_err(|e| format!("cloning the socket: {e}"))?,
        );
        Ok(Connection { stream, reader })
    }

    /// A closed-loop request/response exchange, used for provisioning,
    /// priming and counter snapshots.
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("sending {line:?}: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(n) if n > 0 => Ok(reply.trim_end().to_string()),
            Ok(_) => Err(format!("connection closed after {line:?}")),
            Err(e) => Err(format!("reading the reply to {line:?}: {e}")),
        }
    }

    /// `(requests, served, rejected)` from the daemon's `stats` line.
    fn stats(&mut self) -> Result<[u64; 3], String> {
        let r = self.call("stats")?;
        Ok([
            field(&r, "requests=")?,
            field(&r, "served=")?,
            field(&r, "rejected=")?,
        ])
    }
}

/// Ask every session for its current allocation and simulate it: the
/// first report each `observe` session sends.
fn prime(conn: &mut Connection, classes: &[Class]) -> Result<Vec<Report>, String> {
    (0..SESSIONS)
        .map(|s| {
            let reply = conn.call(&format!("query {s}"))?;
            let alloc = proto::parse_alloc_line(&reply)
                .ok_or_else(|| format!("query {s}: unexpected reply {reply:?}"))?;
            simulate(&class_of(classes, s).memo, alloc)
        })
        .collect()
}

/// What the open-loop window measured.
struct Window {
    /// Per-request latency (µs) from scheduled send to response read,
    /// measured-window requests only.
    latency_us: Vec<f64>,
    /// Perf of the priced replies (see `PRICE_EVERY`).
    perf: Vec<f64>,
    /// `(due ns, lateness ns, in flight)` at each write.
    writes: Vec<(u64, u64, u64)>,
    responses: u64,
    cpu_s: f64,
    window_s: f64,
}

/// Run the open-loop schedule for `plan` (request `k` due at
/// `k / RATE`); the first `warm` requests are sent but not measured.
///
/// One thread does both halves on a non-blocking socket: it polls until
/// the next request falls due, sends everything due in one write, and
/// drains whatever responses have arrived. Polling keeps send times
/// exact without timer wake-ups, and leaves the daemon the other core.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    conn: &mut Connection,
    daemon_pid: &str,
    mix: Mix,
    plan: &Plan,
    warm: usize,
    classes: &[Class],
    primed: Vec<Report>,
    out: &mut Outcome,
) -> Result<Window, String> {
    let n = plan.session.len();
    let interval_ns = 1e9 / RATE;
    let due = |k: usize| (k as f64 * interval_ns).round() as u64;
    let sock = &mut conn.stream;
    sock.set_nonblocking(true)
        .map_err(|e| format!("non-blocking socket: {e}"))?;
    // Responses already buffered by the closed-loop reader stay there;
    // there are none, since every earlier call read its reply.
    // The report a session's next observe carries: set from the
    // session's latest reply, taken when the observe is sent.
    let mut ready: Vec<Option<Report>> = primed.into_iter().map(Some).collect();
    let mut last: Vec<Option<Report>> = ready.clone();
    // Requests sent to each session and not yet answered. A budget
    // change may go out while one is pending; an observe may not, or it
    // would report the probe the pending reply is about to replace.
    let mut pending = vec![0u32; SESSIONS];
    let mut w = Window {
        latency_us: Vec::with_capacity(n.saturating_sub(warm)),
        perf: Vec::new(),
        writes: Vec::new(),
        responses: 0,
        cpu_s: 0.0,
        window_s: 0.0,
    };
    let mut outbuf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut inbuf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut line = String::new();
    let (mut sent, mut received) = (0usize, 0usize);
    let mut cpu0 = None;
    let base = Instant::now();
    let now_ns = || base.elapsed().as_nanos() as u64;
    let mut deadline = None;
    let mut last_reply = Instant::now();
    while received < n {
        let now = now_ns();
        // Send everything due whose session is not still waiting on a
        // reply (a session's next observe waits for its previous reply).
        if sent < n && due(sent) <= now {
            if sent == warm && cpu0.is_none() {
                cpu0 = Some((procfs::cpu_seconds(daemon_pid)?, Instant::now()));
            }
            let first = sent;
            let mut text = String::new();
            while sent < n && due(sent) <= now && !(sent == warm && sent > first) {
                let s = plan.session[sent] as usize;
                let report = if plan.is_budget[sent] {
                    None
                } else if pending[s] > 0 {
                    break;
                } else {
                    match ready[s].take() {
                        Some(r) => Some(r),
                        None => break,
                    }
                };
                format_request(&mut text, plan, sent, report);
                pending[s] += 1;
                sent += 1;
            }
            if sent > first {
                outbuf.extend_from_slice(text.as_bytes());
                w.writes.push((
                    due(first),
                    now_ns().saturating_sub(due(first)),
                    (sent - received) as u64,
                ));
            }
        }
        if !outbuf.is_empty() {
            match sock.write(&outbuf) {
                Ok(k) => {
                    outbuf.drain(..k);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => {
                    out.fail(|| format!("write failed: {e}"));
                    break;
                }
            }
        }
        match sock.read(&mut chunk) {
            Ok(0) => {
                out.fail(|| "daemon closed the connection".to_string());
                break;
            }
            Ok(k) => {
                inbuf.extend_from_slice(&chunk[..k]);
                last_reply = Instant::now();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) => {
                out.fail(|| format!("read failed: {e}"));
                break;
            }
        }
        let t = now_ns();
        let mut consumed = 0;
        while let Some(pos) = inbuf[consumed..].iter().position(|&b| b == b'\n') {
            let k = received;
            line.clear();
            line.push_str(&String::from_utf8_lossy(&inbuf[consumed..consumed + pos]));
            consumed += pos + 1;
            received += 1;
            if k >= sent {
                out.fail(|| format!("unsolicited response {line:?}"));
                continue;
            }
            if k >= warm {
                w.latency_us.push(t.saturating_sub(due(k)) as f64 / 1e3);
            }
            let s = plan.session[k] as usize;
            pending[s] = pending[s].saturating_sub(1);
            let class = class_of(classes, s);
            match check_reply(&line, plan, k) {
                Ok(alloc) => {
                    let priced = mix == Mix::Observe
                        || (k >= warm && (k + k / SESSIONS).is_multiple_of(PRICE_EVERY));
                    if priced {
                        let r = simulate(&class.memo, alloc)?;
                        if k >= warm {
                            w.perf.push(r[0]);
                        }
                        if mix == Mix::Observe {
                            last[s] = Some(r);
                            ready[s] = Some(r);
                        }
                    }
                }
                Err(e) => {
                    out.fail(|| e);
                    // Keep the session's stream going with its last report.
                    if mix == Mix::Observe {
                        ready[s] = last[s];
                    }
                }
            }
        }
        inbuf.drain(..consumed);
        if sent == n && outbuf.is_empty() {
            let d = *deadline.get_or_insert_with(|| Instant::now() + DRAIN_WAIT);
            if Instant::now() > d {
                break;
            }
        }
        if received < sent && last_reply.elapsed() > DRAIN_WAIT {
            out.fail(|| {
                format!(
                    "no response for {DRAIN_WAIT:?} with {} in flight",
                    sent - received
                )
            });
            break;
        }
        // Yield rather than spin flat out: deferred network softirq work
        // runs in a kernel thread on this CPU, and a generator that never
        // yields starved it, delaying whole runs' responses by
        // milliseconds.
        std::thread::yield_now();
    }
    if !inbuf.is_empty() {
        out.fail(|| format!("{} bytes of an unfinished response left over", inbuf.len()));
    }
    let end = Instant::now();
    let cpu1 = procfs::cpu_seconds(daemon_pid)?;
    sock.set_nonblocking(false)
        .map_err(|e| format!("blocking socket: {e}"))?;
    let (cpu0, t0) = cpu0.ok_or("the measured window never opened")?;
    w.responses = received as u64;
    w.cpu_s = cpu1 - cpu0;
    w.window_s = end.duration_since(t0).as_secs_f64();
    Ok(w)
}

/// Run `measure` on the generator's CPU with the daemon alone on its
/// own, kept from halting (see `crate::cpu`).
fn isolated<T>(
    daemon: &Daemon,
    measure: impl FnOnce() -> Result<T, String> + Send,
) -> Result<T, String>
where
    T: Send,
{
    let Some((generator, server)) = cpu::placement() else {
        return measure();
    };
    cpu::pin_process(daemon.child.id(), server)?;
    let _spinners = cpu::Spinners::start(&[server]);
    std::thread::scope(|s| {
        s.spawn(|| {
            cpu::pin(0, generator);
            measure()
        })
        .join()
    })
    .map_err(|_| "the generator thread panicked".to_string())?
}

/// An open-loop run is valid only if the generator kept up: the
/// generator's lateness and the in-flight backlog must not keep growing
/// over the window. Each is summarised by its median over each third of
/// the window's writes; growth in every third that ends far above the
/// start marks the run invalid. A transient stall that drains again
/// leaves the medians in place.
fn validity(w: &Window, window_start_ns: u64) -> Result<(), String> {
    let writes: Vec<&(u64, u64, u64)> =
        w.writes.iter().filter(|x| x.0 >= window_start_ns).collect();
    if writes.len() < 30 {
        return Err(format!("only {} writes in the window", writes.len()));
    }
    let third = writes.len() / 3;
    let thirds = [
        &writes[..third],
        &writes[third..2 * third],
        &writes[2 * third..],
    ];
    let median_of = |pick: fn(&(u64, u64, u64)) -> u64| {
        thirds.map(|t| {
            percentile(&sorted(t.iter().map(|x| pick(x) as f64).collect()), 0.5).unwrap_or(0.0)
        })
    };
    let growing = |m: [f64; 3], slack: f64| m[0] < m[1] && m[1] < m[2] && m[2] > 2.0 * m[0] + slack;
    let late = median_of(|x| x.1);
    if growing(late, 2e6) {
        return Err(format!(
            "generator lateness kept growing: medians {:.0}/{:.0}/{:.0} µs",
            late[0] / 1e3,
            late[1] / 1e3,
            late[2] / 1e3
        ));
    }
    let backlog = median_of(|x| x.2);
    if growing(backlog, 64.0) {
        return Err(format!(
            "backlog kept growing: median in flight {}/{}/{}",
            backlog[0], backlog[1], backlog[2]
        ));
    }
    Ok(())
}

/// Median over the window's one-second slices of each slice's
/// percentile `q`, with requests placed in slices by their scheduled
/// send time. A host stall that delays the requests of one or two
/// slices moves this much less than it moves the pooled percentile.
fn slice_median(latency_us: &[f64], per_slice: usize, q: f64) -> f64 {
    let slices: Vec<f64> = latency_us
        .chunks(per_slice.max(1))
        .filter(|c| c.len() == per_slice.max(1))
        .filter_map(|c| percentile(&sorted(c.to_vec()), q))
        .collect();
    crate::stats::median(&slices).unwrap_or(f64::NAN)
}

/// Check the serving law over the window's counter deltas.
fn check_law(before: [u64; 3], after: [u64; 3], sent: usize, out: &mut Outcome) {
    let d = [0, 1, 2].map(|i| after[i].wrapping_sub(before[i]));
    // The second `stats` request counts itself and reports itself served.
    if d[0] != d[1] + d[2] || d[0] != sent as u64 + 1 || d[2] != 0 {
        out.fail(|| {
            format!(
                "stats deltas requests={} served={} rejected={} for {sent} requests",
                d[0], d[1], d[2]
            )
        });
    }
}

#[must_use = "the run's outcome or the reason it could not run"]
pub fn run(mix: Mix, args: &Args) -> Result<Outcome, String> {
    let pbc = args
        .pbc
        .as_deref()
        .ok_or("serve workloads need --pbc <path to the pbc binary>")?;
    let mut out = Outcome::default();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut live = None;
    for rep in 0..reps {
        let spinners = cpu::Spinners::start(&cpu::all());
        let (daemon, conn, classes, secs) = start(pbc)?;
        drop(spinners);
        setups.push(secs);
        if rep + 1 < reps {
            drop(conn);
            daemon.stop()?;
        } else {
            live = Some((daemon, conn, classes));
        }
    }
    let (daemon, mut conn, classes) = live.ok_or("no daemon started")?;
    let seconds = if args.trace {
        args.seconds * 0.4
    } else {
        args.seconds
    };
    let warm = (WARMUP_S * RATE) as usize;
    let n = warm + (seconds * RATE) as usize;
    let plan = make_plan(mix, args.seed, n, &classes);
    let primed = if mix == Mix::Observe {
        prime(&mut conn, &classes)?
    } else {
        vec![[0.0; 5]; SESSIONS]
    };

    let before = conn.stats()?;
    let w = isolated(&daemon, || {
        open_loop(
            &mut conn,
            &daemon.pid(),
            mix,
            &plan,
            warm,
            &classes,
            primed,
            &mut out,
        )
    })?;
    // With responses outstanding, a late reply could be read as the
    // `stats` reply; the law then goes unchecked and counts as failed.
    let after = if w.responses == n as u64 {
        conn.stats()
    } else {
        Err(format!("{} responses outstanding", n as u64 - w.responses))
    };
    match after {
        Ok(after) => check_law(before, after, n, &mut out),
        Err(e) => out.fail(|| format!("serving law not checked: {e}")),
    }
    let rss = procfs::peak_rss_mb(&daemon.pid())?;
    drop(conn);
    if let Err(e) = daemon.stop() {
        out.fail(|| e);
    }

    out.attempted += n as u64;
    // Responses still outstanding at the end are failures.
    out.failed += (n as u64).saturating_sub(w.responses);
    let window_start_ns = (warm as f64 * 1e9 / RATE).round() as u64;
    if let Err(why) = validity(&w, window_start_ns) {
        out.invalid = Some(why);
    }
    let lat = sorted(w.latency_us.clone());
    let pct = |q| percentile(&lat, q).unwrap_or(f64::NAN);
    let measured = (n - warm) as f64;
    out.line(format!(
        "{} sessions, {} req/s open loop for {:.1} s + {WARMUP_S} s warm-up",
        SESSIONS, RATE, seconds
    ));
    out.line(format!(
        "latency samples={} p50={:.3} us p90={:.3} us p99={:.3} us p999={:.3} us",
        lat.len(),
        pct(0.5),
        pct(0.9),
        pct(0.99),
        pct(0.999)
    ));
    out.line(format!(
        "responses={} daemon cpu {:.3} s over {:.3} s window; priced replies={}",
        w.responses,
        w.cpu_s,
        w.window_s,
        w.perf.len()
    ));
    out.line(format!("setup_s samples: {setups:?}"));
    let late = sorted(w.writes.iter().map(|x| x.1 as f64 / 1e3).collect());
    out.line(format!(
        "generator writes={} late p50={:.1} us p99={:.1} us; in flight max={}",
        late.len(),
        percentile(&late, 0.5).unwrap_or(0.0),
        percentile(&late, 0.99).unwrap_or(0.0),
        w.writes.iter().map(|x| x.2).max().unwrap_or(0)
    ));
    if args.trace {
        return traced(args, &plan, &classes, &w, &lat, out);
    }
    let per_slice = RATE as usize;
    // The gated tail is p75: on a shared host p90 and above moved by
    // 2-100x between identical runs (they stay in the table and in the
    // traced run's diagnostics).
    let p50 = slice_median(&w.latency_us, per_slice, 0.5);
    let p75 = slice_median(&w.latency_us, per_slice, 0.75);
    out.line(format!(
        "serve_p50_us={p50:.3} serve_p75_us={p75:.3} serve_p90_us={:.3} (medians over {} one-second \
         slices) serve_p99_us={:.3} (diagnostic) serve_cpu_us_per_req={:.4} peak_rss_mb={rss:.1}",
        slice_median(&w.latency_us, per_slice, 0.9),
        w.latency_us.len() / per_slice.max(1),
        pct(0.99),
        w.cpu_s * 1e6 / measured
    ));
    out.metric("latency_p50_us", p50, "us");
    out.metric("latency_tail_us", p75, "us");
    out.metric("cpu_us_per_op", w.cpu_s * 1e6 / measured, "us");
    out.metric("decision_perf", mean(&w.perf).unwrap_or(f64::NAN), "rel");
    out.metric(
        "setup_s",
        crate::stats::median(&setups).unwrap_or(f64::NAN),
        "s",
    );
    out.metric("peak_rss_mb", rss, "MB");
    Ok(out)
}

/// Replay the first requests of `plan` through an in-process engine:
/// once untraced (timing `dispatch_into` alone), once with spans around
/// every layer call and `Session::open` replicas driven in lockstep.
fn traced(
    args: &Args,
    plan: &Plan,
    classes: &[Class],
    w: &Window,
    tcp_lat: &[f64],
    mut out: Outcome,
) -> Result<Outcome, String> {
    let m = plan.session.len().min(REPLAY_MAX);
    let untraced = replay(plan, m, classes, false, &mut out)?;
    pbc_trace::enable();
    let traced = replay(plan, m, classes, true, &mut out)?;
    pbc_trace::disable();
    let snap = pbc_trace::snapshot();
    let l = Layers::collect(&snap.spans);
    layers::dump(
        &args
            .work_dir
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed)),
    )?;
    out.attempted += m as u64;
    for line in l.table() {
        out.line(line);
    }
    let dispatch = sorted(l.durations(span::ENGINE_DISPATCH).to_vec());
    let untraced_p50 = percentile(&sorted(untraced.dispatch_ns), 0.5).unwrap_or(f64::NAN);
    let dispatch_p50 = percentile(&dispatch, 0.5).unwrap_or(f64::NAN);
    let budgets = plan.is_budget[..m].iter().filter(|b| **b).count() as f64;
    let late = sorted(w.writes.iter().map(|x| x.1 as f64 / 1e3).collect());
    let tcp_p50 = percentile(tcp_lat, 0.5).unwrap_or(f64::NAN);
    let coverage = ratio(
        l.children_ns(span::SERVE_REQUEST),
        l.total_ns(span::SERVE_REQUEST),
    );
    let measured = [
        ("proto.parse_ns", l.mean_ns(span::PROTO_PARSE)),
        ("proto.render_ns", l.mean_ns(span::PROTO_RENDER)),
        ("engine.dispatch_ns.p50", dispatch_p50),
        (
            "engine.dispatch_ns.p99",
            percentile(&dispatch, 0.99).unwrap_or(f64::NAN),
        ),
        ("online.set_budget_ns", l.mean_ns(span::ONLINE_SET_BUDGET)),
        ("online.observe_ns", l.mean_ns(span::ONLINE_OBSERVE)),
        (
            "online.accepted_ratio",
            ratio(traced.accepted as f64, traced.epochs as f64),
        ),
        (
            "fastpath.table_hits_per_budget",
            ratio(traced.table_hits as f64, budgets),
        ),
        ("server.transport_us.p50", tcp_p50 - untraced_p50 / 1e3),
        (
            "serve.p99_us",
            percentile(tcp_lat, 0.99).unwrap_or(f64::NAN),
        ),
        (
            "serve.p999_us",
            percentile(tcp_lat, 0.999).unwrap_or(f64::NAN),
        ),
        (
            "gen.late_us.p99",
            percentile(&late, 0.99).unwrap_or(f64::NAN),
        ),
        (
            "gen.outstanding_max",
            w.writes.iter().map(|x| x.2).max().unwrap_or(0) as f64,
        ),
        ("trace.children_coverage", coverage),
        (
            "trace.overhead_pct",
            100.0 * (dispatch_p50 - untraced_p50) / untraced_p50,
        ),
    ];
    crate::per_layer_metrics(&mut out, &measured);
    Ok(out)
}

/// What one in-process replay saw.
struct Replay {
    dispatch_ns: Vec<f64>,
    accepted: u64,
    epochs: u64,
    table_hits: u64,
}

fn replay(
    plan: &Plan,
    m: usize,
    classes: &[Class],
    spans: bool,
    out: &mut Outcome,
) -> Result<Replay, String> {
    let engine = ServeEngine::new();
    let mut reply = String::new();
    provision(&mut |line| {
        engine.dispatch_into(line, &mut reply);
        Ok(reply.clone())
    })?;
    let mut replicas = Vec::with_capacity(SESSIONS);
    for (i, (platform, bench, initial)) in CLASSES.iter().enumerate() {
        for _ in 0..PER_CLASS {
            replicas.push(
                Session::open(platform, bench, *initial)
                    .map_err(|e| format!("replica {i}: {e}"))?,
            );
        }
    }
    let mut reports: Vec<Report> = Vec::with_capacity(SESSIONS);
    for (s, r) in replicas.iter().enumerate() {
        reports.push(simulate(&class_of(classes, s).memo, r.tuner.best())?);
    }
    let counter = |name| pbc_trace::counter(name);
    let (accepted_c, epochs_c, hits_c) = (
        counter(names::ONLINE_ACCEPTED),
        counter(names::ONLINE_EPOCHS),
        counter(names::FASTPATH_TABLE_HITS),
    );
    let mut res = Replay {
        dispatch_ns: Vec::with_capacity(m),
        accepted: 0,
        epochs: 0,
        table_hits: 0,
    };
    let mut line = String::new();
    let mut rendered = String::new();
    for k in 0..m {
        let s = plan.session[k] as usize;
        let report = (!plan.is_budget[k]).then(|| reports[s]);
        line.clear();
        format_request(&mut line, plan, k, report);
        let request = pbc_trace::span(span::SERVE_REQUEST);
        if spans {
            let _s = pbc_trace::span(span::PROTO_PARSE);
            std::hint::black_box(
                proto::parse(std::hint::black_box(&line)).map_err(|e| e.to_string())?,
            );
        }
        let counts = (accepted_c.get(), epochs_c.get(), hits_c.get());
        let t = Instant::now();
        {
            let _s = pbc_trace::span(span::ENGINE_DISPATCH);
            engine.dispatch_into(&line, &mut reply);
        }
        res.dispatch_ns.push(t.elapsed().as_nanos() as f64);
        res.accepted += accepted_c.get() - counts.0;
        res.epochs += epochs_c.get() - counts.1;
        res.table_hits += hits_c.get() - counts.2;
        let alloc = match check_reply(&reply, plan, k) {
            Ok(a) => a,
            Err(e) => {
                out.fail(|| e);
                continue;
            }
        };
        if spans {
            let tuner = &mut replicas[s].tuner;
            let (replica, tag) = match report {
                None => {
                    let _s = pbc_trace::span(span::ONLINE_SET_BUDGET);
                    let applied = tuner.set_budget(Watts::new(plan.echo[k]));
                    (
                        tuner.next_allocation(),
                        if applied == pbc_core::BudgetOutcome::Applied {
                            "applied"
                        } else {
                            "unchanged"
                        },
                    )
                }
                Some(r) => {
                    let probe = PowerAllocation::new(Watts::new(r[3]), Watts::new(r[4]));
                    let op = class_of(classes, s)
                        .memo
                        .solve(probe)
                        .map_err(|e| e.to_string())?;
                    let _s = pbc_trace::span(span::ONLINE_OBSERVE);
                    let used = tuner.observe(&op);
                    (
                        tuner.next_allocation(),
                        if used == pbc_core::ObservationOutcome::Used {
                            "used"
                        } else {
                            "watchdog"
                        },
                    )
                }
            };
            {
                let _s = pbc_trace::span(span::PROTO_RENDER);
                rendered.clear();
                proto::render_alloc(&mut rendered, s as u64, replica, tuner.budget(), tag);
            }
            if replica != alloc {
                out.fail(|| format!("request {k}: replica allocation {replica:?} differs from the engine's {alloc:?}"));
            }
        }
        drop(request);
        // The session's next observe reports this reply's allocation,
        // whichever verb produced it.
        reports[s] = simulate(&class_of(classes, s).memo, alloc)?;
    }
    Ok(res)
}
