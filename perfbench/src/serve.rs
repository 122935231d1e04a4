//! `serve_mixed`: the real `ir-serve` binary over loopback TCP.
//!
//! One connection carries an open-loop what-if/hijack mix at a fixed
//! rate, driven by a single send/receive loop that never blocks past the
//! next due time; a second connection runs a closed-loop interactive
//! client sending `route` lookups. A pipelined capacity phase follows, and
//! in traced runs a short rate ladder before it. Every latency is timed
//! from when the request was due.

use crate::mix::{self, Kind, Request};
use crate::stats::{self, median, LadderStep, Summary};
use crate::trace::Spans;
use crate::{Outcome, RunConfig};
use ir_audit::DeltaAuditor;
use ir_bgp::{RoutingUniverse, StepBudget, WhatIfEngine, WhatIfQuery};
use ir_serve::protocol::{ok_response, route_to_value};
use ir_serve::{parse_request, route_line, Request as Wire};
use ir_topology::{GeneratorConfig, World};
use ir_types::{Asn, Prefix};
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Target size of the served world, resident prefixes and daemon workers.
pub const WORLD_ASES: usize = 5000;
pub const RESIDENT: usize = 64;
const WORKERS: usize = 2;
/// The daemon's default activation budget, which the replay applies too.
const BUDGET: u64 = 5_000_000;

/// Daemon start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Offered rate of the main open-loop phase, requests per second.
const MAIN_RATE: f64 = 200.0;
/// Shares of the window: the main phase, each ladder rung, and the
/// capacity phase. Only traced runs climb the ladder (its `max_qps` is a
/// per-layer metric); untraced runs give its share to the main phase.
const MAIN_SHARE: f64 = 0.55;
const RUNG_SHARE: f64 = 0.05;
const CAPACITY_SHARE: f64 = 0.25;
/// Offered rates of the ladder, ascending.
const LADDER: [f64; 4] = [250.0, 500.0, 1000.0, 2000.0];
/// What-ifs kept in flight by the capacity phase's pipelined closed loop:
/// enough to keep both workers busy, well under the admission queue's 64,
/// so nothing is shed.
const CAPACITY_DEPTH: usize = 16;
/// What-ifs drawn for the capacity phase; it stops when its share of the
/// window is over.
const CAPACITY_POOL: usize = 40_000;
/// A ladder step passes while its what-if p99 stays under this.
pub const LIMIT_MS: f64 = 50.0;
/// A main phase whose generator sent half its requests later than this
/// after their due time fell behind, and the run is invalid. (A
/// preemption of the generator delays a few sends by a scheduler slice;
/// that is jitter, reported as the p99 `load.late_ms`.)
const LATE_LIMIT_MS: f64 = 1.0;
/// Answers compared byte for byte with an in-process engine.
const CHECKED_ANSWERS: usize = 24;
/// How long a phase waits for its last answers.
const DRAIN: Duration = Duration::from_secs(5);

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A running daemon; dropped daemons are killed and reaped.
struct Daemon {
    child: Child,
    addr: String,
    stdout: Option<BufReader<ChildStdout>>,
}

impl Daemon {
    /// Spawns `ir-serve` and waits for its listen banner; returns the
    /// daemon and the time from spawn to banner.
    fn spawn(bin: &Path, seed: u64) -> Result<(Daemon, Duration), String> {
        let t = Instant::now();
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0", "--scale", "internet"])
            .args(["--size", &WORLD_ASES.to_string()])
            .args(["--seed", &seed.to_string()])
            .args(["--prefixes", &RESIDENT.to_string()])
            .args(["--workers", &WORKERS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut r = BufReader::new(stdout);
            let mut line = String::new();
            let got = r.read_line(&mut line).map(|_| line);
            let _ = tx.send(got);
            r
        });
        let banner = rx.recv_timeout(Duration::from_secs(60));
        let elapsed = t.elapsed();
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            stdout: None,
        };
        let banner = match banner {
            Ok(Ok(line)) => line,
            other => {
                let _ = daemon.child.kill();
                let _ = reader.join();
                return Err(format!("no listen banner from ir-serve: {other:?}"));
            }
        };
        daemon.stdout = Some(reader.join().map_err(|_| "banner reader panicked")?);
        // "ir-serve listening on <addr> (...)"
        daemon.addr = banner
            .split_whitespace()
            .nth(3)
            .ok_or_else(|| format!("unexpected banner: {banner}"))?
            .to_string();
        Ok((daemon, elapsed))
    }

    fn connect(&self) -> Result<TcpStream, String> {
        let s =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        s.set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        Ok(s)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the daemon to drain and waits for it to exit 0; returns its
    /// final `drained:` line.
    fn shutdown(mut self) -> Result<String, String> {
        let mut s = self.connect()?;
        request(&mut s, "{\"op\":\"shutdown\"}")?;
        drop(s);
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("ir-serve did not exit after shutdown".into()),
                Err(e) => return Err(format!("waiting for ir-serve: {e}")),
            }
        };
        if !status.success() {
            return Err(format!("ir-serve exited with {status}"));
        }
        let mut rest = String::new();
        if let Some(mut out) = self.stdout.take() {
            let _ = out.read_to_string(&mut rest);
        }
        Ok(rest
            .lines()
            .find(|l| l.starts_with("drained:"))
            .unwrap_or("")
            .to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Sends one line (one write) and reads one response line.
fn request(s: &mut TcpStream, line: &str) -> Result<String, String> {
    s.write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut r = BufReader::new(s.try_clone().map_err(|e| format!("clone: {e}"))?);
    let mut out = String::new();
    r.read_line(&mut out).map_err(|e| format!("recv: {e}"))?;
    Ok(out.trim_end().to_string())
}

/// The `id` a response line starts with (`{"id":N,...`).
fn response_id(line: &[u8]) -> Option<u64> {
    let rest = line.strip_prefix(b"{\"id\":")?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()
}

/// Whether a response line reports `status: ok`.
fn response_ok(line: &[u8]) -> bool {
    line[..line.len().min(64)]
        .windows(13)
        .any(|w| w == b"\"status\":\"ok\"")
}

/// One answered request, as the generator saw it.
struct Answer {
    latency_ms: f64,
    bytes: usize,
    ok: bool,
    line: Option<String>,
}

/// What one open-loop phase observed.
struct Phase {
    answers: Vec<Option<Answer>>,
    late_ms: Vec<f64>,
    outstanding: Vec<u32>,
    /// From the first due time to the last answer.
    span: Duration,
}

impl Phase {
    /// Answers with `status: ok` per second over the phase.
    fn answered_per_s(&self) -> f64 {
        let ok = self
            .answers
            .iter()
            .filter(|a| a.as_ref().is_some_and(|a| a.ok));
        ok.count() as f64 / self.span.as_secs_f64().max(1e-9)
    }

    fn latencies(&self, reqs: &[Request], kinds: &[Kind]) -> Vec<f64> {
        reqs.iter()
            .zip(&self.answers)
            .filter(|(r, _)| kinds.contains(&r.kind))
            .filter_map(|(_, a)| a.as_ref().map(|a| a.latency_ms))
            .collect()
    }

    fn failed(&self) -> u64 {
        self.answers
            .iter()
            .filter(|a| !a.as_ref().is_some_and(|a| a.ok))
            .count() as u64
    }
}

/// Longest sleep of the open-loop poll: the resolution of its send and
/// receive timestamps. (`SO_RCVTIMEO` waits round up to a scheduler tick,
/// far coarser, so the loop polls a non-blocking socket instead.)
const POLL: Duration = Duration::from_micros(100);

/// Open loop over one connection: request `i` is due at `i / rate`
/// seconds. A single non-blocking loop sends each line in one write when
/// it is due and reads responses in between. Full response lines are
/// kept for the ids in `keep`.
fn open_loop(
    s: &mut TcpStream,
    reqs: &[Request],
    rate: f64,
    keep: &BTreeSet<u64>,
) -> Result<Phase, String> {
    let first_id = reqs.first().map_or(0, |r| r.id);
    let n = reqs.len();
    let mut phase = Phase {
        answers: (0..n).map(|_| None).collect(),
        late_ms: Vec::with_capacity(n),
        outstanding: Vec::with_capacity(n),
        span: Duration::ZERO,
    };
    s.set_nonblocking(true)
        .map_err(|e| format!("non-blocking socket: {e}"))?;
    let start = Instant::now();
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let (mut sent, mut answered) = (0usize, 0usize);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut drain_deadline = None;
    while answered < n {
        let now = Instant::now();
        if sent < n && now >= due(sent) {
            phase.late_ms.push(ms(now - due(sent)));
            phase.outstanding.push((sent - answered) as u32);
            send_line(s, &reqs[sent].line)?;
            sent += 1;
            continue;
        }
        let got = match s.read(&mut chunk) {
            Ok(0) => return Err("ir-serve closed the connection".into()),
            Ok(k) => k,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let until = if sent < n {
                    due(sent)
                } else {
                    *drain_deadline.get_or_insert(now + DRAIN)
                };
                if now >= until {
                    if sent < n {
                        continue;
                    }
                    break; // drain deadline: the rest stay unanswered
                }
                std::thread::sleep((until - now).min(POLL));
                continue;
            }
            Err(e) => return Err(format!("recv: {e}")),
        };
        let at = Instant::now();
        phase.span = at - start;
        let scanned = buf.len();
        buf.extend_from_slice(&chunk[..got]);
        let mut from = 0;
        let mut search = scanned;
        while let Some(pos) = buf[search..].iter().position(|&b| b == b'\n') {
            let end = search + pos;
            let line = &buf[from..end];
            let id = response_id(line).ok_or_else(|| {
                format!(
                    "response without id: {}",
                    String::from_utf8_lossy(&line[..line.len().min(120)])
                )
            })?;
            let idx = id
                .checked_sub(first_id)
                .map(|i| i as usize)
                .filter(|&i| i < sent)
                .ok_or_else(|| format!("response for unknown id {id}"))?;
            if phase.answers[idx].is_some() {
                return Err(format!("two responses for id {id}"));
            }
            phase.answers[idx] = Some(Answer {
                latency_ms: ms(at - due(idx)),
                bytes: line.len() + 1,
                ok: response_ok(line),
                line: keep
                    .contains(&id)
                    .then(|| String::from_utf8_lossy(line).into_owned()),
            });
            answered += 1;
            from = end + 1;
            search = from;
        }
        buf.drain(..from);
    }
    s.set_nonblocking(false)
        .map_err(|e| format!("blocking socket: {e}"))?;
    Ok(phase)
}

/// Writes `line` and its newline in one write (retrying only when the
/// socket's send buffer is momentarily full).
fn send_line(s: &mut TcpStream, line: &str) -> Result<(), String> {
    let bytes = format!("{line}\n");
    let mut rest = bytes.as_bytes();
    while !rest.is_empty() {
        match s.write(rest) {
            Ok(k) => rest = &rest[k..],
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(e) => return Err(format!("send: {e}")),
        }
    }
    Ok(())
}

/// Pipelined closed loop: `depth` requests in flight, a new one sent as
/// each answer arrives, for `budget`; then the last answers are drained.
/// Returns `ok` answers per second, answers, and answers that were not ok.
fn pipelined(
    s: &mut TcpStream,
    reqs: &[Request],
    depth: usize,
    budget: Duration,
) -> Result<(f64, usize, usize), String> {
    let mut reader = BufReader::new(s.try_clone().map_err(|e| format!("clone: {e}"))?);
    let start = Instant::now();
    let mut sent = 0;
    while sent < depth.min(reqs.len()) {
        send_line(s, &reqs[sent].line)?;
        sent += 1;
    }
    let (mut answered, mut not_ok) = (0usize, 0usize);
    let mut line = String::new();
    while answered < sent {
        line.clear();
        if reader
            .read_line(&mut line)
            .map_err(|e| format!("recv: {e}"))?
            == 0
        {
            return Err("ir-serve closed the connection".into());
        }
        answered += 1;
        if !response_ok(line.as_bytes()) {
            not_ok += 1;
        }
        if sent < reqs.len() && start.elapsed() < budget {
            send_line(s, &reqs[sent].line)?;
            sent += 1;
        }
    }
    let ok = (answered - not_ok) as f64;
    Ok((ok / start.elapsed().as_secs_f64(), answered, not_ok))
}

/// Closed-loop interactive client: route lookups back to back until
/// `stop`; returns round trips (ms), response bytes and failures.
fn interactive(
    s: TcpStream,
    lookups: &[(Prefix, Asn)],
    stop: &AtomicBool,
) -> Result<(Vec<f64>, Vec<usize>, u64), String> {
    let mut writer = s.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut reader = BufReader::new(s);
    let (mut rtts, mut bytes, mut failed) = (Vec::new(), Vec::new(), 0u64);
    let mut line = String::new();
    for (i, &(prefix, asn)) in lookups.iter().cycle().enumerate() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let req = format!("{}\n", route_line(Some(i as u64), prefix, asn));
        let t = Instant::now();
        writer
            .write_all(req.as_bytes())
            .map_err(|e| format!("route send: {e}"))?;
        line.clear();
        if reader
            .read_line(&mut line)
            .map_err(|e| format!("route recv: {e}"))?
            == 0
        {
            return Err("ir-serve closed the route connection".into());
        }
        rtts.push(ms(t.elapsed()));
        bytes.push(line.len());
        if response_id(line.as_bytes()) != Some(i as u64) {
            return Err(format!("route answer out of order: {}", line.trim_end()));
        }
        if !response_ok(line.as_bytes()) {
            failed += 1;
        }
    }
    Ok((rtts, bytes, failed))
}

/// Counters from the daemon's `stats` op.
fn daemon_stats(daemon: &Daemon) -> Result<BTreeMap<String, f64>, String> {
    let mut s = daemon.connect()?;
    let line = request(&mut s, "{\"op\":\"stats\"}")?;
    let v: Value = serde_json::from_str(&line).map_err(|e| format!("stats response: {e}"))?;
    let mut out = BTreeMap::new();
    for key in [
        "shed",
        "degraded",
        "errors",
        "queue_high_water",
        "certificates_preserved",
        "certificates_revoked",
    ] {
        let n = v[key]
            .as_u64()
            .ok_or_else(|| format!("stats response lacks {key}"))?;
        out.insert(key.to_string(), n as f64);
    }
    Ok(out)
}

/// The resident state `ir-serve` builds at start-up, rebuilt in-process.
fn engine<'w>(world: &'w World, prefixes: &[Prefix]) -> Result<WhatIfEngine<'w>, String> {
    let universe = RoutingUniverse::compute(world, prefixes);
    let report = ir_audit::audit_world(world);
    let order = report.certificate.activation_order();
    let certified = report.certificate.certified;
    let mut engine =
        WhatIfEngine::from_universe(world, &universe, order).map_err(|e| format!("engine: {e}"))?;
    if certified {
        engine.set_certifier(Box::new(DeltaAuditor::with_report(world, report)));
    }
    Ok(engine)
}

pub fn run(cfg: &RunConfig, spans: &mut Spans) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let seed = cfg.seed;

    // Inputs, all drawn from the seed before anything is timed.
    let world = GeneratorConfig::internet_scale_sized(WORLD_ASES).build(seed);
    let prefixes = mix::resident_prefixes(&world, RESIDENT);
    let window = cfg.window.as_secs_f64();
    let (main_share, rungs) = if cfg.trace {
        (MAIN_SHARE, LADDER.len())
    } else {
        (MAIN_SHARE + RUNG_SHARE * LADDER.len() as f64, 0)
    };
    let main_n = (MAIN_RATE * window * main_share).round().max(1.0) as usize;
    let main = mix::open_loop(&world, &prefixes, seed, 1, main_n, true);
    let mut ladder_reqs = Vec::new();
    let mut next_id = 1 + main_n as u64;
    for (k, rate) in LADDER.iter().enumerate().take(rungs) {
        let n = (rate * window * RUNG_SHARE).round().max(1.0) as usize;
        let seed = seed + 1 + k as u64;
        ladder_reqs.push(mix::open_loop(&world, &prefixes, seed, next_id, n, true));
        next_id += n as u64;
    }
    // What-ifs only, so capacity does not hinge on how many ~300 KB hijack
    // answers a short phase happens to draw.
    let capacity_reqs = mix::open_loop(&world, &prefixes, !seed, next_id, CAPACITY_POOL, false);
    let lookups = mix::route_lookups(&world, &prefixes, seed, 4096);
    // The answers checked against the in-process engine: a seeded sample
    // of what-if and hijack requests.
    let keep: BTreeSet<u64> = main
        .iter()
        .filter(|r| r.kind == Kind::Hijack)
        .take(CHECKED_ANSWERS / 3)
        .chain(
            main.iter()
                .filter(|r| r.kind != Kind::Hijack)
                .step_by(main_n / CHECKED_ANSWERS + 1),
        )
        .map(|r| r.id)
        .collect();

    // Setup: spawn to listen banner, several times.
    let mut setups = Vec::new();
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        let (d, took) = Daemon::spawn(&cfg.serve_bin, seed)?;
        setups.push(took.as_secs_f64());
        if rep + 1 < SETUP_REPS {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("SETUP_REPS >= 1");
    let rss_start = crate::host::rss_mb(&daemon.pid()).unwrap_or(0.0);

    // Main phase: open loop, with the interactive client alongside.
    let mut conn = daemon.connect()?;
    let route_conn = daemon.connect()?;
    let stop = AtomicBool::new(false);
    let (phase, routes) = std::thread::scope(|scope| {
        let client = scope.spawn(|| interactive(route_conn, &lookups, &stop));
        let phase = open_loop(&mut conn, &main, MAIN_RATE, &keep);
        stop.store(true, Ordering::Relaxed);
        let routes = client
            .join()
            .unwrap_or_else(|_| Err("route client panicked".into()));
        (phase, routes)
    });
    let phase = phase?;
    let (route_rtts, route_bytes, route_failed) = routes?;

    // Ladder (traced runs only): stop at the first step that misses the
    // target.
    let mut steps = Vec::new();
    for (rate, reqs) in LADDER.iter().zip(&ladder_reqs) {
        let p = open_loop(&mut conn, reqs, *rate, &BTreeSet::new())?;
        let mut wi = p.latencies(reqs, &[Kind::Local, Kind::Policy]);
        if wi.is_empty() {
            wi.push(f64::INFINITY);
        }
        wi.sort_by(f64::total_cmp);
        let step = LadderStep {
            rate: *rate,
            answered_per_s: p.answered_per_s(),
            whatif_tail_ms: stats::percentile(&wi, 99.0),
            failed: p.failed(),
            outstanding: p.outstanding,
        };
        let passed = stats::step_passes(&step, LIMIT_MS);
        o.note(format!(
            "ladder {rate:>6.0}/s: answered {:.1}/s, what-if p99 {:.3} ms, {} failed, backlog {} -> {}",
            step.answered_per_s,
            step.whatif_tail_ms,
            step.failed,
            if stats::backlog_growing(&step.outstanding) { "growing" } else { "flat" },
            if passed { "pass" } else { "fail" }
        ));
        steps.push(step);
        if !passed {
            break;
        }
    }
    // 0 when even the lowest rung misses the target.
    let max_qps = stats::max_passing(&steps, LIMIT_MS).map_or(0.0, |s| s.answered_per_s);
    let (capacity, answered, refused) = pipelined(
        &mut conn,
        &capacity_reqs,
        CAPACITY_DEPTH,
        cfg.window.mul_f64(CAPACITY_SHARE),
    )?;
    o.note(format!(
        "capacity ({CAPACITY_DEPTH} what-ifs in flight): {capacity:.1}/s over {answered} answers, {refused} not ok"
    ));
    if refused > 0 {
        return Err(format!(
            "{refused} capacity-phase what-ifs were not answered ok"
        ));
    }

    let counters = daemon_stats(&daemon)?;
    let peak_rss = crate::host::peak_rss_mb(&daemon.pid()).unwrap_or(0.0);
    let rss_end = crate::host::rss_mb(&daemon.pid()).unwrap_or(0.0);
    let drained = daemon.shutdown()?;

    // Checks: one answer per request id, and a sample of answers equal to
    // the in-process engine's.
    let unanswered = phase.answers.iter().filter(|a| a.is_none()).count();
    if unanswered > 0 {
        return Err(format!(
            "{unanswered} of {main_n} main-phase requests got no response"
        ));
    }
    let engine = engine(&world, &prefixes)?;
    for r in main.iter().filter(|r| keep.contains(&r.id)) {
        let got = phase.answers[(r.id - 1) as usize]
            .as_ref()
            .and_then(|a| a.line.as_deref())
            .unwrap_or("");
        let answer = engine
            .query(&r.query)
            .map_err(|e| format!("request {}: in-process query failed: {e}", r.id))?;
        if got != ok_response(Some(r.id), &answer) {
            return Err(format!(
                "request {} ({}): daemon answer differs from in-process WhatIfEngine::query",
                r.id,
                r.kind.name()
            ));
        }
    }

    let late = Summary::of(&phase.late_ms);
    if late.p50 > LATE_LIMIT_MS {
        return Err(format!(
            "load generator fell behind: median lateness {:.3} ms > {LATE_LIMIT_MS} ms",
            late.p50
        ));
    }
    let all = Summary::of(&phase.latencies(&main, &Kind::ALL));
    let whatif = Summary::of(&phase.latencies(&main, &[Kind::Local, Kind::Policy]));
    let hijack_lat = phase.latencies(&main, &[Kind::Hijack]);
    let hijack = Summary::of(if hijack_lat.is_empty() {
        &[0.0]
    } else {
        &hijack_lat
    });
    let route = Summary::of(&route_rtts);
    let failed = phase.failed() + route_failed;
    o.attempted = (main_n + route_rtts.len()) as u64;
    o.failed = failed;
    o.note(format!("daemon setup (spawn to banner): {setups:.4?} s"));
    o.note(format!(
        "open loop {MAIN_RATE}/s, all requests: {}",
        all.describe("ms")
    ));
    o.note(format!("whatif: {}", whatif.describe("ms")));
    o.note(format!("hijack: {}", hijack.describe("ms")));
    o.note(format!("route (interactive): {}", route.describe("ms")));
    o.note(format!("generator lateness: {}", late.describe("ms")));
    if cfg.trace {
        o.note(format!(
            "max_qps {max_qps} (what-if p99 < {LIMIT_MS} ms, no shed, flat backlog)"
        ));
    }
    o.note(format!("daemon {drained}"));

    let bytes_of = |kind: Kind| -> f64 {
        let b: Vec<f64> = main
            .iter()
            .zip(&phase.answers)
            .filter(|(r, _)| r.kind == kind)
            .filter_map(|(_, a)| a.as_ref().map(|a| a.bytes as f64))
            .collect();
        if b.is_empty() {
            0.0
        } else {
            b.iter().sum::<f64>() / b.len() as f64
        }
    };
    o.note(format!(
        "response bytes: local {:.0}, policy {:.0}, hijack {:.0}, route {:.0}",
        bytes_of(Kind::Local),
        bytes_of(Kind::Policy),
        bytes_of(Kind::Hijack),
        route_bytes.iter().sum::<usize>() as f64 / route_bytes.len().max(1) as f64
    ));

    if cfg.trace {
        o.set("wire.whatif_p50_ms", whatif.p50);
        o.set("wire.whatif_tail_ms", whatif.tail);
        o.set("wire.hijack_p50_ms", hijack.p50);
        o.set("wire.hijack_tail_ms", hijack.tail);
        o.set("wire.route_p50_ms", route.p50);
        o.set("wire.route_tail_ms", route.tail);
        o.set("wire.max_qps", max_qps);
        o.set("wire.fail_frac", failed as f64 / o.attempted as f64);
        o.set("load.late_ms", late.tail);
        for (key, v) in &counters {
            o.set(&format!("serve.{key}"), *v);
        }
        o.set("serve.rss_growth_mb", rss_end - rss_start);
        o.set("serve.response_bytes_whatif", bytes_of(Kind::Local));
        o.set("serve.response_bytes_hijack", bytes_of(Kind::Hijack));
        o.set(
            "serve.response_bytes_route",
            route_bytes.iter().sum::<usize>() as f64 / route_bytes.len().max(1) as f64,
        );
        replay(
            &mut o,
            spans,
            &world,
            &engine,
            &main,
            &phase,
            &lookups,
            &route_rtts,
        )?;
    } else {
        o.set("setup_s", median(&setups));
        o.set("ops_per_s", capacity);
        o.set("op_p50_ms", route.p50);
        o.set("op_tail_ms", route.tail);
        o.set("peak_rss_mb", peak_rss);
    }
    Ok(o)
}

/// The main phase's request lines replayed in-process through the calls
/// `ir-serve` makes — parse, budgeted query with the certifier attached,
/// encode — and the route lookups through parse, `base_route`, encode.
/// The replayed work is subtracted from the wire latencies.
#[allow(clippy::too_many_arguments)]
fn replay(
    o: &mut Outcome,
    spans: &mut Spans,
    world: &World,
    engine: &WhatIfEngine<'_>,
    main: &[Request],
    phase: &Phase,
    lookups: &[(Prefix, Asn)],
    route_rtts: &[f64],
) -> Result<(), String> {
    let budget = StepBudget::activations(BUDGET);
    let auditor = DeltaAuditor::new(world);

    // Untraced passes first (the first warms the engine's forks): the
    // tracing overhead is the traced pass minus the second.
    let untraced = || {
        let t = Instant::now();
        for r in main {
            std::hint::black_box(parse_request(&r.line).is_ok());
            if let Ok(a) = engine.query_budgeted(&r.query, &budget) {
                std::hint::black_box(ok_response(Some(r.id), &a));
            }
        }
        ms(t.elapsed())
    };
    untraced();
    let untraced_ms = untraced();

    // Traced pass. A hijack line parses to the fields of the single
    // `Delta::Hijack` the daemon wraps them in, which is `r.query`.
    let t = Instant::now();
    let mut replayed = Vec::with_capacity(main.len());
    let (mut activations, mut changed, mut retained, mut whatifs) =
        (0usize, 0usize, 0usize, 0usize);
    for r in main {
        let kind = r.kind.name();
        let t0 = Instant::now();
        let parsed = spans.time("serve.parse", r.id, || parse_request(&r.line));
        match parsed {
            Ok(Wire::WhatIf { deltas, .. }) if deltas == r.query.deltas => {}
            Ok(Wire::Hijack { .. }) if r.kind == Kind::Hijack => {}
            other => return Err(format!("request {} replays as {other:?}", r.id)),
        }
        let answer = spans
            .time(&format!("whatif.execute_{kind}"), r.id, || {
                engine.query_budgeted(&r.query, &budget)
            })
            .map_err(|e| format!("request {}: {e}", r.id))?;
        let encode = if r.kind == Kind::Hijack {
            "serve.encode_hijack"
        } else {
            "serve.encode_whatif"
        };
        spans.time(encode, r.id, || ok_response(Some(r.id), &answer).len());
        replayed.push(ms(t0.elapsed()));
        if r.kind != Kind::Hijack {
            activations += answer.stats.activations;
            changed += answer.stats.routes_changed;
            retained += answer.stats.routes_retained;
            whatifs += 1;
        }
    }
    let traced_ms = ms(t.elapsed());
    // The certifier's verdict alone, as the engine asks it per query.
    for r in main.iter().filter(|r| r.kind != Kind::Hijack) {
        spans.time("audit.delta", r.id, || {
            auditor.audit_deltas(&r.query.deltas)
        });
    }
    // No-edit queries: fork + full diff scan and nothing else.
    for (i, &prefix) in engine.prefixes().collect::<Vec<_>>().iter().enumerate() {
        let q = WhatIfQuery {
            prefix,
            deltas: Vec::new(),
        };
        spans
            .time("whatif.noedit", i as u64, || {
                engine.query_budgeted(&q, &budget)
            })
            .map_err(|e| format!("no-edit query on {prefix}: {e}"))?;
    }
    // Route lookups, as the daemon answers them inline.
    let mut route_work = Vec::new();
    for (i, &(prefix, asn)) in lookups.iter().enumerate().take(route_rtts.len().max(1)) {
        let line = route_line(Some(i as u64), prefix, asn);
        let t0 = Instant::now();
        let parsed = spans.time("serve.parse_route", i as u64, || parse_request(&line));
        let Ok(Wire::Route { id, prefix, asn }) = parsed else {
            return Err(format!("route line replays as {parsed:?}"));
        };
        let x = world
            .graph
            .index_of(asn)
            .ok_or_else(|| format!("unknown AS {asn}"))?;
        let route = engine.base_route(prefix, x);
        spans
            .time("serve.encode_route", i as u64, || {
                let mut obj = Vec::new();
                if let Some(id) = id {
                    obj.push(("id".to_string(), Value::UInt(id)));
                }
                obj.push(("status".to_string(), Value::String("ok".into())));
                obj.push(("prefix".to_string(), Value::String(prefix.to_string())));
                obj.push(("route".to_string(), route_to_value(&route)));
                serde_json::to_string(&Value::Object(obj)).map(|s| s.len())
            })
            .map_err(|e| format!("route encoding: {e}"))?;
        route_work.push(ms(t0.elapsed()));
    }

    let us = |v: Vec<f64>| -> f64 {
        if v.is_empty() {
            0.0
        } else {
            median(&v) * 1e3
        }
    };
    for kind in Kind::ALL {
        let name = format!("whatif.execute_{}", kind.name());
        let times = spans.ms(&name);
        if !times.is_empty() {
            let s = Summary::of(&times);
            o.set(&format!("{name}_p50_us"), s.p50 * 1e3);
            o.set(&format!("{name}_tail_us"), s.tail * 1e3);
            o.note(format!("execute {}: {}", kind.name(), s.describe("ms")));
        }
    }
    o.set("whatif.noedit_us", us(spans.ms("whatif.noedit")));
    o.set(
        "whatif.activations",
        activations as f64 / whatifs.max(1) as f64,
    );
    o.set(
        "whatif.routes_changed",
        changed as f64 / whatifs.max(1) as f64,
    );
    o.set(
        "whatif.changed_share",
        changed as f64 / (changed + retained).max(1) as f64,
    );
    o.set("audit.delta_us", us(spans.ms("audit.delta")));
    let mut parse = spans.ms("serve.parse");
    parse.extend(spans.ms("serve.parse_route"));
    o.set("serve.parse_us", us(parse));
    o.set(
        "serve.encode_whatif_us",
        us(spans.ms("serve.encode_whatif")),
    );
    o.set(
        "serve.encode_hijack_us",
        us(spans.ms("serve.encode_hijack")),
    );
    o.set("serve.encode_route_us", us(spans.ms("serve.encode_route")));
    let waits: Vec<f64> = phase
        .answers
        .iter()
        .zip(&replayed)
        .filter_map(|(a, work)| a.as_ref().map(|a| a.latency_ms - work))
        .collect();
    o.set("serve.queue_wait_ms", median(&waits));
    o.set("serve.stall_ms", median(route_rtts) - median(&route_work));
    let overhead = (traced_ms - untraced_ms) / main.len() as f64;
    o.set("trace.overhead_ms", overhead);
    o.set(
        "trace.overhead_share",
        overhead / (untraced_ms / main.len() as f64),
    );
    o.note(format!(
        "replayed route work p50 {:.4} ms against a {:.4} ms round trip",
        median(&route_work),
        median(route_rtts)
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_lines_yield_id_and_status() {
        let ok = br#"{"id":42,"status":"ok","prefix":"16.0.0.0/24","diffs":[]}"#;
        assert_eq!(response_id(ok), Some(42));
        assert!(response_ok(ok));
        let shed = br#"{"id":7,"status":"shed","retry_after_ms":25}"#;
        assert_eq!(response_id(shed), Some(7));
        assert!(!response_ok(shed));
        assert_eq!(response_id(br#"{"status":"error"}"#), None);
    }
}
