//! The `serve-zipf` workload: the GCN-max engine behind `InkServer::bind`,
//! driven over loopback by one client process with two threads and two
//! connections.
//!
//! Phase A is an open loop. On a fixed schedule the writes connection sends
//! one `Update` of Zipf-hot edge flips followed by a `Flush` probe, so the
//! time from the update's due time to `Flushed` is update-to-visible
//! latency; the reads connection sends `Embedding` reads (every 32nd a
//! `TopK`) on its own schedule; both schedules pause together between
//! one-second segments, and the calibration kernel runs in the pauses.
//! Phase B is a closed loop in one-second segments: the writes connection
//! keeps a fixed window of updates in flight, then a flush barrier ends
//! the segment and the kernel runs.

use crate::calib::{self, Calibration};
use crate::engine::{self, bitwise_eq, sorted_edges};
use crate::inputs::{self, EdgeSet, FlipStream, HotVertices};
use crate::report::{median, ms, percentile, ratio, Metrics};
use crate::Outcome;
use ink_gnn::Aggregator;
use ink_graph::{DeltaBatch, EdgeChange};
use ink_serve::protocol::append_frame;
use ink_serve::{InkServer, Request, Response, ServeConfig, ServerHandle};
use inkstream::StreamSession;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Edge flips per `Update`.
const FLIPS: usize = 16;
/// Zipf exponent of the hot vertices (writes and reads).
const ZIPF: f64 = 0.8;
/// Hot vertex pairs whose edges the writes flip.
const POOL: usize = 8192;
/// Every n-th read is a `TopK` instead of an `Embedding`.
const TOPK_EVERY: usize = 32;
/// `k` of the `TopK` reads.
const TOPK_K: u32 = 10;
/// Phase B: `Update` frames kept in flight.
const WINDOW: usize = 64;
/// Phase-B stream sizing: an upper bound on changes per second.
const MAX_CAPACITY: f64 = 200_000.0;
/// Updates of the phase-A stream the probe engine replays.
const PROBE_ROUNDS: usize = 300;
/// Shares of the measured time given to phase A and phase B.
const PHASE_A_SHARE: f64 = 0.6;
const PHASE_B_SHARE: f64 = 0.3;
/// How long outstanding responses may take after a phase's schedule ends.
const DRAIN: Duration = Duration::from_secs(20);

/// Phase A: edge changes sent per second. At 4 000/s the ~2.5 ms
/// per-epoch cost kept the apply thread ~70% busy on a 2-vCPU machine and
/// the latency of identical runs swung by 2x; at this rate it holds steady.
const CHANGES_PER_S: f64 = 1000.0;
/// Phase A: reads sent per second.
const READS_PER_S: f64 = 1000.0;
/// Phase A: traffic runs in segments of this length with a pause of `GAP`
/// between them, in which the writes thread samples the calibration kernel
/// while the server is idle.
const SEGMENT: Duration = Duration::from_secs(1);
const GAP: Duration = Duration::from_millis(100);
/// Time into a gap before the kernel runs, so late responses drain first.
const SETTLE: Duration = Duration::from_millis(30);
/// Kernel calls per phase-A gap, and the time they must leave before the
/// next segment starts.
const GAP_CAL_SAMPLES: usize = 10;
const GAP_CAL_BUDGET: Duration = Duration::from_millis(50);
/// Phase B runs in closed-loop segments of about this length, each ended
/// by a flush barrier and followed by `B_CAL_SAMPLES` kernel calls.
const B_SEGMENT: Duration = Duration::from_secs(1);
const B_CAL_SAMPLES: usize = 10;

/// An open-loop schedule: request `i` is due `i * interval` of traffic time
/// after `start`, and every `SEGMENT` of traffic time is followed by a
/// `GAP`. The writes and the reads schedules share `start`, so their gaps
/// coincide.
#[derive(Clone, Copy)]
struct Schedule {
    start: Instant,
    interval: Duration,
}

impl Schedule {
    /// The segment request `i` belongs to.
    fn segment(&self, i: usize) -> u32 {
        (self.interval.as_nanos() * i as u128 / SEGMENT.as_nanos()) as u32
    }

    /// When request `i` is due.
    fn due(&self, i: usize) -> Instant {
        self.start + self.interval * i as u32 + GAP * self.segment(i)
    }

    /// When the gap before segment `seg` (at least 1) starts.
    fn gap_start(&self, seg: u32) -> Instant {
        self.start + SEGMENT * seg + GAP * (seg - 1)
    }
}

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Waits until `stream` is ready for `events` or `wait` passes. Uses
/// `ppoll` because its timeout is exact to microseconds, where a socket
/// read timeout rounds up to the kernel tick (4 ms or more), which would
/// make the open-loop generator late.
fn wait_ready(stream: &TcpStream, events: i16, wait: Duration) -> io::Result<bool> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: wait.as_secs() as i64,
        tv_nsec: i64::from(wait.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid out `struct pollfd` /
    // `struct timespec` values for the duration of the call, `nfds` is 1,
    // and a null signal mask is allowed (no mask change).
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match n {
        -1 => {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
        0 => Ok(false),
        _ => Ok(true),
    }
}

/// One non-blocking connection with a framed receive buffer. Responses are
/// timestamped when the wait that saw them arrive returns.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
    out: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Self {
            stream,
            buf: Vec::new(),
            pos: 0,
            out: Vec::new(),
        })
    }

    /// Writes `reqs` as consecutive frames.
    fn send(&mut self, reqs: &[Request]) -> io::Result<()> {
        self.out.clear();
        for r in reqs {
            append_frame(&mut self.out, |b| r.encode_into(b))?;
        }
        let mut done = 0;
        while done < self.out.len() {
            match self.stream.write(&self.out[done..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "server stopped reading",
                    ))
                }
                Ok(n) => done += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    wait_ready(&self.stream, POLLOUT, Duration::from_millis(100))?;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Waits up to `wait` for bytes and reads all that arrived; returns the
    /// arrival time if any came.
    fn poll(&mut self, wait: Duration) -> io::Result<Option<Instant>> {
        if !wait_ready(&self.stream, POLLIN, wait)? {
            return Ok(None);
        }
        let t = Instant::now();
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        let mut chunk = [0u8; 16 * 1024];
        let mut got = false;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "server closed the connection",
                    ))
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    got = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(got.then_some(t))
    }

    /// The next complete response in the buffer.
    fn next(&mut self) -> io::Result<Option<Response>> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes")) as usize;
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let resp = Response::decode(&avail[4..4 + len])?;
        self.pos += 4 + len;
        Ok(Some(resp))
    }
}

/// Per-update timestamps of an open-loop write phase.
struct WriteLog {
    due: Vec<Instant>,
    sent: Vec<Option<Instant>>,
    ack: Vec<Option<Instant>>,
    visible: Vec<Option<Instant>>,
    failed: Vec<bool>,
    /// When the schedule ended.
    end: Instant,
}

/// Result of an open-loop read phase.
struct ReadLog {
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

#[derive(Clone, Copy)]
enum Expect {
    Ack(usize),
    Flushed(usize),
}

/// Phase A, writes connection: `Update` + `Flush` per scheduled slot, and
/// the calibration kernel in each gap once every response has arrived.
fn open_loop_writes(
    conn: &mut Conn,
    updates: &[Vec<EdgeChange>],
    sched: Schedule,
    cal: &mut Calibration,
) -> io::Result<WriteLog> {
    let n = updates.len();
    let mut log = WriteLog {
        due: (0..n).map(|i| sched.due(i)).collect(),
        sent: vec![None; n],
        ack: vec![None; n],
        visible: vec![None; n],
        failed: vec![false; n],
        end: sched.due(n),
    };
    let deadline = log.end + DRAIN;
    let mut expect = VecDeque::new();
    let mut next = 0;
    let mut calibrated = 0;
    while (next < n || !expect.is_empty()) && Instant::now() < deadline {
        let now = Instant::now();
        let wait = if next < n {
            if now >= log.due[next] {
                conn.send(&[Request::Update(updates[next].clone()), Request::Flush])?;
                log.sent[next] = Some(Instant::now());
                expect.push_back(Expect::Ack(next));
                expect.push_back(Expect::Flushed(next));
                next += 1;
                continue;
            }
            let seg = sched.segment(next);
            let cal_at = (seg > calibrated).then(|| sched.gap_start(seg) + SETTLE);
            match cal_at {
                Some(at) if now >= at && expect.is_empty() => {
                    if now + GAP_CAL_BUDGET <= log.due[next] {
                        cal.sample(GAP_CAL_SAMPLES);
                    }
                    calibrated = seg;
                    continue;
                }
                Some(at) if at > now => at.min(log.due[next]) - now,
                _ => log.due[next] - now,
            }
        } else {
            Duration::from_millis(10)
        };
        if let Some(t) = conn.poll(wait)? {
            while let Some(resp) = conn.next()? {
                match (expect.pop_front(), resp) {
                    (Some(Expect::Ack(j)), Response::Ack { .. }) => log.ack[j] = Some(t),
                    (Some(Expect::Flushed(j)), Response::Flushed { .. }) => {
                        log.visible[j] = Some(t)
                    }
                    (Some(Expect::Ack(j) | Expect::Flushed(j)), _) => log.failed[j] = true,
                    (None, other) => {
                        return Err(io::Error::other(format!("unexpected response {other:?}")))
                    }
                }
            }
        }
    }
    Ok(log)
}

/// Phase A, reads connection: `Embedding` reads, every 32nd a `TopK`.
fn open_loop_reads(
    addr: SocketAddr,
    vertices: &[u32],
    sched: Schedule,
    dim: usize,
) -> io::Result<ReadLog> {
    let mut conn = Conn::connect(addr)?;
    let n = vertices.len();
    let due = |i: usize| sched.due(i);
    let deadline = due(n) + DRAIN;
    let mut log = ReadLog {
        latency_ms: Vec::with_capacity(n),
        late_ms: Vec::with_capacity(n),
        attempted: 0,
        failed: 0,
    };
    let mut expect = VecDeque::new();
    let mut last_epoch = 0;
    let mut next = 0;
    while (next < n || !expect.is_empty()) && Instant::now() < deadline {
        let now = Instant::now();
        let wait = if next < n {
            if now >= due(next) {
                let v = vertices[next];
                let req = if next % TOPK_EVERY == TOPK_EVERY - 1 {
                    Request::TopK {
                        vertex: v,
                        k: TOPK_K,
                    }
                } else {
                    Request::Embedding(v)
                };
                conn.send(&[req])?;
                log.late_ms.push(ms(Instant::now() - due(next)));
                expect.push_back(next);
                log.attempted += 1;
                next += 1;
                continue;
            }
            due(next) - now
        } else {
            Duration::from_millis(10)
        };
        if let Some(t) = conn.poll(wait)? {
            while let Some(resp) = conn.next()? {
                let i = expect
                    .pop_front()
                    .ok_or_else(|| io::Error::other("response without a request"))?;
                let ok = match resp {
                    Response::Embedding { epoch, values } => {
                        let ok = values.len() == dim && epoch >= last_epoch;
                        last_epoch = epoch;
                        ok
                    }
                    Response::TopK { epoch, items } => {
                        let ok = items.len() == TOPK_K as usize && epoch >= last_epoch;
                        last_epoch = epoch;
                        ok
                    }
                    _ => false,
                };
                if ok {
                    log.latency_ms.push(ms(t - due(i)));
                } else {
                    log.failed += 1;
                }
            }
        }
    }
    log.failed += expect.len() as u64;
    Ok(log)
}

/// What one phase-B segment measured.
struct ClosedLoop {
    /// Middle of the segment.
    mid: Instant,
    /// Updates sent.
    sent: usize,
    /// Changes made visible per second.
    capacity: f64,
    /// Updates rejected or answered with an error.
    failed: u64,
    /// Updates sent but not yet admitted, plus admitted ones still queued,
    /// when the time budget ended.
    backlog_end: u64,
}

/// One phase-B segment: a closed loop of `WINDOW` updates in flight until
/// `budget` ends, then a flush barrier.
fn closed_loop(
    conn: &mut Conn,
    handle: &ServerHandle,
    updates: &[Vec<EdgeChange>],
    budget: Duration,
) -> io::Result<ClosedLoop> {
    let start = Instant::now();
    let end = start + budget;
    let (mut sent, mut in_flight, mut failed) = (0usize, 0usize, 0u64);
    let take_responses =
        |conn: &mut Conn, in_flight: &mut usize, failed: &mut u64| -> io::Result<bool> {
            let mut flushed = false;
            while let Some(resp) = conn.next()? {
                match resp {
                    Response::Ack { .. } => *in_flight -= 1,
                    Response::Flushed { .. } => flushed = true,
                    _ => {
                        *in_flight -= 1;
                        *failed += 1;
                    }
                }
            }
            Ok(flushed)
        };
    while Instant::now() < end {
        if in_flight < WINDOW && sent < updates.len() {
            let k = (WINDOW - in_flight).min(updates.len() - sent);
            let reqs: Vec<Request> = updates[sent..sent + k]
                .iter()
                .map(|u| Request::Update(u.clone()))
                .collect();
            conn.send(&reqs)?;
            sent += k;
            in_flight += k;
            continue;
        }
        if sent == updates.len() && in_flight == 0 {
            eprintln!("inkbench: phase-B stream exhausted before the time budget");
            break;
        }
        if conn
            .poll(end.saturating_duration_since(Instant::now()))?
            .is_some()
        {
            take_responses(conn, &mut in_flight, &mut failed)?;
        }
    }
    let backlog_end = in_flight as u64 + handle.summary().serve.queue_depth;
    conn.send(&[Request::Flush])?;
    let deadline = Instant::now() + DRAIN;
    loop {
        if Instant::now() >= deadline {
            return Err(io::Error::other("phase B flush barrier timed out"));
        }
        if let Some(t) = conn.poll(deadline - Instant::now())? {
            if take_responses(conn, &mut in_flight, &mut failed)? {
                let capacity = (sent * FLIPS) as f64 / (t - start).as_secs_f64();
                return Ok(ClosedLoop {
                    mid: start + (t - start) / 2,
                    sent,
                    capacity,
                    failed,
                    backlog_end,
                });
            }
        }
    }
}

/// Summary counters diffed across one pass.
fn serve_counters(h: &ServerHandle) -> (u64, u64, u64) {
    let s = h.summary().serve;
    (s.epochs, s.events_received, s.events_applied)
}

/// What one pass (phase A then phase B) measured.
#[derive(Default)]
struct Pass {
    e2e: Metrics,
    layer: Metrics,
    attempted: u64,
    failed: u64,
    invalid: Option<String>,
}

/// Runs the `serve-zipf` workload.
pub fn run(seed: u64, seconds: f64, traced: bool, out: &mut Metrics) -> Outcome {
    match run_inner(seed, seconds, traced, out) {
        Ok(o) => o,
        Err(e) => Outcome {
            errors: vec![format!("serve-zipf: {e}")],
            attempted: 1,
            failed: 1,
        },
    }
}

fn run_inner(seed: u64, seconds: f64, traced: bool, out: &mut Metrics) -> io::Result<Outcome> {
    let (graph, features) = inputs::graph_and_features();
    let base = graph.clone();
    let mut set = EdgeSet::of(&graph);
    let hot = HotVertices::new(graph.num_vertices(), ZIPF);
    let mut flips = FlipStream::new(&graph, &hot, POOL, ZIPF, seed);
    let mut reads_rng = inputs::rng_for(seed, 7);
    let n_passes = if traced { 2 } else { 1 };
    let pass_s = seconds / n_passes as f64;
    let interval = Duration::from_secs_f64(FLIPS as f64 / CHANGES_PER_S);
    let read_interval = Duration::from_secs_f64(1.0 / READS_PER_S);
    let n_updates = (pass_s * PHASE_A_SHARE / interval.as_secs_f64()) as usize;
    let n_reads = (pass_s * PHASE_A_SHARE / read_interval.as_secs_f64()) as usize;
    let first_updates = flips.updates(&mut set, FLIPS, n_updates.max(PROBE_ROUNDS));

    let model = || inputs::model(false, Aggregator::Max);
    let mut cal = Calibration::new(Instant::now());
    let (boot_s, mut probe_engine, engine) = engine::bootstrap(&graph, &features, model, &mut cal);
    drop((graph, features));
    let probe_batches: Vec<DeltaBatch> = first_updates[..PROBE_ROUNDS]
        .iter()
        .map(|u| DeltaBatch::new(u.clone()))
        .collect();
    let mut errors = Vec::new();
    let probed = engine::probe(&mut probe_engine, &probe_batches).unwrap_or_else(|e| {
        errors.push(e);
        engine::Probe::default()
    });
    let facts = engine::EngineFacts::of(&probe_engine);
    drop(probe_engine);
    // The phase-A stream must cover at least the probe's rounds; any extra
    // generated for it is not sent.
    let mut pending_a = Some(first_updates);

    let t = Instant::now();
    let handle = InkServer::bind(
        "127.0.0.1:0",
        StreamSession::new(engine),
        ServeConfig::default(),
    )?;
    let bind_s = t.elapsed().as_secs_f64();
    cal.sample(B_CAL_SAMPLES);
    let setup_s = boot_s + bind_s * cal.scale_at(t, calib::ALPHA);
    let addr = handle.local_addr();
    let dim = inputs::HIDDEN;
    let mut writes = Conn::connect(addr)?;

    let mut sent_log: Vec<Vec<EdgeChange>> = Vec::new();
    let mut passes = Vec::new();
    for pass_no in 0..n_passes {
        let mut p = Pass::default();
        let mut updates = match pending_a.take() {
            Some(u) => u,
            None => {
                flips.reseed(seed, 2 + 2 * pass_no as u64);
                flips.updates(&mut set, FLIPS, n_updates)
            }
        };
        inputs::unflip(&mut set, &updates[n_updates..]);
        updates.truncate(n_updates);
        let vertices: Vec<u32> = (0..n_reads).map(|_| hot.sample(&mut reads_rng)).collect();
        let before = serve_counters(&handle);

        // Phase A: both connections, open loop, on schedules that share
        // their gaps.
        let start = Instant::now() + Duration::from_millis(20);
        let w_sched = Schedule { start, interval };
        let r_sched = Schedule {
            start,
            interval: read_interval,
        };
        let (wlog, rlog) = std::thread::scope(|s| {
            let reader = s.spawn(|| open_loop_reads(addr, &vertices, r_sched, dim));
            let w = open_loop_writes(&mut writes, &updates, w_sched, &mut cal);
            (w, reader.join().expect("reads thread panicked"))
        });
        let (wlog, rlog) = (wlog?, rlog?);
        sent_log.extend(updates.iter().cloned());
        let summary_a = handle.summary().serve;
        phase_a_metrics(&wlog, &rlog, interval, &cal, &mut p, &mut errors);

        // Phase B: closed loop, stream generated after phase A drained.
        flips.reseed(seed, 3 + 2 * pass_no as u64);
        let b_updates = flips.updates(
            &mut set,
            FLIPS,
            (pass_s * PHASE_B_SHARE * MAX_CAPACITY / FLIPS as f64) as usize,
        );
        let budget = Duration::from_secs_f64(pass_s * PHASE_B_SHARE);
        let segments = (budget.as_secs_f64() / B_SEGMENT.as_secs_f64())
            .round()
            .max(1.0);
        let (mut sent, mut capacity, mut unscaled, mut backlog_end) = (0, vec![], vec![], 0);
        cal.sample(B_CAL_SAMPLES);
        for _ in 0..segments as usize {
            let b = closed_loop(
                &mut writes,
                &handle,
                &b_updates[sent..],
                budget.div_f64(segments),
            )?;
            cal.sample(B_CAL_SAMPLES);
            sent += b.sent;
            p.attempted += b.sent as u64 + 1;
            p.failed += b.failed;
            unscaled.push(b.capacity);
            capacity.push((b.mid, b.capacity));
            backlog_end = b.backlog_end;
        }
        inputs::unflip(&mut set, &b_updates[sent..]);
        sent_log.extend(b_updates[..sent].iter().cloned());
        let scaled: Vec<f64> = capacity
            .iter()
            .map(|&(mid, c)| c / cal.scale_at(mid, calib::ALPHA))
            .collect();
        eprintln!("inkbench: unscaled changes_per_s {:.1}", median(&unscaled));
        p.e2e.put("changes_per_s", median(&scaled), "1/s");
        p.layer
            .put("serve.backlog_end_b", backlog_end as f64, "count");

        let after = serve_counters(&handle);
        let (epochs, received, applied) =
            (after.0 - before.0, after.1 - before.1, after.2 - before.2);
        p.layer.put("serve.epochs", epochs as f64, "count");
        p.layer.put(
            "serve.changes_per_epoch",
            ratio(received as f64, epochs as f64),
            "count",
        );
        p.layer.put(
            "serve.coalesce_ratio",
            ratio(applied as f64, received as f64),
            "frac",
        );
        p.layer.put(
            "serve.max_queue_depth",
            handle.summary().serve.max_queue_depth as f64,
            "count",
        );
        p.layer.put(
            "serve.reported.admission_wait_ms_p50",
            ms(summary_a.admission_wait.0),
            "ms",
        );
        p.layer.put(
            "serve.reported.admission_wait_ms_p99",
            ms(summary_a.admission_wait.2),
            "ms",
        );
        p.layer.put(
            "serve.reported.apply_ms_p50",
            ms(summary_a.apply_latency.0),
            "ms",
        );
        p.layer.put(
            "serve.reported.apply_ms_p99",
            ms(summary_a.apply_latency.2),
            "ms",
        );
        p.layer.put(
            "serve.failed_frac",
            ratio(p.failed as f64, p.attempted as f64),
            "frac",
        );
        passes.push(p);
    }
    drop(writes);

    // Correctness gate on the session the server hands back.
    let (session, _) = handle.shutdown()?;
    let engine = session.engine();
    let t = Instant::now();
    let reference = engine.recompute_reference();
    let full_ms = ms(t.elapsed());
    if !bitwise_eq(engine.output(), &reference) {
        errors.push("served output is not bitwise equal to recompute_reference".into());
    }
    let mut replay = base;
    for u in &sent_log {
        DeltaBatch::new(u.clone()).apply(&mut replay);
    }
    let served = sorted_edges(engine.graph());
    if served != sorted_edges(&replay) || served != set.sorted() {
        errors.push("server graph differs from the shadow replay of every sent change".into());
    }

    for p in &passes {
        if let Some(why) = &p.invalid {
            errors.push(format!("phase A invalid: {why}"));
        }
    }
    let attempted = passes.iter().map(|p| p.attempted).sum();
    let failed = passes.iter().map(|p| p.failed).sum();
    let last = passes.last().expect("at least one pass");
    eprintln!("inkbench: kernel median {:.4} ms", cal.median_ms());
    if traced {
        engine::layer_metrics(out, &probed, &probed.log, &facts, full_ms);
        out.put("calib.kernel_ms", cal.median_ms(), "ms");
        out.0.extend(last.layer.0.iter().cloned());
        engine::moved(out, &passes[0].e2e, &last.e2e);
    } else {
        out.0.extend(last.e2e.0.iter().cloned());
        out.put("setup_s", setup_s, "s");
        out.put("rss_mb", crate::report::peak_rss_mb(), "MB");
    }
    Ok(Outcome {
        errors,
        attempted,
        failed,
    })
}

/// Latency, split and generator-health metrics of phase A.
fn phase_a_metrics(
    w: &WriteLog,
    r: &ReadLog,
    interval: Duration,
    cal: &Calibration,
    p: &mut Pass,
    errors: &mut Vec<String>,
) {
    let (mut visible, mut ack, mut ack_to_visible, mut late) = (vec![], vec![], vec![], vec![]);
    let mut scaled = Vec::new();
    let mut backlog = 0u64;
    for j in 0..w.due.len() {
        p.attempted += 2;
        let (Some(sent), Some(a), Some(v), false) =
            (w.sent[j], w.ack[j], w.visible[j], w.failed[j])
        else {
            p.failed += 2;
            continue;
        };
        if v > w.end {
            backlog += 1;
        }
        // due <= sent <= Ack <= Flushed, and the three parts add up to the
        // update-to-visible time.
        let total = v.checked_duration_since(w.due[j]).map(ms);
        let parts = [
            sent.checked_duration_since(w.due[j]),
            a.checked_duration_since(sent),
            v.checked_duration_since(a),
        ];
        let (Some(total), [Some(l), Some(k), Some(q)]) = (total, parts) else {
            errors.push(format!("update {j}: timestamps out of order"));
            continue;
        };
        let parts = [ms(l), ms(k), ms(q)];
        if (parts.iter().sum::<f64>() - total).abs() > 1e-6 {
            errors.push(format!(
                "update {j}: late + ack + ack_to_visible != visible ({parts:?} vs {total})"
            ));
        }
        late.push(parts[0]);
        ack.push(parts[1]);
        ack_to_visible.push(parts[2]);
        visible.push(total);
        scaled.push(total * cal.scale_at(w.due[j], calib::ALPHA));
    }
    p.attempted += r.attempted;
    p.failed += r.failed;
    if visible.is_empty() || r.latency_ms.is_empty() {
        p.invalid = Some("no request completed".into());
        return;
    }
    // The generator fell behind when its typical send ran more than one
    // slot late. A host stall delays a few sends (the p99, reported below)
    // without breaking the schedule.
    let late_p50 = median(&late).max(median(&r.late_ms));
    if late_p50 > ms(interval) {
        p.invalid = Some(format!(
            "generator p50 lateness {late_p50:.3} ms exceeds one slot ({:.3} ms)",
            ms(interval)
        ));
    }
    let late_p99 = percentile(&late, 0.99).max(percentile(&r.late_ms, 0.99));
    eprintln!(
        "inkbench: unscaled visible_ms p50 {:.4} p90 {:.4}",
        median(&visible),
        percentile(&visible, 0.9)
    );
    p.e2e.put("visible_ms_p50", median(&scaled), "ms");
    p.e2e.put("visible_ms_p90", percentile(&scaled, 0.9), "ms");
    p.layer
        .put("serve.visible_ms_p99", percentile(&visible, 0.99), "ms");
    p.layer
        .put("serve.read_ms_p50", median(&r.latency_ms), "ms");
    p.layer
        .put("serve.read_ms_p99", percentile(&r.latency_ms, 0.99), "ms");
    p.layer.put("serve.ack_ms_p50", median(&ack), "ms");
    p.layer
        .put("serve.ack_ms_p99", percentile(&ack, 0.99), "ms");
    p.layer
        .put("serve.ack_to_visible_ms_p50", median(&ack_to_visible), "ms");
    p.layer.put(
        "serve.ack_to_visible_ms_p99",
        percentile(&ack_to_visible, 0.99),
        "ms",
    );
    p.layer.put("serve.gen_late_ms_p99", late_p99, "ms");
    p.layer.put("serve.backlog_end", backlog as f64, "count");
}
