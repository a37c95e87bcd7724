//! Closed-loop client threads with panic isolation, a stall deadline,
//! throughput windows and the benchmark's own spans.
//!
//! Every call into the store runs under `catch_unwind` and is marked in
//! flight for the watchdog. A panicking call counts as a failed op and
//! the client carries on; a call stuck past [`STALL`] ends its thread's
//! part of the run: the thread is abandoned (it cannot be joined while
//! the store holds it) and the ops it would have issued until the end
//! of the phase, at its own earlier rate, count as failed.

use crate::gen::Fault;
use dstore::DsResult;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A store call in flight longer than this is a stall. Far above any
/// healthy call (checkpoint-bound stalls take milliseconds), and long
/// enough that the host pausing this VM for a few seconds is not taken
/// for one.
pub const STALL: Duration = Duration::from_secs(20);
/// Throughput window of the quiescence check.
pub const WINDOW: Duration = Duration::from_millis(250);
/// Spans kept per recorder; later spans are counted, not kept.
const SPAN_CAP: usize = 200_000;

/// Nanoseconds since the process-wide benchmark epoch.
pub fn now_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One span of the benchmark's own trace: a public call into a layer,
/// or a whole op (parent 0).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Id of this span.
    pub id: u64,
    /// Id of the enclosing op span (0 for a root span).
    pub parent: u64,
    /// Layer the call went into (`harness`, `core`, `protocol`, …).
    pub layer: &'static str,
    /// The call (`get`, `put`, `submit`, `checkpoint_now`, …).
    pub name: &'static str,
    /// Start, [`now_ns`].
    pub start: u64,
    /// End, [`now_ns`].
    pub end: u64,
}

/// Per-kind fault counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Faults {
    /// Indexed by `Fault as usize`.
    pub by_kind: [u64; 7],
}

impl Faults {
    /// Records one fault.
    pub fn add(&mut self, f: Fault) {
        self.by_kind[f as usize] += 1;
    }
    /// All faults.
    pub fn total(&self) -> u64 {
        self.by_kind.iter().sum()
    }
    /// Accumulates another set.
    pub fn merge(&mut self, o: &Faults) {
        for (a, b) in self.by_kind.iter_mut().zip(o.by_kind) {
            *a += b;
        }
    }
    /// `kind=count` pairs of the nonzero kinds.
    pub fn describe(&self) -> String {
        const NAMES: [&str; 7] = [
            "corrupt",
            "wrong_key",
            "stale",
            "unwritten",
            "presence",
            "error",
            "panic_or_stall",
        ];
        let parts: Vec<String> = NAMES
            .iter()
            .zip(self.by_kind)
            .filter(|(_, n)| *n > 0)
            .map(|(k, n)| format!("{k}={n}"))
            .collect();
        if parts.is_empty() {
            "none".into()
        } else {
            parts.join(" ")
        }
    }
}

/// Liveness of one client, read by the watchdog.
#[derive(Default)]
pub struct Progress {
    /// Ops finished.
    pub done: AtomicU64,
    /// [`now_ns`] + 1 at which the current store call began; 0 = none.
    pub inflight_since: AtomicU64,
    /// Ops that failed.
    pub failed: AtomicU64,
    /// Set when the client returned.
    pub finished: AtomicBool,
}

/// What one client measured.
pub struct Recorder {
    progress: Arc<Progress>,
    /// Client latencies of reads, ns.
    pub reads: Vec<u64>,
    /// Client latencies of writes, ns.
    pub writes: Vec<u64>,
    /// Ops that finished (failed or not).
    pub ops: u64,
    /// Failed ops by kind.
    pub faults: Faults,
    /// Time outside store calls, summed, ns.
    pub gen_ns: u64,
    /// Object bytes written by successful writes.
    pub user_bytes: u64,
    /// Longest store call, ns.
    pub max_call_ns: u64,
    /// Time inside store calls of the current op.
    call_ns: u64,
    op_start: u64,
    /// Span ids are `client << 48 | n`.
    next_span: u64,
    op_span: u64,
    trace: bool,
    /// Spans kept.
    pub spans: Vec<Span>,
    /// Spans not kept (over [`SPAN_CAP`]).
    pub spans_dropped: u64,
}

impl Recorder {
    /// A recorder for client `client`; `trace` keeps spans.
    pub fn new(client: u64, trace: bool) -> Self {
        Recorder {
            progress: Arc::new(Progress::default()),
            reads: Vec::with_capacity(1 << 20),
            writes: Vec::with_capacity(1 << 20),
            ops: 0,
            faults: Faults::default(),
            gen_ns: 0,
            user_bytes: 0,
            max_call_ns: 0,
            call_ns: 0,
            op_start: now_ns(),
            next_span: client << 48,
            op_span: 0,
            trace,
            spans: Vec::new(),
            spans_dropped: 0,
        }
    }

    /// The watchdog's view of this client.
    pub fn progress(&self) -> Arc<Progress> {
        Arc::clone(&self.progress)
    }

    fn span_id(&mut self) -> u64 {
        self.next_span += 1;
        self.next_span
    }

    fn push_span(&mut self, s: Span) {
        if self.spans.len() < SPAN_CAP {
            self.spans.push(s);
        } else {
            self.spans_dropped += 1;
        }
    }

    /// Starts an op: what ran since the last op ended was generation.
    pub fn begin_op(&mut self) {
        self.op_start = now_ns();
        self.call_ns = 0;
        if self.trace {
            self.op_span = self.span_id();
        }
    }

    /// One public call into `layer`: marked in flight for the watchdog,
    /// panics caught (as [`Fault::Panic`]), errors mapped to
    /// [`Fault::Error`]. Returns the result and the call's duration.
    pub fn call<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> DsResult<T>,
    ) -> (Result<T, Fault>, u64) {
        let t0 = now_ns();
        self.progress
            .inflight_since
            .store(t0 + 1, Ordering::Relaxed);
        let r = catch_unwind(AssertUnwindSafe(f));
        let t1 = now_ns();
        self.progress.inflight_since.store(0, Ordering::Relaxed);
        self.call_ns += t1 - t0;
        self.max_call_ns = self.max_call_ns.max(t1 - t0);
        if self.trace {
            let id = self.span_id();
            let parent = self.op_span;
            self.push_span(Span {
                id,
                parent,
                layer,
                name,
                start: t0,
                end: t1,
            });
        }
        let r = match r {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(_)) => Err(Fault::Error),
            Err(_) => Err(Fault::Panic),
        };
        (r, t1 - t0)
    }

    /// Ends the op begun by [`Recorder::begin_op`]: `latency` is what
    /// the client saw (ns), `verdict` whether the op succeeded and read
    /// back what it should have.
    pub fn end_op(
        &mut self,
        name: &'static str,
        read: bool,
        latency: u64,
        verdict: Result<(), Fault>,
    ) {
        let end = now_ns();
        self.gen_ns += (end - self.op_start).saturating_sub(self.call_ns);
        if read {
            self.reads.push(latency);
        } else {
            self.writes.push(latency);
        }
        self.ops += 1;
        if let Err(f) = verdict {
            self.faults.add(f);
            self.progress.failed.fetch_add(1, Ordering::Relaxed);
        }
        if self.trace {
            let id = self.op_span;
            let start = self.op_start;
            self.push_span(Span {
                id,
                parent: 0,
                layer: "harness",
                name,
                start,
                end,
            });
        }
        self.progress.done.fetch_add(1, Ordering::Relaxed);
    }
}

/// What a phase measured, over all clients.
pub struct PhaseOut<S> {
    /// Each client's state and recorder; `None` for a stalled client.
    pub clients: Vec<Option<(S, Recorder)>>,
    /// Ops each client finished (stalled clients included).
    pub done: Vec<u64>,
    /// Of which failed.
    pub failed: Vec<u64>,
    /// Wall time of the phase, s.
    pub elapsed_s: f64,
    /// Ops finished per [`WINDOW`].
    pub windows: Vec<u64>,
    /// When (s into the phase) each stalled client's stuck call began.
    pub stalled_at: Vec<Option<f64>>,
}

impl<S> PhaseOut<S> {
    /// Whether every client finished.
    pub fn all_finished(&self) -> bool {
        self.clients.iter().all(Option::is_some)
    }
}

/// Client `i`'s op: runs one op on the client's state and returns
/// whether the client has more to do.
pub type OpFn<S> = Arc<dyn Fn(usize, &mut S, &mut Recorder) -> bool + Send + Sync>;

/// Runs one closed-loop client per state for `seconds`, or until every
/// client has run out of ops: each client calls `op` until then.
pub fn run_phase<S: Send + 'static>(
    states: Vec<S>,
    trace: bool,
    seconds: f64,
    op: OpFn<S>,
) -> PhaseOut<S> {
    let stop = Arc::new(AtomicBool::new(false));
    let mut progress = Vec::new();
    let mut slots = Vec::new();
    let mut handles = Vec::new();
    for (i, mut state) in states.into_iter().enumerate() {
        let mut rec = Recorder::new(i as u64 + 1, trace);
        progress.push(rec.progress());
        let slot: Arc<Mutex<Option<(S, Recorder)>>> = Arc::new(Mutex::new(None));
        slots.push(Arc::clone(&slot));
        let (stop, op) = (Arc::clone(&stop), Arc::clone(&op));
        handles.push(
            std::thread::Builder::new()
                .name(format!("client{i}"))
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) && op(i, &mut state, &mut rec) {}
                    let progress = rec.progress();
                    *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some((state, rec));
                    progress.finished.store(true, Ordering::Release);
                })
                .expect("spawn client thread"),
        );
    }

    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut windows = Vec::new();
    let mut last = 0u64;
    let total = |p: &[Arc<Progress>]| {
        p.iter()
            .map(|p| p.done.load(Ordering::Relaxed))
            .sum::<u64>()
    };
    // Stall start (s into the phase) of each client, once detected.
    let mut stalled_at: Vec<Option<f64>> = vec![None; progress.len()];
    let detect = |stalled_at: &mut Vec<Option<f64>>| {
        for (i, p) in progress.iter().enumerate() {
            // Read the call's start before the clock: a call that starts
            // in between must not look older than it is.
            let since = p.inflight_since.load(Ordering::Relaxed);
            let in_flight = call_age(since, now_ns());
            if stalled_at[i].is_none() && since != 0 && in_flight > STALL.as_nanos() as u64 {
                let at = start.elapsed().as_secs_f64() - in_flight as f64 / 1e9;
                stalled_at[i] = Some(at.max(0.0));
            }
        }
    };
    let all_finished = |p: &[Arc<Progress>]| p.iter().all(|p| p.finished.load(Ordering::Acquire));
    let mut next = start + WINDOW;
    while next <= end {
        while Instant::now() < next && !all_finished(&progress) {
            std::thread::sleep(
                next.saturating_duration_since(Instant::now())
                    .min(Duration::from_millis(5)),
            );
        }
        if all_finished(&progress) {
            break;
        }
        let t = total(&progress);
        windows.push(t - last);
        last = t;
        detect(&mut stalled_at);
        next += WINDOW;
    }
    while Instant::now() < end && !all_finished(&progress) {
        std::thread::sleep(
            end.saturating_duration_since(Instant::now())
                .min(Duration::from_millis(5)),
        );
    }
    stop.store(true, Ordering::Relaxed);
    let elapsed_s = start.elapsed().as_secs_f64();
    // Let in-flight calls finish; give up on a client once its call is
    // older than the stall deadline.
    loop {
        detect(&mut stalled_at);
        let pending = progress
            .iter()
            .zip(&stalled_at)
            .any(|(p, s)| !p.finished.load(Ordering::Acquire) && s.is_none());
        if !pending {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut clients = Vec::new();
    let done = progress
        .iter()
        .map(|p| p.done.load(Ordering::Relaxed))
        .collect();
    let failed = progress
        .iter()
        .map(|p| p.failed.load(Ordering::Relaxed))
        .collect();
    for ((h, slot), (p, stalled)) in handles
        .into_iter()
        .zip(slots)
        .zip(progress.iter().zip(&mut stalled_at))
    {
        if p.finished.load(Ordering::Acquire) {
            let _ = h.join();
            clients.push(slot.lock().unwrap_or_else(|e| e.into_inner()).take());
            *stalled = None;
        } else {
            // Abandoned: the thread stays blocked inside the store.
            stalled.get_or_insert(elapsed_s);
            clients.push(None);
        }
    }
    PhaseOut {
        clients,
        done,
        failed,
        elapsed_s,
        windows,
        stalled_at,
    }
}

/// How long a call marked in flight at `since` ([`now_ns`] + 1) has been
/// running at `now`; 0 for a call that began after `now` was read.
fn call_age(since: u64, now: u64) -> u64 {
    now.saturating_sub(since.saturating_sub(1))
}

/// Runs `f` with a deadline: `None` when it panicked or did not return
/// within `limit` (the thread running it is then abandoned).
pub fn guarded<T: Send + 'static>(
    limit: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> Option<T> {
    let (tx, rx) = std::sync::mpsc::channel();
    let h = std::thread::spawn(move || {
        let r = catch_unwind(AssertUnwindSafe(f));
        let _ = tx.send(r);
    });
    match rx.recv_timeout(limit) {
        Ok(r) => {
            let _ = h.join();
            r.ok()
        }
        Err(_) => None,
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panics_are_contained_and_counted() {
        let out = run_phase(
            vec![0u64, 0u64],
            true,
            0.3,
            Arc::new(|i, n: &mut u64, rec: &mut Recorder| {
                rec.begin_op();
                *n += 1;
                let (r, ns) = rec.call("core", "get", || {
                    if i == 1 && n.is_multiple_of(100) {
                        panic!("injected");
                    }
                    Ok(())
                });
                rec.end_op("get", true, ns, r);
                true
            }),
        );
        assert!(out.all_finished());
        assert!(out.stalled_at.iter().all(Option::is_none));
        let recs: Vec<&Recorder> = out.clients.iter().flatten().map(|(_, r)| r).collect();
        assert_eq!(recs[0].faults.total(), 0);
        assert!(recs[1].faults.by_kind[Fault::Panic as usize] > 0);
        assert!(recs[0]
            .spans
            .iter()
            .any(|s| s.parent == 0 && s.layer == "harness"));
        assert!(recs[0]
            .spans
            .iter()
            .any(|s| s.parent != 0 && s.layer == "core"));
    }

    #[test]
    fn a_call_younger_than_the_clock_read_is_not_a_stall() {
        // The watchdog reads a call's start, then the clock; a call that
        // began in between once wrapped around to an age of ~584 years.
        assert_eq!(call_age(1_001, 1_000), 0);
        assert_eq!(call_age(1_001, 3_000), 2_000);
    }

    #[test]
    fn guarded_reports_panics_and_overruns() {
        assert_eq!(guarded(Duration::from_secs(5), || 7), Some(7));
        assert_eq!(
            guarded(Duration::from_secs(5), || -> u8 { panic!("boom") }),
            None
        );
        assert_eq!(
            guarded(Duration::from_millis(20), || std::thread::sleep(
                Duration::from_millis(500)
            )),
            None
        );
    }
}
