//! The run shared by every workload: set-up, timed phase, checks,
//! crash/recovery cycles, and the metrics they yield.

use crate::gen::Fault;
use crate::harness::{guarded, now_ns, peak_rss_mb, run_phase, OpFn, PhaseOut, Span};
use crate::inproc::Sweep;
use crate::layers::{push_layer_metrics, LayerInput};
use crate::report::{json_str, Report};
use crate::stats::{median, percentile, ratio, Counters};
use dstore::{DStoreConfig, Footprint, RecoveryReport};
use dstore_telemetry::{HistogramSnapshot, TelemetrySnapshot, TraceConfig};
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Crash/recovery cycles per run; `recovery_s` is their median.
pub const CYCLES: u64 = 15;
/// Updates between the last checkpoint and each crash: all of them, and
/// nothing else, must be replayed by recovery.
pub const BURST: u64 = 1000;
/// Length of a timed segment; latency percentiles are medians over the
/// segments of a phase.
const SEGMENT_S: f64 = 1.0;
/// A crash/recovery cycle must finish within this.
const CYCLE_LIMIT: Duration = Duration::from_secs(30);
/// Flight-recorder settings of the traced phase: every 8th op sampled,
/// into a ring that holds every sampled trace of a 10 s phase at up to
/// 200 k ops/s (about 40 MB per store).
pub const DENSE: TraceConfig = TraceConfig {
    enabled: true,
    sample_every: 8,
    slo_ns: 1_000_000,
    ring_capacity: 1 << 18,
};

/// One workload's store, front end and expected contents.
pub trait Bench: Sized + Send + 'static {
    /// A client's state during a timed phase.
    type Client: Send + 'static;
    /// The configuration of (each shard of) the store.
    fn store_config(&self) -> DStoreConfig;
    /// Extra facts about the run (client count, pipeline depth, …).
    fn describe(&self) -> Vec<(String, String)>;
    /// Client states for a timed phase; streams are numbered from
    /// `stream_base` so every phase draws fresh ops.
    fn clients(&mut self, stream_base: u64) -> Result<Vec<Self::Client>, String>;
    /// One op of a timed phase.
    fn op(&self) -> OpFn<Self::Client>;
    /// Takes back the clients of a finished phase and completes what
    /// they left in flight; returns those ops and how many failed.
    fn finish(&mut self, clients: Vec<Self::Client>) -> (u64, u64);
    /// Counters of every layer, and the telemetry snapshot they came from.
    fn counters(&mut self) -> Result<(Counters, TelemetrySnapshot), String>;
    /// Storage footprint.
    fn footprint(&self) -> Footprint;
    /// The store's health summary, for a stall report.
    fn health(&self) -> String;
    /// Ops each shard has completed (empty for an unsharded store).
    fn shard_ops(&self) -> Vec<f64>;
    /// Reads every object back and checks it; the record and the number
    /// of objects.
    fn sweep(&self, trace: bool) -> Result<(PhaseOut<Sweep>, u64), String>;
    /// Runs one synchronous checkpoint (stopping any front end first).
    fn checkpoint(&mut self);
    /// The fixed update burst of cycle `cycle`; returns its faults.
    fn burst(&mut self, k: u64, cycle: u64) -> Vec<Fault>;
    /// Crashes and recovers; the recovered workload, wall time, report.
    fn crash_and_recover(self) -> Result<(Self, f64, RecoveryReport), String>;
}

/// Folds a finished phase's ops and faults into the report, with
/// `missing` planned ops that a stalled client never finished.
pub fn absorb<S>(r: &mut Report, out: &PhaseOut<S>, missing: u64) {
    for (i, c) in out.clients.iter().enumerate() {
        match c {
            Some((_, rec)) => {
                r.attempted += rec.ops;
                r.faults.merge(&rec.faults);
                r.max_call_ns = r.max_call_ns.max(rec.max_call_ns);
            }
            None => {
                // A stalled client's own failures are mostly caught
                // panics; their kinds stayed with the abandoned thread.
                r.attempted += out.done[i];
                r.faults.by_kind[Fault::Panic as usize] += out.failed[i];
            }
        }
    }
    r.attempted += missing;
    r.unfinished += missing;
    r.faults.by_kind[Fault::Panic as usize] += missing;
}

/// Client-side figures of one timed segment.
struct Segment {
    reads: Vec<u64>,
    writes: Vec<u64>,
}

/// Client-side figures of a timed phase.
#[derive(Default)]
struct Phase {
    segments: Vec<Segment>,
    /// Ops finished per 250 ms window.
    windows: Vec<u64>,
    ops: u64,
    elapsed_s: f64,
    user_bytes: u64,
    gen_ns: u64,
    spans: Vec<Span>,
    spans_dropped: u64,
    /// False when a client stalled.
    finished: bool,
}

impl Phase {
    /// Throughput: the median 250 ms window, so a short disturbance of
    /// the host moves it little.
    fn ops_s(&self) -> f64 {
        let w: Vec<f64> = self.windows.iter().map(|&w| w as f64).collect();
        median(&w) / crate::harness::WINDOW.as_secs_f64()
    }

    fn pooled(&self, read: bool) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .segments
            .iter()
            .flat_map(|s| if read { &s.reads } else { &s.writes })
            .copied()
            .collect();
        v.sort_unstable();
        v
    }
}

/// Runs a timed phase of `seconds` as segments of about [`SEGMENT_S`].
fn timed<B: Bench>(
    b: &mut B,
    stream_base: u64,
    trace: bool,
    seconds: f64,
    r: &mut Report,
) -> Result<Phase, String> {
    let n = (seconds / SEGMENT_S).round().max(1.0) as usize;
    let mut clients = b.clients(stream_base)?;
    let op = b.op();
    let mut phase = Phase::default();
    let mut client_ops = vec![0u64; clients.len()];
    for _ in 0..n {
        let before_s = phase.elapsed_s;
        let mut out = run_phase(clients, trace, seconds / n as f64, op.clone());
        // A stalled client would have kept its earlier rate until the
        // phase ended; those ops count as failed.
        let mut missing = 0;
        for (c, at) in out.stalled_at.iter().enumerate() {
            client_ops[c] += out.done[c];
            if let Some(at) = at {
                let at = before_s + at;
                let rate = client_ops[c] as f64 / at.max(1e-3);
                missing += 1 + (rate * (seconds - at).max(0.0)).round() as u64;
            }
        }
        absorb(r, &out, missing);
        phase.windows.extend(&out.windows);
        phase.elapsed_s += out.elapsed_s;
        let mut seg = Segment {
            reads: Vec::new(),
            writes: Vec::new(),
        };
        for (_, rec) in out.clients.iter_mut().flatten() {
            phase.ops += rec.ops;
            phase.user_bytes += rec.user_bytes;
            phase.gen_ns += rec.gen_ns;
            seg.reads.append(&mut rec.reads);
            seg.writes.append(&mut rec.writes);
            phase.spans.append(&mut rec.spans);
            phase.spans_dropped += rec.spans_dropped;
        }
        seg.reads.sort_unstable();
        seg.writes.sort_unstable();
        phase.segments.push(seg);
        if !out.all_finished() {
            eprintln!(
                "perfbench: a client stalled {:.2?} s into the phase; store health: {}",
                out.stalled_at
                    .iter()
                    .flatten()
                    .map(|at| before_s + at)
                    .collect::<Vec<_>>(),
                b.health()
            );
            return Ok(phase);
        }
        clients = out.clients.into_iter().flatten().map(|(c, _)| c).collect();
    }
    let (completed, failed) = b.finish(clients);
    r.attempted += completed;
    r.faults.by_kind[Fault::Error as usize] += failed;
    phase.finished = true;
    Ok(phase)
}

/// `ops_s` and the latency percentiles of a timed phase. A percentile is
/// the median of its per-segment values; each segment's value must have
/// at least ten samples beyond it.
fn push_client_metrics(r: &mut Report, p: &Phase) {
    r.push(
        "ops_s",
        p.ops_s(),
        "1/s",
        format!(
            "median of {} windows of 250 ms; {} ops in {:.3} s",
            p.windows.len(),
            p.ops,
            p.elapsed_s
        ),
    );
    for (name, read, pct) in [
        ("read_p50_us", true, 50.0),
        ("read_p99_us", true, 99.0),
        ("write_p50_us", false, 50.0),
        ("write_p99_us", false, 99.0),
    ] {
        let mut values = Vec::new();
        let (mut samples, mut min_beyond) = (0, usize::MAX);
        for s in &p.segments {
            match percentile(if read { &s.reads } else { &s.writes }, pct) {
                Ok(v) => {
                    values.push(v.value as f64 / 1e3);
                    samples += v.samples;
                    min_beyond = min_beyond.min(v.beyond);
                }
                Err(v) => r.check_failures.push(format!(
                    "{name}: a segment has {} samples, {} beyond the percentile",
                    v.samples, v.beyond
                )),
            }
        }
        r.push(
            name,
            median(&values),
            "us",
            format!(
                "median of {} segments; n={samples}, beyond>={min_beyond} per segment",
                values.len()
            ),
        );
    }
}

/// Recovery measurements of the crash/recovery cycles.
#[derive(Default)]
struct Recoveries {
    secs: Vec<f64>,
    reports: Vec<(u64, u64, u64)>,
    torn: f64,
    serial_fallbacks: f64,
}

/// Runs `cycles` crash/recovery cycles: checkpoint, the fixed burst,
/// crash, recover, and a look at the recovered store's counters. Each
/// recovery must replay exactly the burst.
fn cycles<B: Bench>(
    mut b: B,
    cycles: u64,
    r: &mut Report,
    rec: &mut Recoveries,
) -> Result<B, String> {
    for cycle in 0..cycles {
        let (nb, faults, secs, rep) = guarded(CYCLE_LIMIT, move || {
            b.checkpoint();
            let faults = b.burst(BURST, cycle);
            b.crash_and_recover()
                .map(|(b, secs, rep)| (b, faults, secs, rep))
        })
        .ok_or("a crash/recovery cycle panicked or stalled")??;
        b = nb;
        r.attempted += BURST;
        for f in faults {
            r.faults.add(f);
        }
        let (after, _) = b.counters()?;
        rec.secs.push(secs);
        rec.reports
            .push((rep.metadata_ns, rep.replay_ns, rep.replayed_records as u64));
        rec.torn += after.get("dstore_log_torn_commits_total");
        rec.serial_fallbacks += after.get("dstore_replay_serial_fallbacks_total");
        if rep.replayed_records as u64 != BURST {
            r.check_failures.push(format!(
                "recovery replayed {} records, expected exactly the {BURST} of the burst",
                rep.replayed_records
            ));
        }
    }
    Ok(b)
}

fn sweep<B: Bench>(b: &B, trace: bool, r: &mut Report) -> Result<(), String> {
    let (out, n) = b.sweep(trace)?;
    absorb(r, &out, n.saturating_sub(out.done.iter().sum()));
    if out.all_finished() {
        Ok(())
    } else {
        Err("the check of every object stalled".into())
    }
}

/// The effective knobs of a store configuration.
fn knobs(cfg: &DStoreConfig, info: &mut Vec<(String, String)>) {
    let mut put = |k: &str, v: String| info.push((k.to_string(), v));
    put("index_olc", cfg.index_olc.to_string());
    put("durability_epoch", cfg.durability_epoch.to_string());
    put("parallel_persistence", cfg.parallel_persistence.to_string());
    put("replay_threads", cfg.replay_threads.to_string());
    put("pool_shards", cfg.pool_shards.to_string());
    put("checkpoint", json_str(&format!("{:?}", cfg.checkpoint)));
    put("logging", json_str(&format!("{:?}", cfg.logging)));
    put("oe", cfg.oe.to_string());
    put("auto_checkpoint", cfg.auto_checkpoint.to_string());
    put("log_size", cfg.log_size.to_string());
    put("ssd_pages", cfg.ssd_pages.to_string());
    put("trace_enabled", cfg.trace.enabled.to_string());
    put("trace_sample_every", cfg.trace.sample_every.to_string());
    put("trace_ring_capacity", cfg.trace.ring_capacity.to_string());
}

/// The end-to-end run (`--trace 0`).
pub fn run_e2e<B: Bench>(
    setup: impl Fn(TraceConfig) -> Result<B, String>,
    seconds: f64,
    r: &mut Report,
    info: &mut Vec<(String, String)>,
) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut b = None;
    for _ in 0..SETUPS {
        drop(b.take());
        let t = Instant::now();
        b = Some(setup(TraceConfig::default())?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut b = b.expect("at least one set-up");
    info.extend(b.describe());
    knobs(&b.store_config(), info);
    let phase = timed(&mut b, 0, false, seconds, r)?;
    push_client_metrics(r, &phase);
    let space_amp = b.footprint().amplification();
    if !phase.finished {
        return Err("a client stalled; the store cannot be checked or recovered".into());
    }
    sweep(&b, false, r)?;
    let mut rec = Recoveries::default();
    let b = cycles(b, CYCLES, r, &mut rec)?;
    sweep(&b, false, r)?;
    r.push(
        "ok_frac",
        1.0 - r.failed() as f64 / r.attempted.max(1) as f64,
        "frac",
        "1 - failed_frac (failed ops / ops attempted)",
    );
    r.push(
        "setup_s",
        median(&setups),
        "s",
        format!("median of {SETUPS}: {setups:.4?}"),
    );
    let ms = |v: Vec<f64>| median(&v) * 1e3;
    r.push(
        "recovery_s",
        median(&rec.secs),
        "s",
        format!(
            "median of {CYCLES} recoveries of {BURST} records (min {:.2}, max {:.2} ms); medians: metadata {:.2} ms, replay {:.2} ms",
            rec.secs.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
            rec.secs.iter().copied().fold(0.0, f64::max) * 1e3,
            ms(rec.reports.iter().map(|r| r.0 as f64 / 1e9).collect()),
            ms(rec.reports.iter().map(|r| r.1 as f64 / 1e9).collect()),
        ),
    );
    r.push(
        "space_amp",
        space_amp,
        "ratio",
        "physical / logical bytes after the timed phase",
    );
    r.push("peak_rss_mb", peak_rss_mb(), "MiB", "VmHWM of the process");
    Ok(())
}

/// The traced run (`--trace 1`): an untraced half-length phase (tail
/// percentiles, throughput windows), then a densely traced one on a
/// fresh store (counters, flight-recorder segments, the benchmark's own
/// spans, one crash/recovery cycle).
pub fn run_traced<B: Bench>(
    setup: impl Fn(TraceConfig) -> Result<B, String>,
    seconds: f64,
    spans_path: &Path,
    r: &mut Report,
    info: &mut Vec<(String, String)>,
) -> Result<(), String> {
    let half = seconds / 2.0;
    let mut b = setup(TraceConfig::default())?;
    let untraced = timed(&mut b, 0, false, half, r)?;
    drop(b);

    let mut main_spans = Vec::new();
    let mut span = |name: &'static str, start: u64| {
        main_spans.push(Span {
            id: main_spans.len() as u64 + 1,
            parent: 0,
            layer: "bench",
            name,
            start,
            end: now_ns(),
        })
    };
    let t0 = now_ns();
    let mut b = setup(DENSE)?;
    span("setup", t0);
    info.extend(b.describe());
    knobs(&b.store_config(), info);
    let t0 = now_ns();
    let (before, snap_before) = b.counters()?;
    let shards_before = b.shard_ops();
    span("telemetry_snapshot", t0);
    let tel_start = dstore_telemetry::now_ns();
    let traced = timed(&mut b, 100, true, half, r)?;
    let t0 = now_ns();
    let (after, snap) = b.counters()?;
    span("telemetry_snapshot", t0);
    let shard_ops = b
        .shard_ops()
        .iter()
        .zip(&shards_before)
        .map(|(a, b)| a - b)
        .collect();
    let footprint = b.footprint();
    let traces = snap
        .all_traces("dstore_op_traces")
        .into_iter()
        .filter(|t| t.start_ns >= tel_start)
        .collect();
    let applies = snap
        .all_spans("dstore_checkpoint_spans")
        .into_iter()
        .filter(|s| s.name == "apply" && s.start_ns >= tel_start)
        .collect();
    // Server residency (admission to response encoded), when there is
    // a server.
    let hist = |s: &TelemetrySnapshot| s.merged_histogram("dstore_server_op_latency_ns");
    let residency: HistogramSnapshot = hist(&snap).since(&hist(&snap_before));
    let mut rec = Recoveries::default();
    if traced.finished {
        let t0 = now_ns();
        sweep(&b, false, r)?;
        span("sweep", t0);
        let t0 = now_ns();
        cycles(b, 1, r, &mut rec)?;
        span("crash_recover_cycle", t0);
    } else {
        r.check_failures
            .push("a client stalled; the store cannot be checked or recovered".into());
    }
    let all = {
        let mut v = traced.pooled(true);
        v.extend(traced.pooled(false));
        v.sort_unstable();
        v
    };
    let input = LayerInput {
        delta: after.since(&before),
        reads: traced.pooled(true).len() as u64,
        writes: traced.pooled(false).len() as u64,
        user_bytes: traced.user_bytes,
        traces,
        applies,
        gen_ns_per_op: ratio(traced.gen_ns as f64, traced.ops as f64),
        windows: untraced.windows.clone(),
        untraced_ops_s: untraced.ops_s(),
        traced_ops_s: traced.ops_s(),
        untraced_reads: untraced.pooled(true),
        untraced_writes: untraced.pooled(false),
        footprint,
        recoveries: rec.reports,
        recovery_torn: rec.torn,
        recovery_serial_fallbacks: rec.serial_fallbacks,
        residency: (residency.count > 0).then_some(residency),
        client_p50_ns: percentile(&all, 50.0).map_or(0, |p| p.value),
        shard_ops,
        spans: traced.spans,
    };
    push_layer_metrics(r, &input);
    let mut spans = input.spans;
    spans.extend(main_spans);
    write_spans(spans_path, &spans)?;
    info.push(("spans".into(), json_str(&spans_path.display().to_string())));
    info.push(("spans_dropped".into(), traced.spans_dropped.to_string()));
    Ok(())
}

fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut text = String::from("id,parent,layer,name,start_ns,end_ns\n");
    for s in spans {
        text.push_str(&format!(
            "{},{},{},{},{},{}\n",
            s.id, s.parent, s.layer, s.name, s.start, s.end
        ));
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}
