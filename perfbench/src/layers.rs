//! Per-layer metrics of the traced run, from counter deltas, flight-
//! recorder segments and the benchmark's own spans.

use crate::harness::Span;
use crate::report::Report;
use crate::stats::{median, ratio, Counters};
use dstore::Footprint;
use dstore_telemetry::trace::{
    SEG_ALLOC, SEG_CC_WAIT, SEG_COMMIT, SEG_INDEX, SEG_LOG_APPEND, SEG_LOG_FLUSH, SEG_LOG_STALL,
    SEG_LOOKUP, SEG_NET_QUEUE, SEG_SSD_READ, SEG_SSD_WRITE,
};
use dstore_telemetry::{HistogramSnapshot, OpTrace, Span as StoreSpan, TailAttribution};

/// Every per-layer metric, in print order, with its unit.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("harness.gen_ns_per_op", "ns"),
    ("protocol.submit_ns", "ns"),
    ("protocol.flush_us", "us"),
    ("protocol.wait_us", "us"),
    ("server.residency_p50_us", "us"),
    ("server.residency_p99_us", "us"),
    ("server.outside_us", "us"),
    ("server.net_queue_us", "us"),
    ("server.busy_frac", "frac"),
    ("shard.max_over_mean_ops", "ratio"),
    ("core.ww_conflicts_per_kop", "1/kop"),
    ("core.rw_backoffs_per_kop", "1/kop"),
    ("core.log_full_stalls", "count"),
    ("core.cc_wait_us", "us"),
    ("core.unattributed_frac", "frac"),
    ("index.restarts_per_mop", "1/Mop"),
    ("index.latch_waits_per_mop", "1/Mop"),
    ("index.index_us", "us"),
    ("index.lookup_us", "us"),
    ("arena.alloc_us", "us"),
    ("arena.alloc_stalls_per_kop", "1/kop"),
    ("arena.alloc_stall_ns_per_op", "ns"),
    ("dipper.log_append_us", "us"),
    ("dipper.log_flush_us", "us"),
    ("dipper.commit_us", "us"),
    ("dipper.log_stall_us", "us"),
    ("dipper.commits_per_batch", "ratio"),
    ("dipper.torn_commits", "count"),
    ("dipper.checkpoints", "count"),
    ("dipper.ckpt_apply_ms", "ms"),
    ("dipper.worst_window_ratio", "ratio"),
    ("dipper.replay_records_per_s", "1/s"),
    ("dipper.replay_serial_fallbacks", "count"),
    ("dipper.recovery_metadata_ms", "ms"),
    ("dipper.recovery_replay_ms", "ms"),
    ("dipper.recovery_replayed_records", "count"),
    ("pmem.flushes_per_write", "1/op"),
    ("pmem.fences_per_write", "1/op"),
    ("pmem.flush_bytes_per_write", "B/op"),
    ("pmem.elided_lines_per_write", "1/op"),
    ("pmem.dedup_lines_per_write", "1/op"),
    ("pmem.bulk_write_bytes_per_user_byte", "ratio"),
    ("ssd.write_ops_per_write", "1/op"),
    ("ssd.write_bytes_per_user_byte", "ratio"),
    ("ssd.read_ops_per_read", "1/op"),
    ("ssd.write_us", "us"),
    ("ssd.read_us", "us"),
    ("footprint.dram_per_user_byte", "ratio"),
    ("footprint.pmem_per_user_byte", "ratio"),
    ("footprint.ssd_per_user_byte", "ratio"),
    ("telemetry.trace_overhead_frac", "frac"),
    ("tail.read_p9999_us", "us"),
    ("tail.read_p9999_beyond", "count"),
    ("tail.write_p9999_us", "us"),
    ("tail.write_p9999_beyond", "count"),
];

/// What the traced run measured, for [`push_layer_metrics`].
#[derive(Default)]
pub struct LayerInput {
    /// Counter deltas over the traced timed phase.
    pub delta: Counters,
    /// Reads and writes (deletes included) the traced phase finished.
    pub reads: u64,
    /// See `reads`.
    pub writes: u64,
    /// Bytes of object data the traced phase wrote.
    pub user_bytes: u64,
    /// Flight-recorder traces of the traced phase.
    pub traces: Vec<OpTrace>,
    /// Checkpoint apply spans of the traced phase.
    pub applies: Vec<StoreSpan>,
    /// The benchmark's own spans of the traced phase.
    pub spans: Vec<Span>,
    /// Time outside store calls per op, ns.
    pub gen_ns_per_op: f64,
    /// Throughput windows of the untraced phase.
    pub windows: Vec<u64>,
    /// Untraced and traced throughput, ops/s.
    pub untraced_ops_s: f64,
    /// See `untraced_ops_s`.
    pub traced_ops_s: f64,
    /// Sorted read and write latencies of the untraced phase, ns.
    pub untraced_reads: Vec<u64>,
    /// See `untraced_reads`.
    pub untraced_writes: Vec<u64>,
    /// Footprint at the end of the traced phase.
    pub footprint: Footprint,
    /// Recovery of the post-run cycles: (metadata ns, replay ns, records).
    pub recoveries: Vec<(u64, u64, u64)>,
    /// Torn commits and serial replay fallbacks counted by recoveries.
    pub recovery_torn: f64,
    /// See `recovery_torn`.
    pub recovery_serial_fallbacks: f64,
    /// Server residency histogram delta (server workload).
    pub residency: Option<HistogramSnapshot>,
    /// Client p50 over all ops of the traced phase, ns.
    pub client_p50_ns: u64,
    /// Ops per shard over the traced phase (server workload).
    pub shard_ops: Vec<f64>,
}

/// Mean duration (ns) of the benchmark's spans named `name`.
fn span_mean_ns(spans: &[Span], layer: &str, name: &str) -> f64 {
    let (n, sum) = spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .fold((0u64, 0u64), |(n, sum), s| (n + 1, sum + (s.end - s.start)));
    ratio(sum as f64, n as f64)
}

/// Mean time (µs) of segment `seg` over the sampled traces of `ops`.
fn seg_mean_us(traces: &[OpTrace], ops: &[&str], seg: usize) -> f64 {
    let picked: Vec<OpTrace> = traces
        .iter()
        .filter(|t| t.sampled && (ops.is_empty() || ops.contains(&t.op)))
        .copied()
        .collect();
    // At the 100th percentile every trace is body: the body breakdown is
    // the plain per-segment mean.
    TailAttribution::from_traces(&picked, 100.0)
        .body
        .mean_seg_ns(seg) as f64
        / 1e3
}

/// Appends every [`LAYER_METRICS`] entry, in order.
pub fn push_layer_metrics(r: &mut Report, m: &LayerInput) {
    let d = &m.delta;
    let ops = (m.reads + m.writes) as f64;
    let writes = m.writes as f64;
    let user = m.user_bytes as f64;
    const WRITE_OPS: &[&str] = &["put", "delete"];
    const READ_OPS: &[&str] = &["get"];
    // Every retained trace: sampled ops carry segment detail, SLO
    // outliers retained unsampled do not, so their time is unexplained.
    let all = TailAttribution::from_traces(&m.traces, 100.0).body;

    r.push(
        "harness.gen_ns_per_op",
        m.gen_ns_per_op,
        "ns",
        "time outside store calls",
    );
    r.push(
        "protocol.submit_ns",
        span_mean_ns(&m.spans, "protocol", "submit"),
        "ns",
        "",
    );
    r.push(
        "protocol.flush_us",
        span_mean_ns(&m.spans, "protocol", "flush") / 1e3,
        "us",
        "",
    );
    r.push(
        "protocol.wait_us",
        span_mean_ns(&m.spans, "protocol", "wait") / 1e3,
        "us",
        "",
    );
    let (res50, res99, n) = m.residency.as_ref().map_or((0.0, 0.0, 0), |h| {
        (
            h.percentile(50.0) as f64,
            h.percentile(99.0) as f64,
            h.count,
        )
    });
    r.push(
        "server.residency_p50_us",
        res50 / 1e3,
        "us",
        format!("n={n}"),
    );
    r.push(
        "server.residency_p99_us",
        res99 / 1e3,
        "us",
        format!("n={n}"),
    );
    let outside = if m.residency.is_some() {
        (m.client_p50_ns as f64 - res50) / 1e3
    } else {
        0.0
    };
    r.push(
        "server.outside_us",
        outside,
        "us",
        "client p50 - residency p50",
    );
    r.push(
        "server.net_queue_us",
        seg_mean_us(&m.traces, &[], SEG_NET_QUEUE),
        "us",
        "",
    );
    r.push(
        "server.busy_frac",
        ratio(d.get("dstore_server_busy_total"), ops),
        "frac",
        "",
    );
    let shard_mean = ratio(m.shard_ops.iter().sum(), m.shard_ops.len() as f64);
    let shard_max = m.shard_ops.iter().copied().fold(0.0, f64::max);
    r.push(
        "shard.max_over_mean_ops",
        ratio(shard_max, shard_mean),
        "ratio",
        format!("shards={}", m.shard_ops.len()),
    );

    r.push(
        "core.ww_conflicts_per_kop",
        ratio(d.get("dstore_ww_conflicts_total") * 1e3, ops),
        "1/kop",
        "",
    );
    r.push(
        "core.rw_backoffs_per_kop",
        ratio(d.get("dstore_rw_backoffs_total") * 1e3, ops),
        "1/kop",
        "",
    );
    r.push(
        "core.log_full_stalls",
        d.get("dstore_log_full_stalls_total"),
        "count",
        "",
    );
    r.push(
        "core.cc_wait_us",
        seg_mean_us(&m.traces, &[], SEG_CC_WAIT),
        "us",
        "",
    );
    r.push(
        "core.unattributed_frac",
        ratio(all.unattributed_ns as f64, all.total_ns as f64),
        "frac",
        format!("retained traces={} (sampled {})", all.ops, all.sampled_ops),
    );

    r.push(
        "index.restarts_per_mop",
        ratio(d.get("dstore_index_restarts_total") * 1e6, ops),
        "1/Mop",
        "",
    );
    r.push(
        "index.latch_waits_per_mop",
        ratio(d.get("dstore_index_latch_waits_total") * 1e6, ops),
        "1/Mop",
        "",
    );
    r.push(
        "index.index_us",
        seg_mean_us(&m.traces, &[], SEG_INDEX),
        "us",
        "",
    );
    r.push(
        "index.lookup_us",
        seg_mean_us(&m.traces, READ_OPS, SEG_LOOKUP),
        "us",
        "",
    );

    r.push(
        "arena.alloc_us",
        seg_mean_us(&m.traces, WRITE_OPS, SEG_ALLOC),
        "us",
        "",
    );
    r.push(
        "arena.alloc_stalls_per_kop",
        ratio(d.get("dstore_arena_alloc_stalls_total") * 1e3, ops),
        "1/kop",
        "",
    );
    r.push(
        "arena.alloc_stall_ns_per_op",
        ratio(d.get("dstore_arena_alloc_stall_ns_total"), ops),
        "ns",
        "",
    );

    r.push(
        "dipper.log_append_us",
        seg_mean_us(&m.traces, WRITE_OPS, SEG_LOG_APPEND),
        "us",
        "",
    );
    r.push(
        "dipper.log_flush_us",
        seg_mean_us(&m.traces, WRITE_OPS, SEG_LOG_FLUSH),
        "us",
        "",
    );
    r.push(
        "dipper.commit_us",
        seg_mean_us(&m.traces, WRITE_OPS, SEG_COMMIT),
        "us",
        "",
    );
    r.push(
        "dipper.log_stall_us",
        seg_mean_us(&m.traces, WRITE_OPS, SEG_LOG_STALL),
        "us",
        "",
    );
    r.push(
        "dipper.commits_per_batch",
        ratio(
            d.get("dstore_log_commits_combined_total"),
            d.get("dstore_log_commit_batches_total"),
        ),
        "ratio",
        "",
    );
    r.push(
        "dipper.torn_commits",
        d.get("dstore_log_torn_commits_total") + m.recovery_torn,
        "count",
        "must be 0",
    );
    r.push(
        "dipper.checkpoints",
        d.get("dstore_checkpoints_completed_total"),
        "count",
        "",
    );
    let apply_ms: Vec<f64> = m
        .applies
        .iter()
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    r.push(
        "dipper.ckpt_apply_ms",
        ratio(apply_ms.iter().sum(), apply_ms.len() as f64),
        "ms",
        format!("mean of {} applies", apply_ms.len()),
    );
    let windows: Vec<f64> = m.windows.iter().map(|&w| w as f64).collect();
    let worst = windows.iter().copied().fold(f64::INFINITY, f64::min);
    r.push(
        "dipper.worst_window_ratio",
        ratio(
            if windows.is_empty() { 0.0 } else { worst },
            median(&windows),
        ),
        "ratio",
        format!("{} windows of 250 ms, untraced", windows.len()),
    );
    let (meta_ns, replay_ns, records) = m
        .recoveries
        .iter()
        .fold((0u64, 0u64, 0u64), |a, r| (a.0 + r.0, a.1 + r.1, a.2 + r.2));
    let cycles = m.recoveries.len().max(1) as f64;
    r.push(
        "dipper.replay_records_per_s",
        ratio(records as f64 * 1e9, replay_ns as f64),
        "1/s",
        "",
    );
    r.push(
        "dipper.replay_serial_fallbacks",
        d.get("dstore_replay_serial_fallbacks_total") + m.recovery_serial_fallbacks,
        "count",
        "",
    );
    r.push(
        "dipper.recovery_metadata_ms",
        meta_ns as f64 / 1e6 / cycles,
        "ms",
        format!("mean of {cycles} recoveries"),
    );
    r.push(
        "dipper.recovery_replay_ms",
        replay_ns as f64 / 1e6 / cycles,
        "ms",
        "",
    );
    r.push(
        "dipper.recovery_replayed_records",
        records as f64 / cycles,
        "count",
        "per recovery",
    );

    r.push(
        "pmem.flushes_per_write",
        ratio(d.get("dstore_pmem_flushes_total"), writes),
        "1/op",
        "",
    );
    r.push(
        "pmem.fences_per_write",
        ratio(d.get("dstore_pmem_fences_total"), writes),
        "1/op",
        "",
    );
    r.push(
        "pmem.flush_bytes_per_write",
        ratio(d.get("dstore_pmem_flush_bytes_total"), writes),
        "B/op",
        "",
    );
    r.push(
        "pmem.elided_lines_per_write",
        ratio(d.get("dstore_pmem_elided_lines_total"), writes),
        "1/op",
        "",
    );
    r.push(
        "pmem.dedup_lines_per_write",
        ratio(d.get("dstore_pmem_dedup_lines_total"), writes),
        "1/op",
        "",
    );
    r.push(
        "pmem.bulk_write_bytes_per_user_byte",
        ratio(d.get("dstore_pmem_bulk_write_bytes_total"), user),
        "ratio",
        "",
    );

    r.push(
        "ssd.write_ops_per_write",
        ratio(d.get("ssd_write_ops"), writes),
        "1/op",
        "",
    );
    r.push(
        "ssd.write_bytes_per_user_byte",
        ratio(d.get("dstore_ssd_write_bytes_total"), user),
        "ratio",
        "",
    );
    r.push(
        "ssd.read_ops_per_read",
        ratio(d.get("ssd_read_ops"), m.reads as f64),
        "1/op",
        "",
    );
    r.push(
        "ssd.write_us",
        seg_mean_us(&m.traces, WRITE_OPS, SEG_SSD_WRITE),
        "us",
        "",
    );
    r.push(
        "ssd.read_us",
        seg_mean_us(&m.traces, READ_OPS, SEG_SSD_READ),
        "us",
        "",
    );

    let f = &m.footprint;
    let logical = f.logical_bytes as f64;
    r.push(
        "footprint.dram_per_user_byte",
        ratio(f.dram_bytes as f64, logical),
        "ratio",
        "",
    );
    r.push(
        "footprint.pmem_per_user_byte",
        ratio(f.pmem_bytes as f64, logical),
        "ratio",
        "",
    );
    r.push(
        "footprint.ssd_per_user_byte",
        ratio(f.ssd_bytes as f64, logical),
        "ratio",
        "",
    );

    r.push(
        "telemetry.trace_overhead_frac",
        ratio(m.untraced_ops_s, m.traced_ops_s) - 1.0,
        "frac",
        format!(
            "untraced {:.1} / traced {:.1} ops/s",
            m.untraced_ops_s, m.traced_ops_s
        ),
    );

    for (name, beyond_name, lat) in [
        (
            "tail.read_p9999_us",
            "tail.read_p9999_beyond",
            &m.untraced_reads,
        ),
        (
            "tail.write_p9999_us",
            "tail.write_p9999_beyond",
            &m.untraced_writes,
        ),
    ] {
        let pct = r.push_pct(name, lat, 99.99).unwrap_or_else(|p| p);
        r.push(
            beyond_name,
            pct.beyond as f64,
            "count",
            "samples beyond p99.99 (untraced)",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_layer_metric_is_pushed_once_in_order() {
        let mut r = Report::default();
        push_layer_metrics(&mut r, &LayerInput::default());
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = LAYER_METRICS.iter().map(|m| m.0).collect();
        assert_eq!(names, want);
        for (m, (_, unit)) in r.metrics.iter().zip(LAYER_METRICS) {
            assert_eq!(m.unit, *unit, "{}", m.name);
        }
    }
}
