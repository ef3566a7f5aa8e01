//! The printed result: end-to-end metrics from an untraced run,
//! per-layer metrics from a traced one, and the stamp line before the
//! result — host facts, sample counts, load-generator lateness and the
//! exact work counts.

use crate::run::{Config, Outcome, Twin, PROBES};
use crate::sys;
use crate::trace::Sum;

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

pub struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    stamp: Vec<(&'static str, String)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Prints the stamp line, then the result line: the last line of
    /// standard output.
    pub fn print(&self) {
        let stamp: Vec<String> = self
            .stamp
            .iter()
            .map(|(key, value)| format!("\"{key}\": {value}"))
            .collect();
        println!("{{\"stamp\": {{{}}}}}", stamp.join(", "));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(cfg: &Config, o: &Outcome) -> Report {
    let metrics = vec![
        ("setup_s", median(&o.setup_s), "s"),
        ("changes_per_s", closed_rate(cfg, o), "changes/s"),
        ("visible_p50_us", windowed(&o.open.visible_ns, 50), "us"),
        ("recover_s", median(&o.recover_s), "s"),
        (
            "peak_rss_bytes_per_node",
            ratio(o.peak_rss_bytes, cfg.spec.nodes as u64),
            "B/node",
        ),
    ];
    Report {
        metrics,
        attempted: o.attempted,
        failed: o.failed,
        stamp: stamp(cfg, o, false),
    }
}

/// The per-layer metrics of the traced run `t`, beside the untraced run
/// `u` of the same workload and seed. The traced counts must equal the
/// untraced ones exactly; that comparison is one more check.
pub fn per_layer(cfg: &Config, u: &Outcome, t: &Outcome) -> Report {
    let w = &t.writer_log;
    let r = &t.reader_log;
    let c = &t.counts;
    let twin = t.twin.unwrap_or(Twin {
        engine_apply_ns: 0,
        graph_apply_ns: 0,
    });
    let apply = w.sum("engine.apply_batch");
    let nodes = cfg.spec.nodes as u64;
    let (untraced_rate, traced_rate) = (closed_rate(cfg, u), closed_rate(cfg, t));
    let metrics = vec![
        ("ingest.push_self_ns", self_mean(w.sum("ingest.push")), "ns"),
        (
            "ingest.flush_self_ns",
            self_mean(w.sum("ingest.flush")),
            "ns",
        ),
        (
            "ingest.coalesce_frac",
            ratio(c.coalesced, c.pushes),
            "ratio",
        ),
        ("ingest.window_pushes", ratio(c.pushes, c.flushes), "count"),
        ("wal.persist_ns", mean(w.sum("wal.persist")), "ns"),
        (
            "wal.bytes_per_change",
            ratio(t.wal_bytes, c.pushes),
            "B/change",
        ),
        (
            "checkpoint.capture_ns",
            mean(w.sum("checkpoint.capture")),
            "ns",
        ),
        ("checkpoint.save_ns", mean(w.sum("checkpoint.save")), "ns"),
        (
            "checkpoint.bytes_per_node",
            ratio(t.checkpoint_bytes, nodes),
            "B/node",
        ),
        ("recover.load_s", seconds(w.sum("recover.load")), "s"),
        ("recover.restore_s", seconds(w.sum("recover.restore")), "s"),
        (
            "recover.wal_open_s",
            seconds(w.sum("recover.wal_open")),
            "s",
        ),
        ("recover.replay_s", seconds(w.sum("recover.replay")), "s"),
        ("recover.replayed_records", t.replayed as f64, "count"),
        ("engine.build_s", seconds(w.sum("engine.build")), "s"),
        // Theorem 1's quantity: exact for a seed, but it swings several-fold
        // between seeds on a 128-pair pool, so it is no end-to-end metric.
        (
            "engine.adjustments_per_change",
            ratio(c.adjustments, c.pushes),
            "count",
        ),
        (
            "engine.apply_ns_per_change",
            ratio(apply.self_ns, c.pushes),
            "ns",
        ),
        ("engine.pops_per_change", ratio(c.pops, c.pushes), "count"),
        (
            "engine.counter_updates_per_change",
            ratio(c.counter_updates, c.pushes),
            "count",
        ),
        (
            "sharding.handoffs_per_change",
            ratio(c.handoffs, c.pushes),
            "count",
        ),
        (
            "sharding.epochs_per_flush",
            ratio(c.epochs, c.flushes),
            "count",
        ),
        // The live apply_batch, reader attached, less the twin's without.
        (
            "snapshot.publish_ns",
            (apply.total_ns as f64 - twin.engine_apply_ns as f64) / c.flushes.max(1) as f64,
            "ns",
        ),
        ("reader.acquire_ns", mean(r.sum("reader.acquire")), "ns"),
        (
            "reader.probe_ns",
            mean(r.sum("reader.probe")) / PROBES as f64,
            "ns",
        ),
        (
            "reader.staleness_epochs_mean",
            ratio(u.reads.staleness_sum, u.reads.service_ns.len() as u64),
            "count",
        ),
        (
            "reader.staleness_epochs_max",
            u.reads.staleness_max as f64,
            "count",
        ),
        (
            "graph.apply_ns_per_change",
            ratio(twin.graph_apply_ns, c.pushes),
            "ns",
        ),
        (
            "loadgen.writer_late_p99_us",
            micros(percentile(&sorted(&u.open.writer_late_ns), 99)),
            "us",
        ),
        (
            "loadgen.reader_late_p99_us",
            micros(percentile(&sorted(&u.reads.late_ns), 99)),
            "us",
        ),
        ("loadgen.warmup_s", u.warmup_s, "s"),
        ("trace.changes_per_s", traced_rate, "changes/s"),
        (
            "trace.overhead_frac",
            1.0 - traced_rate / untraced_rate,
            "ratio",
        ),
    ];
    let same_counts = u.counts == t.counts
        && u.wal_records == t.wal_records
        && u.wal_bytes == t.wal_bytes
        && u.replayed == t.replayed;
    Report {
        metrics,
        attempted: u.attempted + t.attempted + 1,
        failed: u.failed + t.failed + u64::from(!same_counts),
        stamp: stamp(cfg, u, true),
    }
}

fn stamp(cfg: &Config, o: &Outcome, traced: bool) -> Vec<(&'static str, String)> {
    let c = &o.counts;
    let counts = format!(
        "{{\"pushes\": {}, \"flushes\": {}, \"wal_records\": {}, \"coalesced\": {}, \
         \"applied\": {}, \"adjustments\": {}, \"pops\": {}, \"counter_updates\": {}, \
         \"handoffs\": {}, \"epochs\": {}, \"checkpoints\": {}}}",
        c.pushes,
        c.flushes,
        o.wal_records,
        c.coalesced,
        c.applied,
        c.adjustments,
        c.pops,
        c.counter_updates,
        c.handoffs,
        c.epochs,
        c.checkpoints
    );
    vec![
        ("workload", text(cfg.spec.name)),
        ("seed", cfg.seed.to_string()),
        ("seconds", number(cfg.seconds)),
        ("size", text(cfg.size.name())),
        ("trace", u8::from(traced).to_string()),
        ("nproc", sys::nproc().to_string()),
        // Measured while the writer (the main thread) and the reader ran.
        ("threads", o.threads.to_string()),
        ("profile", text(sys::profile())),
        ("store", text(&o.store)),
        ("store_fs", text(&o.store_fs)),
        (
            "writer_late_p99_us",
            number(micros(percentile(&sorted(&o.open.writer_late_ns), 99))),
        ),
        (
            "reader_late_p99_us",
            number(micros(percentile(&sorted(&o.reads.late_ns), 99))),
        ),
        // Printed, not gated: from run to run these spread beyond, or
        // close to, the largest bound the benchmark may set (README.md).
        (
            "visible_p99_us",
            number(micros(percentile(&sorted(&o.open.visible_ns), 99))),
        ),
        (
            "flush_lag_p50_us",
            number(windowed(&o.open.flush_lag_ns, 50)),
        ),
        ("read_p50_us", number(windowed(&o.reads.service_ns, 50))),
        ("read_p99_us", number(windowed(&o.reads.service_ns, 99))),
        ("visible_samples", o.open.visible_ns.len().to_string()),
        ("flush_lag_samples", o.open.flush_lag_ns.len().to_string()),
        ("read_samples", o.reads.service_ns.len().to_string()),
        ("setups", o.setup_s.len().to_string()),
        ("recoveries", o.recover_s.len().to_string()),
        ("failed_frac", number(ratio(o.failed, o.attempted))),
        ("counts", counts),
    ]
}

fn closed_rate(cfg: &Config, o: &Outcome) -> f64 {
    cfg.plan().closed as f64 / o.closed_s
}

fn self_mean(s: Sum) -> f64 {
    ratio(s.self_ns, s.count)
}

fn mean(s: Sum) -> f64 {
    ratio(s.total_ns, s.count)
}

fn seconds(s: Sum) -> f64 {
    mean(s) / 1e9
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn micros(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn sorted(values: &[u64]) -> Vec<u64> {
    let mut v = values.to_vec();
    v.sort_unstable();
    v
}

/// Time-ordered samples are cut into this many consecutive windows, and a
/// latency percentile is the median of the windows' percentiles: on the
/// shared two-core host a single descheduling burst moved a whole-run
/// p99 by up to 30×, while it moves one window's.
const WINDOWS: usize = 8;

/// The `p`-th percentile of `samples` (in time order, nanoseconds), in
/// microseconds, as the median over [`WINDOWS`] consecutive windows.
fn windowed(samples: &[u64], p: usize) -> f64 {
    let per_window: Vec<f64> = samples
        .chunks(samples.len().div_ceil(WINDOWS).max(1))
        .map(|window| micros(percentile(&sorted(window), p)))
        .collect();
    median(&per_window)
}

/// Nearest-rank percentile of an ascending slice; 0 when empty.
fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        0
    } else {
        sorted[(sorted.len() - 1) * p / 100]
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// JSON has no NaN or infinity; a ratio over an empty count reads 0.
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn text(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}
