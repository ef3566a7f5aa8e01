//! The benchmark's own tests. Each workload runs at tiny size through
//! the same code path as the full benchmark: it must print every named
//! metric with its unit and fail nothing, repeat its work counts exactly
//! under the same seed, and generate other inputs under another seed.
//!
//! Run with `cargo test --release --manifest-path servebench/Cargo.toml`.

use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["flap_durable", "powerlaw_1m", "node_churn_sharded"];

const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("changes_per_s", "changes/s"),
    ("visible_p50_us", "us"),
    ("recover_s", "s"),
    ("peak_rss_bytes_per_node", "B/node"),
];

const PER_LAYER: [&str; 32] = [
    "ingest.push_self_ns",
    "ingest.flush_self_ns",
    "ingest.coalesce_frac",
    "ingest.window_pushes",
    "wal.persist_ns",
    "wal.bytes_per_change",
    "checkpoint.capture_ns",
    "checkpoint.save_ns",
    "checkpoint.bytes_per_node",
    "recover.load_s",
    "recover.restore_s",
    "recover.wal_open_s",
    "recover.replay_s",
    "recover.replayed_records",
    "engine.build_s",
    "engine.adjustments_per_change",
    "engine.apply_ns_per_change",
    "engine.pops_per_change",
    "engine.counter_updates_per_change",
    "sharding.handoffs_per_change",
    "sharding.epochs_per_flush",
    "snapshot.publish_ns",
    "reader.acquire_ns",
    "reader.probe_ns",
    "reader.staleness_epochs_mean",
    "reader.staleness_epochs_max",
    "graph.apply_ns_per_change",
    "loadgen.writer_late_p99_us",
    "loadgen.reader_late_p99_us",
    "loadgen.warmup_s",
    "trace.changes_per_s",
    "trace.overhead_frac",
];

/// Runs the benchmark from the test scratch directory, so its store and
/// span files stay out of the source tree.
fn servebench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_servebench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs")
}

fn tiny(workload: &str, seed: &str, trace: &str) -> Vec<String> {
    let out = servebench(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "1",
        "--trace",
        trace,
        "--size",
        "tiny",
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().map(str::to_owned).collect()
}

/// The value and unit of metric `name` in a result line.
fn metric(line: &str, name: &str) -> Option<(f64, String)> {
    let key = format!("\"{name}\": {{\"value\": ");
    let start = line.find(&key)? + key.len();
    let (value, rest) = line[start..].split_once(", \"unit\": \"")?;
    let unit = rest.split('"').next()?;
    Some((value.parse().ok()?, unit.to_string()))
}

/// The raw JSON scalar after `"key": ` in a line.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let pattern = format!("\"{key}\": ");
    let start = line
        .find(&pattern)
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + pattern.len();
    let rest = &line[start..];
    &rest[..rest.find([',', '}']).unwrap_or(rest.len())]
}

#[test]
fn each_workload_prints_every_end_to_end_metric_and_fails_nothing() {
    for workload in WORKLOADS {
        let lines = tiny(workload, "7", "0");
        let result = lines.last().expect("a result line");
        assert_eq!(field(result, "correct"), "true", "{workload}: {result}");
        assert_eq!(field(result, "failed"), "0", "{workload}: {result}");
        for (name, unit) in END_TO_END {
            let (value, printed) =
                metric(result, name).unwrap_or_else(|| panic!("{workload}: no {name}"));
            assert_eq!(printed, unit, "{workload}: {name}");
            assert!(value > 0.0, "{workload}: {name} = {value}");
        }
        let stamp = &lines[lines.len() - 2];
        assert_eq!(field(stamp, "failed_frac"), "0", "{workload}: {stamp}");
    }
}

#[test]
fn the_traced_run_prints_every_per_layer_metric() {
    for workload in WORKLOADS {
        let lines = tiny(workload, "7", "1");
        let result = lines.last().expect("a result line");
        // One of the traced run's checks: its counts equal the untraced run's.
        assert_eq!(field(result, "correct"), "true", "{workload}: {result}");
        for name in PER_LAYER {
            assert!(metric(result, name).is_some(), "{workload}: no {name}");
        }
    }
}

#[test]
fn the_same_seed_repeats_every_count() {
    for workload in WORKLOADS {
        let first = tiny(workload, "11", "0");
        let second = tiny(workload, "11", "0");
        let counts = |lines: &[String]| {
            let stamp = &lines[lines.len() - 2];
            stamp[stamp.find("\"counts\"").expect("a counts object")..].to_string()
        };
        // The counts hold the adjustments, coalesced changes, flushes and
        // WAL records.
        assert_eq!(counts(&first), counts(&second), "{workload}");
    }
}

#[test]
fn another_seed_generates_other_inputs() {
    for workload in WORKLOADS {
        let emit = |seed: &str| {
            let out = servebench(&[
                "--emit-inputs",
                "--workload",
                workload,
                "--seed",
                seed,
                "--seconds",
                "1",
                "--size",
                "tiny",
            ]);
            assert!(out.status.success(), "{workload}: the generator failed");
            out.stdout
        };
        let three = emit("3");
        assert_eq!(three, emit("3"), "{workload}: same seed, same inputs");
        assert_ne!(three, emit("4"), "{workload}: another seed, other inputs");
    }
}
