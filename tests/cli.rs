//! The `mis_serve` and `churn_demo` command lines: bad flags exit with
//! status 2 and a message naming the flag, never a panic; a small valid
//! run completes, and a durable one leaves a store that recovers to its
//! final epoch.

use std::process::{Command, Output};
use std::sync::Arc;

use dynamic_mis::core::durability::{recover, RealIo, WriteAheadLog};

fn mis_serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mis_serve"))
        .args(args)
        .output()
        .expect("mis_serve runs")
}

fn churn_demo(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_churn_demo"))
        .args(args)
        .output()
        .expect("churn_demo runs")
}

fn assert_rejected(run: fn(&[&str]) -> Output, args: &[&str], flag: &str) {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(flag), "{args:?} names {flag}: {stderr}");
}

fn assert_completes(out: &Output, marker: &str) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains(marker), "{stdout}");
}

#[test]
fn too_few_nodes_are_rejected() {
    // ER(N, 8/N) needs N ≥ 8 for its edge probability to be ≤ 1.
    assert_rejected(mis_serve, &["--nodes", "4"], "--nodes");
}

#[test]
fn zero_shards_are_rejected() {
    assert_rejected(mis_serve, &["--shards", "0"], "--shards");
}

#[test]
fn the_threads_flag_is_gone() {
    assert_rejected(mis_serve, &["--threads", "2"], "--threads");
}

#[test]
fn a_small_run_serves_to_completion() {
    let out = mis_serve(&["--nodes", "64", "--changes", "64", "--readers", "1"]);
    assert_completes(&out, "epochs monotone");
}

/// The number printed right after `label` on stdout.
fn printed_after(stdout: &str, label: &str) -> u64 {
    let at = stdout
        .find(label)
        .unwrap_or_else(|| panic!("{label}: {stdout}"))
        + label.len();
    let digits: String = stdout[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|e| panic!("{label} {digits:?}: {e}"))
}

#[test]
fn a_durable_run_recovers_from_its_checkpoint_dir() {
    let dir = std::env::temp_dir().join(format!("dmis-cli-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.to_str().expect("utf-8 temp dir");
    let out = mis_serve(&[
        "--nodes",
        "64",
        "--changes",
        "400",
        "--readers",
        "1",
        "--checkpoint-dir",
        path,
        "--checkpoint-every",
        "8",
    ]);
    assert_completes(&out, "epochs monotone");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let epoch = printed_after(&stdout, "final epoch ");
    let mis_size = printed_after(&stdout, "final MIS size ");

    let io = Arc::new(RealIo::new(&dir).unwrap());
    let recovered = recover(io.clone()).unwrap();
    assert_eq!(recovered.engine.durability_meta().epoch, Some(epoch));
    assert_eq!(recovered.engine.mis().len() as u64, mis_size);
    assert_eq!(recovered.wal.records_persisted(), epoch);
    let (_, records) = WriteAheadLog::open(io).unwrap();
    assert!(
        records.len() < 8,
        "the log holds {} records, more than one checkpoint interval",
        records.len()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn churn_demo_rejects_too_few_nodes() {
    assert_rejected(churn_demo, &["--nodes", "4"], "--nodes");
}

#[test]
fn churn_demo_small_run_verifies_the_invariant() {
    let out = churn_demo(&["--nodes", "16", "--changes", "4"]);
    assert_completes(&out, "invariant verified");
}
