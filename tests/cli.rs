//! The `mis_serve` and `churn_demo` command lines: bad flags exit with
//! status 2 and a message naming the flag, never a panic; a small valid
//! run completes.

use std::process::{Command, Output};

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

#[test]
fn churn_demo_rejects_too_few_nodes() {
    assert_rejected(churn_demo, &["--nodes", "4"], "--nodes");
}

#[test]
fn churn_demo_small_run_verifies_the_invariant() {
    let out = churn_demo(&["--nodes", "16", "--changes", "4"]);
    assert_completes(&out, "invariant verified");
}
