//! The `mis_serve` binary's command line: bad flags exit with status 2
//! and a message naming the flag, never a panic; a small valid run
//! serves to completion.

use std::process::{Command, Output};

fn mis_serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mis_serve"))
        .args(args)
        .output()
        .expect("mis_serve runs")
}

fn assert_rejected(args: &[&str], flag: &str) {
    let out = mis_serve(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(flag), "{args:?} names {flag}: {stderr}");
}

#[test]
fn too_few_nodes_are_rejected() {
    // ER(N, 8/N) needs N ≥ 8 for its edge probability to be ≤ 1.
    assert_rejected(&["--nodes", "4"], "--nodes");
}

#[test]
fn zero_shards_are_rejected() {
    assert_rejected(&["--shards", "0"], "--shards");
}

#[test]
fn the_threads_flag_is_gone() {
    assert_rejected(&["--threads", "2"], "--threads");
}

#[test]
fn a_small_run_serves_to_completion() {
    let out = mis_serve(&["--nodes", "64", "--changes", "64", "--readers", "1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("epochs monotone"), "{stdout}");
}
