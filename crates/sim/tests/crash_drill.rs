//! CI entry point for the crash-restart drill: sweep seeded crash
//! points (the drill itself panics on any recovery-invariant failure).
//!
//! `DMIS_CRASH_SEED=<n>` pins one seed (the CI durability job loops it
//! over 1..=16 so each crash point is a separate, attributable run);
//! unset, the test sweeps seeds 1..=64 in-process.

use dmis_sim::crash_restart_drill;

#[test]
fn crash_restart_drill_recovers_and_resumes() {
    let seeds: Vec<u64> = match std::env::var("DMIS_CRASH_SEED") {
        Ok(s) => vec![s.parse().expect("DMIS_CRASH_SEED must be an integer")],
        Err(_) => (1..=64).collect(),
    };
    for seed in seeds {
        let report = crash_restart_drill(seed);
        assert_eq!(
            report.crashed_epoch,
            report.checkpoint_seq + report.replayed as u64,
            "seed={seed}: recovery re-derives exactly the published prefix"
        );
        assert_eq!(
            report.crashed_epoch as usize + report.resumed_flushes,
            report.stream_len,
            "seed={seed}: every change lands exactly once across the crash"
        );
        assert!(
            report.crash_budget > 0,
            "seed={seed}: the drill actually injected a fault"
        );
    }
}
