//! Flush policies and injectable clocks for the change-ingestion queue.
//!
//! PR 5's [`crate::IngestSession`] had exactly one knob: a depth
//! watermark counting pushes per window. That is the right control on
//! cancel-heavy streams — deep windows amortize settle passes and cancel
//! churn — but it has no notion of *time*: a trickle stream (one change
//! per tick, never coalescing) starves behind a deep watermark, waiting
//! `W − 1` arrivals before anything becomes visible. This module turns
//! the flush decision into a value, [`FlushPolicy`]:
//!
//! - [`FlushPolicy::Manual`] — never auto-flush (the old
//!   `IngestSession::new` behavior);
//! - [`FlushPolicy::Depth`] — flush after `n` pushes (the depth
//!   watermark);
//! - [`FlushPolicy::Deadline`] — flush as soon as the **oldest** queued
//!   change has waited the budget, regardless of depth;
//! - [`FlushPolicy::Either`] — depth *or* deadline, whichever trips
//!   first (the deployment-shaped combination: bounded work per window
//!   *and* bounded worst-case visibility delay);
//! - [`FlushPolicy::Adaptive`] — a depth watermark steered by an
//!   exponential smoother over the observed per-flush coalesce fraction
//!   and settle cost, deepening on cancel-heavy streams and shallowing
//!   when changes don't coalesce, clamped to `[min_depth, max_depth]`.
//!
//! # Time is injected, so every policy is deterministic under test
//!
//! All timing flows through the [`Clock`] trait: sessions stamp arrivals
//! with `clock.now()` and measure settle cost as a difference of two
//! `now()` reads. The default [`MonotonicClock`] reads a monotonic
//! wall clock; the [`ManualClock`] only moves when a test calls
//! [`ManualClock::advance`]. Under a manual clock the entire policy
//! surface — deadline boundaries, queue-delay percentiles, and the
//! adaptive smoother's cost observations — is a pure function of the
//! pushed stream and the test's explicit ticks, which is what lets the
//! property suite (`crates/core/tests/flush_policy.rs`) pin exact flush
//! boundaries and bit-identical receipts.
//!
//! # The adaptive recurrence
//!
//! After every flush of a window with `p` pushes, `s` surviving changes,
//! and settle duration `t`, the policy observes the coalesce fraction
//! `φ = (p − s)/p` and the unit cost `c = t/max(s, 1)`, and updates two
//! exponential smoothers (`α` = [`AdaptiveConfig::alpha`](field@AdaptiveConfig::alpha)):
//!
//! ```text
//! f̂ ← f̂ + α·(φ − f̂)          ĉ ← ĉ + α·(c − ĉ)
//! depth ← clamp(min + round(f̂ · (max − min)), min, max)
//! ```
//!
//! A smoothed coalesce fraction near 1 means windows are mostly churn
//! the queue can cancel, so deeper windows are nearly free; a fraction
//! near 0 means every queued change survives to settle, so depth only
//! buys latency. When one flush's unit cost spikes past
//! [`AdaptiveConfig::brake_ratio`] times the smoothed ĉ, the next
//! window is halved toward `min_depth` — a brake against a stream that
//! suddenly turns expensive mid-window. Under a [`ManualClock`] that a
//! test never advances across a flush, every observed cost is zero, ĉ
//! stays 0, and the brake never fires — adaptivity degenerates to the
//! pure coalesce-fraction recurrence, fully determined by the stream.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic time source for ingest sessions. `now()` returns the
/// elapsed time since an arbitrary (per-clock) origin; only differences
/// are ever meaningful. Implementations must be monotone: `now()` never
/// decreases.
pub trait Clock: fmt::Debug + Send + Sync {
    /// Time elapsed since this clock's origin.
    fn now(&self) -> Duration;
}

/// The default [`Clock`]: monotonic wall time from [`Instant`],
/// originating at construction.
#[derive(Debug, Clone)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is now.
    #[must_use]
    pub fn new() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }
}

/// A manually-ticked [`Clock`] for deterministic tests: time stands
/// still until [`ManualClock::advance`] (or [`ManualClock::set`]) moves
/// it. Clones share the same underlying counter, so a test can hold one
/// handle while the session holds another.
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    nanos: Arc<AtomicU64>,
}

impl ManualClock {
    /// A clock at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `by`. Saturates at `u64::MAX` nanoseconds.
    pub fn advance(&self, by: Duration) {
        let by = u64::try_from(by.as_nanos()).unwrap_or(u64::MAX);
        let _ = self
            .nanos
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |t| {
                Some(t.saturating_add(by))
            });
    }

    /// Sets the clock to an absolute time since its origin.
    ///
    /// # Panics
    ///
    /// Panics if `to` moves the clock backwards (clocks are monotone).
    pub fn set(&self, to: Duration) {
        let to = u64::try_from(to.as_nanos()).unwrap_or(u64::MAX);
        let prev = self.nanos.swap(to, Ordering::SeqCst);
        assert!(prev <= to, "ManualClock::set moved time backwards");
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::SeqCst))
    }
}

/// Configuration of [`FlushPolicy::Adaptive`]; see the module docs for
/// the recurrence. [`AdaptiveConfig::default`] is the tuning the bench
/// sweep (`BENCH_engine.json` "ingest_policy") gates: depth in
/// `[1, 64]`, `α = 0.25`, brake at 4× the smoothed unit cost, no
/// deadline backstop.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Smallest depth watermark the smoother may choose (clamped ≥ 1).
    pub min_depth: usize,
    /// Largest depth watermark the smoother may choose (clamped ≥
    /// `min_depth`).
    pub max_depth: usize,
    /// Smoothing factor `α ∈ (0, 1]` of both exponential smoothers:
    /// larger reacts faster, smaller averages longer. Clamped into
    /// `(0, 1]`.
    pub alpha: f64,
    /// Optional latency backstop: regardless of the adapted depth, flush
    /// once the oldest queued change has waited this long (exactly
    /// [`FlushPolicy::Deadline`] layered on top of the adapted depth).
    pub deadline: Option<Duration>,
    /// Settle-cost spike brake: when one flush's unit cost exceeds
    /// `brake_ratio` × the smoothed cost ĉ, the next window's depth is
    /// halved toward `min_depth`. Ratios ≤ 1 are clamped to 1.
    pub brake_ratio: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            min_depth: 1,
            max_depth: 64,
            alpha: 0.25,
            deadline: None,
            brake_ratio: 4.0,
        }
    }
}

impl AdaptiveConfig {
    fn min(&self) -> usize {
        self.min_depth.max(1)
    }

    fn max(&self) -> usize {
        self.max_depth.max(self.min())
    }

    fn alpha(&self) -> f64 {
        if self.alpha.is_finite() && self.alpha > 0.0 {
            self.alpha.min(1.0)
        } else {
            0.25
        }
    }

    fn brake(&self) -> f64 {
        if self.brake_ratio.is_finite() {
            self.brake_ratio.max(1.0)
        } else {
            f64::INFINITY
        }
    }

    /// The depth realizing a smoothed coalesce fraction, before the
    /// brake: `clamp(min + round(f̂·(max − min)), min, max)`.
    fn depth_for(&self, fhat: f64) -> usize {
        let span = (self.max() - self.min()) as f64;
        let raw = self.min() as f64 + (fhat.clamp(0.0, 1.0) * span).round();
        (raw as usize).clamp(self.min(), self.max())
    }
}

/// When an [`crate::IngestSession`] flushes; see the module docs for the
/// variants' semantics. Constructed directly or via the convenience
/// constructors; consumed by [`crate::IngestSession::with_policy`] and
/// [`crate::EngineBuilder::build_with_session`].
#[derive(Debug, Clone, PartialEq)]
pub enum FlushPolicy {
    /// Never auto-flush: changes queue until an explicit
    /// [`crate::IngestSession::flush`].
    Manual,
    /// Flush when a window has absorbed this many pushes. Counting
    /// *pushes* — not the coalesced depth — bounds both the pending
    /// buffer and the arrivals a change waits, even on cancel-heavy
    /// streams where the coalesced depth hovers near zero. Clamped ≥ 1;
    /// depth 1 degenerates to unbatched per-change application.
    Depth(usize),
    /// Flush when the oldest queued change has waited this long (per the
    /// session's [`Clock`]). Trips on the push that exceeds the budget,
    /// or on [`crate::IngestSession::poll`] between pushes; fires
    /// exactly at the boundary — a wait of precisely the budget flushes.
    Deadline(Duration),
    /// Flush on depth *or* deadline, whichever trips first.
    Either(usize, Duration),
    /// Depth steered by the exponential-smoother recurrence over
    /// observed coalesce fraction and settle cost (module docs).
    Adaptive(AdaptiveConfig),
}

impl FlushPolicy {
    /// [`FlushPolicy::Adaptive`] with the default tuning.
    #[must_use]
    pub fn adaptive() -> Self {
        FlushPolicy::Adaptive(AdaptiveConfig::default())
    }
}

/// The mutable decision state behind a session's [`FlushPolicy`]: the
/// policy plus, for [`FlushPolicy::Adaptive`], the smoother registers.
#[derive(Debug, Clone)]
pub(crate) struct FlushController {
    policy: FlushPolicy,
    /// Smoothed per-flush coalesce fraction f̂ ∈ [0, 1].
    fhat: f64,
    /// Smoothed settle cost ĉ, in nanoseconds per surviving change.
    chat: f64,
    /// Effective depth watermark for the *next* window (adaptive only).
    depth: usize,
}

impl FlushController {
    pub(crate) fn new(policy: FlushPolicy) -> Self {
        // Start the smoother agnostic: f̂ = ½ puts the first window in
        // the middle of the clamp, so the policy neither assumes a
        // cancel-heavy stream nor penalizes one.
        let fhat = 0.5;
        let depth = match &policy {
            FlushPolicy::Adaptive(cfg) => cfg.depth_for(fhat),
            _ => 0,
        };
        FlushController {
            policy,
            fhat,
            chat: 0.0,
            depth,
        }
    }

    pub(crate) fn policy(&self) -> &FlushPolicy {
        &self.policy
    }

    /// The depth watermark currently in force, if the policy has one.
    pub(crate) fn effective_depth(&self) -> Option<usize> {
        match &self.policy {
            FlushPolicy::Manual | FlushPolicy::Deadline(_) => None,
            FlushPolicy::Depth(n) | FlushPolicy::Either(n, _) => Some((*n).max(1)),
            FlushPolicy::Adaptive(_) => Some(self.depth),
        }
    }

    /// The deadline currently in force, if the policy has one.
    pub(crate) fn effective_deadline(&self) -> Option<Duration> {
        match &self.policy {
            FlushPolicy::Manual | FlushPolicy::Depth(_) => None,
            FlushPolicy::Deadline(d) | FlushPolicy::Either(_, d) => Some(*d),
            FlushPolicy::Adaptive(cfg) => cfg.deadline,
        }
    }

    /// Should the session flush now, given the window's push count and
    /// the age of its oldest queued change?
    pub(crate) fn should_flush(&self, pushed: usize, oldest_age: Option<Duration>) -> bool {
        if pushed == 0 {
            return false;
        }
        if let Some(n) = self.effective_depth() {
            if pushed >= n {
                return true;
            }
        }
        if let (Some(d), Some(age)) = (self.effective_deadline(), oldest_age) {
            if age >= d {
                return true;
            }
        }
        false
    }

    /// Feeds one flush's observation into the adaptive smoother
    /// (no-op for the fixed policies): `pushed` changes entered the
    /// window, `surviving` survived coalescing, and settling them took
    /// `settle` of session-clock time.
    pub(crate) fn observe_flush(&mut self, pushed: usize, surviving: usize, settle: Duration) {
        let FlushPolicy::Adaptive(cfg) = &self.policy else {
            return;
        };
        if pushed == 0 {
            return;
        }
        let alpha = cfg.alpha();
        let phi = (pushed - surviving.min(pushed)) as f64 / pushed as f64;
        self.fhat += alpha * (phi - self.fhat);
        let unit_cost = settle.as_nanos() as f64 / surviving.max(1) as f64;
        let spiked = self.chat > 0.0 && unit_cost > cfg.brake() * self.chat;
        self.chat += alpha * (unit_cost - self.chat);
        self.depth = cfg.depth_for(self.fhat);
        if spiked {
            self.depth = (self.depth / 2).clamp(cfg.min(), cfg.max());
        }
    }
}

/// Per-flush queue-delay accounting on an [`crate::IngestReceipt`]: how
/// long each of the window's pushes waited between arrival and flush
/// (per the session's [`Clock`] — exact ticks under a [`ManualClock`],
/// wall time under the default), plus the flush's settle duration.
///
/// Delays are stored sorted ascending, one entry per *push* (coalesced-
/// away changes waited too — their latency was paid even though their
/// settle work was not), so percentiles are exact, and the value stays
/// `Eq`: two flushes at identical boundaries under identical clocks
/// produce identical `QueueDelay`s, which the replay property in
/// `crates/core/tests/flush_policy.rs` pins.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueueDelay {
    /// Arrival→flush wait per push, sorted ascending.
    delays: Box<[Duration]>,
    /// Session-clock duration of the flush's `apply_batch`.
    settle: Duration,
}

impl QueueDelay {
    /// The accounting of a window whose pushes arrived at `arrivals` (in
    /// push order) and flushed at `flushed_at`. The waits are built
    /// newest arrival first, which a monotone [`Clock`] makes ascending;
    /// only a clock that breaks that contract pays for a sort.
    pub(crate) fn new(arrivals: &[Duration], flushed_at: Duration, settle: Duration) -> Self {
        let mut delays: Box<[Duration]> = arrivals
            .iter()
            .rev()
            .map(|&t| flushed_at.saturating_sub(t))
            .collect();
        if !delays.is_sorted() {
            delays.sort_unstable();
        }
        QueueDelay { delays, settle }
    }

    /// Number of pushes the window absorbed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.delays.len()
    }

    /// True for the empty window (a flush with no pushes).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.delays.is_empty()
    }

    /// The per-push waits, sorted ascending.
    #[must_use]
    pub fn waits(&self) -> &[Duration] {
        &self.delays
    }

    /// Session-clock duration of the flush's settle (`apply_batch`).
    #[must_use]
    pub fn settle(&self) -> Duration {
        self.settle
    }

    /// Longest wait in the window (zero for the empty window).
    #[must_use]
    pub fn max_delay(&self) -> Duration {
        self.delays.last().copied().unwrap_or_default()
    }

    /// Mean wait over the window's pushes (zero for the empty window).
    #[must_use]
    pub fn mean_delay(&self) -> Duration {
        if self.delays.is_empty() {
            return Duration::ZERO;
        }
        let total: u128 = self.delays.iter().map(Duration::as_nanos).sum();
        nanos_to_duration(total / self.delays.len() as u128)
    }

    /// Nearest-rank percentile of the waits; `p` in 0..=100.
    #[must_use]
    pub fn percentile(&self, p: usize) -> Duration {
        if self.delays.is_empty() {
            return Duration::ZERO;
        }
        self.delays[(self.delays.len() - 1) * p.min(100) / 100]
    }

    /// Median wait.
    #[must_use]
    pub fn p50(&self) -> Duration {
        self.percentile(50)
    }

    /// 99th-percentile wait.
    #[must_use]
    pub fn p99(&self) -> Duration {
        self.percentile(99)
    }
}

fn nanos_to_duration(nanos: u128) -> Duration {
    Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_only_moves_when_advanced() {
        let clock = ManualClock::new();
        let twin = clock.clone();
        assert_eq!(clock.now(), Duration::ZERO);
        twin.advance(Duration::from_nanos(7));
        assert_eq!(clock.now(), Duration::from_nanos(7), "clones share time");
        clock.set(Duration::from_nanos(10));
        assert_eq!(twin.now(), Duration::from_nanos(10));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn manual_clock_rejects_time_travel() {
        let clock = ManualClock::new();
        clock.advance(Duration::from_secs(1));
        clock.set(Duration::from_nanos(1));
    }

    #[test]
    fn monotonic_clock_is_monotone() {
        let clock = MonotonicClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn depth_policy_trips_at_the_watermark() {
        let c = FlushController::new(FlushPolicy::Depth(3));
        assert!(!c.should_flush(2, None));
        assert!(c.should_flush(3, None));
        assert_eq!(c.effective_depth(), Some(3));
        assert_eq!(c.effective_deadline(), None);
    }

    #[test]
    fn deadline_policy_fires_exactly_at_the_boundary() {
        let d = Duration::from_nanos(100);
        let c = FlushController::new(FlushPolicy::Deadline(d));
        assert!(!c.should_flush(1, Some(Duration::from_nanos(99))));
        assert!(c.should_flush(1, Some(d)), "boundary inclusive");
        assert!(!c.should_flush(0, Some(d)), "empty window never flushes");
        assert_eq!(c.effective_depth(), None);
    }

    #[test]
    fn either_policy_trips_on_whichever_first() {
        let d = Duration::from_nanos(50);
        let c = FlushController::new(FlushPolicy::Either(4, d));
        assert!(c.should_flush(4, Some(Duration::ZERO)), "depth leg");
        assert!(c.should_flush(1, Some(d)), "deadline leg");
        assert!(!c.should_flush(3, Some(Duration::from_nanos(49))));
    }

    #[test]
    fn adaptive_deepens_on_coalescing_and_shallows_without_it() {
        let cfg = AdaptiveConfig::default();
        let mut c = FlushController::new(FlushPolicy::Adaptive(cfg.clone()));
        let mid = cfg.depth_for(0.5);
        assert_eq!(c.effective_depth(), Some(mid));
        // Fully-coalescing flushes drive depth to the max…
        for _ in 0..64 {
            let d = c.effective_depth().unwrap();
            c.observe_flush(d.max(2), 0, Duration::ZERO);
        }
        assert_eq!(c.effective_depth(), Some(cfg.max()));
        // …and non-coalescing flushes drive it back to the min.
        for _ in 0..64 {
            let d = c.effective_depth().unwrap();
            c.observe_flush(d, d, Duration::ZERO);
        }
        assert_eq!(c.effective_depth(), Some(cfg.min()));
    }

    #[test]
    fn adaptive_depth_always_stays_in_the_clamp() {
        let cfg = AdaptiveConfig {
            min_depth: 4,
            max_depth: 16,
            ..AdaptiveConfig::default()
        };
        let mut c = FlushController::new(FlushPolicy::Adaptive(cfg.clone()));
        let mut x = 9u64;
        for i in 0..200 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pushed = 1 + (x % 40) as usize;
            let surviving = (x >> 8) as usize % (pushed + 1);
            let settle = Duration::from_nanos(x % 10_000);
            c.observe_flush(pushed, surviving, settle);
            let d = c.effective_depth().unwrap();
            assert!((4..=16).contains(&d), "flush {i}: depth {d} escaped clamp");
        }
    }

    #[test]
    fn adaptive_cost_spike_halves_the_window() {
        let cfg = AdaptiveConfig::default();
        let mut c = FlushController::new(FlushPolicy::Adaptive(cfg.clone()));
        // Establish a cheap, fully-coalescing steady state at max depth.
        for _ in 0..64 {
            c.observe_flush(64, 0, Duration::from_nanos(64));
        }
        assert_eq!(c.effective_depth(), Some(cfg.max()));
        // One flush 1000× over the smoothed unit cost trips the brake.
        c.observe_flush(64, 0, Duration::from_micros(64));
        assert_eq!(c.effective_depth(), Some(cfg.max() / 2));
    }

    #[test]
    fn adaptive_without_clock_advancement_never_brakes() {
        // Under a never-advanced ManualClock every settle reads zero,
        // ĉ stays 0, and the spike predicate (strictly >) cannot fire:
        // the recurrence is a pure function of the stream.
        let mut c = FlushController::new(FlushPolicy::adaptive());
        for _ in 0..100 {
            c.observe_flush(8, 0, Duration::ZERO);
        }
        assert_eq!(c.effective_depth(), Some(64));
    }

    #[test]
    fn degenerate_configs_are_clamped_sane() {
        let cfg = AdaptiveConfig {
            min_depth: 0,
            max_depth: 0,
            alpha: f64::NAN,
            brake_ratio: 0.0,
            deadline: None,
        };
        let mut c = FlushController::new(FlushPolicy::Adaptive(cfg));
        assert_eq!(c.effective_depth(), Some(1));
        c.observe_flush(10, 0, Duration::from_nanos(5));
        assert_eq!(c.effective_depth(), Some(1));
    }

    #[test]
    fn queue_delay_percentiles_are_nearest_rank() {
        // Arrivals at 1..=100 ns flushed at 101 ns wait 100..=1 ns.
        let arrivals: Vec<Duration> = (1..=100).map(Duration::from_nanos).collect();
        let qd = QueueDelay::new(
            &arrivals,
            Duration::from_nanos(101),
            Duration::from_nanos(7),
        );
        assert_eq!(qd.len(), 100);
        assert_eq!(qd.p50(), Duration::from_nanos(50));
        assert_eq!(qd.p99(), Duration::from_nanos(99));
        assert_eq!(qd.max_delay(), Duration::from_nanos(100));
        assert_eq!(qd.mean_delay(), Duration::from_nanos(50));
        assert_eq!(qd.settle(), Duration::from_nanos(7));
        let empty = QueueDelay::default();
        assert!(empty.is_empty());
        assert_eq!(empty.p99(), Duration::ZERO);
        assert_eq!(empty.mean_delay(), Duration::ZERO);
    }

    #[test]
    fn queue_delay_sorts_on_construction() {
        // Out-of-order arrivals (a clock that stepped back) wait 20, 10
        // and 30 ns, newest first.
        let qd = QueueDelay::new(
            &[
                Duration::from_nanos(10),
                Duration::from_nanos(30),
                Duration::from_nanos(20),
            ],
            Duration::from_nanos(40),
            Duration::ZERO,
        );
        assert_eq!(
            qd.waits(),
            &[
                Duration::from_nanos(10),
                Duration::from_nanos(20),
                Duration::from_nanos(30)
            ]
        );
    }
}
