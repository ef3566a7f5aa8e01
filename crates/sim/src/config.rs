//! Shared deployment configuration for the metered harnesses.
//!
//! [`RunConfig`] is the one description both deployment-shaped harnesses
//! boot from: graph, shard layout, flush policy (or plain depth
//! watermark), session clock, rng seed, and — for the serving side —
//! reader-thread count and probes per sample. Finish
//! with [`RunConfig::ingest`] for the queue-in-front-of-engine harness
//! ([`IngestRun`]) or [`RunConfig::serve`] for the concurrent-read
//! harness ([`ServeRun`]); both sweep the *same* axes, so an experiment
//! varying one knob holds every other fixed by construction.

use std::sync::Arc;

use dmis_core::{Clock, Engine, FlushPolicy, IngestSession, MonotonicClock};
use dmis_graph::{DynGraph, ShardLayout};

use crate::ingest::IngestRun;
use crate::serve::ServeRun;

/// Builder for the ingestion and serving harnesses: one axis set, two
/// deployments.
///
/// # Example
///
/// ```
/// use dmis_core::FlushPolicy;
/// use dmis_graph::{generators, ShardLayout, TopologyChange};
/// use dmis_sim::RunConfig;
///
/// let (g, ids) = generators::cycle(10);
/// let mut run = RunConfig::new(g)
///     .layout(ShardLayout::striped(4))
///     .policy(FlushPolicy::Depth(2))
///     .seed(3)
///     .ingest();
/// assert!(run.push(&TopologyChange::DeleteEdge(ids[0], ids[1]))?.is_none());
/// assert!(run.push(&TopologyChange::DeleteEdge(ids[5], ids[6]))?.is_some());
/// # Ok::<(), dmis_graph::GraphError>(())
/// ```
#[derive(Debug)]
pub struct RunConfig {
    graph: DynGraph,
    layout: ShardLayout,
    policy: FlushPolicy,
    clock: Option<Arc<dyn Clock>>,
    seed: u64,
    readers: usize,
    probes: usize,
}

impl RunConfig {
    /// Starts a configuration over `graph` with the neutral axes: a
    /// single shard, per-change flushing
    /// ([`FlushPolicy::Depth`]`(1)`), the monotonic wall clock, seed 0,
    /// one reader making 8 probes per sample.
    #[must_use]
    pub fn new(graph: DynGraph) -> Self {
        RunConfig {
            graph,
            layout: ShardLayout::single(),
            policy: FlushPolicy::Depth(1),
            clock: None,
            seed: 0,
            readers: 1,
            probes: 8,
        }
    }

    /// Shard layout of the engine (settled in barrier-synchronized
    /// epochs; see [`dmis_core::sharding`]).
    #[must_use]
    pub fn layout(mut self, layout: ShardLayout) -> Self {
        self.layout = layout;
        self
    }

    /// When the ingestion queue auto-flushes (see
    /// [`dmis_core::FlushPolicy`]).
    #[must_use]
    pub fn policy(mut self, policy: FlushPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Injects the session clock every arrival stamp, deadline check,
    /// and settle-cost observation reads — a [`dmis_core::ManualClock`]
    /// makes deadline and adaptive policies deterministic.
    #[must_use]
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Seed of the engine's random priority order π.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Concurrent reader threads of the serving harness.
    #[must_use]
    pub fn readers(mut self, readers: usize) -> Self {
        self.readers = readers;
        self
    }

    /// Membership probes per reader sample in the serving harness.
    #[must_use]
    pub fn probes(mut self, probes: usize) -> Self {
        self.probes = probes;
        self
    }

    /// Boots the ingestion harness: the configured engine behind a
    /// policy-flushed coalescing queue.
    #[must_use]
    pub fn ingest(self) -> IngestRun {
        let engine = Engine::builder()
            .graph(self.graph)
            .seed(self.seed)
            .sharding(self.layout)
            .build();
        let clock = self
            .clock
            .unwrap_or_else(|| Arc::new(MonotonicClock::new()));
        IngestRun::from_session(IngestSession::with_policy_and_clock(
            engine,
            self.policy,
            clock,
        ))
    }

    /// Boots the serving harness: the configured engine with its
    /// snapshot channel attached, a policy-flushed writer, and the
    /// configured reader axes.
    #[must_use]
    pub fn serve(self) -> ServeRun {
        let (engine, reader) = Engine::builder()
            .graph(self.graph)
            .seed(self.seed)
            .sharding(self.layout)
            .build_with_reader();
        let clock = self
            .clock
            .unwrap_or_else(|| Arc::new(MonotonicClock::new()));
        let session = IngestSession::with_policy_and_clock(engine, self.policy, clock);
        ServeRun::from_parts(session, reader, self.readers, self.probes)
    }
}
