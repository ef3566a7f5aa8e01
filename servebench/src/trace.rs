//! The traced mode: an in-memory span recorder and the layer wrappers
//! that feed it.
//!
//! Each thread records into its own log, so recording never synchronises
//! across threads. A span records its name, start, end, parent, and the
//! id of its window, query, checkpoint or set-up. When a span closes, its
//! self time — its duration minus the time its direct children cover —
//! is added to a per-name sum, so the per-layer figures cover every span;
//! the first [`KEPT_SPANS`] spans of each thread are also kept whole and
//! written out when the run ends.
//!
//! The layers are wrapped from outside, through public interfaces:
//! [`TracedWal`] is a `WalSink` around the `WriteAheadLog` (the
//! `wal.persist` spans) and [`TracedEngine`] a forwarding `DynamicMis`
//! handed to the `IngestSession` (the `engine.apply_batch` spans).

use std::cell::RefCell;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use dmis_core::durability::{DurabilityMeta, RepairReport, WalSink, WriteAheadLog};
use dmis_core::invariant::InvariantViolation;
use dmis_core::{BatchReceipt, DynamicMis, MisReader, PriorityMap, SettleStrategy, UpdateReceipt};
use dmis_graph::{DynGraph, GraphError, NodeId, TopologyChange};

use crate::sys::now_ns;

/// Spans kept whole per thread; the per-name sums cover all of them.
pub const KEPT_SPANS: usize = 1 << 18;

/// Parent of a top-level span, or of one whose parent was not kept.
const NO_SPAN: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent among the thread's kept spans.
    pub parent: u32,
    pub id: u64,
}

/// Totals over every closed span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sum {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    kept: u32,
}

/// One thread's spans.
#[derive(Debug, Default)]
pub struct Log {
    open: Vec<Open>,
    kept: Vec<Span>,
    sums: Vec<(&'static str, Sum)>,
}

impl Log {
    /// Totals of the spans called `name` (zeros if there were none).
    pub fn sum(&self, name: &str) -> Sum {
        self.sums
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(Sum::default, |&(_, s)| s)
    }
}

thread_local! {
    static LOG: RefCell<Log> = RefCell::new(Log::default());
}

/// Runs `f` inside a span called `name` on this thread's log.
pub fn span<R>(name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
    LOG.with(|cell| {
        let log = &mut *cell.borrow_mut();
        let parent = log.open.last().map_or(NO_SPAN, |open| open.kept);
        let kept = if log.kept.len() < KEPT_SPANS {
            log.kept.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                id,
            });
            u32::try_from(log.kept.len() - 1).unwrap_or(NO_SPAN)
        } else {
            NO_SPAN
        };
        log.open.push(Open {
            name,
            start_ns: now_ns(),
            child_ns: 0,
            kept,
        });
    });
    let out = f();
    let end_ns = now_ns();
    LOG.with(|cell| {
        let log = &mut *cell.borrow_mut();
        let open = log
            .open
            .pop()
            .expect("spans close in the order they opened");
        let duration = end_ns.saturating_sub(open.start_ns);
        if let Some(parent) = log.open.last_mut() {
            parent.child_ns += duration;
        }
        if let Some(span) = log.kept.get_mut(open.kept as usize) {
            span.start_ns = open.start_ns;
            span.end_ns = end_ns;
        }
        let slot = match log.sums.iter().position(|(n, _)| *n == open.name) {
            Some(i) => i,
            None => {
                log.sums.push((open.name, Sum::default()));
                log.sums.len() - 1
            }
        };
        let sum = &mut log.sums[slot].1;
        sum.count += 1;
        sum.total_ns += duration;
        sum.self_ns += duration.saturating_sub(open.child_ns);
    });
    out
}

/// Runs `f` inside a span when `on`, and bare otherwise: one call site
/// serves the traced and the untraced run.
pub fn maybe_span<R>(on: bool, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
    if on {
        span(name, id, f)
    } else {
        f()
    }
}

/// Takes this thread's log, leaving an empty one behind.
pub fn take() -> Log {
    LOG.with(|cell| std::mem::take(&mut *cell.borrow_mut()))
}

/// Writes the kept spans of each named thread as tab-separated rows.
pub fn save(path: &Path, logs: &[(&str, &Log)]) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "thread\tname\tstart_ns\tend_ns\tparent\tid")?;
    for (thread, log) in logs {
        for s in &log.kept {
            let parent = if s.parent == NO_SPAN {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{thread}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
    }
    out.flush()
}

/// A `WalSink` around the `WriteAheadLog`: one `wal.persist` span per
/// append, with the record's sequence number as its id.
#[derive(Debug)]
pub struct TracedWal(pub WriteAheadLog);

impl WalSink for TracedWal {
    fn persist(&mut self, changes: &[TopologyChange]) -> io::Result<u64> {
        let seq = self.0.records_persisted();
        let wal = &mut self.0;
        span("wal.persist", seq, || wal.append(changes))
    }
}

/// A forwarding `DynamicMis` handed to the `IngestSession`: one
/// `engine.apply_batch` span per batch, with the batch's index as its id.
#[derive(Debug)]
pub struct TracedEngine {
    inner: Box<dyn DynamicMis + Send>,
    batches: u64,
}

impl TracedEngine {
    pub fn new(inner: Box<dyn DynamicMis + Send>) -> Self {
        TracedEngine { inner, batches: 0 }
    }
}

impl DynamicMis for TracedEngine {
    fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Result<UpdateReceipt, GraphError> {
        self.inner.insert_edge(u, v)
    }
    fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<UpdateReceipt, GraphError> {
        self.inner.remove_edge(u, v)
    }
    fn insert_node_with_key(
        &mut self,
        neighbors: &[NodeId],
        key: u64,
    ) -> Result<(NodeId, UpdateReceipt), GraphError> {
        self.inner.insert_node_with_key(neighbors, key)
    }
    fn remove_node(&mut self, v: NodeId) -> Result<UpdateReceipt, GraphError> {
        self.inner.remove_node(v)
    }
    fn apply_batch(&mut self, changes: &[TopologyChange]) -> Result<BatchReceipt, GraphError> {
        let id = self.batches;
        self.batches += 1;
        let inner = &mut self.inner;
        span("engine.apply_batch", id, || inner.apply_batch(changes))
    }
    fn draw_key(&mut self) -> u64 {
        self.inner.draw_key()
    }
    fn graph(&self) -> &DynGraph {
        self.inner.graph()
    }
    fn priorities(&self) -> &PriorityMap {
        self.inner.priorities()
    }
    fn mis_iter(&self) -> Box<dyn Iterator<Item = NodeId> + '_> {
        self.inner.mis_iter()
    }
    fn mis_len(&self) -> usize {
        self.inner.mis_len()
    }
    fn is_in_mis(&self, v: NodeId) -> Option<bool> {
        self.inner.is_in_mis(v)
    }
    fn settle_strategy(&self) -> SettleStrategy {
        self.inner.settle_strategy()
    }
    fn set_settle_strategy(&mut self, strategy: SettleStrategy) {
        self.inner.set_settle_strategy(strategy);
    }
    fn reader(&mut self) -> MisReader {
        self.inner.reader()
    }
    fn verify_and_repair(&mut self) -> RepairReport {
        self.inner.verify_and_repair()
    }
    fn corrupt_in_mis(&mut self, victims: &[NodeId]) -> usize {
        self.inner.corrupt_in_mis(victims)
    }
    fn durability_meta(&self) -> DurabilityMeta {
        self.inner.durability_meta()
    }
    fn restore_epoch(&mut self, epoch: u64) {
        self.inner.restore_epoch(epoch);
    }
    fn check_invariant(&self) -> Result<(), InvariantViolation> {
        self.inner.check_invariant()
    }
    fn assert_internally_consistent(&self) {
        self.inner.assert_internally_consistent();
    }
}
