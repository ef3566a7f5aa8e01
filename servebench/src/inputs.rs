//! The workloads: their constants and their seeded inputs.
//!
//! Every number that shapes a workload lives in [`Spec::named`]: graph
//! family and size, change stream, flush depth, shard layout, checkpoint
//! cadence, the open loop's offered rate, and the nominal closed-loop
//! capacity that sizes the warm-up and the closed segment. They are
//! constants, never derived from a measurement taken at run time, so a
//! faster build cannot change its own workload. `README.md` records why
//! each workload exists and where its rates came from.

use std::collections::BTreeSet;
use std::io::{self, Read, Write};

use dmis_graph::{generators, stream, EdgeKey, NodeId, TopologyChange};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["flap_durable", "powerlaw_1m", "node_churn_sharded"];

/// Shares of `--seconds` sizing the untimed warm-up and the timed closed
/// segment (both at the nominal capacity) and the open loop (at the
/// offered rate). On the shared two-core host the closed rate swings with
/// the host over seconds, so the closed segment gets the largest share;
/// the open loop's median latency settles on fewer samples.
const WARMUP_SHARE: f64 = 0.1;
const CLOSED_SHARE: f64 = 0.6;
const OPEN_SHARE: f64 = 0.3;

/// Workload scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's workloads.
    Full,
    /// Every size and rate divided by 100: the same code path in about a
    /// second, for the benchmark's own tests.
    Tiny,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

/// The initial graph's generator.
#[derive(Debug, Clone, Copy)]
pub enum Graph {
    /// `generators::gnm`.
    Gnm { edges: usize },
    /// `generators::chung_lu`.
    ChungLu { mean_degree: f64, beta: f64 },
}

/// The change stream's generator.
#[derive(Debug, Clone, Copy)]
pub enum Churn {
    /// `stream::flapping_stream` over a pool of pairs: a closed cycle of
    /// `cycle` toggles, replayed from the top as often as the run needs.
    Flapping { pool: usize, cycle: usize },
    /// `stream::power_law_churn` with the graph's exponent.
    PowerLaw { beta: f64 },
    /// `stream::barrier_churn`: every `every`-th change inserts a node
    /// wired to at most `max_degree` nodes or deletes an earlier insert;
    /// the rest toggle pairs of the pool.
    Barrier {
        pool: usize,
        every: usize,
        max_degree: usize,
    },
}

/// One workload's constants.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// Initial node count.
    pub nodes: usize,
    pub graph: Graph,
    pub churn: Churn,
    /// `FlushPolicy::Depth` of the ingest session.
    pub depth: usize,
    /// `ShardLayout::striped` shard count with one thread, or unsharded.
    pub shards: Option<usize>,
    /// Durable serving: a WAL on disk plus a checkpoint every this many
    /// flushes. `None` serves from memory and checkpoints once at
    /// shutdown, so every workload restarts from a store.
    pub checkpoint_every: Option<u64>,
    /// Open-loop offered rate, changes per second.
    pub offered_per_s: f64,
    /// Closed-loop capacity measured when the workload was defined.
    pub nominal_per_s: f64,
    /// Set-ups per run; `setup_s` is their median. Set-ups of 0.1–0.2 s
    /// swung by 1.5× within one run on the shared two-core host, so the
    /// n=10⁵ workloads take 21 of them.
    pub setups: usize,
    /// Recoveries per run; `recover_s` is their median. The 0.2 s
    /// restores of `node_churn_sharded` take 11, for the same reason as
    /// the set-ups. The 4 s restores of `powerlaw_1m` stayed within 4% of
    /// one another inside a run, so it takes one, and its run's restart
    /// costs 4 s rather than 12.
    pub recoveries: usize,
}

/// How many changes each phase of a run pushes.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warmup: usize,
    pub closed: usize,
    pub open: usize,
}

impl Plan {
    pub fn total(&self) -> usize {
        self.warmup + self.closed + self.open
    }
}

impl Spec {
    /// The workload called `name`, at `size`.
    pub fn named(name: &str, size: Size) -> Option<Spec> {
        let full = match name {
            "flap_durable" => Spec {
                name: "flap_durable",
                nodes: 100_000,
                graph: Graph::Gnm { edges: 400_000 },
                churn: Churn::Flapping {
                    pool: 128,
                    cycle: 1 << 20,
                },
                depth: 64,
                shards: None,
                checkpoint_every: Some(8192),
                offered_per_s: 200_000.0,
                nominal_per_s: 1_600_000.0,
                setups: 21,
                recoveries: 3,
            },
            "powerlaw_1m" => Spec {
                name: "powerlaw_1m",
                nodes: 1_000_000,
                graph: Graph::ChungLu {
                    mean_degree: 8.0,
                    beta: 2.5,
                },
                churn: Churn::PowerLaw { beta: 2.5 },
                depth: 1,
                shards: None,
                checkpoint_every: None,
                offered_per_s: 30_000.0,
                nominal_per_s: 140_000.0,
                setups: 3,
                recoveries: 1,
            },
            "node_churn_sharded" => Spec {
                name: "node_churn_sharded",
                nodes: 100_000,
                graph: Graph::Gnm { edges: 400_000 },
                churn: Churn::Barrier {
                    pool: 65_536,
                    every: 8,
                    max_degree: 8,
                },
                depth: 16,
                shards: Some(4),
                checkpoint_every: None,
                offered_per_s: 8_000.0,
                nominal_per_s: 32_000.0,
                setups: 21,
                recoveries: 11,
            },
            _ => return None,
        };
        Some(match size {
            Size::Full => full,
            Size::Tiny => full.tiny(),
        })
    }

    fn tiny(self) -> Spec {
        let shrink = |x: usize| (x / 100).max(2);
        Spec {
            nodes: shrink(self.nodes),
            graph: match self.graph {
                Graph::Gnm { edges } => Graph::Gnm {
                    edges: shrink(edges),
                },
                other => other,
            },
            churn: match self.churn {
                Churn::Flapping { pool, cycle } => Churn::Flapping {
                    pool,
                    cycle: shrink(cycle),
                },
                Churn::Barrier {
                    pool,
                    every,
                    max_degree,
                } => Churn::Barrier {
                    pool: shrink(pool),
                    every,
                    max_degree,
                },
                other => other,
            },
            checkpoint_every: self.checkpoint_every.map(|k| (k / 100).max(1)),
            offered_per_s: self.offered_per_s / 100.0,
            nominal_per_s: self.nominal_per_s / 100.0,
            setups: 2,
            recoveries: 1,
            ..self
        }
    }

    /// The phase sizes of a run of `seconds`.
    pub fn plan(&self, seconds: f64) -> Plan {
        let count = |rate: f64, share: f64| ((rate * share * seconds).round() as usize).max(1);
        Plan {
            warmup: count(self.nominal_per_s, WARMUP_SHARE),
            closed: count(self.nominal_per_s, CLOSED_SHARE),
            open: count(self.offered_per_s, OPEN_SHARE),
        }
    }
}

/// A workload's generated inputs: the initial graph as an edge list over
/// the nodes `0..nodes`, and the change stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    pub nodes: usize,
    pub edges: Vec<(NodeId, NodeId)>,
    pub stream: Vec<TopologyChange>,
    /// The stream returns the graph to its initial state, and change `i`
    /// is `stream[i % len]`.
    pub cyclic: bool,
}

const MAGIC: &[u8; 8] = b"SRVBIN01";
const EDGE_INSERT: u8 = 0;
const EDGE_DELETE: u8 = 1;
const NODE_INSERT: u8 = 2;
const NODE_DELETE: u8 = 3;
/// Upper bound on any decoded length, checked before allocating.
const MAX_LEN: u64 = 1 << 28;

impl Inputs {
    /// Generates the inputs of `spec` from `seed`, with a stream of at
    /// least `changes` changes (or a cycle, for a flapping stream).
    pub fn generate(spec: &Spec, seed: u64, changes: usize) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, ids) = match spec.graph {
            Graph::Gnm { edges } => generators::gnm(spec.nodes, edges, &mut rng),
            Graph::ChungLu { mean_degree, beta } => {
                generators::chung_lu(spec.nodes, mean_degree, beta, &mut rng)
            }
        };
        let (stream, cyclic) = match spec.churn {
            Churn::Flapping { pool, cycle } => {
                // The closing tail restores each pool entry once, so a
                // repeated pair would be restored twice.
                let mut seen = BTreeSet::new();
                let pool: Vec<(NodeId, NodeId)> = stream::random_pair_pool(&g, pool, &mut rng)
                    .into_iter()
                    .filter(|&(u, v)| seen.insert(EdgeKey::new(u, v)))
                    .collect();
                let toggles = cycle.min(changes);
                (
                    stream::flapping_stream(&g, &pool, toggles, true, &mut rng),
                    true,
                )
            }
            Churn::PowerLaw { beta } => (
                stream::power_law_churn(&g, &ids, beta, changes, &mut rng),
                false,
            ),
            Churn::Barrier {
                pool,
                every,
                max_degree,
            } => {
                let pool = stream::random_pair_pool(&g, pool, &mut rng);
                (
                    stream::barrier_churn(&g, &pool, every, max_degree, changes, &mut rng),
                    false,
                )
            }
        };
        Inputs {
            nodes: spec.nodes,
            edges: g.edges().map(EdgeKey::endpoints).collect(),
            stream,
            cyclic,
        }
    }

    /// Change `i` of the run.
    pub fn change(&self, i: usize) -> &TopologyChange {
        if self.cyclic {
            &self.stream[i % self.stream.len()]
        } else {
            &self.stream[i]
        }
    }

    /// Writes the little-endian binary form the parent decodes.
    pub fn encode(&self, out: &mut impl Write) -> io::Result<()> {
        out.write_all(MAGIC)?;
        put(out, self.nodes as u64)?;
        put(out, self.edges.len() as u64)?;
        for &(u, v) in &self.edges {
            put(out, u.0)?;
            put(out, v.0)?;
        }
        out.write_all(&[u8::from(self.cyclic)])?;
        put(out, self.stream.len() as u64)?;
        for change in &self.stream {
            match change {
                TopologyChange::InsertEdge(u, v) => {
                    out.write_all(&[EDGE_INSERT])?;
                    put(out, u.0)?;
                    put(out, v.0)?;
                }
                TopologyChange::DeleteEdge(u, v) => {
                    out.write_all(&[EDGE_DELETE])?;
                    put(out, u.0)?;
                    put(out, v.0)?;
                }
                TopologyChange::InsertNode { id, edges } => {
                    out.write_all(&[NODE_INSERT])?;
                    put(out, id.0)?;
                    put(out, edges.len() as u64)?;
                    for v in edges {
                        put(out, v.0)?;
                    }
                }
                TopologyChange::DeleteNode(v) => {
                    out.write_all(&[NODE_DELETE])?;
                    put(out, v.0)?;
                }
            }
        }
        Ok(())
    }

    /// Reads what [`Inputs::encode`] wrote.
    pub fn decode(input: &mut impl Read) -> io::Result<Inputs> {
        let mut magic = [0u8; 8];
        input.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(invalid("not a servebench input stream"));
        }
        let nodes = len(input)?;
        let edge_count = len(input)?;
        let mut edges = Vec::with_capacity(edge_count);
        for _ in 0..edge_count {
            edges.push((node(input)?, node(input)?));
        }
        let cyclic = byte(input)? != 0;
        let change_count = len(input)?;
        let mut stream = Vec::with_capacity(change_count);
        for _ in 0..change_count {
            stream.push(match byte(input)? {
                EDGE_INSERT => TopologyChange::InsertEdge(node(input)?, node(input)?),
                EDGE_DELETE => TopologyChange::DeleteEdge(node(input)?, node(input)?),
                NODE_INSERT => {
                    let id = node(input)?;
                    let degree = len(input)?;
                    let edges = (0..degree)
                        .map(|_| node(input))
                        .collect::<io::Result<Vec<NodeId>>>()?;
                    TopologyChange::InsertNode { id, edges }
                }
                NODE_DELETE => TopologyChange::DeleteNode(node(input)?),
                tag => return Err(invalid(&format!("unknown change tag {tag}"))),
            });
        }
        if cyclic && stream.is_empty() {
            return Err(invalid("a cyclic stream needs at least one change"));
        }
        Ok(Inputs {
            nodes,
            edges,
            stream,
            cyclic,
        })
    }
}

fn put(out: &mut impl Write, x: u64) -> io::Result<()> {
    out.write_all(&x.to_le_bytes())
}

fn word(input: &mut impl Read) -> io::Result<u64> {
    let mut bytes = [0u8; 8];
    input.read_exact(&mut bytes)?;
    Ok(u64::from_le_bytes(bytes))
}

fn byte(input: &mut impl Read) -> io::Result<u8> {
    let mut b = [0u8; 1];
    input.read_exact(&mut b)?;
    Ok(b[0])
}

fn node(input: &mut impl Read) -> io::Result<NodeId> {
    word(input).map(NodeId)
}

fn len(input: &mut impl Read) -> io::Result<usize> {
    let n = word(input)?;
    if n > MAX_LEN {
        return Err(invalid("length out of range"));
    }
    usize::try_from(n).map_err(|_| invalid("length out of range"))
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}
