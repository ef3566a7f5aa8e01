//! Serving demo: replay a flapping churn stream on a writer thread while
//! concurrent readers hammer the epoch-versioned snapshot channel, then
//! print the serving report.
//!
//! ```text
//! cargo run --bin mis_serve -- [--nodes N] [--changes C] [--seed S]
//!                              [--shards K] [--watermark W] [--policy SPEC]
//!                              [--readers R] [--probes P]
//!                              [--checkpoint-dir DIR] [--checkpoint-every N]
//! ```
//!
//! `--nodes` must be at least 8 (the bootstrap graph is ER(N, 8/N)) and
//! `--shards` at least 1; bad flags exit with status 2.
//!
//! `--policy` selects the flush policy by spec string — `depth:N`,
//! `deadline:MS`, `either:N:MS`, or `adaptive` — and overrides
//! `--watermark` (which is shorthand for `depth:W`).
//!
//! `--checkpoint-dir` makes the run durable: every flushed window is
//! appended to `DIR/wal.bin` *before* it is applied, and a full
//! checkpoint image is written to `DIR/checkpoint.bin` every
//! `--checkpoint-every` flushes (default 32). A killed run recovers
//! with `dmis_core::durability::recover` from the same directory.

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::Duration;

use dynamic_mis::core::durability::RealIo;
use dynamic_mis::core::FlushPolicy;
use dynamic_mis::graph::{generators, stream, ShardLayout};
use dynamic_mis::sim::RunConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Options {
    nodes: usize,
    changes: usize,
    seed: u64,
    shards: usize,
    policy: FlushPolicy,
    readers: usize,
    probes: usize,
    checkpoint_dir: Option<String>,
    checkpoint_every: usize,
}

/// Parses a `--policy` spec: `depth:N`, `deadline:MS`, `either:N:MS`,
/// or `adaptive`.
fn parse_policy(spec: &str) -> Result<FlushPolicy, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let num = |s: &str| -> Result<u64, String> {
        s.parse().map_err(|e| format!("bad number '{s}': {e}"))
    };
    match parts.as_slice() {
        ["depth", n] => Ok(FlushPolicy::Depth(num(n)? as usize)),
        ["deadline", ms] => Ok(FlushPolicy::Deadline(Duration::from_millis(num(ms)?))),
        ["either", n, ms] => Ok(FlushPolicy::Either(
            num(n)? as usize,
            Duration::from_millis(num(ms)?),
        )),
        ["adaptive"] => Ok(FlushPolicy::adaptive()),
        _ => Err(format!(
            "unknown policy '{spec}' (expected depth:N, deadline:MS, either:N:MS, or adaptive)"
        )),
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        nodes: 1024,
        changes: 4096,
        seed: 1,
        shards: 4,
        policy: FlushPolicy::Depth(8),
        readers: 2,
        probes: 32,
        checkpoint_dir: None,
        checkpoint_every: 32,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let take_value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value after {}", args[*i - 1]))
        };
        let parse = |s: String| s.parse().map_err(|e| format!("{e}"));
        match args[i].as_str() {
            "--nodes" => opts.nodes = parse(take_value(&mut i)?)?,
            "--changes" => opts.changes = parse(take_value(&mut i)?)?,
            "--seed" => opts.seed = take_value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--shards" => opts.shards = parse(take_value(&mut i)?)?,
            "--watermark" => opts.policy = FlushPolicy::Depth(parse(take_value(&mut i)?)?),
            "--policy" => opts.policy = parse_policy(&take_value(&mut i)?)?,
            "--readers" => opts.readers = parse(take_value(&mut i)?)?,
            "--probes" => opts.probes = parse(take_value(&mut i)?)?,
            "--checkpoint-dir" => opts.checkpoint_dir = Some(take_value(&mut i)?),
            "--checkpoint-every" => opts.checkpoint_every = parse(take_value(&mut i)?)?,
            "--help" | "-h" => {
                return Err("usage: mis_serve [--nodes N] [--changes C] [--seed S] \
                            [--shards K] [--watermark W] \
                            [--policy depth:N|deadline:MS|either:N:MS|adaptive] \
                            [--readers R] [--probes P] \
                            [--checkpoint-dir DIR] [--checkpoint-every N]"
                    .to_string())
            }
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
        i += 1;
    }
    if opts.nodes < 8 {
        return Err(format!(
            "--nodes must be at least 8 (the graph is ER(N, 8/N)), got {}",
            opts.nodes
        ));
    }
    if opts.shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    Ok(opts)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    println!(
        "serve demo: n={}, changes={}, seed={}, shards={}, \
         policy={:?}, readers={}, probes={}",
        opts.nodes, opts.changes, opts.seed, opts.shards, opts.policy, opts.readers, opts.probes
    );
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let (g, _ids) = generators::erdos_renyi(opts.nodes, 8.0 / opts.nodes as f64, &mut rng);
    let pool = stream::random_pair_pool(&g, opts.nodes / 2, &mut rng);
    let churn = stream::flapping_stream(&g, &pool, opts.changes, false, &mut rng);
    println!(
        "bootstrapped: {} nodes, {} edges",
        g.node_count(),
        g.edge_count()
    );
    let mut run = RunConfig::new(g)
        .layout(ShardLayout::striped(opts.shards))
        .policy(opts.policy)
        .seed(opts.seed)
        .readers(opts.readers)
        .probes(opts.probes)
        .serve();
    if let Some(dir) = &opts.checkpoint_dir {
        let io = match RealIo::new(dir) {
            Ok(io) => io,
            Err(e) => {
                eprintln!("cannot open checkpoint dir '{dir}': {e}");
                std::process::exit(1);
            }
        };
        run = match run.with_durability(Arc::new(io), opts.checkpoint_every) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("durability bootstrap failed in '{dir}': {e}");
                std::process::exit(1);
            }
        };
        println!(
            "durable : wal + checkpoint in {dir}, checkpoint every {} flushes",
            opts.checkpoint_every
        );
    }
    let report = match run.run(&churn) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve run failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "writer : {} flushes, {} changes applied, final epoch {}",
        report.flushes, report.applied, report.final_epoch
    );
    println!(
        "updates: p50 {} ns, p99 {} ns per flush",
        report.update_p50_ns, report.update_p99_ns
    );
    println!(
        "queue  : delay p50 {:?}, p99 {:?} (arrival→flush)",
        report.queue_delay_p50, report.queue_delay_p99
    );
    println!(
        "readers: {} reads, {:.0} reads/s, staleness mean {:.3} max {} epochs",
        report.reads_total, report.reads_per_sec, report.staleness_mean, report.staleness_max
    );
    if report.epoch_regressions != 0 {
        eprintln!(
            "epoch regressions observed: {} — snapshot channel is broken",
            report.epoch_regressions
        );
        std::process::exit(1);
    }
    println!(
        "epochs monotone across all readers ✓ (final MIS size {})",
        run.engine().mis_len()
    );
}
