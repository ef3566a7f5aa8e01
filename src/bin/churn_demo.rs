//! Interactive-ish churn demo: drive a protocol through random topology
//! changes and print per-change costs, with optional message tracing.
//!
//! ```text
//! cargo run --bin churn_demo -- [--nodes N] [--changes C] [--seed S]
//!                               [--protocol alg2|direct] [--trace]
//! ```
//!
//! `--nodes` must be at least 8 (the bootstrap graph is ER(N, 8/N)); bad
//! flags exit with status 2.

#![forbid(unsafe_code)]

use dynamic_mis::graph::generators;
use dynamic_mis::graph::stream::{self, ChurnConfig};
use dynamic_mis::protocol::{ConstantBroadcast, TemplateDirect};
use dynamic_mis::sim::{Protocol, SyncNetwork};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Options {
    nodes: usize,
    changes: usize,
    seed: u64,
    protocol: String,
    trace: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        nodes: 60,
        changes: 20,
        seed: 1,
        protocol: "alg2".to_string(),
        trace: false,
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
        match args[i].as_str() {
            "--nodes" => opts.nodes = take_value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--changes" => {
                opts.changes = take_value(&mut i)?.parse().map_err(|e| format!("{e}"))?;
            }
            "--seed" => opts.seed = take_value(&mut i)?.parse().map_err(|e| format!("{e}"))?,
            "--protocol" => opts.protocol = take_value(&mut i)?,
            "--trace" => opts.trace = true,
            "--help" | "-h" => {
                return Err("usage: churn_demo [--nodes N] [--changes C] [--seed S] \
                            [--protocol alg2|direct] [--trace]"
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
    Ok(opts)
}

fn run<P: Protocol>(proto: P, opts: &Options) {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let (g, _) = generators::erdos_renyi(opts.nodes, 8.0 / opts.nodes as f64, &mut rng);
    let mut net = SyncNetwork::bootstrap(proto, g, opts.seed);
    if opts.trace {
        net.enable_tracing();
    }
    println!(
        "bootstrapped: {} nodes, {} edges, MIS size {}",
        net.graph().node_count(),
        net.graph().edge_count(),
        net.mis().len()
    );
    println!(
        "{:>4}  {:<24} {:>7} {:>7} {:>7}",
        "#", "change", "adjust", "rounds", "bcasts"
    );
    for step in 0..opts.changes {
        let Some(change) =
            stream::random_change(&net.logical_graph(), &ChurnConfig::default(), &mut rng)
        else {
            continue;
        };
        let change = stream::randomize_distributed(&change, &mut rng);
        let outcome = net.apply_change(&change).expect("valid change");
        println!(
            "{:>4}  {:<24} {:>7} {:>7} {:>7}",
            step + 1,
            change.label(),
            outcome.adjustments(),
            outcome.metrics.rounds,
            outcome.metrics.broadcasts
        );
        if opts.trace {
            for event in net.take_trace() {
                println!("        {event}");
            }
        }
    }
    net.assert_greedy_invariant();
    let m = net.lifetime_metrics();
    println!(
        "\ntotals: {} rounds, {} broadcasts, {} bits — invariant verified ✓",
        m.rounds, m.broadcasts, m.bits
    );
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
        "churn demo: n={}, changes={}, seed={}, protocol={}",
        opts.nodes, opts.changes, opts.seed, opts.protocol
    );
    match opts.protocol.as_str() {
        "alg2" => run(ConstantBroadcast, &opts),
        "direct" => run(TemplateDirect, &opts),
        other => {
            eprintln!("unknown protocol '{other}' — expected alg2 or direct");
            std::process::exit(2);
        }
    }
}
