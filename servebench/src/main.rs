//! `servebench`: the repository's end-to-end serving benchmark.
//!
//! One command drives the library's serving stack through its public
//! functions — `Engine::builder()` → `IngestSession` (coalescer, flush
//! policy, clock) → `WriteAheadLog` / `Checkpoint` → engine settle →
//! snapshot publish → `MisReader` → `durability::recover` — on a seeded
//! workload, checks the outputs, and prints every metric by name with
//! its unit.
//!
//! ```text
//! servebench --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]
//! ```
//!
//! `NAME` is `flap_durable`, `powerlaw_1m`, `node_churn_sharded`, or
//! `all` (each workload in a process of its own, one result each).
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload untraced, then traced, and prints the per-layer metrics. A
//! child process generates the inputs (`--emit-inputs`), so the measured
//! process starts from a fresh heap. The last line of standard output is
//! the result; the line before it stamps the host facts, the sample
//! counts and the exact work counts. See `README.md` next to this crate.

#![forbid(unsafe_code)]

mod inputs;
mod metrics;
mod run;
mod sys;
mod trace;

use std::io::{BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use inputs::{Inputs, Size, Spec, WORKLOADS};

/// Scratch directory, relative to the working directory: the durable
/// store of a running workload and the traced mode's span dump.
const WORK_DIR: &str = ".bench_work";

const USAGE: &str = "usage: servebench --workload flap_durable|powerlaw_1m|node_churn_sharded|all \
                     --seed N --seconds S --trace 0|1 [--size full|tiny]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
    emit_inputs: bool,
}

fn number(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|e| format!("bad value '{value}' for {flag}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        size: Size::Full,
        emit_inputs: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--emit-inputs" {
            args.emit_inputs = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("missing value after {flag}"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number(&flag, &value)?,
            "--seconds" => args.seconds = number(&flag, &value)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(format!("--size takes full or tiny, not '{value}'")),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    let known = (args.workload == "all" && !args.emit_inputs)
        || Spec::named(&args.workload, args.size).is_some();
    if !known {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    if !(1..=600).contains(&args.seconds) {
        return Err(format!(
            "--seconds must lie in 1..=600, not {}",
            args.seconds
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.emit_inputs {
        emit_inputs(&args).map(|()| true)
    } else if args.workload == "all" {
        run_all(&args)
    } else {
        measure(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn spec(args: &Args) -> Spec {
    Spec::named(&args.workload, args.size).expect("the workload name was validated")
}

/// The child side: generates the workload's inputs and writes them to
/// standard output.
fn emit_inputs(args: &Args) -> Result<(), String> {
    let spec = spec(args);
    let inputs = Inputs::generate(&spec, args.seed, spec.plan(args.seconds as f64).total());
    let stdout = std::io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    inputs
        .encode(&mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("cannot write the inputs: {e}"))
}

/// The parent side: runs the generator as a child process and decodes
/// its output as it streams in.
fn load_inputs(args: &Args) -> Result<Inputs, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let mut child = Command::new(exe)
        .arg("--emit-inputs")
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--size", args.size.name()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start the input generator: {e}"))?;
    let stdout = child.stdout.take().expect("the child's stdout is piped");
    // The reader is dropped before the wait, so a decode error closes the
    // pipe and the child ends instead of blocking on a full pipe.
    let decoded = Inputs::decode(&mut BufReader::with_capacity(1 << 20, stdout));
    let status = child
        .wait()
        .map_err(|e| format!("cannot wait for the input generator: {e}"))?;
    if !status.success() {
        return Err(format!("the input generator failed: {status}"));
    }
    decoded.map_err(|e| format!("cannot decode the generated inputs: {e}"))
}

fn measure(args: &Args) -> Result<bool, String> {
    let inputs = load_inputs(args)?;
    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("cannot create {WORK_DIR}: {e}"))?;
    let cfg = run::Config {
        spec: spec(args),
        seed: args.seed,
        seconds: args.seconds as f64,
        size: args.size,
        work_dir: PathBuf::from(WORK_DIR),
    };
    let report = if args.trace {
        let untraced = run::measure(&cfg, &inputs, false)?;
        let traced = run::measure(&cfg, &inputs, true)?;
        let path = cfg
            .work_dir
            .join(format!("spans-{}-{}.tsv", cfg.spec.name, cfg.seed));
        trace::save(
            &path,
            &[
                ("writer", &traced.writer_log),
                ("reader", &traced.reader_log),
            ],
        )
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        metrics::per_layer(&cfg, &untraced, &traced)
    } else {
        metrics::end_to_end(&cfg, &run::measure(&cfg, &inputs, false)?)
    };
    report.print();
    Ok(report.correct())
}

/// `--workload all`: every workload in a fresh process of its own.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let mut all_ok = true;
    for name in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--size", args.size.name()])
            .status()
            .map_err(|e| format!("cannot run {name}: {e}"))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}
