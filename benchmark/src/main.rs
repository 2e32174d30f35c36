//! The Watchmen perf ledger: one workload per process, end-to-end metrics
//! untraced, per-layer metrics traced, outputs checked before any number
//! is printed. See `benchmark/README.md`.

mod catalog;
mod counts;
mod fleet;
mod heap;
mod host;
mod hostile;
mod kernels;
mod matches;
mod pools;
mod probe;
mod report;
mod selfcheck;
mod stats;
mod store;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::Report;
use workloads::{Budget, MatchKind};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

pub const WORKLOADS: [&str; 6] =
    ["match16", "match48", "hostile16", "live16", "fleet1w", "store256k"];
/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 2013;
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str =
    "usage: watchmen-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
       watchmen-benchmark --selfcheck [--seed N]
       watchmen-benchmark --vet <workload> [--count N] [--seed N]
workloads: match16 match48 hostile16 live16 fleet1w store256k";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    selfcheck: bool,
    vet: Option<String>,
    count: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
        selfcheck: false,
        vet: None,
        count: 16,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_owned())?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_owned())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be ≥ 0".to_owned());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--selfcheck" => args.selfcheck = true,
            "--vet" => args.vet = Some(value("a workload name")?),
            "--count" => {
                args.count = value("a number")?
                    .parse()
                    .map_err(|_| "--count takes a whole number".to_owned())?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Runs one workload in this process.
pub fn run_workload(
    name: &str,
    seed: u64,
    budget_s: f64,
    counted: Option<u32>,
    traced: bool,
    out: &Path,
) -> Option<Report> {
    let kind = MatchKind::from_name(name);
    let default_units = match (kind, name) {
        (Some(kind), _) => kind.counted_units(),
        (None, "fleet1w") => fleet::COUNTED_BATCHES,
        (None, "store256k") => store::COUNTED_CYCLES,
        _ => return None,
    };
    let budget = Budget { seconds: budget_s, counted_units: counted.unwrap_or(default_units) };
    Some(match kind {
        Some(kind) if traced => {
            workloads::run_traced(kind, seed, budget, &out.join(format!("trace-{name}.jsonl")))
        }
        Some(kind) => workloads::run_untraced(kind, seed, budget),
        None if name == "fleet1w" => fleet::run(seed, budget, traced),
        None => store::run(seed, budget, traced, out),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = args.vet {
        let kind = MatchKind::from_name(&name);
        match (kind, name.as_str()) {
            (Some(kind), _) => pools::vet(args.seed, args.count, |s| kind.runs_clean(s)),
            (None, "fleet1w") => pools::vet(args.seed, args.count, fleet::runs_clean),
            _ => {
                eprintln!("no seed pool for {name:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
        return ExitCode::SUCCESS;
    }
    if args.selfcheck {
        return match selfcheck::run(args.seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("selfcheck FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(name) = args.workload else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let out = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let Some(report) = run_workload(&name, args.seed, args.seconds, None, args.traced, &out) else {
        eprintln!("unknown workload {name:?}\n{USAGE}");
        return ExitCode::from(2);
    };

    print!("{}", report.table());
    // The piece of `out/results.json` this run contributes; `run.sh` joins
    // the pieces of a workload's two runs into one object.
    let mode = if report.traced { "traced" } else { "untraced" };
    let part = format!(
        "    \"_{mode}_run\": {{\"seed\": {}, \"attempted\": {}, \"failed\": {}, \"gates_ok\": {}}},\n{}",
        report.seed,
        report.attempted,
        report.failed,
        report.gate_failures.is_empty(),
        report.part_json()
    );
    if let Err(e) = std::fs::write(out.join(format!("{name}.{mode}.part")), part) {
        eprintln!("warning: could not write the result piece: {e}");
    }
    // Last line of stdout: the result the driver reads.
    println!("{}", report.driver_json());
    ExitCode::SUCCESS
}
