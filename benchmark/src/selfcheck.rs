//! `--selfcheck`: determinism is asserted, not assumed.
//!
//! Each simnet and store workload runs twice at a small fixed size on one
//! seed — every exact-count metric must come out bit-identical — and once
//! on another seed, which must change the bytes on the wire. Also checks
//! that `BENCHMARK.json` and the binary's catalog name the same metrics.

use std::path::Path;

use crate::catalog::{self, is_exact};
use crate::report::Report;
use crate::{run_workload, WORKLOADS};

/// `(workload, units whose counts are compared)`. `live16` is left out:
/// it crosses the kernel's UDP stack, which the seed does not control.
const SIZES: [(&str, u32); 5] =
    [("match16", 2), ("match48", 1), ("hostile16", 2), ("fleet1w", 1), ("store256k", 1)];

pub fn run(seed: u64) -> Result<(), String> {
    check_spec()?;
    let out = Path::new("benchmark/out");
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    for (name, units) in SIZES {
        let go = |seed: u64| -> Result<Report, String> {
            let r = run_workload(name, seed, 0.0, Some(units), true, out).expect("known workload");
            if r.failed > 0 {
                return Err(format!(
                    "{name} seed {seed}: {} operations failed: {:?}",
                    r.failed, r.failure_notes
                ));
            }
            Ok(r)
        };
        let (a, b, other) = (go(seed)?, go(seed)?, go(seed + 1)?);
        let mut compared = 0;
        for metric in a.names().filter(|m| is_exact(m)) {
            let (x, y) = (a.get(metric), b.get(metric));
            if x.to_bits() != y.to_bits() {
                return Err(format!("{name}: {metric} differs between identical runs: {x} vs {y}"));
            }
            compared += 1;
        }
        // A workload that puts bytes on a wire must put different ones on
        // it for a different seed.
        let wire = "wire_bytes_per_player_s";
        let moved = a.get(wire) != other.get(wire);
        if a.get(wire) != 0.0 && !moved {
            return Err(format!(
                "{name}: seeds {seed} and {} put identical bytes on the wire",
                seed + 1
            ));
        }
        println!(
            "selfcheck {name}: {compared} exact metrics identical across two runs{}",
            if moved { ", another seed moves the wire" } else { "" }
        );
    }
    println!("selfcheck ok");
    Ok(())
}

/// `BENCHMARK.json` must list exactly the catalog's metrics, with their
/// units and directions, and the six workloads (a plain text search: the
/// file is ours and small).
fn check_spec() -> Result<(), String> {
    let spec: String = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?
        .split_whitespace()
        .collect();
    let listed = spec.matches("\"name\":").count();
    let expected = catalog::END_TO_END.len() + catalog::PER_LAYER.len() + WORKLOADS.len();
    if listed != expected {
        return Err(format!("BENCHMARK.json lists {listed} names, the benchmark has {expected}"));
    }
    for d in catalog::END_TO_END.iter().chain(&catalog::PER_LAYER) {
        let entry =
            format!("\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"", d.name, d.unit, d.better);
        if !spec.contains(&entry) {
            return Err(format!("BENCHMARK.json does not list {{{entry}}}"));
        }
    }
    for name in WORKLOADS {
        if !spec.contains(&format!("\"name\":\"{name}\"")) {
            return Err(format!("BENCHMARK.json does not list workload {name:?}"));
        }
    }
    Ok(())
}
