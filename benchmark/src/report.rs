//! One run's result: metrics by catalog name, the operation tally, and
//! the renderings (driver JSON line, aligned table, `out/` fragment).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::catalog::Def;

#[derive(Debug, Clone, Copy)]
struct Value {
    value: f64,
    /// How many samples stand behind the value (0 for plain counts).
    samples: u64,
    /// Percentiles only: fewer than ten samples lie beyond the rank.
    thin: bool,
}

#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Measurement-quality gates (residual, trace overhead) that failed.
    pub gate_failures: Vec<String>,
    /// First few reasons operations failed, for the log.
    pub failure_notes: Vec<String>,
    /// Remarks on how the run went, for the log.
    pub notes: Vec<String>,
    catalog: &'static [Def],
    values: BTreeMap<&'static str, Value>,
}

impl Report {
    pub fn new(workload: &'static str, traced: bool, seed: u64, catalog: &'static [Def]) -> Self {
        Report {
            workload,
            traced,
            seed,
            attempted: 0,
            failed: 0,
            gate_failures: Vec::new(),
            failure_notes: Vec::new(),
            notes: Vec::new(),
            catalog,
            values: BTreeMap::new(),
        }
    }

    fn def(&self, name: &str) -> &'static Def {
        self.catalog
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalog"))
    }

    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        let def = self.def(name);
        self.values.insert(def.name, Value { value, samples, thin: false });
    }

    /// A percentile over `samples` of which `beyond` lie past its rank.
    pub fn set_percentile(&mut self, name: &str, value: f64, samples: u64, beyond: usize) {
        let def = self.def(name);
        self.values.insert(def.name, Value { value, samples, thin: beyond < 10 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| v.value)
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.catalog.iter().map(|d| d.name)
    }

    /// The one-line result the driver reads: every catalog metric of this
    /// mode, measured values with all their digits.
    pub fn driver_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, d) in self.catalog.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_num(self.get(d.name)),
                d.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// This run's lines of `out/results.json`: metric → `{value, unit,
    /// samples}`, one per line, comma-separated, no enclosing braces.
    pub fn part_json(&self) -> String {
        let mut out = String::new();
        for (i, d) in self.catalog.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let v = self.values.get(d.name).copied().unwrap_or(Value {
                value: 0.0,
                samples: 0,
                thin: false,
            });
            let _ = write!(
                out,
                "    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                d.name,
                json_num(v.value),
                d.unit,
                v.samples
            );
        }
        out.push('\n');
        out
    }

    /// The human rendering: one aligned row per metric that was measured.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} ({}, seed {}) — attempted {} failed {}\n",
            self.workload,
            if self.traced { "traced: per-layer" } else { "untraced: end-to-end" },
            self.seed,
            self.attempted,
            self.failed
        );
        for d in self.catalog {
            let Some(v) = self.values.get(d.name) else { continue };
            let note = match (v.samples, v.thin) {
                (0, _) => String::new(),
                (n, false) => format!("  n={n}"),
                (n, true) => format!("  n={n} (<10 samples beyond this percentile)"),
            };
            let _ = writeln!(out, "  {:<42} {:>16} {:<7}{note}", d.name, human(v.value), d.unit);
        }
        for n in &self.notes {
            let _ = writeln!(out, "  {n}");
        }
        for g in &self.gate_failures {
            let _ = writeln!(out, "  GATE FAILED: {g}");
        }
        for n in &self.failure_notes {
            let _ = writeln!(out, "  FAILED OP: {n}");
        }
        out
    }
}

/// Finite numbers only; Rust's shortest round-trip formatting keeps every
/// measured digit.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn human(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}
