//! What one benchmark run prints: provenance, every metric by name with
//! its unit and kind, the simulated-counter digest, the correctness
//! checks, and — last — the one-line JSON result.

use fgnvm_obs::json;

/// Whether a number is host-measured (noisy) or modelled (exact and
/// deterministic for a fixed seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host time or memory: varies from run to run.
    Host,
    /// Simulated: repeats exactly for the same seed and program.
    Modelled,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Host or modelled.
    pub kind: Kind,
    /// Samples the value summarises (its median, or 1).
    pub samples: usize,
}

/// The full outcome of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Report {
    /// Workload parameters, for provenance.
    pub params: Vec<(String, String)>,
    /// Repetitions of the workload inside the timed section.
    pub runs: usize,
    /// Every metric measured, in print order.
    pub metrics: Vec<Metric>,
    /// FNV-1a digest of the simulated counters.
    pub digest: String,
    /// Correctness checks: name, passed, detail.
    pub checks: Vec<(String, bool, String)>,
    /// Operations attempted (requests generated, or experiment jobs).
    pub attempted: u64,
    /// Operations that did not complete.
    pub failed: u64,
    /// The traced run's spans as JSON (empty for untraced runs).
    pub spans: String,
}

impl Report {
    /// Adds a metric.
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str, kind: Kind) {
        self.add_sampled(name, value, unit, kind, 1);
    }

    /// Adds a metric that summarises `samples` measurements.
    pub fn add_sampled(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        kind: Kind,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            kind,
            samples,
        });
    }

    /// Records a correctness check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    /// Records a workload parameter.
    pub fn param(&mut self, key: &str, value: impl ToString) {
        self.params.push((key.to_string(), value.to_string()));
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// Prints the report; the last line is the JSON result carrying
    /// exactly the metrics named in `selected`, in that order.
    ///
    /// # Panics
    ///
    /// Panics if a selected metric was not measured: the benchmark's
    /// metric list and its workloads disagree.
    pub fn print(&self, header: &str, selected: &[&str]) {
        println!("{header}");
        for (k, v) in &self.params {
            println!("param {k}={v}");
        }
        println!("runs {}", self.runs);
        for m in &self.metrics {
            let kind = match m.kind {
                Kind::Host => "host",
                Kind::Modelled => "modelled",
            };
            println!(
                "metric {:<32} {:>20} {:<8} {:<8} samples={}",
                m.name,
                json::number(m.value),
                m.unit,
                kind,
                m.samples
            );
        }
        println!("sim_digest {}", self.digest);
        if !self.spans.is_empty() {
            println!("spans {}", self.spans);
        }
        for (name, ok, detail) in &self.checks {
            let verdict = if *ok { "ok" } else { "FAILED" };
            println!("check {name} {verdict} {detail}");
        }
        let fields: Vec<String> = selected
            .iter()
            .map(|name| {
                let m = self
                    .metrics
                    .iter()
                    .find(|m| m.name == *name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json::quote(name),
                    json::number(m.value),
                    json::quote(m.unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(",")
        );
    }
}
