//! `BENCHMARK.json`: the contract every run is checked against — the
//! workloads, each metric's unit and direction, and each end-to-end
//! metric's regression bound. Workload parameters live in the workload
//! modules; this file names what is measured and how it is judged.

use serde_json::Value;
use std::path::Path;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Bigger is better (throughput).
    Higher,
    /// Smaller is better (time, memory).
    Lower,
}

/// One metric's declaration.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as printed and stored.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median it may worsen by (end-to-end only).
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// What a user sees; gated by their bounds.
    pub end_to_end: Vec<Metric>,
    /// Single-layer metrics from the traced run.
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// Read and validate `BENCHMARK.json` in `root`.
    pub fn load(root: &Path) -> Result<Spec, String> {
        let path = root.join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let json: Value = serde_json::from_str(&text)
            .map_err(|e| format!("{} is not JSON: {e}", path.display()))?;
        let list = |key: &str| -> Result<&Vec<Value>, String> {
            json.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("BENCHMARK.json lacks the {key} list"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(key)?.iter().map(parse_metric).collect()
        };
        Ok(Spec {
            run_seconds: json
                .get("run_seconds")
                .and_then(Value::as_u64)
                .ok_or("BENCHMARK.json lacks run_seconds")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("workload without a name: {w:?}"))
                })
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

fn parse_metric(v: &Value) -> Result<Metric, String> {
    let field = |key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("metric {v:?} lacks {key}"))
    };
    let better = match field("better")? {
        "higher" => Better::Higher,
        "lower" => Better::Lower,
        other => return Err(format!("metric better must be higher|lower, got {other:?}")),
    };
    Ok(Metric {
        name: field("name")?.to_string(),
        unit: field("unit")?.to_string(),
        better,
        bound: v.get("bound").and_then(Value::as_f64),
    })
}
