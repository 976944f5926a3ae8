//! `benchmark compare <parent-dirs…> -- <change-dirs…>`: judge a change
//! against its parent from result directories, one row per (workload,
//! end-to-end metric).
//!
//! The rule (choosing-metrics §8): a gain needs at least ten pairs, the
//! change winning at least nine in ten of them (ties count for neither),
//! and a median gap wider than the parent's interquartile range. A
//! regression is a median worse than the parent's by more than the
//! metric's bound. Where either side's spread is wider than the bound,
//! "no regression" cannot be shown: the row is `unresolved` unless every
//! change run beats every parent run.
//!
//! Runs pair by the seed stored in each result, in any directory order; a
//! seed run on one side only is left out. A row is also `unresolved` when
//! any run of it failed a check or has no finite value for the metric, and
//! a gain does not count when the change failed more operations than the
//! parent.

use crate::spec::{Better, Metric, Spec};
use crate::stats::quartiles;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// Pairs below which no gain is claimed.
const MIN_PAIRS_FOR_GAIN: usize = 10;

/// What the runs show for one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A gain by the §8 rule.
    Improved,
    /// The median worsened by more than the bound.
    Regressed,
    /// The spread is wider than the bound (or too few runs to tell).
    Unresolved,
    /// Within the bound, with spread inside it.
    Unchanged,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
        }
    }
}

/// The judgement of one (workload, metric).
#[derive(Debug, Clone)]
pub struct Judgement {
    /// Pairs compared (the shorter side's run count).
    pub pairs: usize,
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs that tied exactly.
    pub ties: usize,
    /// Parent quartiles.
    pub parent: [f64; 3],
    /// Change quartiles.
    pub change: [f64; 3],
    /// The outcome.
    pub verdict: Verdict,
}

/// Judge `change` against `parent` for a metric improving in direction
/// `better` with regression bound `bound` (a share of the parent median).
/// `None` when either side has fewer than two runs.
pub fn judge(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Option<Judgement> {
    let p = quartiles(parent)?;
    let c = quartiles(change)?;
    let beats = |a: f64, b: f64| match better {
        Better::Higher => a > b,
        Better::Lower => a < b,
    };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| beats(change[i], parent[i])).count();
    let ties = (0..pairs).filter(|&i| change[i] == parent[i]).count();
    let (p_med, c_med) = (p[1], c[1]);
    let gain = pairs >= MIN_PAIRS_FOR_GAIN
        && wins * 10 >= pairs * 9
        && beats(c_med, p_med)
        && (c_med - p_med).abs() > p[2] - p[0];
    let worse_share = match better {
        Better::Higher => (p_med - c_med) / p_med.abs(),
        Better::Lower => (c_med - p_med) / p_med.abs(),
    };
    let spread = |q: &[f64; 3]| (q[2] - q[0]) / q[1].abs();
    let all_better = change
        .iter()
        .all(|&cv| parent.iter().all(|&pv| beats(cv, pv)));
    let verdict = if gain {
        Verdict::Improved
    } else if worse_share > bound {
        Verdict::Regressed
    } else if (spread(&p) > bound || spread(&c) > bound) && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    Some(Judgement {
        pairs,
        wins,
        ties,
        parent: p,
        change: c,
        verdict,
    })
}

/// One run's result for a (workload, metric).
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// The seed the run was made with; runs pair by it.
    pub seed: u64,
    /// Whether every check of the run passed.
    pub correct: bool,
    /// Operations that failed in the run.
    pub failed: u64,
    /// The metric's value; `None` when missing, null or not finite.
    pub value: Option<f64>,
}

impl Run {
    /// A run that can be compared: its checks passed and it has a value.
    fn valid(&self) -> bool {
        self.correct && self.value.is_some()
    }
}

/// One (workload, metric) row: the paired judgement, or why none holds.
#[derive(Debug, Clone)]
pub struct Row {
    /// Judgement of the paired values (`None` below two pairs).
    pub judgement: Option<Judgement>,
    /// The outcome.
    pub verdict: Verdict,
    /// Why the row is `unresolved` when the values alone do not say.
    pub reason: Option<String>,
    /// Runs of either side whose seed the other side lacks.
    pub unpaired: usize,
    /// Runs per side that failed a check or have no value.
    pub invalid: [usize; 2],
    /// Failed operations summed over the paired runs, per side.
    pub failed: [u64; 2],
}

/// Pair `parent` and `change` runs by seed and judge them. Errors when a
/// side holds one seed twice, since its runs cannot then be paired.
pub fn judge_runs(
    parent: &[Run],
    change: &[Run],
    better: Better,
    bound: f64,
) -> Result<Row, String> {
    let by_seed = |side: &str, runs: &[Run]| -> Result<BTreeMap<u64, Run>, String> {
        let mut map = BTreeMap::new();
        for run in runs {
            if map.insert(run.seed, run.clone()).is_some() {
                return Err(format!("the {side} side has two runs of seed {}", run.seed));
            }
        }
        Ok(map)
    };
    let (p, c) = (by_seed("parent", parent)?, by_seed("change", change)?);
    let pairs: Vec<(&Run, &Run)> = p
        .iter()
        .filter_map(|(seed, old)| c.get(seed).map(|new| (old, new)))
        .collect();
    let invalid = [
        parent.iter().filter(|r| !r.valid()).count(),
        change.iter().filter(|r| !r.valid()).count(),
    ];
    let failed = [
        pairs.iter().map(|(old, _)| old.failed).sum(),
        pairs.iter().map(|(_, new)| new.failed).sum(),
    ];
    let judgement = if invalid == [0, 0] {
        let parent_values: Vec<f64> = pairs.iter().filter_map(|(old, _)| old.value).collect();
        let change_values: Vec<f64> = pairs.iter().filter_map(|(_, new)| new.value).collect();
        judge(&parent_values, &change_values, better, bound)
    } else {
        None
    };
    let (verdict, reason) = match &judgement {
        _ if invalid != [0, 0] => (
            Verdict::Unresolved,
            Some(format!(
                "{} parent and {} change runs failed a check or have no finite value",
                invalid[0], invalid[1]
            )),
        ),
        None => (
            Verdict::Unresolved,
            Some(format!("{} paired runs; two are needed", pairs.len())),
        ),
        Some(j) if j.verdict == Verdict::Improved && failed[1] > failed[0] => (
            Verdict::Unresolved,
            Some(format!(
                "the change failed {} operations, the parent {}",
                failed[1], failed[0]
            )),
        ),
        Some(j) => (j.verdict, None),
    };
    Ok(Row {
        judgement,
        verdict,
        reason,
        unpaired: p.len() + c.len() - 2 * pairs.len(),
        invalid,
        failed,
    })
}

/// Each directory's `results.json`, with the directory.
fn load(dirs: &[String]) -> Result<Vec<(String, Value)>, String> {
    dirs.iter()
        .map(|dir| {
            let path = Path::new(dir).join("results.json");
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let json = serde_json::from_str(&text)
                .map_err(|e| format!("{} is not JSON: {e}", path.display()))?;
            Ok((dir.clone(), json))
        })
        .collect()
}

/// The runs of `workload` among loaded results, with `metric`'s value. A
/// directory without a run of `workload` contributes none.
fn runs(results: &[(String, Value)], workload: &str, metric: &str) -> Result<Vec<Run>, String> {
    let mut out = Vec::new();
    for (dir, json) in results {
        let Some(entry) = json.get("runs").and_then(|r| r.get(workload)) else {
            continue;
        };
        let seed = entry
            .get("seed")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{dir}: the {workload} run has no seed"))?;
        out.push(Run {
            seed,
            correct: entry.get("correct").and_then(Value::as_bool) == Some(true),
            failed: entry.get("failed").and_then(Value::as_u64).unwrap_or(0),
            value: entry
                .get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .filter(|v| v.is_finite()),
        });
    }
    Ok(out)
}

/// Run the comparison, print one row per (workload, metric) and a final
/// JSON line; returns whether nothing regressed and every run was valid.
pub fn run(spec: &Spec, parent: &[String], change: &[String]) -> Result<bool, String> {
    if parent.is_empty() || change.is_empty() {
        return Err("usage: benchmark compare <parent-dirs…> -- <change-dirs…>".into());
    }
    if parent.len().min(change.len()) < MIN_PAIRS_FOR_GAIN {
        eprintln!(
            "[benchmark] note: {} parent and {} change runs; a gain needs {MIN_PAIRS_FOR_GAIN} pairs",
            parent.len(),
            change.len()
        );
    }
    let (parent, change) = (load(parent)?, load(change)?);
    let mut rows = Vec::new();
    let (mut regressed, mut invalid) = (0, 0);
    println!(
        "{:<12} {:<18} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "parent p50", "change p50", "change", "wins"
    );
    for workload in &spec.workloads {
        for Metric {
            name,
            unit,
            better,
            bound,
        } in &spec.end_to_end
        {
            let bound = bound.unwrap_or(0.0);
            let (p, c) = (
                runs(&parent, workload, name)?,
                runs(&change, workload, name)?,
            );
            if p.is_empty() && c.is_empty() {
                continue;
            }
            let row = judge_runs(&p, &c, *better, bound)?;
            regressed += usize::from(row.verdict == Verdict::Regressed);
            invalid += usize::from(row.invalid != [0, 0]);
            let quartiles = |q: Option<[f64; 3]>| {
                q.map_or(
                    Value::Null,
                    |q| json!({"q1": q[0], "median": q[1], "q3": q[2]}),
                )
            };
            let j = row.judgement.as_ref();
            let pct = j.map(|j| 100.0 * (j.change[1] - j.parent[1]) / j.parent[1].abs());
            match j {
                Some(j) => println!(
                    "{workload:<12} {name:<18} {:>12.6} {:>12.6} {:>+7.2}% {:>3}/{:<2}  {}",
                    j.parent[1],
                    j.change[1],
                    pct.unwrap_or(f64::NAN),
                    j.wins,
                    j.pairs,
                    row.verdict.as_str()
                ),
                None => println!(
                    "{workload:<12} {name:<18} {:>12} {:>12} {:>8} {:>6}  {}",
                    "-",
                    "-",
                    "-",
                    "-",
                    row.verdict.as_str()
                ),
            }
            if let Some(reason) = &row.reason {
                eprintln!("[benchmark] {workload} {name}: {reason}");
            }
            rows.push(json!({
                "workload": workload.as_str(),
                "metric": name.as_str(),
                "unit": unit.as_str(),
                "better": if *better == Better::Higher { "higher" } else { "lower" },
                "bound": bound,
                "n_parent": p.len(),
                "n_change": c.len(),
                "unpaired": row.unpaired,
                "invalid": {"parent": row.invalid[0], "change": row.invalid[1]},
                "failed": {"parent": row.failed[0], "change": row.failed[1]},
                "parent": quartiles(j.map(|j| j.parent)),
                "change": quartiles(j.map(|j| j.change)),
                "pairs": j.map_or(0, |j| j.pairs),
                "wins": j.map_or(0, |j| j.wins),
                "ties": j.map_or(0, |j| j.ties),
                "change_pct": pct.filter(|v| v.is_finite()),
                "verdict": row.verdict.as_str(),
                "reason": row.reason,
            }));
        }
    }
    println!(
        "{}",
        serde_json::to_string(&json!({"rows": rows, "regressed": regressed, "invalid": invalid}))
            .map_err(|e| e.to_string())?
    );
    Ok(regressed == 0 && invalid == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * i as f64).collect()
    }

    #[test]
    fn nine_of_ten_wins_and_a_gap_beyond_the_iqr_is_a_gain() {
        let parent = ramp(100.0, 1.0);
        let mut change: Vec<f64> = parent.iter().map(|v| v - 20.0).collect();
        change[3] = parent[3] + 1.0; // one loss still leaves 9/10
        let j = judge(&parent, &change, Better::Lower, 0.1).expect("judged");
        assert_eq!((j.wins, j.pairs), (9, 10));
        assert_eq!(j.verdict, Verdict::Improved);
        // Two losses: 8/10 is not a gain, though the median moved.
        change[4] = parent[4] + 1.0;
        let j = judge(&parent, &change, Better::Lower, 0.2).expect("judged");
        assert_eq!(j.wins, 8);
        assert_eq!(j.verdict, Verdict::Unchanged);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let parent = ramp(100.0, 1.0);
        let mut change = parent.clone();
        for v in change.iter_mut().take(9) {
            *v += 50.0; // higher is better: nine wins
        }
        let j = judge(&parent, &change, Better::Higher, 0.1).expect("judged");
        assert_eq!((j.wins, j.ties), (9, 1));
        change[0] = parent[0]; // a tie is not a win: 8/10
        let j = judge(&parent, &change, Better::Higher, 0.1).expect("judged");
        assert_eq!((j.wins, j.ties), (8, 2));
        assert_ne!(j.verdict, Verdict::Improved);
    }

    #[test]
    fn a_gap_inside_the_parent_iqr_is_no_gain() {
        let parent = ramp(100.0, 4.0); // IQR = 22
        let change: Vec<f64> = parent.iter().map(|v| v - 10.0).collect();
        let j = judge(&parent, &change, Better::Lower, 0.5).expect("judged");
        assert_eq!(j.wins, 10);
        assert_eq!(j.verdict, Verdict::Unchanged);
    }

    #[test]
    fn worse_beyond_the_bound_regresses_and_wide_spread_is_unresolved() {
        let parent = ramp(100.0, 0.1);
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        let j = judge(&parent, &slower, Better::Lower, 0.1).expect("judged");
        assert_eq!(j.verdict, Verdict::Regressed);
        let noisy: Vec<f64> = (0..10).map(|i| 80.0 + 5.0 * i as f64).collect();
        let j = judge(&parent, &noisy, Better::Lower, 0.1).expect("judged");
        assert_eq!(j.verdict, Verdict::Unresolved);
        let steady = ramp(100.05, 0.1);
        let j = judge(&parent, &steady, Better::Lower, 0.1).expect("judged");
        assert_eq!(j.verdict, Verdict::Unchanged);
        assert!(judge(&parent, &[1.0], Better::Lower, 0.1).is_none());
    }

    fn runs_of(values: &[f64]) -> Vec<Run> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| Run {
                seed: i as u64 + 1,
                correct: true,
                failed: 0,
                value: Some(v),
            })
            .collect()
    }

    #[test]
    fn runs_pair_by_seed_not_by_position() {
        let parent = runs_of(&ramp(100.0, 1.0));
        let change: Vec<Run> = parent
            .iter()
            .rev()
            .map(|r| Run {
                value: r.value.map(|v| v - 20.0),
                ..r.clone()
            })
            .collect();
        let row = judge_runs(&parent, &change, Better::Lower, 0.1).expect("paired");
        let j = row.judgement.expect("judged");
        assert_eq!((j.wins, j.pairs), (10, 10));
        assert_eq!(row.verdict, Verdict::Improved);

        // One change run missing: the nine left still pair with their own
        // seeds, not with their neighbours'.
        let row = judge_runs(&parent, &change[1..], Better::Lower, 0.1).expect("paired");
        let j = row.judgement.expect("judged");
        assert_eq!((j.wins, j.pairs, row.unpaired), (9, 9, 1));
        assert_ne!(
            row.verdict,
            Verdict::Improved,
            "nine pairs cannot show a gain"
        );

        let twice = [parent[0].clone(), parent[0].clone()];
        assert!(judge_runs(&twice, &change, Better::Lower, 0.1).is_err());
    }

    #[test]
    fn a_failed_run_on_either_side_leaves_the_row_unresolved() {
        let parent = runs_of(&ramp(100.0, 0.1));
        let change = parent.clone();
        let mut bad_parent = parent.clone();
        bad_parent[2].correct = false;
        let mut bad_change = change.clone();
        bad_change[7].value = None; // a null (non-finite) value
        let row = judge_runs(&bad_parent, &bad_change, Better::Lower, 0.1).expect("paired");
        assert_eq!(row.invalid, [1, 1]);
        assert_eq!(row.verdict, Verdict::Unresolved);
        assert!(row.judgement.is_none());
        let row = judge_runs(&parent, &change, Better::Lower, 0.1).expect("paired");
        assert_eq!(row.verdict, Verdict::Unchanged);
    }

    #[test]
    fn no_gain_when_the_change_fails_more_operations() {
        let parent = runs_of(&ramp(100.0, 1.0));
        let mut change: Vec<Run> = parent
            .iter()
            .map(|r| Run {
                value: r.value.map(|v| v - 20.0),
                ..r.clone()
            })
            .collect();
        change[4].failed = 3;
        let row = judge_runs(&parent, &change, Better::Lower, 0.1).expect("paired");
        assert_eq!(row.failed, [0, 3]);
        assert_eq!(row.verdict, Verdict::Unresolved);
        assert!(row.reason.expect("why").contains("failed 3"));
    }
}
