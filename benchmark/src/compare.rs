//! `compare`: judge a change against its parent from `run` files, by the
//! bounds in `BENCHMARK.json`. Runs come in `(parent, change)` pairs, made
//! alternately so that each side goes first in half of them.
//!
//! For each workload × end-to-end metric the verdict is one of
//! - `improved`: the change wins at least 9 of 10 pairs of runs (ties count
//!   for neither side) and its median is better than the parent's by more
//!   than the parent's spread between quartiles;
//! - `regressed`: the change's median is worse than the parent's by more
//!   than the metric's bound;
//! - `unresolved`: either side's spread between quartiles, as a share of
//!   its median, is wider than the bound, unless every run of the change
//!   reads better than every run of the parent;
//! - `unchanged`: otherwise.

use crate::stats::quartiles;
use crate::RunFile;
use serde::Value;

/// One end-to-end metric's regression rule, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Relative worsening of the median allowed before a regression.
    pub bound: f64,
}

/// The `end_to_end` bounds declared in `BENCHMARK.json` text.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = serde_json::parse_value(benchmark_json).map_err(|e| e.to_string())?;
    let entries = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let field = |k: &str| e.get(k).ok_or(format!("end_to_end entry without `{k}`"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change is better by the gain rule.
    Improved,
    /// No gain and no regression beyond the bound.
    Unchanged,
    /// Worse than the parent by more than the bound.
    Regressed,
    /// Too noisy to tell within the bound.
    Unresolved,
}

impl Verdict {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `change` against `parent`, run `i` of one paired with run `i` of
/// the other.
pub fn judge(parent: &[f64], change: &[f64], rule: &Bound) -> Verdict {
    let better = |a: f64, b: f64| {
        if rule.higher_is_better {
            a > b
        } else {
            a < b
        }
    };
    let (pq1, pm, pq3) = quartiles(parent);
    let (cq1, cm, cq3) = quartiles(change);
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    if better(cm, pm) && wins * 10 >= pairs * 9 && (cm - pm).abs() > pq3 - pq1 {
        return Verdict::Improved;
    }
    let spread = ((pq3 - pq1) / pm.abs()).max((cq3 - cq1) / cm.abs());
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if spread > rule.bound && !all_better {
        return Verdict::Unresolved;
    }
    let worse_by = if rule.higher_is_better {
        (pm - cm) / pm.abs()
    } else {
        (cm - pm) / pm.abs()
    };
    if worse_by > rule.bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// The repetitions of `metric` on `workload` in a run file.
fn samples<'a>(run: &'a RunFile, workload: &str, metric: &str) -> &'a [f64] {
    run.workloads
        .iter()
        .find(|w| w.name == workload)
        .and_then(|w| w.metrics.iter().find(|m| m.name == metric))
        .map_or(&[], |m| &m.samples)
}

/// Compare each workload × metric over `(parent, change)` pairs of run
/// files, whose repetitions are paired in order (a longer side's extra
/// repetitions are left out). One line each:
/// `workload metric verdict parent_median change_median delta%`.
pub fn report(pairs: &[(RunFile, RunFile)], rules: &[Bound]) -> Vec<(String, Verdict)> {
    let mut lines = Vec::new();
    let Some((first, _)) = pairs.first() else {
        return lines;
    };
    for workload in &first.workloads {
        for rule in rules {
            let (mut parent, mut change) = (Vec::new(), Vec::new());
            for (p, c) in pairs {
                let (ps, cs) = (
                    samples(p, &workload.name, &rule.name),
                    samples(c, &workload.name, &rule.name),
                );
                let n = ps.len().min(cs.len());
                parent.extend_from_slice(&ps[..n]);
                change.extend_from_slice(&cs[..n]);
            }
            if parent.is_empty() {
                continue;
            }
            let verdict = judge(&parent, &change, rule);
            let (pm, cm) = (quartiles(&parent).1, quartiles(&change).1);
            let delta = (cm - pm) / pm.abs() * 100.0;
            lines.push((
                format!(
                    "{} {} {} {pm} {cm} {delta:+.2}%",
                    workload.name,
                    rule.name,
                    verdict.label()
                ),
                verdict,
            ));
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(higher_is_better: bool, bound: f64) -> Bound {
        Bound {
            name: "m".into(),
            higher_is_better,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_gain_and_bound_rules() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        let slower: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        let hi = rule(true, 0.1);
        assert_eq!(judge(&parent, &faster, &hi), Verdict::Improved);
        assert_eq!(judge(&parent, &slower, &hi), Verdict::Regressed);
        assert_eq!(judge(&parent, &same, &hi), Verdict::Unchanged);
        // The same numbers read as latencies flip the direction.
        let lo = rule(false, 0.1);
        assert_eq!(judge(&parent, &slower, &lo), Verdict::Improved);
        assert_eq!(judge(&parent, &faster, &lo), Verdict::Regressed);
        // A spread wider than the bound cannot be called either way.
        let noisy: Vec<f64> = (0..10).map(|i| 50.0 + 20.0 * f64::from(i)).collect();
        assert_eq!(judge(&noisy, &noisy, &hi), Verdict::Unresolved);
    }
}
