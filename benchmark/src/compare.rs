//! `--compare a.json b.json`: one row per (workload, end-to-end metric) of
//! two result sets, with both medians, the ratio and its base, the bound,
//! and a verdict. `a` is the base.

use crate::report::{Better, MetricDef, END_TO_END};
use crate::stats;
use sdflmq::mqttfc::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the base by more than the bound and more than the noise.
    Worse,
    /// The run-to-run spread is wider than the bound: no verdict either way.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct Row {
    pub base: f64,
    pub new: f64,
    /// `new / base`.
    pub ratio: f64,
    /// The wider of the two sets' inter-quartile spreads (share of median).
    pub spread: f64,
    pub verdict: Verdict,
}

/// Compares the medians of two sets of values of one metric.
pub fn judge(def: &MetricDef, base: &[f64], new: &[f64]) -> Row {
    let base_median = stats::median(base);
    let new_median = stats::median(new);
    let worse_by = match def.better {
        Better::Lower => new_median - base_median,
        Better::Higher => base_median - new_median,
    } / base_median.abs();
    let spread = stats::spread(base).max(stats::spread(new));
    let verdict = if worse_by > def.bound.max(spread) {
        Verdict::Worse
    } else if spread > def.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    Row {
        base: base_median,
        new: new_median,
        ratio: new_median / base_median,
        spread,
        verdict,
    }
}

fn values(set: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    set.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("values")?
        .as_array()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

fn failed(set: &Json, workload: &str) -> Option<f64> {
    set.get("workloads")?.get(workload)?.get("failed")?.as_f64()
}

/// Prints the comparison table; returns how many rows are `worse`.
pub fn compare(base: &Json, new: &Json, workloads: &[&str]) -> Result<usize, String> {
    let mut worse = 0;
    println!(
        "{:<18} {:<30} {:>16} {:>16} {:>8} {:>6} {:>7}  verdict",
        "workload", "metric", "base (a)", "new (b)", "b/a", "bound", "spread"
    );
    for workload in workloads {
        for def in END_TO_END {
            let get = |set, which| {
                values(set, workload, def.name)
                    .filter(|v| !v.is_empty())
                    .ok_or(format!("{which}: no values for {workload}/{}", def.name))
            };
            let row = judge(def, &get(base, "a")?, &get(new, "b")?);
            worse += usize::from(row.verdict == Verdict::Worse);
            println!(
                "{:<18} {:<30} {:>16.4} {:>16.4} {:>8.4} {:>6.2} {:>7.3}  {}",
                workload,
                format!("{} ({})", def.name, def.unit),
                row.base,
                row.new,
                row.ratio,
                def.bound,
                row.spread,
                row.verdict.as_str()
            );
        }
        // Failed operations must not rise at all.
        let (a, b) = (failed(base, workload), failed(new, workload));
        let (Some(a), Some(b)) = (a, b) else {
            return Err(format!("no failure count for {workload}"));
        };
        let verdict = if b > a { Verdict::Worse } else { Verdict::Ok };
        worse += usize::from(verdict == Verdict::Worse);
        println!(
            "{:<18} {:<30} {:>16} {:>16} {:>8} {:>6} {:>7}  {}",
            workload,
            "failed (count)",
            a,
            b,
            "-",
            "0",
            "-",
            verdict.as_str()
        );
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: MetricDef = MetricDef {
        name: "round_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    };
    const HIGHER: MetricDef = MetricDef {
        name: "rounds_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };

    #[test]
    fn within_bound_is_ok_in_both_directions() {
        let row = judge(&LOWER, &[100.0, 101.0, 99.0], &[108.0, 109.0, 107.0]);
        assert_eq!(row.verdict, Verdict::Ok);
        assert!((row.ratio - 1.08).abs() < 1e-12);
        assert_eq!(judge(&HIGHER, &[50.0], &[46.0]).verdict, Verdict::Ok);
        // An improvement is never worse, however large.
        assert_eq!(judge(&LOWER, &[100.0], &[10.0]).verdict, Verdict::Ok);
        assert_eq!(judge(&HIGHER, &[50.0], &[500.0]).verdict, Verdict::Ok);
    }

    #[test]
    fn beyond_bound_is_worse_in_the_metrics_own_direction() {
        assert_eq!(judge(&LOWER, &[100.0], &[111.0]).verdict, Verdict::Worse);
        assert_eq!(judge(&HIGHER, &[50.0], &[44.0]).verdict, Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_gap_clears_it() {
        // Quartiles of the base span 80..120: a 40 % spread, bound 10 %.
        let noisy = [80.0, 100.0, 120.0];
        assert_eq!(
            judge(&LOWER, &noisy, &[105.0, 106.0, 107.0]).verdict,
            Verdict::Unresolved
        );
        // 15 % worse is beyond the bound but inside the noise.
        assert_eq!(judge(&LOWER, &noisy, &[115.0]).verdict, Verdict::Unresolved);
        // 60 % worse clears both.
        assert_eq!(judge(&LOWER, &noisy, &[160.0]).verdict, Verdict::Worse);
    }

    #[test]
    fn compare_counts_worse_rows_and_needs_every_metric() {
        let set = |round_ms: f64, failed: f64| {
            let metrics = END_TO_END.iter().map(|def| {
                let v = if def.name == "round_ms_p50" {
                    round_ms
                } else {
                    1.0
                };
                (
                    def.name,
                    Json::object([("values", Json::Array(vec![Json::num(v)]))]),
                )
            });
            Json::object([(
                "workloads",
                Json::object([(
                    "w",
                    Json::object([
                        ("failed", Json::num(failed)),
                        ("metrics", Json::object(metrics)),
                    ]),
                )]),
            )])
        };
        assert_eq!(compare(&set(10.0, 0.0), &set(10.5, 0.0), &["w"]), Ok(0));
        assert_eq!(compare(&set(10.0, 0.0), &set(20.0, 0.0), &["w"]), Ok(1));
        assert_eq!(compare(&set(10.0, 0.0), &set(20.0, 3.0), &["w"]), Ok(2));
        assert!(compare(&set(10.0, 0.0), &set(10.0, 0.0), &["missing"]).is_err());
    }
}
