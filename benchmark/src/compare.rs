//! `--append` result files and `--compare` over two of them.
//!
//! A result file holds one JSON object per line: the result line of a run
//! with its workload and seed in front. `--compare a b` judges `b` against
//! `a` per workload and metric: the ratio of medians, the metric's bound,
//! and a verdict — `ok`, `regressed`, or `unresolved` when the run-to-run
//! spread of either side is wider than the bound, so the comparison cannot
//! tell. Per-layer metrics have no bound and get no verdict.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use tfm_telemetry::Json;

use crate::metrics::{Better, END_TO_END};

pub fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

type Samples = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut samples = Samples::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", n + 1);
        let doc = Json::parse(line).map_err(|e| bad(&e))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err(bad("no metrics"));
        };
        for (name, m) in metrics {
            let value = match m.get("value") {
                Some(Json::Num(v)) => *v,
                Some(Json::Int(v)) => *v as f64,
                _ => return Err(bad("a metric without a value")),
            };
            samples
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(samples)
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(xs, n=4)` gives them.
fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n < 2 {
        return [xs[0]; 3];
    }
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0
    })
}

/// Interquartile distance as a share of the median.
fn spread(xs: &[f64]) -> f64 {
    let [q1, med, q3] = quartiles(xs);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

pub fn compare(a: &str, b: &str) -> Result<(), String> {
    let (base, new) = (load(a)?, load(b)?);
    println!(
        "{:<16} {:<34} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "median a", "median b", "b/a", "spread", "bound"
    );
    let mut regressed = 0;
    for ((workload, metric), xs) in &base {
        let Some(ys) = new.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (ma, mb) = (quartiles(xs)[1], quartiles(ys)[1]);
        let wide = spread(xs).max(spread(ys));
        let judged = END_TO_END.iter().find(|m| m.name == metric.as_str());
        let (bound, verdict) = match judged {
            None => ("-".to_string(), "-"),
            Some(m) => {
                let worse = match m.better {
                    Better::Lower => mb / ma - 1.0,
                    Better::Higher => 1.0 - mb / ma,
                };
                let verdict = if wide > m.bound {
                    "unresolved"
                } else if worse > m.bound {
                    regressed += 1;
                    "regressed"
                } else {
                    "ok"
                };
                (format!("{:.3}", m.bound), verdict)
            }
        };
        println!(
            "{workload:<16} {metric:<34} {ma:>14.6} {mb:>14.6} {:>8.4} {wide:>7.4} {bound:>7}  {verdict}",
            mb / ma
        );
    }
    println!("{regressed} regressed");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 4, 7, 11], n=4) == [1.5, 4.0, 9.0]
        assert_eq!(quartiles(&[11.0, 1.0, 4.0, 2.0, 7.0]), [1.5, 4.0, 9.0]);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(spread(&ten), 1.0);
        assert_eq!(spread(&[3.0]), 0.0);
    }
}
