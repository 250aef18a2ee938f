//! `--compare A.json B.json`: every end-to-end metric of two result files
//! against the bounds fixed in `BENCHMARK.json`.
//!
//! One row per (workload, metric): A's median (the base), B's median, the
//! ratio B/A, the spread of each side's runs, and a verdict. B regresses
//! when it is worse than A by more than the bound; when either side's own
//! runs spread wider than the bound the row says so instead of "ok".
//! A last row per workload, `failed_fraction`, is the records' `failed` over
//! `attempted`; it has no bound: B regresses when its share is above A's.

use crate::json::Json;
use crate::stats::{median, quartile_spread};
use crate::Workload;

struct Bound {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

fn bounds() -> Result<Vec<Bound>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no `end_to_end` list"))?;
    list.iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            Some(Bound {
                name: s("name")?,
                unit: s("unit")?,
                higher_is_better: s("better")? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{path}: malformed `end_to_end` entry"))
}

/// The contract lines of the untraced runs of `workload` in a result file.
fn lines<'a>(doc: &'a Json, workload: &'a str) -> impl Iterator<Item = &'a Json> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(move |r| {
            let h = r.get("header");
            h.and_then(|h| h.get("workload")).and_then(Json::as_str) == Some(workload)
                && h.and_then(|h| h.get("trace")) == Some(&Json::Bool(false))
        })
        .filter_map(|r| r.get("line"))
}

/// Values of `metric` over those runs.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    lines(doc, workload)
        .filter_map(|l| l.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Failed operations over attempted ones, summed over those runs.
fn failed_fraction(doc: &Json, workload: &str) -> Option<f64> {
    let sum = |k: &str| -> f64 {
        lines(doc, workload)
            .filter_map(|l| l.get(k)?.as_f64())
            .sum()
    };
    let attempted = sum("attempted");
    (attempted > 0.0).then(|| sum("failed") / attempted)
}

/// How much worse `b` is than base `a`, as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Prints the table; `Ok(false)` when any row regresses.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let bounds = bounds()?;
    println!(
        "{:<22} {:<20} {:>13} {:>13} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "A iqr", "B iqr", "bound"
    );
    let mut ok = true;
    let mut rows = 0;
    for w in Workload::ALL.map(Workload::name) {
        for m in &bounds {
            let (va, vb) = (values(&a, w, &m.name), values(&b, w, &m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            rows += 1;
            let (ma, mb) = (median(&va), median(&vb));
            let (sa, sb) = (quartile_spread(&va), quartile_spread(&vb));
            let worse = worsening(ma, mb, m.higher_is_better);
            let verdict = if worse > m.bound {
                ok = false;
                "REGRESSION"
            } else if sa > m.bound || sb > m.bound {
                "unresolved (spread > bound)"
            } else {
                "ok"
            };
            println!(
                "{w:<22} {:<20} {ma:>13.6} {mb:>13.6} {:>8.4} {:>6.1}% {:>6.1}% {:>5.0}%  {verdict}",
                format!("{} [{}]", m.name, m.unit),
                mb / ma,
                sa * 100.0,
                sb * 100.0,
                m.bound * 100.0,
            );
        }
        if let (Some(fa), Some(fb)) = (failed_fraction(&a, w), failed_fraction(&b, w)) {
            let verdict = if fb > fa {
                ok = false;
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "{w:<22} {:<20} {fa:>13.6} {fb:>13.6} {:>8} {:>7} {:>7} {:>6}  {verdict}",
                "failed_fraction", "", "", "", "rise"
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no untraced run of any workload".to_string());
    }
    println!(
        "base: A = {path_a} ({} runs/workload at most), B = {path_b}; ratios are B over A",
        Workload::ALL
            .iter()
            .map(|w| values(&a, w.name(), "curve_wall_s").len())
            .max()
            .unwrap_or(0)
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(10.0, 11.0, false) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, false) + 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, true) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, true) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn values_pick_untraced_runs_of_one_workload() {
        let run = |w: &str, trace: bool, v: f64| {
            Json::obj(vec![
                (
                    "header",
                    Json::obj(vec![
                        ("workload", Json::str(w)),
                        ("trace", Json::Bool(trace)),
                    ]),
                ),
                (
                    "line",
                    Json::obj(vec![
                        ("attempted", Json::Num(100.0)),
                        ("failed", Json::Num(v.min(2.0))),
                        (
                            "metrics",
                            Json::obj(vec![(
                                "curve_wall_s",
                                Json::obj(vec![("value", Json::Num(v))]),
                            )]),
                        ),
                    ]),
                ),
            ])
        };
        let doc = Json::obj(vec![(
            "runs",
            Json::Arr(vec![
                run("serve-mixed", false, 1.0),
                run("serve-mixed", true, 9.0),
                run("ranks2-utb-k3", false, 5.0),
                run("serve-mixed", false, 3.0),
            ]),
        )]);
        assert_eq!(values(&doc, "serve-mixed", "curve_wall_s"), vec![1.0, 3.0]);
        assert!(values(&doc, "serve-mixed", "setup_s").is_empty());
        // 1 of 100 and 2 of 100 failed in the two untraced runs.
        assert_eq!(failed_fraction(&doc, "serve-mixed"), Some(0.015));
        assert_eq!(failed_fraction(&doc, "idvg-scf-wf"), None);
    }
}
