//! Set files (`all` writes one) and the comparison of two of them.

use crate::json::Json;
use crate::spec::{Better, Metric, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles, spread};

/// The values of one metric on one workload over a set's runs, in run order.
fn values(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    set.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|run| run.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|run| {
            run.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn failed_ops(set: &Json) -> f64 {
    set.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|run| run.get("result")?.get("failed")?.as_f64())
        .sum()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    /// The runs of one side spread wider than the bound, so that a change
    /// within the bound cannot be told from none.
    Unresolved,
    Fail,
}

/// Holds `b` against `a` for one metric: FAIL when `b`'s median is worse
/// than `a`'s by more than the bound; UNRESOLVED when either side's
/// interquartile range is wider than the bound, unless every run of `b`
/// reads better than every run of `a`.
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.expect("an end-to-end metric has a bound");
    let (ma, mb) = (median(a), median(b));
    let worse_by = match metric.better {
        Better::Lower => mb / ma - 1.0,
        Better::Higher => 1.0 - mb / ma,
    };
    if worse_by > bound {
        return Verdict::Fail;
    }
    let fold = |xs: &[f64], f: fn(f64, f64) -> f64, init| xs.iter().copied().fold(init, f);
    let b_all_better = match metric.better {
        Better::Lower => fold(b, f64::max, f64::MIN) < fold(a, f64::min, f64::MAX),
        Better::Higher => fold(b, f64::min, f64::MAX) > fold(a, f64::max, f64::MIN),
    };
    if (spread(a) > bound || spread(b) > bound) && !b_all_better {
        Verdict::Unresolved
    } else {
        Verdict::Pass
    }
}

/// Prints one row per (end-to-end metric, workload); `Ok(true)` when no row
/// failed and neither set had a failed operation.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    println!(
        "{:<16} {:<15} {:>3} {:>11} {:>21} {:>11} {:>21} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "n",
        "median A",
        "quartiles A",
        "median B",
        "quartiles B",
        "B/A",
        "bound"
    );
    let mut ok = true;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (values(a, w.name, m.name), values(b, w.name, m.name));
            if va.len() < 2 || vb.len() < 2 {
                return Err(format!(
                    "{} on {}: a set needs at least two runs of each workload",
                    m.name, w.name
                ));
            }
            let verdict = judge(m, &va, &vb);
            ok &= verdict != Verdict::Fail;
            let ((a1, a3), (b1, b3)) = (quartiles(&va), quartiles(&vb));
            println!(
                "{:<16} {:<15} {:>3} {:>11.4} {:>10.4}-{:<10.4} {:>11.4} {:>10.4}-{:<10.4} {:>7.4} {:>6.2}  {}",
                w.name,
                m.name,
                va.len().min(vb.len()),
                median(&va),
                a1,
                a3,
                median(&vb),
                b1,
                b3,
                median(&vb) / median(&va),
                m.bound.unwrap_or(0.0),
                match verdict {
                    Verdict::Pass => "PASS",
                    Verdict::Unresolved => "UNRESOLVED",
                    Verdict::Fail => "FAIL",
                }
            );
        }
    }
    let (fa, fb) = (failed_ops(a), failed_ops(b));
    println!("failed operations: A {fa}, B {fb} (any failed operation fails the comparison)");
    Ok(ok && fa == 0.0 && fb == 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Metric = Metric {
        name: "t",
        unit: "s",
        better: Better::Lower,
        bound: Some(0.10),
    };
    const HIGHER: Metric = Metric {
        name: "r",
        unit: "1/s",
        better: Better::Higher,
        bound: Some(0.10),
    };

    #[test]
    fn verdicts() {
        let steady = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(judge(&LOWER, &steady, &steady), Verdict::Pass);
        assert_eq!(
            judge(&LOWER, &steady, &steady.map(|x| x * 1.09)),
            Verdict::Pass
        );
        assert_eq!(
            judge(&LOWER, &steady, &steady.map(|x| x * 1.12)),
            Verdict::Fail
        );
        assert_eq!(
            judge(&HIGHER, &steady, &steady.map(|x| x * 0.88)),
            Verdict::Fail
        );
        assert_eq!(
            judge(&HIGHER, &steady, &steady.map(|x| x * 1.5)),
            Verdict::Pass
        );
        let noisy = [1.0, 1.3, 0.8, 1.1, 0.9];
        assert_eq!(judge(&LOWER, &noisy, &steady), Verdict::Unresolved);
        // Wide spread, but every run of B beats every run of A.
        assert_eq!(
            judge(&LOWER, &noisy, &noisy.map(|x| x * 0.5)),
            Verdict::Pass
        );
    }

    #[test]
    fn reads_values_out_of_a_set() {
        let set = Json::parse(
            r#"{"runs":[
            {"workload":"serve-mix","result":{"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"}}}},
            {"workload":"steady-ilu1","result":{"failed":2,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}},
            {"workload":"serve-mix","result":{"failed":0,"metrics":{"setup_s":{"value":1.25,"unit":"s"}}}}]}"#,
        )
        .unwrap();
        assert_eq!(values(&set, "serve-mix", "setup_s"), vec![1.5, 1.25]);
        assert_eq!(values(&set, "serve-mix", "absent"), Vec::<f64>::new());
        assert_eq!(failed_ops(&set), 2.0);
    }
}
