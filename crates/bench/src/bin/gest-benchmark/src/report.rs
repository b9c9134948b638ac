//! Printing: the driver's result line, the full run's table, and
//! `compare`.

use crate::stats::{Results, Summary, WorkloadReport};
use crate::{Spec, DIST_LAYER, END_TO_END, LATENCY, PER_LAYER};
use gest::telemetry::json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// The last stdout line of a single-workload run: end-to-end metrics when
/// untraced, per-layer metrics when traced.
pub fn result_line(report: &WorkloadReport, traced: bool) -> String {
    let (specs, metrics): (&[Spec], _) = if traced {
        (&PER_LAYER, &report.per_layer)
    } else {
        (&END_TO_END, &report.end_to_end)
    };
    let metrics = specs
        .iter()
        .filter_map(|spec| {
            let summary = metrics.get(spec.name)?;
            Some((
                spec.name.to_string(),
                Value::Obj(vec![
                    ("value".into(), Value::Num(summary.value)),
                    ("unit".into(), Value::Str(summary.unit.clone())),
                ]),
            ))
        })
        .collect();
    Value::Obj(vec![
        (
            "correct".into(),
            Value::Bool(report.failed == 0 && report.attempted > 0),
        ),
        ("attempted".into(), Value::Num(report.attempted as f64)),
        ("failed".into(), Value::Num(report.failed as f64)),
        ("metrics".into(), Value::Obj(metrics)),
    ])
    .to_string()
}

/// Checks that every workload produced the same final population for each
/// machine. Each disagreement is printed, counted as a failed operation of
/// the disagreeing workload, and returned in the total.
pub fn cross_check(results: &mut Results) -> usize {
    let mut first: BTreeMap<String, (String, u64)> = BTreeMap::new();
    let mut mismatches = 0;
    for (workload, report) in &mut results.workloads {
        for (machine, &digest) in &report.digests {
            let (owner, expected) = first
                .entry(machine.clone())
                .or_insert_with(|| (workload.clone(), digest))
                .clone();
            if expected != digest {
                eprintln!(
                    "gest-benchmark: {machine}: {workload} digest {digest:016x} differs from \
                     {owner} digest {expected:016x}"
                );
                report.failed += 1;
                mismatches += 1;
            }
        }
    }
    mismatches
}

fn metric_row(out: &mut String, name: &str, summary: &Summary) {
    let _ = writeln!(
        out,
        "  {name:<28} {:>14.4} {:<9} q1 {:<12.4} q3 {:<12.4} n={}",
        summary.value, summary.unit, summary.q1, summary.q3, summary.n
    );
}

/// The full run's printout: a rate / relative / per-thread table of the
/// headline throughput, then every metric of every workload by name.
pub fn table(results: &Results) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "gest-benchmark: seed {}, {} s per workload, {} threads",
        results.seed, results.seconds, results.threads
    );
    let rate = |report: &WorkloadReport| {
        report
            .end_to_end
            .get("candidates_per_s")
            .map_or(f64::NAN, |s| s.value)
    };
    let base = results.workloads.first().map_or(f64::NAN, |(_, r)| rate(r));
    let _ = writeln!(
        out,
        "\n{:<10} {:>16} {:>10} {:>18} {:>9}",
        "workload", "candidates/s", "relative", "per-thread /s", "failed"
    );
    for (name, report) in &results.workloads {
        let rate = rate(report);
        let _ = writeln!(
            out,
            "{name:<10} {rate:>16.1} {:>9.2}x {:>18.1} {:>5}/{}",
            rate / base,
            rate / results.threads as f64,
            report.failed,
            report.attempted
        );
    }
    for (name, report) in &results.workloads {
        let _ = writeln!(out, "\n{name}: end to end");
        for spec in END_TO_END.iter().chain(&LATENCY) {
            if let Some(summary) = report.end_to_end.get(spec.name) {
                metric_row(&mut out, spec.name, summary);
            }
        }
        let _ = writeln!(out, "{name}: per layer (traced round)");
        for spec in PER_LAYER.iter().chain(&DIST_LAYER) {
            if let Some(summary) = report.per_layer.get(spec.name) {
                metric_row(&mut out, spec.name, summary);
            }
        }
        let digests: Vec<String> = report
            .digests
            .iter()
            .map(|(machine, digest)| format!("{machine} {digest:016x}"))
            .collect();
        let _ = writeln!(out, "{name}: digests {}", digests.join(", "));
    }
    out
}

/// How a metric moved between two results files, following the
/// choosing-metrics rule: a spread wider than the bound leaves the change
/// unresolved unless the quartile ranges separate in the better direction.
pub fn verdict(spec: &Spec, before: &Summary, after: &Summary) -> &'static str {
    let relative = (after.value - before.value) / before.value.abs();
    let better = if spec.higher_is_better {
        relative
    } else {
        -relative
    };
    let separated = if spec.higher_is_better {
        after.q1 > before.q3
    } else {
        after.q3 < before.q1
    };
    let spread = before.spread().max(after.spread());
    if spread > spec.bound {
        if separated {
            "improved"
        } else {
            "unresolved"
        }
    } else if better < -spec.bound {
        "worse"
    } else if separated && better > spread.max(spec.bound / 2.0) {
        "improved"
    } else {
        "within bound"
    }
}

/// `compare BEFORE AFTER`: one row per (workload, metric). Fails when any
/// end-to-end metric got worse than its bound or a file holds failures.
pub fn compare_files(before: &str, after: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Results::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (before, after) = match (load(before), load(after)) {
        (Ok(before), Ok(after)) => (before, after),
        (Err(error), _) | (_, Err(error)) => {
            eprintln!("gest-benchmark: {error}");
            return ExitCode::FAILURE;
        }
    };
    let (text, worse) = compare(&before, &after);
    print!("{text}");
    if worse > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The comparison table and the number of end-to-end regressions (failed
/// operations in AFTER count as regressions too).
pub fn compare(before: &Results, after: &Results) -> (String, usize) {
    let mut out = String::new();
    let mut worse = 0;
    let _ = writeln!(
        out,
        "{:<8} {:<28} {:>12} {:>25} {:>12} {:>25} {:>8}  verdict",
        "workload", "metric", "before", "(q1 .. q3)", "after", "(q1 .. q3)", "change"
    );
    for (workload, after_report) in &after.workloads {
        let Some((_, before_report)) = before.workloads.iter().find(|(name, _)| name == workload)
        else {
            let _ = writeln!(out, "{workload:<8} (not in BEFORE)");
            continue;
        };
        if after_report.failed > 0 {
            worse += 1;
            let _ = writeln!(
                out,
                "{workload:<8} {} of {} operations failed",
                after_report.failed, after_report.attempted
            );
        }
        let sections = [
            (
                &END_TO_END[..],
                &before_report.end_to_end,
                &after_report.end_to_end,
            ),
            (
                &LATENCY[..],
                &before_report.end_to_end,
                &after_report.end_to_end,
            ),
            (
                &PER_LAYER[..],
                &before_report.per_layer,
                &after_report.per_layer,
            ),
            (
                &DIST_LAYER[..],
                &before_report.per_layer,
                &after_report.per_layer,
            ),
        ];
        for (specs, before_metrics, after_metrics) in sections {
            for spec in specs {
                let (Some(b), Some(a)) =
                    (before_metrics.get(spec.name), after_metrics.get(spec.name))
                else {
                    continue;
                };
                let verdict = if spec.bound > 0.0 {
                    verdict(spec, b, a)
                } else {
                    "(per layer)"
                };
                if verdict == "worse" {
                    worse += 1;
                }
                let change = if b.value == 0.0 {
                    String::from("-")
                } else {
                    format!("{:+.1}%", (a.value / b.value - 1.0) * 100.0)
                };
                let _ = writeln!(
                    out,
                    "{workload:<8} {:<28} {:>12.4} {:>25} {:>12.4} {:>25} {change:>8}  {verdict}",
                    spec.name,
                    b.value,
                    format!("({:.4} .. {:.4})", b.q1, b.q3),
                    a.value,
                    format!("({:.4} .. {:.4})", a.q1, a.q3),
                );
            }
        }
    }
    (out, worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(value: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            unit: "1/s".into(),
            value,
            q1,
            q3,
            n: 5,
        }
    }

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        let rate = END_TO_END[0];
        assert!(rate.higher_is_better);
        let base = summary(100.0, 99.0, 101.0);
        assert_eq!(
            verdict(&rate, &base, &summary(101.0, 100.0, 102.0)),
            "within bound"
        );
        assert_eq!(verdict(&rate, &base, &summary(70.0, 69.0, 71.0)), "worse");
        assert_eq!(
            verdict(&rate, &base, &summary(140.0, 139.0, 141.0)),
            "improved"
        );
        // A spread wider than the bound resolves only on separation.
        let noisy = summary(100.0, 70.0, 130.0);
        assert_eq!(
            verdict(&rate, &noisy, &summary(90.0, 85.0, 95.0)),
            "unresolved"
        );
        assert_eq!(
            verdict(&rate, &noisy, &summary(200.0, 190.0, 210.0)),
            "improved"
        );
        // Lower-is-better flips the direction.
        let latency = LATENCY[0];
        assert!(!latency.higher_is_better);
        assert_eq!(
            verdict(&latency, &base, &summary(130.0, 129.0, 131.0)),
            "worse"
        );
        assert_eq!(
            verdict(&latency, &base, &summary(70.0, 69.0, 71.0)),
            "improved"
        );
    }

    #[test]
    fn result_line_carries_the_requested_metric_set() {
        let mut report = WorkloadReport {
            attempted: 4,
            ..WorkloadReport::default()
        };
        report
            .end_to_end
            .insert("setup_s".into(), Summary::single("s", 0.25));
        report
            .per_layer
            .insert("ga.breed_ms".into(), Summary::single("ms", 0.5));
        let untraced = Value::parse(&result_line(&report, false)).unwrap();
        assert_eq!(untraced.get("correct").and_then(Value::as_bool), Some(true));
        let metrics = untraced.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("setup_s")
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64),
            Some(0.25)
        );
        assert!(metrics.get("ga.breed_ms").is_none());
        let traced = Value::parse(&result_line(&report, true)).unwrap();
        assert!(traced.get("metrics").unwrap().get("ga.breed_ms").is_some());
        report.failed = 1;
        let failed = Value::parse(&result_line(&report, false)).unwrap();
        assert_eq!(failed.get("correct").and_then(Value::as_bool), Some(false));
    }
}
