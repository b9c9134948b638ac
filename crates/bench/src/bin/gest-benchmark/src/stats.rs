//! Order statistics, the artifact digest, and the results file.

use gest::telemetry::json::Value;
use std::collections::BTreeMap;

/// Median of `samples` (mean of the two middle values for an even count);
/// `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(samples, n=4)` (the default "exclusive" method),
/// so spreads printed here match ones computed from the printed values.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let sorted = sorted(samples);
    let len = sorted.len();
    match len {
        0 => (f64::NAN, f64::NAN),
        1 => (sorted[0], sorted[0]),
        _ => {
            let m = len + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it, with its nearest-rank value: `(percentile,
/// value)`. Fewer than twenty samples fall back to the median.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let sorted = sorted(samples);
    let n = sorted.len();
    let percentile = [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| n.saturating_sub(rank(n, p)) >= 10)
        .unwrap_or(50.0);
    (percentile, percentile_of(&sorted, percentile))
}

/// The 1-based nearest rank of `percentile` among `n` samples.
fn rank(n: usize, percentile: f64) -> usize {
    // The epsilon keeps float error in `p/100 * n` from skipping a rank.
    ((percentile / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of already sorted samples; `NaN` when empty.
pub fn percentile_of(sorted: &[f64], percentile: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), percentile) - 1]
}

/// Ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// FNV-1a 64 over `bytes`: the digest of a final population encoding.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One metric of one workload, summarized over the samples it was read
/// from (rounds, generations or requests; `n` says how many).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Unit as printed (`1/s`, `ms`, `count`, ...).
    pub unit: String,
    /// The reported value: a median, a tail percentile, or a single
    /// traced-round reading.
    pub value: f64,
    /// First quartile of the samples behind `value` (equal to it for a
    /// single reading).
    pub q1: f64,
    /// Third quartile of the samples behind `value`.
    pub q3: f64,
    /// Sample count behind `value`.
    pub n: usize,
}

impl Summary {
    /// The median of `samples`, with its quartiles.
    pub fn of(unit: &str, samples: &[f64]) -> Summary {
        let (q1, q3) = quartiles(samples);
        Summary {
            unit: unit.to_string(),
            value: median(samples),
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// One reading with no spread of its own.
    pub fn single(unit: &str, value: f64) -> Summary {
        Summary {
            unit: unit.to_string(),
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Quartile distance as a share of the value; 0 when the value is 0.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }

    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("unit".into(), Value::Str(self.unit.clone())),
            ("value".into(), Value::Num(self.value)),
            ("q1".into(), Value::Num(self.q1)),
            ("q3".into(), Value::Num(self.q3)),
            ("n".into(), Value::Num(self.n as f64)),
        ])
    }

    fn from_json(value: &Value) -> Option<Summary> {
        Some(Summary {
            unit: value.get("unit")?.as_str()?.to_string(),
            value: value.get("value")?.as_f64()?,
            q1: value.get("q1")?.as_f64()?,
            q3: value.get("q3")?.as_f64()?,
            n: value.get("n")?.as_u64()? as usize,
        })
    }
}

/// Everything one workload run reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadReport {
    /// End-to-end metrics from the untraced rounds.
    pub end_to_end: BTreeMap<String, Summary>,
    /// Per-layer metrics from the traced round (empty when untraced).
    pub per_layer: BTreeMap<String, Summary>,
    /// Final-population digest per machine.
    pub digests: BTreeMap<String, u64>,
    /// Operations attempted (searches, HTTP requests, serve runs).
    pub attempted: u64,
    /// Operations that failed, digest mismatches included.
    pub failed: u64,
}

fn metrics_to_json(metrics: &BTreeMap<String, Summary>) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|(name, summary)| (name.clone(), summary.to_json()))
            .collect(),
    )
}

fn metrics_from_json(value: &Value) -> Option<BTreeMap<String, Summary>> {
    match value {
        Value::Obj(entries) => entries
            .iter()
            .map(|(name, summary)| Some((name.clone(), Summary::from_json(summary)?)))
            .collect(),
        _ => None,
    }
}

impl WorkloadReport {
    /// The JSON form, shared by the per-workload detail line and the
    /// results file. Digests are hex strings: a `u64` does not survive a
    /// JSON number.
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            (
                "digests".into(),
                Value::Obj(
                    self.digests
                        .iter()
                        .map(|(machine, digest)| {
                            (machine.clone(), Value::Str(format!("{digest:016x}")))
                        })
                        .collect(),
                ),
            ),
            ("end_to_end".into(), metrics_to_json(&self.end_to_end)),
            ("per_layer".into(), metrics_to_json(&self.per_layer)),
        ])
    }

    /// Parses [`WorkloadReport::to_json`] output.
    pub fn from_json(value: &Value) -> Option<WorkloadReport> {
        let digests = match value.get("digests")? {
            Value::Obj(entries) => entries
                .iter()
                .map(|(machine, digest)| {
                    let digest = u64::from_str_radix(digest.as_str()?, 16).ok()?;
                    Some((machine.clone(), digest))
                })
                .collect::<Option<BTreeMap<_, _>>>()?,
            _ => return None,
        };
        Some(WorkloadReport {
            end_to_end: metrics_from_json(value.get("end_to_end")?)?,
            per_layer: metrics_from_json(value.get("per_layer")?)?,
            digests,
            attempted: value.get("attempted")?.as_u64()?,
            failed: value.get("failed")?.as_u64()?,
        })
    }
}

/// The results file of a full benchmark run: one report per workload plus
/// the conditions it ran under.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Results {
    /// Workload seed.
    pub seed: u64,
    /// Seconds each workload measured for.
    pub seconds: u64,
    /// `std::thread::available_parallelism` of the host.
    pub threads: usize,
    /// Reports in run order.
    pub workloads: Vec<(String, WorkloadReport)>,
}

impl Results {
    /// Serializes the results file.
    pub fn to_json_string(&self) -> String {
        let doc = Value::Obj(vec![
            ("schema".into(), Value::Str("gest-benchmark/1".into())),
            ("seed".into(), Value::Num(self.seed as f64)),
            ("seconds".into(), Value::Num(self.seconds as f64)),
            ("threads".into(), Value::Num(self.threads as f64)),
            (
                "workloads".into(),
                Value::Obj(
                    self.workloads
                        .iter()
                        .map(|(name, report)| (name.clone(), report.to_json()))
                        .collect(),
                ),
            ),
        ]);
        let mut text = doc.to_string();
        text.push('\n');
        text
    }

    /// Parses a results file.
    ///
    /// # Errors
    ///
    /// A message naming what is malformed.
    pub fn parse(text: &str) -> Result<Results, String> {
        let doc = Value::parse(text).map_err(|e| e.to_string())?;
        if doc.get("schema").and_then(Value::as_str) != Some("gest-benchmark/1") {
            return Err("not a gest-benchmark/1 results file".into());
        }
        let field = |key: &str| {
            doc.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing or malformed {key:?}"))
        };
        let workloads = match doc.get("workloads") {
            Some(Value::Obj(entries)) => entries
                .iter()
                .map(|(name, report)| {
                    WorkloadReport::from_json(report)
                        .map(|report| (name.clone(), report))
                        .ok_or_else(|| format!("malformed report for workload {name:?}"))
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("missing \"workloads\"".into()),
        };
        Ok(Results {
            seed: field("seed")?,
            seconds: field("seconds")?,
            threads: field("threads")? as usize,
            workloads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_percentile() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand), (99.0, 990.0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), (90.0, 90.0));
        let ten_thousand: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&ten_thousand), (99.9, 9990.0));
        assert_eq!(tail(&[1.0, 2.0, 3.0]).0, 50.0);
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn results_round_trip_through_json() {
        let mut report = WorkloadReport {
            attempted: 12,
            failed: 1,
            ..WorkloadReport::default()
        };
        report.end_to_end.insert(
            "candidates_per_s".into(),
            Summary::of("1/s", &[5210.25, 5330.5, 5190.125]),
        );
        report
            .per_layer
            .insert("ga.breed_ms".into(), Summary::single("ms", 0.0625));
        report.digests.insert("cortex-a15".into(), u64::MAX - 7);
        let results = Results {
            seed: 42,
            seconds: 20,
            threads: 2,
            workloads: vec![("cold".into(), report)],
        };
        let parsed = Results::parse(&results.to_json_string()).unwrap();
        assert_eq!(parsed, results);
        assert!(Results::parse("{\"schema\":\"other\"}").is_err());
    }
}
