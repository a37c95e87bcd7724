//! Percentiles with their sample counts, and counter deltas.

use dstore_telemetry::TelemetrySnapshot;
use std::collections::BTreeMap;

/// A percentile must have at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// One percentile of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percentile {
    /// The value at the percentile.
    pub value: u64,
    /// Samples in the distribution.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// The `p`-th percentile (nearest rank) of `sorted`, refused (`Err`,
/// carrying what it would have been) when fewer than [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> Result<Percentile, Percentile> {
    let n = sorted.len();
    if n == 0 {
        return Err(Percentile {
            value: 0,
            samples: 0,
            beyond: 0,
        });
    }
    // The epsilon keeps an exact rank (99.9 % of 1000 = 999) from
    // rounding up past itself.
    let rank = ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n);
    let pct = Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    };
    if pct.beyond < MIN_BEYOND {
        Err(pct)
    } else {
        Ok(pct)
    }
}

/// Median of unsorted values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Counter values by series: each counter under its bare name (summed
/// over label sets, e.g. over shards) and under `name{k=v,…}`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters(BTreeMap<String, f64>);

impl Counters {
    /// Every counter of a telemetry snapshot.
    pub fn from_snapshot(snap: &TelemetrySnapshot) -> Self {
        let mut c = Counters::default();
        for s in &snap.counters {
            let labels: Vec<String> = s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            c.add(
                &format!("{}{{{}}}", s.name, labels.join(",")),
                s.value as f64,
            );
            c.add(&s.name, s.value as f64);
        }
        c
    }

    /// Adds `v` to counter `name`.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_string()).or_default() += v;
    }

    /// The value of `name` (0 when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `self - earlier`, series by series: what happened in between.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.get(k)))
                .collect(),
        )
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstore::{DStore, DStoreConfig};

    #[test]
    fn percentile_reports_count_and_refuses_thin_tails() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(
            percentile(&v, 50.0),
            Ok(Percentile {
                value: 500,
                samples: 1000,
                beyond: 500
            })
        );
        assert_eq!(
            percentile(&v, 99.0),
            Ok(Percentile {
                value: 990,
                samples: 1000,
                beyond: 10
            })
        );
        // p99.9 of 1000 samples has one sample beyond it: refused, but
        // the refusal still says how many samples there were.
        let refused = percentile(&v, 99.9).unwrap_err();
        assert_eq!((refused.samples, refused.beyond), (1000, 1));
        assert!(percentile(&v[..999], 99.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn counter_deltas_exclude_the_preload() {
        let store = DStore::create(DStoreConfig::small()).expect("create");
        let ctx = store.context();
        for i in 0..200u32 {
            ctx.put(format!("k{i}").as_bytes(), &[7u8; 64])
                .expect("preload");
        }
        let snap = || Counters::from_snapshot(&store.telemetry_snapshot().expect("telemetry"));
        let before = snap();
        assert_eq!(before.get("dstore_ops_total{op=put}"), 200.0);
        for i in 0..30u32 {
            ctx.get(format!("k{i}").as_bytes()).expect("get");
        }
        for i in 0..5u32 {
            ctx.put(format!("k{i}").as_bytes(), &[8u8; 64])
                .expect("put");
        }
        let d = snap().since(&before);
        assert_eq!(d.get("dstore_ops_total{op=put}"), 5.0);
        assert_eq!(d.get("dstore_ops_total{op=get}"), 30.0);
        assert_eq!(d.get("dstore_ops_total"), 35.0);
        assert!(d.get("dstore_pmem_fences_total") <= 5.0 * 4.0);
    }
}
