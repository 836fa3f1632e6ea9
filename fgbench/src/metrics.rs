//! Metric math: every derived number the benchmark prints goes through
//! one of these functions, so each is unit-tested on its own.

use std::time::Instant;

/// The paper's FgNVM 8x2 mean IPC speedup over the baseline (Fig. 4).
pub const PAPER_SPEEDUP: f64 = 1.565;

/// The paper's mean energy relative to baseline at 8x2, 8x8 and 8x32
/// (Fig. 5).
pub const PAPER_ENERGY: [f64; 3] = [0.63, 0.35, 0.27];

/// `num / den`, or 0 when nothing was counted.
pub fn frac(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile: the smallest value with at least a share `q`
/// of the values at or below it; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    frac(values.iter().sum(), values.len() as f64)
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Relative error of the simulated mean speedup against the paper's.
pub fn paper_err_speedup(gmean_speedup: f64) -> f64 {
    (gmean_speedup - PAPER_SPEEDUP).abs() / PAPER_SPEEDUP
}

/// Mean relative error of the 8x2/8x8/8x32 mean energies against the
/// paper's.
pub fn paper_err_energy(means: [f64; 3]) -> f64 {
    let errs: Vec<f64> = means
        .iter()
        .zip(PAPER_ENERGY)
        .map(|(m, p)| (m - p).abs() / p)
        .collect();
    mean(&errs)
}

/// Refused admission attempts over all admission attempts (a successful
/// admission is one attempt, every refusal another).
pub fn refused_frac(refused: u64, admitted: u64) -> f64 {
    frac(refused as f64, (refused + admitted) as f64)
}

/// Cycles advanced by `tick_to` leaps over all cycles advanced.
pub fn leap_frac(leap_cycles: u64, stepped_cycles: u64) -> f64 {
    frac(leap_cycles as f64, (leap_cycles + stepped_cycles) as f64)
}

/// Self time of a span `[start, end)`: its length minus the part of it
/// that the union of its child spans covers. Children may overlap each
/// other (threads) and stick out of the parent; both are clipped.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

/// Exact nearest-rank percentile of a latency histogram indexed by
/// latency in cycles: the smallest latency with at least `p` of the
/// samples at or below it. 0 when the histogram is empty.
pub fn hist_percentile(counts: &[u64], p: f64) -> u64 {
    let n: u64 = counts.iter().sum();
    if n == 0 {
        return 0;
    }
    let rank = ((p * n as f64).ceil() as u64).clamp(1, n);
    let mut seen = 0;
    for (lat, c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return lat as u64;
        }
    }
    unreachable!("rank is at most the sample count")
}

/// Adds one sample to a latency histogram indexed by cycles.
pub fn hist_add(counts: &mut Vec<u64>, latency: u64) {
    let i = latency as usize;
    if i >= counts.len() {
        counts.resize(i + 1, 0);
    }
    counts[i] += 1;
}

/// Adds `other` into `into`, bucket by bucket.
pub fn hist_merge(into: &mut Vec<u64>, other: &[u64]) {
    if other.len() > into.len() {
        into.resize(other.len(), 0);
    }
    for (a, b) in into.iter_mut().zip(other) {
        *a += b;
    }
}

/// Time and call count of one layer's calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Acc {
    /// Total nanoseconds inside the calls.
    pub ns: u64,
    /// Calls made.
    pub calls: u64,
}

impl Acc {
    /// Records one call that started at `since` and ends now.
    pub fn record(&mut self, since: Instant) {
        self.ns += since.elapsed().as_nanos() as u64;
        self.calls += 1;
    }

    /// Folds another accumulator into this one.
    pub fn merge(&mut self, other: Acc) {
        self.ns += other.ns;
        self.calls += other.calls;
    }

    /// Total time in seconds.
    pub fn secs(self) -> f64 {
        self.ns as f64 * 1e-9
    }
}

/// A fixed amount of simulator-independent work — random
/// read-modify-writes over an 8 MB table — timed between workload
/// repetitions to track how fast the shared host runs right now.
pub struct Probe {
    table: Vec<u64>,
}

impl Probe {
    /// Probe rounds take about this long on an uncontended host; scaled
    /// times are expressed in seconds at that speed.
    pub const REF_S: f64 = 0.06;

    /// Allocates and touches the table.
    pub fn new() -> Self {
        Probe {
            table: vec![1; 1 << 20],
        }
    }

    /// Seconds one round of probe work takes now.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        let mask = self.table.len() - 1;
        let mut s: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut acc = 0u64;
        for _ in 0..8_000_000 {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let i = (z as usize) & mask;
            self.table[i] = self.table[i].wrapping_add(z);
            acc ^= self.table[i.wrapping_mul(7) & mask];
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64()
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_of_equal_values_is_the_value() {
        assert!((gmean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(gmean(&[]), 0.0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.25), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.0);
        assert_eq!(quantile(&v, 0.75), 3.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.25), 0.0);
    }

    #[test]
    fn paper_errors_are_zero_at_the_paper_values() {
        assert_eq!(paper_err_speedup(PAPER_SPEEDUP), 0.0);
        assert_eq!(paper_err_energy(PAPER_ENERGY), 0.0);
        assert!((paper_err_speedup(1.565 * 1.1) - 0.1).abs() < 1e-12);
        // 10% high on the first, exact on the rest: mean error 0.1 / 3.
        let e = paper_err_energy([0.693, 0.35, 0.27]);
        assert!((e - 0.1 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn refused_fraction_counts_every_attempt() {
        assert_eq!(refused_frac(0, 0), 0.0);
        assert_eq!(refused_frac(0, 10), 0.0);
        assert_eq!(refused_frac(1, 3), 0.25);
    }

    #[test]
    fn leap_fraction_is_share_of_leapt_cycles() {
        assert_eq!(leap_frac(0, 0), 0.0);
        assert_eq!(leap_frac(83, 17), 0.83);
        assert_eq!(leap_frac(10, 0), 1.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping children are counted once.
        assert_eq!(self_time((0, 100), &[(10, 40), (20, 50)]), 60);
        // Children are clipped to the parent.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 30)]), 3);
        assert_eq!(self_time((0, 10), &[(0, 10)]), 0);
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let mut h = Vec::new();
        for lat in 1..=100 {
            hist_add(&mut h, lat);
        }
        assert_eq!(hist_percentile(&h, 0.5), 50);
        assert_eq!(hist_percentile(&h, 0.99), 99);
        assert_eq!(hist_percentile(&h, 1.0), 100);
        assert_eq!(hist_percentile(&[], 0.5), 0);
        let mut m = vec![0, 1];
        hist_merge(&mut m, &h);
        assert_eq!(m.iter().sum::<u64>(), 101);
    }
}
