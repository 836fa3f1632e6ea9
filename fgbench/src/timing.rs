//! The timed section of an untraced run.

use std::time::Instant;

use crate::metrics::{self, Probe};
use crate::report::{Kind, Report};

/// Iterations made even when the run length is already spent.
const MIN_REPS: usize = 3;

/// What the timed section measured, and the last iteration's output.
pub struct Timed<S, R> {
    /// The last iteration's set-up.
    pub setup: S,
    /// The last iteration's workload output.
    pub out: R,
    /// The last iteration's simulated-counter digest.
    pub digest: String,
    /// True when every iteration produced the same digest.
    pub deterministic: bool,
    setups: Vec<f64>,
    walls: Vec<f64>,
    probes: Vec<f64>,
    peak_rss_mb: f64,
}

/// Runs iterations of set-up, workload and host probe until `seconds`
/// have passed. `work` returns its output and a digest of the simulated
/// counters, which must repeat in every iteration.
pub fn repeat<S, R>(
    seconds: f64,
    mut setup: impl FnMut() -> Result<S, String>,
    mut work: impl FnMut(&S) -> Result<(R, String), String>,
) -> Result<Timed<S, R>, String> {
    let mut probe: Option<Probe> = None;
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut probes = Vec::new();
    let mut peak_rss_mb = 0.0;
    let mut last: Option<(S, R, String)> = None;
    let mut deterministic = true;
    let started = Instant::now();
    while walls.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let s = setup()?;
        setups.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let (out, digest) = work(&s)?;
        walls.push(t.elapsed().as_secs_f64());
        if walls.len() == 1 {
            // Later iterations reuse freed memory to a degree that depends
            // on how many ran, so the peak is taken after the first.
            peak_rss_mb = metrics::peak_rss_mb();
        }
        probes.push(probe.get_or_insert_with(Probe::new).time());
        if let Some((_, _, prev)) = &last {
            deterministic &= *prev == digest;
        }
        last = Some((s, out, digest));
    }
    let (setup, out, digest) = last.expect("at least one iteration");
    Ok(Timed {
        setup,
        out,
        digest,
        deterministic,
        setups,
        walls,
        probes,
        peak_rss_mb,
    })
}

impl<S, R> Timed<S, R> {
    /// Records the run's timing metrics and determinism check.
    ///
    /// Each iteration's times are scaled by the host probe that follows
    /// it (`Probe::REF_S / probe`) before the median is taken: the
    /// shared host's speed drifts by tens of percent over seconds, and
    /// the probe, which runs no simulator code, moves with it. The raw
    /// medians are reported beside the scaled ones.
    pub fn report(&self, report: &mut Report, requests: f64) {
        let n = self.walls.len();
        let scale = |times: &[f64]| -> f64 {
            let scaled: Vec<f64> = times
                .iter()
                .zip(&self.probes)
                .map(|(t, p)| t * Probe::REF_S / p)
                .collect();
            metrics::median(&scaled)
        };
        let wall = scale(&self.walls);
        report.runs = n;
        report.digest = self.digest.clone();
        report.check(
            "deterministic",
            self.deterministic,
            format!("{n} iterations"),
        );
        report.add_sampled("setup_s", scale(&self.setups), "s", Kind::Host, n);
        report.add_sampled("wall_s", wall, "s", Kind::Host, n);
        report.add_sampled("req_per_s", requests / wall, "1/s", Kind::Host, n);
        report.add("peak_rss_mb", self.peak_rss_mb, "MB", Kind::Host);
        let raw = |v: &[f64]| metrics::median(v);
        report.add_sampled("setup_raw_s", raw(&self.setups), "s", Kind::Host, n);
        report.add_sampled("wall_raw_s", raw(&self.walls), "s", Kind::Host, n);
        report.add_sampled(
            "wall_raw_p75_s",
            metrics::quantile(&self.walls, 0.75),
            "s",
            Kind::Host,
            n,
        );
        report.add_sampled("host_probe_s", raw(&self.probes), "s", Kind::Host, n);
    }
}
