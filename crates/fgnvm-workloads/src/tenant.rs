//! Multi-tenant open-loop arrival processes.
//!
//! A serve run hosts N tenants, each an independent open-loop request
//! stream with its own arrival process (Poisson or a 2-state MMPP for
//! burstiness), address mix, read fraction, and read-p99 SLO target.
//! Every stream is a pure function of `(seed, tenant index)` and carries
//! integer-only generator state ([`TenantStream`]) that snapshots and
//! restores exactly, so a killed multi-tenant run resumes with every
//! per-tenant stream byte-identical to the uninterrupted run.
//!
//! The CLI spec format (one string describes the whole tenant set) is
//! parsed by [`parse_tenants`] and rendered back by [`render_tenants`];
//! the two round-trip so fuzz cases and experiment scripts can persist
//! tenant sets as plain text.

use std::fmt;

use fgnvm_types::request::Op;
use fgnvm_types::{splitmix64, SnapshotError, SnapshotReader, SnapshotWriter};

/// Arrival process of one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Never generates an arrival (a provisioned-but-idle tenant; its
    /// accounting must still exist and stay at zero).
    Off,
    /// Poisson arrivals: exponential inter-arrival gaps with the given
    /// mean, in cycles.
    Poisson {
        /// Mean inter-arrival gap in cycles (≥ 1).
        mean_gap: u64,
    },
    /// 2-state Markov-modulated Poisson process: the stream alternates
    /// between a calm and a burst phase, each exponentially dwelled, with
    /// a different mean gap in each — the standard model for bursty
    /// tenants.
    Mmpp {
        /// Mean inter-arrival gap while calm, in cycles (≥ 1).
        gap_calm: u64,
        /// Mean inter-arrival gap while bursting, in cycles (≥ 1).
        gap_burst: u64,
        /// Mean dwell time of the calm phase, in cycles (≥ 1).
        dwell_calm: u64,
        /// Mean dwell time of the burst phase, in cycles (≥ 1).
        dwell_burst: u64,
    },
}

/// Address mix of one tenant, over the device's line space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddressMix {
    /// Three quarters of traffic on the first `hot_lines` lines, the tail
    /// uniform over the whole space (the serve driver's classic shape).
    Hot {
        /// Size of the hot set in lines.
        hot_lines: u64,
    },
    /// Uniform over the whole line space.
    Uniform,
    /// Uniform over a percent slice `[lo_pct, hi_pct)` of the line space
    /// — disjoint slices give tenants disjoint footprints.
    Range {
        /// Inclusive lower bound, percent of the line space.
        lo_pct: u8,
        /// Exclusive upper bound, percent of the line space.
        hi_pct: u8,
    },
}

/// Full description of one tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Human-readable tenant name (letters/digits/`_`/`-`).
    pub name: String,
    /// Arrival process.
    pub arrival: ArrivalKind,
    /// Address mix.
    pub mix: AddressMix,
    /// Percent of arrivals that are reads (0..=100).
    pub read_pct: u8,
    /// Read-latency p99 SLO target in cycles (0 disables SLO tracking
    /// for this tenant).
    pub slo_read_p99: u64,
}

impl TenantSpec {
    /// A Poisson tenant with the hot-set mix — the common baseline.
    pub fn poisson(name: &str, mean_gap: u64) -> Self {
        TenantSpec {
            name: name.to_string(),
            arrival: ArrivalKind::Poisson { mean_gap },
            mix: AddressMix::Hot { hot_lines: 64 },
            read_pct: 65,
            slo_read_p99: 0,
        }
    }

    /// A bursty MMPP tenant with the hot-set mix.
    pub fn bursty(name: &str, gap_calm: u64, gap_burst: u64, dwell: u64) -> Self {
        TenantSpec {
            name: name.to_string(),
            arrival: ArrivalKind::Mmpp {
                gap_calm,
                gap_burst,
                dwell_calm: dwell,
                dwell_burst: dwell / 4,
            },
            mix: AddressMix::Hot { hot_lines: 64 },
            read_pct: 65,
            slo_read_p99: 0,
        }
    }
}

/// Draws an exponential variate with the given integer mean, clamped to
/// ≥ 1 cycle. The draw consumes exactly one rng step, so generator state
/// stays a single u64.
fn exp_gap(rng: &mut u64, mean: u64) -> u64 {
    // 53 uniform mantissa bits in (0, 1]; -ln(u) * mean is the standard
    // inverse-CDF sample. f64 arithmetic is deterministic for a fixed
    // build, and no float ever enters checkpointed state.
    let u = ((splitmix64(rng) >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
    let g = (-u.ln() * mean as f64).round() as u64;
    g.max(1)
}

/// Integer-only, snapshotable state of one tenant's stream: the rng word
/// plus the MMPP phase. Everything an interrupted run needs to continue
/// the stream exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantStream {
    rng: u64,
    /// True while the MMPP is in its burst phase (always false for
    /// Poisson/Off).
    burst: bool,
    /// Absolute cycle the current MMPP phase ends at.
    phase_until: u64,
}

impl TenantStream {
    /// A fresh stream for tenant `index` under run `seed` — a pure
    /// function of the pair, so streams are independent and reproducible.
    pub fn new(seed: u64, index: u16) -> Self {
        let mut s = seed ^ (u64::from(index) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        // Warm the mixer so adjacent tenant indices decorrelate.
        let _ = splitmix64(&mut s);
        TenantStream {
            rng: s,
            burst: false,
            phase_until: 0,
        }
    }

    /// Draws the gap from `now` to this tenant's next arrival, advancing
    /// MMPP phase state as simulated time passes. `None` for a zero-rate
    /// tenant.
    pub fn next_gap(&mut self, arrival: &ArrivalKind, now: u64) -> Option<u64> {
        match *arrival {
            ArrivalKind::Off => None,
            ArrivalKind::Poisson { mean_gap } => Some(exp_gap(&mut self.rng, mean_gap.max(1))),
            ArrivalKind::Mmpp {
                gap_calm,
                gap_burst,
                dwell_calm,
                dwell_burst,
            } => {
                // Catch the phase clock up to `now`: each expired dwell
                // flips the phase and draws the next dwell.
                while now >= self.phase_until {
                    self.burst = !self.burst;
                    let dwell = if self.burst { dwell_burst } else { dwell_calm };
                    self.phase_until = self
                        .phase_until
                        .saturating_add(exp_gap(&mut self.rng, dwell.max(1)));
                }
                let gap = if self.burst { gap_burst } else { gap_calm };
                Some(exp_gap(&mut self.rng, gap.max(1)))
            }
        }
    }

    /// Draws the op and line index of this tenant's next request.
    pub fn next_op(&mut self, spec: &TenantSpec, lines: u64) -> (Op, u64) {
        let lines = lines.max(1);
        let op = if splitmix64(&mut self.rng) % 100 < u64::from(spec.read_pct) {
            Op::Read
        } else {
            Op::Write
        };
        let line = match spec.mix {
            AddressMix::Hot { hot_lines } => {
                if splitmix64(&mut self.rng) % 4 < 3 {
                    splitmix64(&mut self.rng) % hot_lines.max(1).min(lines)
                } else {
                    splitmix64(&mut self.rng) % lines
                }
            }
            AddressMix::Uniform => splitmix64(&mut self.rng) % lines,
            AddressMix::Range { lo_pct, hi_pct } => {
                let lo = lines * u64::from(lo_pct) / 100;
                let hi = (lines * u64::from(hi_pct) / 100).max(lo + 1).min(lines);
                lo + splitmix64(&mut self.rng) % (hi - lo).max(1)
            }
        };
        (op, line.min(lines - 1))
    }

    /// Serializes the stream state (tag `"tstream"`).
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        w.tag("tstream");
        w.u64(self.rng);
        w.bool(self.burst);
        w.u64(self.phase_until);
    }

    /// Restores a stream written by [`TenantStream::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] on a truncated or mistagged stream.
    pub fn load_state(r: &mut SnapshotReader<'_>) -> Result<TenantStream, SnapshotError> {
        r.tag("tstream")?;
        Ok(TenantStream {
            rng: r.u64()?,
            burst: r.bool()?,
            phase_until: r.u64()?,
        })
    }
}

/// Error from [`parse_tenants`]: the offending fragment and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpecError {
    /// The fragment that failed to parse.
    pub fragment: String,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for TenantSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad tenant spec `{}`: {}", self.fragment, self.message)
    }
}

impl std::error::Error for TenantSpecError {}

fn err(fragment: &str, message: impl Into<String>) -> TenantSpecError {
    TenantSpecError {
        fragment: fragment.to_string(),
        message: message.into(),
    }
}

fn parse_u64(fragment: &str, key: &str, val: &str) -> Result<u64, TenantSpecError> {
    val.parse::<u64>()
        .map_err(|_| err(fragment, format!("`{key}` wants an integer, got `{val}`")))
}

/// Parses a tenant-set spec string.
///
/// Grammar: tenants are comma-separated; each tenant is colon-separated
/// fields `name:kind[:key=value]...` where `kind` is `off`, `poisson`,
/// or `mmpp`. Keys: `gap` (poisson mean gap), `calm`/`burst` (mmpp mean
/// gaps), `dwell-calm`/`dwell-burst` (mmpp mean dwells), `read` (read
/// percent, default 65), `slo` (read-p99 SLO cycles, default 0), `mix`
/// (`hot`, `hot<N>`, `uniform`, or `<lo>-<hi>` percent range).
///
/// ```
/// use fgnvm_workloads::tenant::parse_tenants;
/// let set = parse_tenants(
///     "a:poisson:gap=12:slo=400,b:mmpp:calm=60:burst=4:dwell-calm=2000:dwell-burst=400",
/// ).expect("valid spec");
/// assert_eq!(set.len(), 2);
/// assert_eq!(set[0].name, "a");
/// ```
///
/// # Errors
///
/// Returns a [`TenantSpecError`] naming the bad fragment on unknown
/// kinds, unknown keys, malformed numbers, missing required keys, or an
/// out-of-range tenant count (1..=64).
pub fn parse_tenants(spec: &str) -> Result<Vec<TenantSpec>, TenantSpecError> {
    let mut out = Vec::new();
    for frag in spec.split(',') {
        let frag = frag.trim();
        if frag.is_empty() {
            continue;
        }
        let mut fields = frag.split(':');
        let name = fields.next().unwrap_or("").trim();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_alphanumeric() || "_-".contains(c))
        {
            return Err(err(frag, "tenant name must be [alnum_-]+"));
        }
        let kind = fields.next().unwrap_or("").trim();
        let mut gap = None;
        let mut calm = None;
        let mut burst = None;
        let mut dwell_calm = None;
        let mut dwell_burst = None;
        let mut read_pct = 65u8;
        let mut slo = 0u64;
        let mut mix = AddressMix::Hot { hot_lines: 64 };
        for field in fields {
            let Some((key, val)) = field.split_once('=') else {
                return Err(err(frag, format!("field `{field}` is not key=value")));
            };
            match key {
                "gap" => gap = Some(parse_u64(frag, key, val)?),
                "calm" => calm = Some(parse_u64(frag, key, val)?),
                "burst" => burst = Some(parse_u64(frag, key, val)?),
                "dwell-calm" => dwell_calm = Some(parse_u64(frag, key, val)?),
                "dwell-burst" => dwell_burst = Some(parse_u64(frag, key, val)?),
                "read" => {
                    let v = parse_u64(frag, key, val)?;
                    if v > 100 {
                        return Err(err(frag, "`read` is a percent (0..=100)"));
                    }
                    read_pct = v as u8;
                }
                "slo" => slo = parse_u64(frag, key, val)?,
                "mix" => {
                    mix = if val == "uniform" {
                        AddressMix::Uniform
                    } else if val == "hot" {
                        AddressMix::Hot { hot_lines: 64 }
                    } else if let Some(n) = val.strip_prefix("hot") {
                        AddressMix::Hot {
                            hot_lines: parse_u64(frag, key, n)?.max(1),
                        }
                    } else if let Some((lo, hi)) = val.split_once('-') {
                        let lo = parse_u64(frag, key, lo)?;
                        let hi = parse_u64(frag, key, hi)?;
                        if lo >= hi || hi > 100 {
                            return Err(err(frag, "`mix` range wants 0 <= lo < hi <= 100"));
                        }
                        AddressMix::Range {
                            lo_pct: lo as u8,
                            hi_pct: hi as u8,
                        }
                    } else {
                        return Err(err(frag, format!("unknown mix `{val}`")));
                    };
                }
                _ => return Err(err(frag, format!("unknown key `{key}`"))),
            }
        }
        let arrival = match kind {
            "off" => ArrivalKind::Off,
            "poisson" => ArrivalKind::Poisson {
                mean_gap: gap
                    .ok_or_else(|| err(frag, "poisson wants `gap=<cycles>`"))?
                    .max(1),
            },
            "mmpp" => ArrivalKind::Mmpp {
                gap_calm: calm
                    .ok_or_else(|| err(frag, "mmpp wants `calm=<cycles>`"))?
                    .max(1),
                gap_burst: burst
                    .ok_or_else(|| err(frag, "mmpp wants `burst=<cycles>`"))?
                    .max(1),
                dwell_calm: dwell_calm
                    .ok_or_else(|| err(frag, "mmpp wants `dwell-calm=<cycles>`"))?
                    .max(1),
                dwell_burst: dwell_burst
                    .ok_or_else(|| err(frag, "mmpp wants `dwell-burst=<cycles>`"))?
                    .max(1),
            },
            other => {
                return Err(err(
                    frag,
                    format!("unknown arrival kind `{other}` (off|poisson|mmpp)"),
                ))
            }
        };
        out.push(TenantSpec {
            name: name.to_string(),
            arrival,
            mix,
            read_pct,
            slo_read_p99: slo,
        });
    }
    if out.is_empty() || out.len() > 64 {
        return Err(err(spec, "tenant count must be 1..=64"));
    }
    Ok(out)
}

/// Renders a tenant set back into the [`parse_tenants`] grammar. The two
/// round-trip exactly, so tenant sets persist as plain text in fuzz
/// cases and experiment scripts.
pub fn render_tenants(set: &[TenantSpec]) -> String {
    let mut frags = Vec::with_capacity(set.len());
    for t in set {
        let mut f = t.name.clone();
        match t.arrival {
            ArrivalKind::Off => f.push_str(":off"),
            ArrivalKind::Poisson { mean_gap } => {
                f.push_str(&format!(":poisson:gap={mean_gap}"));
            }
            ArrivalKind::Mmpp {
                gap_calm,
                gap_burst,
                dwell_calm,
                dwell_burst,
            } => {
                f.push_str(&format!(
                    ":mmpp:calm={gap_calm}:burst={gap_burst}:dwell-calm={dwell_calm}:dwell-burst={dwell_burst}"
                ));
            }
        }
        f.push_str(&format!(":read={}", t.read_pct));
        if t.slo_read_p99 > 0 {
            f.push_str(&format!(":slo={}", t.slo_read_p99));
        }
        match t.mix {
            AddressMix::Hot { hot_lines } => f.push_str(&format!(":mix=hot{hot_lines}")),
            AddressMix::Uniform => f.push_str(":mix=uniform"),
            AddressMix::Range { lo_pct, hi_pct } => {
                f.push_str(&format!(":mix={lo_pct}-{hi_pct}"));
            }
        }
        frags.push(f);
    }
    frags.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_through_render() {
        let spec = "a:poisson:gap=12:read=65:slo=400:mix=hot64,\
                    b:mmpp:calm=60:burst=4:dwell-calm=2000:dwell-burst=400:read=50:mix=uniform,\
                    idle:off:read=65:mix=10-20";
        let set = parse_tenants(spec).expect("valid");
        assert_eq!(set.len(), 3);
        assert_eq!(set[0].slo_read_p99, 400);
        assert_eq!(set[1].read_pct, 50);
        assert_eq!(set[2].arrival, ArrivalKind::Off);
        assert_eq!(
            set[2].mix,
            AddressMix::Range {
                lo_pct: 10,
                hi_pct: 20
            }
        );
        let rendered = render_tenants(&set);
        assert_eq!(parse_tenants(&rendered).expect("re-parse"), set);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_tenants("").is_err());
        assert!(parse_tenants("a:warp").is_err());
        assert!(parse_tenants("a:poisson").is_err(), "gap is required");
        assert!(parse_tenants("a:poisson:gap=x").is_err());
        assert!(parse_tenants("a:poisson:gap=5:bogus=1").is_err());
        assert!(parse_tenants("a b:poisson:gap=5").is_err(), "bad name");
        assert!(parse_tenants("a:poisson:gap=5:mix=40-30").is_err());
        assert!(
            parse_tenants("a:mmpp:calm=10:burst=2").is_err(),
            "dwells required"
        );
    }

    #[test]
    fn poisson_gaps_have_roughly_the_requested_mean() {
        let spec = TenantSpec::poisson("t", 20);
        let mut s = TenantStream::new(99, 0);
        let n = 4000u64;
        let total: u64 = (0..n)
            .map(|_| s.next_gap(&spec.arrival, 0).expect("poisson emits"))
            .sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 20.0).abs() < 2.0, "mean gap {mean}");
    }

    #[test]
    fn mmpp_bursts_are_denser_than_calm() {
        let arrival = ArrivalKind::Mmpp {
            gap_calm: 100,
            gap_burst: 4,
            dwell_calm: 5_000,
            dwell_burst: 2_000,
        };
        let mut s = TenantStream::new(7, 1);
        // Walk simulated time along the arrivals; gaps drawn while the
        // phase clock says "burst" must be shorter on average.
        let mut now = 0u64;
        let (mut calm_sum, mut calm_n, mut burst_sum, mut burst_n) = (0u64, 0u64, 0u64, 0u64);
        for _ in 0..20_000 {
            let was_burst_at = |s: &TenantStream, t: u64| s.phase_until > t && s.burst;
            let gap = s.next_gap(&arrival, now).expect("mmpp emits");
            if was_burst_at(&s, now) {
                burst_sum += gap;
                burst_n += 1;
            } else {
                calm_sum += gap;
                calm_n += 1;
            }
            now += gap;
        }
        assert!(calm_n > 100 && burst_n > 100, "{calm_n} {burst_n}");
        let calm_mean = calm_sum as f64 / calm_n as f64;
        let burst_mean = burst_sum as f64 / burst_n as f64;
        assert!(
            burst_mean * 4.0 < calm_mean,
            "burst {burst_mean} calm {calm_mean}"
        );
    }

    #[test]
    fn off_tenant_never_arrives() {
        let mut s = TenantStream::new(3, 2);
        assert_eq!(s.next_gap(&ArrivalKind::Off, 0), None);
    }

    #[test]
    fn stream_state_snapshot_round_trips_mid_sequence() {
        let spec = TenantSpec::bursty("b", 50, 5, 1_000);
        let mut s = TenantStream::new(42, 3);
        let mut now = 0;
        for _ in 0..100 {
            now += s.next_gap(&spec.arrival, now).expect("emits");
            let _ = s.next_op(&spec, 1 << 20);
        }
        let mut w = SnapshotWriter::new();
        s.save_state(&mut w);
        let blob = w.finish();
        let mut r = SnapshotReader::new(&blob).expect("header");
        let mut restored = TenantStream::load_state(&mut r).expect("decodes");
        r.expect_end().expect("no trailing bytes");
        assert_eq!(restored, s);
        // And the continuation is identical.
        for _ in 0..100 {
            let a = s.next_gap(&spec.arrival, now);
            let b = restored.next_gap(&spec.arrival, now);
            assert_eq!(a, b);
            assert_eq!(s.next_op(&spec, 4096), restored.next_op(&spec, 4096));
            now += a.expect("emits");
        }
    }

    #[test]
    fn range_mix_stays_inside_its_slice() {
        let spec = TenantSpec {
            name: "r".into(),
            arrival: ArrivalKind::Poisson { mean_gap: 10 },
            mix: AddressMix::Range {
                lo_pct: 25,
                hi_pct: 50,
            },
            read_pct: 50,
            slo_read_p99: 0,
        };
        let mut s = TenantStream::new(1, 0);
        let lines = 1000u64;
        for _ in 0..500 {
            let (_, line) = s.next_op(&spec, lines);
            assert!((250..500).contains(&line), "line {line}");
        }
    }

    #[test]
    fn streams_are_pure_functions_of_seed_and_index() {
        let a = TenantStream::new(5, 0);
        let b = TenantStream::new(5, 0);
        assert_eq!(a, b);
        assert_ne!(TenantStream::new(5, 0), TenantStream::new(5, 1));
        assert_ne!(TenantStream::new(5, 0), TenantStream::new(6, 0));
    }
}
