//! The workspace's one deterministic pseudo-random generator.

/// One SplitMix64 step: advances `state` by the 64-bit golden ratio and
/// returns the scrambled output.
///
/// Every seeded stream in the workspace — workload arrivals, tenant
/// streams, the fault model's hash, the fuzzer — draws from this, so a
/// stream is a pure function of its seed.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
