//! Workload inputs, each a pure function of `--seed`.
//!
//! Nothing here touches the system under test: generators return plain
//! data that [`crate::sut`] turns into the system's own types, so the
//! program only ever receives generated inputs and the unit tests can
//! compare two generations with `==`.

/// The SplitMix64 step; the harness's own stream, independent of the
/// simulator's RNG so a change there cannot move the benchmark's inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for (`seed`, `stream`): distinct streams do not overlap
    /// for any seed the driver will pass.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = SplitMix(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        s.next_u64();
        s
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }
}

/// Zipf-`s` shares over `n` ranks, summing to 1.
fn zipf_shares(n: usize, s: f64) -> Vec<f64> {
    let raw: Vec<f64> = (1..=n).map(|i| (i as f64).powf(-s)).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

/// Tenants of `replan_tenants`.
pub const TENANTS: usize = 40;
/// Table 4 applications each tenant deploys.
pub const APPS_PER_TENANT: usize = 7;
/// Epochs the re-plan inputs cover (the loop stops earlier when
/// `--seconds` runs out).
pub const REPLAN_EPOCHS: usize = 100;
/// Frames per second the 280 classes offer in total before perturbation.
pub const TENANT_TOTAL_RATE: f64 = 20_000.0;

/// One traffic class of `replan_tenants`.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantClass {
    /// Index into the Table 4 application list.
    pub app: usize,
    /// Multiplier on the application's SLO (per tenant, 2.0–4.0).
    pub slo_mult: f64,
    /// Planned frame rate, frames/s.
    pub rate: f64,
}

/// Inputs of `replan_tenants`.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantInputs {
    /// The 280 classes, tenant-major.
    pub classes: Vec<TenantClass>,
    /// `observed[e][c]`: the rate the planner is told class `c` ran at in
    /// epoch `e` (planned rate ±10 %).
    pub observed: Vec<Vec<f64>>,
}

/// 40 tenants × 7 applications. The classes are the same for every seed
/// — SLO multipliers evenly spaced over the tenants, Zipf(0.9) rates dealt
/// to classes by a fixed stride so hot ranks land on every app — because
/// the driver compares medians over different seeds and the fleet's GPU
/// count swings by several percent with which app draws the hottest rate.
/// The seed draws what an epoch is told: each class's rate ±10 %.
pub fn tenants(seed: u64) -> TenantInputs {
    let mut rng = SplitMix::new(seed, 1);
    let n = TENANTS * APPS_PER_TENANT;
    let shares = zipf_shares(n, 0.9);
    let mut classes = Vec::with_capacity(n);
    for tenant in 0..TENANTS {
        let slo_mult = 2.0 + 2.0 * tenant as f64 / (TENANTS - 1) as f64;
        for app in 0..APPS_PER_TENANT {
            // 37 is coprime to 280: a fixed permutation of the ranks.
            let rank = (tenant * APPS_PER_TENANT + app) * 37 % n;
            classes.push(TenantClass {
                app,
                slo_mult,
                rate: shares[rank] * TENANT_TOTAL_RATE,
            });
        }
    }
    let observed = (0..REPLAN_EPOCHS)
        .map(|_| {
            classes
                .iter()
                .map(|c| c.rate * rng.range(0.9, 1.1))
                .collect()
        })
        .collect();
    TenantInputs { classes, observed }
}

/// One synthetic session of the 4 000-session packing set.
#[derive(Debug, Clone, PartialEq)]
pub struct PackSession {
    /// Fixed cost of a batch, ms.
    pub alpha_ms: f64,
    /// Marginal cost per input, ms.
    pub beta_ms: f64,
    /// Latency SLO, ms.
    pub slo_ms: u64,
    /// Request rate, req/s.
    pub rate: f64,
}

/// A Zipf(0.9) session set for the packer's quadratic tail: linear
/// profiles and SLOs drawn per session, 200 000 req/s dealt by rank.
pub fn pack_sessions(seed: u64, n: usize) -> Vec<PackSession> {
    let mut rng = SplitMix::new(seed, 2);
    zipf_shares(n, 0.9)
        .into_iter()
        .map(|w| PackSession {
            alpha_ms: rng.range(0.3, 2.7),
            beta_ms: rng.range(2.0, 32.0),
            slo_ms: 60 + rng.next_u64() % 8 * 30,
            rate: w * 200_000.0,
        })
        .collect()
}

/// Client connections (and threads) the door workload drives; the box has
/// two cores and the load generator may not use more.
pub const DOOR_CLIENTS: usize = 2;
/// Sessions the door serves.
pub const DOOR_SESSIONS: u32 = 2;

/// Inputs of `door_loopback`.
#[derive(Debug, Clone, PartialEq)]
pub struct DoorInputs {
    /// Per client: where in its send interval the open-loop schedule
    /// starts, as a share of the interval.
    pub phase: [f64; DOOR_CLIENTS],
    /// Per client: the session of its `i`-th request (cycled).
    pub sessions: [Vec<u32>; DOOR_CLIENTS],
}

/// Seeded open-loop phases and per-request session choices.
pub fn door(seed: u64) -> DoorInputs {
    let mut rng = SplitMix::new(seed, 3);
    let phase = std::array::from_fn(|_| rng.unit());
    let sessions = std::array::from_fn(|_| {
        (0..1024)
            .map(|_| (rng.next_u64() % u64::from(DOOR_SESSIONS)) as u32)
            .collect()
    });
    DoorInputs { phase, sessions }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        assert_eq!(tenants(7), tenants(7));
        assert_ne!(tenants(7), tenants(8));
        assert_eq!(pack_sessions(7, 100), pack_sessions(7, 100));
        assert_ne!(pack_sessions(7, 100), pack_sessions(8, 100));
        assert_eq!(door(7), door(7));
        assert_ne!(door(7), door(8));
    }

    #[test]
    fn tenant_inputs_have_the_stated_shape() {
        let t = tenants(42);
        assert_eq!(t.classes.len(), 280);
        assert_eq!(t.observed.len(), REPLAN_EPOCHS);
        let total: f64 = t.classes.iter().map(|c| c.rate).sum();
        assert!((total - TENANT_TOTAL_RATE).abs() < 1e-6);
        for (e, c) in t.observed.iter().flat_map(|e| e.iter().zip(&t.classes)) {
            assert!((0.9..1.1).contains(&(e / c.rate)));
            assert!((2.0..=4.0).contains(&c.slo_mult));
        }
    }
}
