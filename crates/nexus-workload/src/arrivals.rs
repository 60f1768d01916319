//! Arrival processes for request generation.
//!
//! §7.1: "Unless otherwise mentioned, we sample inter-arrival time between
//! frames uniformly"; the lazy-drop study (Fig. 5) and the large-scale
//! deployment (§7.4) use Poisson arrivals; Fig. 13's workload varies rates
//! over time. All of those are covered here: uniform (deterministic),
//! Poisson (exponential inter-arrivals), an on/off Markov-modulated Poisson
//! process for bursts, and a rate-modulation wrapper for diurnal patterns.

use rand::Rng;

use nexus_profile::Micros;

/// The shape of an arrival process at a given mean rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalKind {
    /// Deterministic inter-arrival `1/rate`.
    Uniform,
    /// Poisson process: exponential inter-arrivals with mean `1/rate`.
    Poisson,
    /// Markov-modulated Poisson: alternates calm and burst phases.
    /// `burst_factor` scales the rate during bursts; phases have
    /// exponentially distributed durations with the given means (seconds).
    Mmpp {
        /// Rate multiplier during the burst phase (>1).
        burst_factor: f64,
        /// Mean calm-phase duration, seconds.
        calm_secs: f64,
        /// Mean burst-phase duration, seconds.
        burst_secs: f64,
    },
}

/// Generates arrival timestamps for one session.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    kind: ArrivalKind,
    /// Mean rate in requests/second (pre-modulation).
    rate: f64,
    /// Optional piecewise-constant rate modulation: `(from_time, factor)`
    /// segments sorted by time; factor applies from that time onward.
    modulation: Vec<(Micros, f64)>,
    // State:
    next_time: Micros,
    in_burst: bool,
    phase_end: Micros,
}

impl ArrivalGen {
    /// Creates a generator with the first arrival sampled from time zero.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not finite or not positive.
    pub fn new(kind: ArrivalKind, rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        ArrivalGen {
            kind,
            rate,
            modulation: Vec::new(),
            next_time: Micros::ZERO,
            in_burst: false,
            phase_end: Micros::ZERO,
        }
    }

    /// Adds piecewise-constant rate modulation: each `(time, factor)` entry
    /// scales the base rate from `time` onward (entries must be sorted).
    pub fn with_modulation(mut self, modulation: Vec<(Micros, f64)>) -> Self {
        assert!(
            modulation.windows(2).all(|w| w[0].0 <= w[1].0),
            "modulation must be time-sorted"
        );
        self.modulation = modulation;
        self
    }

    /// The rate multiplier in effect at `t`.
    fn modulation_factor(&self, t: Micros) -> f64 {
        let mut f = 1.0;
        for &(from, factor) in &self.modulation {
            if t >= from {
                f = factor;
            } else {
                break;
            }
        }
        f
    }

    /// Instantaneous rate at `t`, accounting for modulation and MMPP phase.
    fn current_rate<R: Rng>(&mut self, t: Micros, rng: &mut R) -> f64 {
        let mut rate = self.rate * self.modulation_factor(t);
        if let ArrivalKind::Mmpp {
            burst_factor,
            calm_secs,
            burst_secs,
        } = self.kind
        {
            // Advance the phase process to `t`.
            while t >= self.phase_end {
                self.in_burst = !self.in_burst;
                let mean = if self.in_burst { burst_secs } else { calm_secs };
                let dur = exp_sample(rng, 1.0 / mean);
                self.phase_end += Micros::from_secs_f64(dur);
            }
            if self.in_burst {
                rate *= burst_factor;
            }
        }
        rate
    }

    /// Returns the next arrival time at or after the internal cursor,
    /// advancing the generator. Never returns times beyond `horizon`;
    /// returns `None` once the horizon is passed.
    pub fn next_arrival<R: Rng>(&mut self, horizon: Micros, rng: &mut R) -> Option<Micros> {
        let t = self.next_time;
        if t >= horizon {
            return None;
        }
        let rate = self.current_rate(t, rng);
        let gap = match self.kind {
            ArrivalKind::Uniform => 1.0 / rate,
            ArrivalKind::Poisson | ArrivalKind::Mmpp { .. } => exp_sample(rng, rate),
        };
        self.next_time = t + Micros::from_secs_f64(gap.max(1e-9));
        Some(t)
    }

    /// Collects all arrivals in `[0, horizon)`.
    pub fn generate<R: Rng>(&mut self, horizon: Micros, rng: &mut R) -> Vec<Micros> {
        let mut out = Vec::new();
        while let Some(t) = self.next_arrival(horizon, rng) {
            out.push(t);
        }
        out
    }
}

/// Samples an exponential with rate `lambda` (mean `1/lambda`), in seconds.
fn exp_sample<R: Rng>(rng: &mut R, lambda: f64) -> f64 {
    debug_assert!(lambda > 0.0);
    // Inverse CDF; `1 - u` avoids ln(0).
    let u: f64 = rng.gen::<f64>();
    -(1.0 - u).ln() / lambda
}

/// Samples a Poisson-distributed count with mean `lambda` (Knuth's method
/// for small λ, normal approximation above 30).
pub fn poisson_sample<R: Rng>(rng: &mut R, lambda: f64) -> u32 {
    assert!(lambda >= 0.0 && lambda.is_finite(), "invalid lambda");
    if lambda == 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        // Normal approximation with continuity correction.
        let (mu, sigma) = (lambda, lambda.sqrt());
        let n = (mu + sigma * std_normal(rng) + 0.5).floor();
        return n.max(0.0) as u32;
    }
    let l = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Standard normal via Box–Muller.
fn std_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_for;

    #[test]
    fn uniform_arrivals_are_evenly_spaced() {
        let mut rng = rng_for(1, 0);
        let mut gen = ArrivalGen::new(ArrivalKind::Uniform, 100.0);
        let arr = gen.generate(Micros::from_secs(1), &mut rng);
        assert_eq!(arr.len(), 100);
        for w in arr.windows(2) {
            assert_eq!(w[1] - w[0], Micros::from_millis(10));
        }
    }

    #[test]
    fn poisson_mean_rate_is_close() {
        let mut rng = rng_for(2, 0);
        let mut gen = ArrivalGen::new(ArrivalKind::Poisson, 500.0);
        let arr = gen.generate(Micros::from_secs(60), &mut rng);
        let rate = arr.len() as f64 / 60.0;
        assert!((rate - 500.0).abs() / 500.0 < 0.05, "rate={rate}");
    }

    #[test]
    fn poisson_has_variance_uniform_does_not() {
        let mut rng = rng_for(3, 0);
        let horizon = Micros::from_secs(30);
        let uni = ArrivalGen::new(ArrivalKind::Uniform, 100.0).generate(horizon, &mut rng);
        let poi = ArrivalGen::new(ArrivalKind::Poisson, 100.0).generate(horizon, &mut rng);
        let cv = |arr: &[Micros]| {
            let gaps: Vec<f64> = arr
                .windows(2)
                .map(|w| (w[1] - w[0]).as_secs_f64())
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
            var.sqrt() / mean
        };
        assert!(cv(&uni) < 1e-6);
        // Exponential gaps have coefficient of variation ≈ 1.
        assert!((cv(&poi) - 1.0).abs() < 0.15, "cv={}", cv(&poi));
    }

    #[test]
    fn modulation_changes_rate_mid_run() {
        let mut rng = rng_for(4, 0);
        let mut gen = ArrivalGen::new(ArrivalKind::Uniform, 100.0)
            .with_modulation(vec![(Micros::ZERO, 1.0), (Micros::from_secs(10), 3.0)]);
        let arr = gen.generate(Micros::from_secs(20), &mut rng);
        let first_half = arr.iter().filter(|&&t| t < Micros::from_secs(10)).count();
        let second_half = arr.len() - first_half;
        assert!((first_half as f64 - 1_000.0).abs() < 20.0);
        assert!((second_half as f64 - 3_000.0).abs() < 30.0);
    }

    #[test]
    fn mmpp_bursts_raise_aggregate_rate() {
        let mut rng = rng_for(5, 0);
        let mut gen = ArrivalGen::new(
            ArrivalKind::Mmpp {
                burst_factor: 5.0,
                calm_secs: 5.0,
                burst_secs: 5.0,
            },
            100.0,
        );
        let arr = gen.generate(Micros::from_secs(120), &mut rng);
        let rate = arr.len() as f64 / 120.0;
        // Expected mean ≈ 100 · (1 + 5) / 2 = 300.
        assert!(rate > 180.0 && rate < 420.0, "rate={rate}");
    }

    #[test]
    fn poisson_sample_mean_and_small_lambda() {
        let mut rng = rng_for(6, 0);
        assert_eq!(poisson_sample(&mut rng, 0.0), 0);
        for lambda in [0.1, 1.0, 10.0, 100.0] {
            let n = 20_000;
            let mean: f64 = (0..n)
                .map(|_| f64::from(poisson_sample(&mut rng, lambda)))
                .sum::<f64>()
                / n as f64;
            assert!(
                (mean - lambda).abs() / lambda.max(0.5) < 0.06,
                "λ={lambda}: mean={mean}"
            );
        }
    }

    #[test]
    fn exp_sample_mean() {
        let mut rng = rng_for(7, 0);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| exp_sample(&mut rng, 4.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let run = |seed| {
            let mut rng = rng_for(seed, 9);
            ArrivalGen::new(ArrivalKind::Poisson, 200.0).generate(Micros::from_secs(5), &mut rng)
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = ArrivalGen::new(ArrivalKind::Uniform, 0.0);
    }
}
