//! Stochastic processes shared by the sensor models.
//!
//! Physical noise in the reproduction is always *explicit*: a model never
//! owns a hidden RNG; callers pass one, so two runs with the same seed
//! are bit-identical. Three processes cover what the DistScroll signal
//! chain needs:
//!
//! * [`gaussian`] — white measurement noise (Box–Muller over `rand`'s
//!   uniform source, since `rand_distr` is outside the dependency set),
//! * [`RandomWalk`] — bounded drift for slow processes such as ambient
//!   temperature pulling on the sensor's op-amp offset,
//! * [`Periodic`] — deterministic sinusoidal interference (mains hum on
//!   the bench supply, the 8–12 Hz component of physiological tremor).

use rand::Rng;

/// Standard-normal variate via the polar Box–Muller transform.
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// A mean-reverting bounded random walk (discretized Ornstein–Uhlenbeck).
///
/// Models slow drift: each step pulls the state back towards zero with
/// rate `reversion` and perturbs it with `sigma`-scaled noise. The state
/// is clamped into `±bound` so drift can never run away.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomWalk {
    state: f64,
    reversion: f64,
    sigma: f64,
    bound: f64,
}

impl RandomWalk {
    /// A walk starting at zero.
    ///
    /// # Panics
    ///
    /// Panics if `reversion` is outside `0.0..=1.0`, or `sigma`/`bound`
    /// are negative or non-finite.
    pub fn new(reversion: f64, sigma: f64, bound: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&reversion),
            "reversion must be a rate in 0..=1"
        );
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "sigma must be non-negative"
        );
        assert!(
            bound.is_finite() && bound >= 0.0,
            "bound must be non-negative"
        );
        RandomWalk {
            state: 0.0,
            reversion,
            sigma,
            bound,
        }
    }

    /// The current drift value.
    pub fn value(&self) -> f64 {
        self.state
    }

    /// Advances one step and returns the new value.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        self.state = (self.state * (1.0 - self.reversion) + gaussian(rng) * self.sigma)
            .clamp(-self.bound, self.bound);
        self.state
    }
}

/// A deterministic sinusoid: `amplitude * sin(2π * hz * t + phase)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Periodic {
    /// Peak amplitude.
    pub amplitude: f64,
    /// Frequency in hertz.
    pub hz: f64,
    /// Phase offset in radians.
    pub phase: f64,
}

impl Periodic {
    /// A sinusoid with zero phase.
    pub fn new(amplitude: f64, hz: f64) -> Self {
        Periodic {
            amplitude,
            hz,
            phase: 0.0,
        }
    }

    /// The value at time `t` seconds.
    pub fn at(&self, t: f64) -> f64 {
        self.amplitude * (2.0 * std::f64::consts::PI * self.hz * t + self.phase).sin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_walk_stays_bounded() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut w = RandomWalk::new(0.01, 0.5, 2.0);
        for _ in 0..10_000 {
            let v = w.step(&mut rng);
            assert!((-2.0..=2.0).contains(&v), "walk escaped bound: {v}");
        }
    }

    #[test]
    fn random_walk_mean_reverts() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut w = RandomWalk::new(0.05, 0.1, 10.0);
        let mean: f64 = (0..50_000).map(|_| w.step(&mut rng)).sum::<f64>() / 50_000.0;
        assert!(
            mean.abs() < 0.15,
            "long-run mean {mean} should be near zero"
        );
    }

    #[test]
    fn random_walk_moves_at_all() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut w = RandomWalk::new(0.01, 0.5, 2.0);
        w.step(&mut rng);
        assert_ne!(w.value(), 0.0);
    }

    #[test]
    fn periodic_hits_known_points() {
        let p = Periodic::new(2.0, 1.0);
        assert!(p.at(0.0).abs() < 1e-12);
        assert!((p.at(0.25) - 2.0).abs() < 1e-12);
        assert!((p.at(0.75) + 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "reversion must be a rate")]
    fn random_walk_rejects_bad_reversion() {
        let _ = RandomWalk::new(1.5, 0.1, 1.0);
    }
}
