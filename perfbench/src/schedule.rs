//! Open-loop arrival schedules and the serve prompt mix.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Arrival offsets in seconds of a Poisson process at `rate` per second
/// over `[0, horizon)`: exponential gaps drawn from a ChaCha8 stream
/// seeded with `seed`, so a seed always gives the same schedule.
pub fn poisson_arrivals(seed: u64, rate: f64, horizon: f64) -> Vec<f64> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.random();
        t += -(1.0 - u).ln() / rate;
        if t >= horizon {
            return out;
        }
        out.push(t);
    }
}

/// Picks `n` prompts: with probability `hot_share` one of `hot` (a small
/// set that repeats), otherwise one of `cold` (a large, mostly unique
/// set). Deterministic for a seed.
pub fn prompt_mix(
    seed: u64,
    n: usize,
    hot_share: f64,
    hot: &[String],
    cold: &[String],
) -> Vec<String> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let pool = if rng.random::<f64>() < hot_share { hot } else { cold };
            pool[rng.random_range(0..pool.len())].clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedules_are_identical_for_a_seed() {
        let a = poisson_arrivals(11, 150.0, 10.0);
        assert_eq!(a, poisson_arrivals(11, 150.0, 10.0));
        assert_ne!(a, poisson_arrivals(12, 150.0, 10.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets ascend");
        assert!(a.iter().all(|&t| (0.0..10.0).contains(&t)));
        // 1500 expected arrivals; a Poisson count is within ±4σ (≈155).
        assert!((1345..=1655).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn prompt_mix_is_seeded_and_honours_the_share() {
        let hot: Vec<String> = (0..4).map(|i| format!("hot {i}")).collect();
        let cold: Vec<String> = (0..400).map(|i| format!("cold {i}")).collect();
        let a = prompt_mix(5, 2000, 0.5, &hot, &cold);
        assert_eq!(a, prompt_mix(5, 2000, 0.5, &hot, &cold));
        let hot_n = a.iter().filter(|p| p.starts_with("hot")).count();
        assert!((900..=1100).contains(&hot_n), "{hot_n} hot prompts of 2000");
    }
}
