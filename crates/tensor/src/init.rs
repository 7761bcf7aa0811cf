//! Deterministic random initialisation helpers for model parameters.

use crate::Tensor;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Returns a tensor with elements drawn uniformly from `[-limit, limit]`.
///
/// The generator is seeded, so initialisation is fully reproducible across runs —
/// a requirement for comparing the four distributed paradigms on identical starting
/// weights, as the paper does.
///
/// # Panics
///
/// Panics if `limit` is negative or not finite.
pub fn uniform_init(dims: &[usize], limit: f32, seed: u64) -> Tensor {
    let mut t = Tensor::zeros(dims);
    uniform_fill(t.as_mut_slice(), limit, seed);
    t
}

/// Overwrites `out` with values drawn uniformly from `[-limit, limit]`, in order.
fn uniform_fill(out: &mut [f32], limit: f32, seed: u64) {
    assert!(
        limit.is_finite() && limit >= 0.0,
        "limit must be finite and non-negative"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for v in out {
        *v = rng.gen_range(-limit..=limit);
    }
}

/// Xavier/Glorot uniform initialisation of a dense layer's `fan_in x fan_out`
/// weights, written into `out` (its range of the model's parameter vector).
///
/// Draws from `U(-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out)))`.
pub fn xavier_uniform(fan_in: usize, fan_out: usize, out: &mut [f32], seed: u64) {
    let denom = (fan_in + fan_out).max(1) as f32;
    uniform_fill(out, (6.0 / denom).sqrt(), seed);
}

/// He (Kaiming) normal initialisation, appropriate for ReLU networks, written into
/// `out` (a layer's range of the model's parameter vector).
///
/// Draws from `N(0, sqrt(2 / fan_in))` using a Box-Muller transform so that the only
/// RNG dependency is the uniform generator; each draw fills two values.
pub fn he_normal(fan_in: usize, out: &mut [f32], seed: u64) {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for pair in out.chunks_mut(2) {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let mag = (-2.0 * u1.ln()).sqrt();
        pair[0] = mag * (2.0 * std::f32::consts::PI * u2).cos() * std;
        if let Some(second) = pair.get_mut(1) {
            *second = mag * (2.0 * std::f32::consts::PI * u2).sin() * std;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_init_is_deterministic_per_seed() {
        let a = uniform_init(&[4, 4], 0.5, 7);
        let b = uniform_init(&[4, 4], 0.5, 7);
        let c = uniform_init(&[4, 4], 0.5, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_init_respects_limit() {
        let t = uniform_init(&[1000], 0.1, 1);
        assert!(t.as_slice().iter().all(|&v| v.abs() <= 0.1));
    }

    #[test]
    fn xavier_limit_shrinks_with_fan() {
        let (mut small, mut large) = (Tensor::zeros(&[100]), Tensor::zeros(&[100]));
        xavier_uniform(10, 10, small.as_mut_slice(), 3);
        xavier_uniform(1000, 1000, large.as_mut_slice(), 3);
        assert!(small.max().abs() > large.max().abs());
    }

    #[test]
    fn he_normal_has_reasonable_std() {
        let mut t = Tensor::zeros(&[10_000]);
        he_normal(100, t.as_mut_slice(), 11);
        let mean = t.mean();
        let var: f32 = t
            .as_slice()
            .iter()
            .map(|&v| (v - mean) * (v - mean))
            .sum::<f32>()
            / t.len() as f32;
        let expected = 2.0 / 100.0;
        assert!(
            (var - expected).abs() < expected * 0.3,
            "var={var} expected~{expected}"
        );
    }

    #[test]
    fn he_normal_handles_odd_lengths() {
        let mut odd = [f32::NAN; 3];
        he_normal(4, &mut odd, 5);
        assert!(odd.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "limit must be finite")]
    fn uniform_init_rejects_negative_limit() {
        uniform_init(&[2], -1.0, 0);
    }
}
