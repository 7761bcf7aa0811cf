//! Deterministic synthetic dataset specifications and generators.

use crate::dataset::{Examples, Split};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Specification of a synthetic image-classification task (CIFAR-like).
///
/// Images are `3 × side × side` tensors produced as *class prototype + per-sample
/// variation + pixel noise*, optionally distorted. The class prototypes are smooth
/// low-frequency random fields, so nearby classes overlap and a model's accuracy climbs
/// gradually over many SGD iterations instead of jumping to 100 % — mirroring the
/// qualitative behaviour of the paper's CIFAR curves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticImageSpec {
    /// Number of classes (10 for the CIFAR-10-like task, 100 for CIFAR-100-like).
    pub classes: usize,
    /// Image side length (the paper uses 32; the reproduction default is 16).
    pub image_side: usize,
    /// Number of training examples.
    pub train_size: usize,
    /// Number of held-out test examples.
    pub test_size: usize,
    /// Standard deviation of additive pixel noise (task difficulty knob).
    pub noise_std: f32,
    /// Scale of the per-sample intra-class variation field.
    pub intra_class_variation: f32,
    /// Probability of applying a random distortion (channel drop / extra noise) to a
    /// training example, mimicking the data-augmentation discussion in Section V-C.
    pub distortion_prob: f32,
}

impl SyntheticImageSpec {
    /// Preset matching the CIFAR-10 role in the paper (10 classes).
    pub fn cifar10_like() -> Self {
        Self {
            classes: 10,
            image_side: 16,
            train_size: 2_000,
            test_size: 500,
            noise_std: 1.1,
            intra_class_variation: 0.9,
            distortion_prob: 0.0,
        }
    }

    /// Preset matching the CIFAR-100 role in the paper (100 classes).
    pub fn cifar100_like() -> Self {
        Self {
            classes: 100,
            image_side: 16,
            train_size: 4_000,
            test_size: 1_000,
            noise_std: 1.0,
            intra_class_variation: 0.8,
            distortion_prob: 0.0,
        }
    }

    /// Overrides the train/test sizes.
    pub fn with_sizes(mut self, train: usize, test: usize) -> Self {
        self.train_size = train;
        self.test_size = test;
        self
    }

    /// Overrides the image side length.
    pub fn with_image_side(mut self, side: usize) -> Self {
        self.image_side = side;
        self
    }

    /// Overrides the number of classes.
    pub fn with_classes(mut self, classes: usize) -> Self {
        self.classes = classes;
        self
    }

    /// Overrides the pixel-noise standard deviation.
    pub fn with_noise(mut self, noise_std: f32) -> Self {
        self.noise_std = noise_std;
        self
    }

    /// Number of feature values per example.
    pub fn example_len(&self) -> usize {
        3 * self.image_side * self.image_side
    }

    /// Per-example tensor dimensions (`[3, side, side]`).
    pub fn example_dims(&self) -> Vec<usize> {
        vec![3, self.image_side, self.image_side]
    }
}

/// Specification of a synthetic flat-vector classification task, used by the MLP and
/// logistic-regression workloads (quickstart example, unit tests).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticVectorSpec {
    /// Number of classes.
    pub classes: usize,
    /// Feature dimensionality.
    pub dim: usize,
    /// Number of training examples.
    pub train_size: usize,
    /// Number of test examples.
    pub test_size: usize,
    /// Standard deviation of additive feature noise.
    pub noise_std: f32,
}

impl SyntheticVectorSpec {
    /// A small default task: 10 classes in 32 dimensions.
    pub fn small() -> Self {
        Self {
            classes: 10,
            dim: 32,
            train_size: 2_000,
            test_size: 500,
            noise_std: 1.0,
        }
    }

    /// Overrides the train/test sizes.
    pub fn with_sizes(mut self, train: usize, test: usize) -> Self {
        self.train_size = train;
        self.test_size = test;
        self
    }

    /// Overrides the noise level.
    pub fn with_noise(mut self, noise_std: f32) -> Self {
        self.noise_std = noise_std;
        self
    }

    /// Number of feature values per example.
    pub fn example_len(&self) -> usize {
        self.dim
    }

    /// Per-example tensor dimensions (`[dim]`).
    pub fn example_dims(&self) -> Vec<usize> {
        vec![self.dim]
    }
}

/// Draws a standard normal sample using the Box-Muller transform.
fn normal(rng: &mut ChaCha8Rng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// A smooth low-frequency random field over a `3 × side × side` image, built from a
/// handful of random sinusoidal components per channel.
fn smooth_field(rng: &mut ChaCha8Rng, side: usize, scale: f32) -> Vec<f32> {
    let mut out = vec![0.0f32; 3 * side * side];
    for c in 0..3 {
        // A few low frequencies per channel keep the field smooth and class-specific.
        let comps: Vec<(f32, f32, f32, f32, f32)> = (0..4)
            .map(|_| {
                (
                    rng.gen_range(0.3..1.8),                   // fx
                    rng.gen_range(0.3..1.8),                   // fy
                    rng.gen_range(0.0..std::f32::consts::TAU), // phase
                    rng.gen_range(-1.0..1.0),                  // amplitude
                    rng.gen_range(-0.3..0.3),                  // offset
                )
            })
            .collect();
        for y in 0..side {
            for x in 0..side {
                let mut v = 0.0f32;
                for &(fx, fy, phase, amp, offset) in &comps {
                    let arg = fx * x as f32 / side as f32 * std::f32::consts::TAU
                        + fy * y as f32 / side as f32 * std::f32::consts::TAU
                        + phase;
                    v += amp * arg.sin() + offset;
                }
                out[(c * side + y) * side + x] = v * scale;
            }
        }
    }
    out
}

impl SyntheticImageSpec {
    /// Generates one split of this task alone. The class prototypes come from the
    /// seed alone and each split draws its examples from a ChaCha stream of its own
    /// (stream 1 for training, 2 for test), so the split is bit for bit the one
    /// [`Dataset::generate`](crate::Dataset::generate) holds.
    ///
    /// # Panics
    ///
    /// Panics if the spec has fewer than two classes.
    pub fn generate_split(&self, seed: u64, split: Split) -> Examples {
        let (count, train) = match split {
            Split::Train => (self.train_size, true),
            Split::Test => (self.test_size, false),
        };
        generate_images(self, seed, count, train)
    }
}

impl SyntheticVectorSpec {
    /// Generates one split of this task alone, bit for bit the one
    /// [`Dataset::generate_vectors`](crate::Dataset::generate_vectors) holds (see
    /// [`SyntheticImageSpec::generate_split`]).
    ///
    /// # Panics
    ///
    /// Panics if the spec has fewer than two classes.
    pub fn generate_split(&self, seed: u64, split: Split) -> Examples {
        let (count, train) = match split {
            Split::Train => (self.train_size, true),
            Split::Test => (self.test_size, false),
        };
        generate_vectors(self, seed, count, train)
    }
}

fn generate_images(spec: &SyntheticImageSpec, seed: u64, count: usize, train: bool) -> Examples {
    assert!(spec.classes >= 2, "need at least two classes");
    let mut proto_rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC1A5_5E5A);
    let side2 = spec.image_side * spec.image_side;
    // Each class prototype combines a class-specific smooth spatial pattern with a
    // class-specific per-channel intensity offset. The offset component survives the
    // aggressive pooling of the scaled-down convolutional models, so the task remains
    // learnable at reproduction scale while the spatial component keeps it non-trivial.
    let prototypes: Vec<Vec<f32>> = (0..spec.classes)
        .map(|_| {
            let mut field = smooth_field(&mut proto_rng, spec.image_side, 1.0);
            for channel in 0..3 {
                let offset: f32 = proto_rng.gen_range(-0.9..0.9);
                for v in &mut field[channel * side2..(channel + 1) * side2] {
                    *v += offset;
                }
            }
            field
        })
        .collect();
    // A shared pool of variation modes: each sample mixes its class prototype with one
    // of these, which creates intra-class structure (not just white noise).
    let modes: Vec<Vec<f32>> = (0..8)
        .map(|_| smooth_field(&mut proto_rng, spec.image_side, 1.0))
        .collect();

    let stream = if train { 1u64 } else { 2u64 };
    let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(stream));
    let len = spec.example_len();
    let mut features = Vec::with_capacity(count * len);
    let mut labels = Vec::with_capacity(count);
    for i in 0..count {
        let label = i % spec.classes;
        let proto = &prototypes[label];
        let mode = &modes[rng.gen_range(0..modes.len())];
        let mode_weight = spec.intra_class_variation * rng.gen_range(-1.0f32..1.0);
        let distort =
            train && spec.distortion_prob > 0.0 && rng.gen::<f32>() < spec.distortion_prob;
        let dropped_channel = if distort { rng.gen_range(0..3usize) } else { 3 };
        for (j, (&p, &m)) in proto.iter().zip(mode.iter()).enumerate() {
            let channel = j / (spec.image_side * spec.image_side);
            let mut v = p + mode_weight * m + spec.noise_std * normal(&mut rng);
            if channel == dropped_channel {
                v = 0.0;
            }
            features.push(v);
        }
        labels.push(label);
    }
    Examples {
        features,
        labels,
        example_len: len,
        example_dims: spec.example_dims(),
        classes: spec.classes,
    }
}

fn generate_vectors(spec: &SyntheticVectorSpec, seed: u64, count: usize, train: bool) -> Examples {
    assert!(spec.classes >= 2, "need at least two classes");
    let mut proto_rng = ChaCha8Rng::seed_from_u64(seed ^ 0xFEED_BEEF);
    let prototypes: Vec<Vec<f32>> = (0..spec.classes)
        .map(|_| {
            (0..spec.dim)
                .map(|_| 1.5 * normal(&mut proto_rng))
                .collect()
        })
        .collect();
    let stream = if train { 1u64 } else { 2u64 };
    let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x51ED_2705).wrapping_add(stream));
    let mut features = Vec::with_capacity(count * spec.dim);
    let mut labels = Vec::with_capacity(count);
    for i in 0..count {
        let label = i % spec.classes;
        for &p in &prototypes[label] {
            features.push(p + spec.noise_std * normal(&mut rng));
        }
        labels.push(label);
    }
    Examples {
        features,
        labels,
        example_len: spec.dim,
        example_dims: spec.example_dims(),
        classes: spec.classes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_generation_is_deterministic() {
        let spec = SyntheticImageSpec::cifar10_like()
            .with_sizes(64, 16)
            .with_image_side(8);
        let a = spec.generate_split(7, Split::Train);
        let b = spec.generate_split(7, Split::Train);
        assert_eq!(a.features, b.features);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn train_and_test_streams_differ() {
        let spec = SyntheticImageSpec::cifar10_like()
            .with_sizes(32, 32)
            .with_image_side(8);
        let train = spec.generate_split(7, Split::Train);
        let test = spec.generate_split(7, Split::Test);
        assert_ne!(train.features, test.features);
    }

    #[test]
    fn labels_cover_all_classes_roughly_evenly() {
        let spec = SyntheticImageSpec::cifar10_like()
            .with_sizes(100, 10)
            .with_image_side(8);
        let raw = spec.generate_split(3, Split::Train);
        for c in 0..10 {
            let count = raw.labels.iter().filter(|&&l| l == c).count();
            assert_eq!(count, 10);
        }
    }

    #[test]
    fn example_len_matches_dims() {
        let spec = SyntheticImageSpec::cifar10_like().with_image_side(8);
        assert_eq!(spec.example_len(), 3 * 8 * 8);
        assert_eq!(spec.example_dims(), vec![3, 8, 8]);
        let v = SyntheticVectorSpec::small();
        assert_eq!(v.example_len(), 32);
    }

    #[test]
    fn distortion_zeroes_a_channel_sometimes() {
        let mut spec = SyntheticImageSpec::cifar10_like()
            .with_sizes(50, 10)
            .with_image_side(8);
        spec.distortion_prob = 1.0;
        let raw = spec.generate_split(5, Split::Train);
        let side2 = 8 * 8;
        let mut found_zeroed = false;
        for e in 0..50 {
            let ex = &raw.features[e * raw.example_len..(e + 1) * raw.example_len];
            for c in 0..3 {
                if ex[c * side2..(c + 1) * side2].iter().all(|&v| v == 0.0) {
                    found_zeroed = true;
                }
            }
        }
        assert!(
            found_zeroed,
            "with probability 1.0 every example should have a dropped channel"
        );
    }

    #[test]
    fn vector_classes_are_separated_from_each_other() {
        let spec = SyntheticVectorSpec::small()
            .with_sizes(200, 10)
            .with_noise(0.1);
        let raw = spec.generate_split(9, Split::Train);
        // With tiny noise, examples of the same class should be much closer to each
        // other than to examples of a different class.
        let ex = |i: usize| &raw.features[i * raw.example_len..(i + 1) * raw.example_len];
        let dist = |a: &[f32], b: &[f32]| -> f32 {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y).powi(2))
                .sum::<f32>()
                .sqrt()
        };
        // examples 0 and 10 share a class (labels cycle with 10 classes), 0 and 1 do not
        assert_eq!(raw.labels[0], raw.labels[10]);
        assert_ne!(raw.labels[0], raw.labels[1]);
        assert!(dist(ex(0), ex(10)) < dist(ex(0), ex(1)));
    }

    #[test]
    #[should_panic(expected = "at least two classes")]
    fn rejects_single_class() {
        let spec = SyntheticImageSpec::cifar10_like().with_classes(1);
        spec.generate_split(0, Split::Train);
    }
}
