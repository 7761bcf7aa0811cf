//! Finite-difference gradient checking.
//!
//! Every layer in this crate implements its own backward pass by hand; the gradient
//! checker verifies those analytic gradients against central finite differences of the
//! loss, which is the standard way to validate a from-scratch autodiff-free substrate.
//! The test suites of the model zoo use it on every architecture the paper trains.

use crate::{Model, SoftmaxCrossEntropy};
use dssp_tensor::Tensor;

/// The outcome of a gradient check.
#[derive(Debug, Clone, PartialEq)]
pub struct GradCheckReport {
    /// Largest absolute difference between analytic and numeric gradients.
    pub max_abs_diff: f32,
    /// Largest relative difference `|a - n| / max(1, |a|, |n|)`.
    pub max_rel_diff: f32,
    /// Number of parameters checked.
    pub checked: usize,
}

impl GradCheckReport {
    /// Whether every checked coordinate agreed within `tolerance` (relative).
    pub fn passes(&self, tolerance: f32) -> bool {
        self.max_rel_diff <= tolerance
    }
}

/// Compares the model's analytic gradients against central finite differences of the
/// softmax cross-entropy loss on the given mini-batch.
///
/// Only every `stride`-th parameter is perturbed (gradient checking is O(params ×
/// forward passes), so checking a spread-out subset keeps the model-zoo tests fast while
/// still touching every layer of a stack).
///
/// # Panics
///
/// Panics if `stride` is zero or the model has no parameters.
pub fn check_model_gradients(
    model: &mut dyn Model,
    input: &Tensor,
    labels: &[usize],
    epsilon: f32,
    stride: usize,
) -> GradCheckReport {
    assert!(stride > 0, "stride must be positive");
    let loss_fn = SoftmaxCrossEntropy::new();
    assert!(model.param_len() > 0, "model has no parameters to check");

    // Analytic gradients from one forward + backward pass.
    model.zero_grads();
    let logits = model.forward(input, true);
    let (_, grad) = loss_fn.loss_and_grad(&logits, labels);
    model.backward(&grad);
    let analytic = model.grads().to_vec();

    let mut max_abs = 0.0f32;
    let mut max_rel = 0.0f32;
    let mut checked = 0usize;
    for i in (0..model.param_len()).step_by(stride) {
        let original = model.params()[i];

        model.params_mut()[i] = original + epsilon;
        let plus = loss_fn.loss(&model.forward(input, true), labels);

        model.params_mut()[i] = original - epsilon;
        let minus = loss_fn.loss(&model.forward(input, true), labels);

        model.params_mut()[i] = original;
        let numeric = (plus - minus) / (2.0 * epsilon);
        let a = analytic[i];
        let abs = (a - numeric).abs();
        let rel = abs / a.abs().max(numeric.abs()).max(1.0);
        max_abs = max_abs.max(abs);
        max_rel = max_rel.max(rel);
        checked += 1;
    }

    GradCheckReport {
        max_abs_diff: max_abs,
        max_rel_diff: max_rel,
        checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    fn batch(dim: usize, classes: usize, n: usize) -> (Tensor, Vec<usize>) {
        // A small deterministic batch with non-trivial inputs and spread-out labels.
        let data: Vec<f32> = (0..n * dim)
            .map(|i| ((i * 37 % 23) as f32 - 11.0) / 7.0)
            .collect();
        let labels: Vec<usize> = (0..n).map(|i| i % classes).collect();
        (Tensor::from_vec(data, &[n, dim]), labels)
    }

    fn image_batch(side: usize, classes: usize, n: usize) -> (Tensor, Vec<usize>) {
        let dim = 3 * side * side;
        let data: Vec<f32> = (0..n * dim)
            .map(|i| ((i * 53 % 19) as f32 - 9.0) / 6.0)
            .collect();
        let labels: Vec<usize> = (0..n).map(|i| (i * 3) % classes).collect();
        (Tensor::from_vec(data, &[n, 3, side, side]), labels)
    }

    #[test]
    fn logistic_regression_gradients_match_finite_differences() {
        let mut model = models::logistic_regression(6, 3, 11);
        let (x, y) = batch(6, 3, 4);
        let report = check_model_gradients(&mut model, &x, &y, 1e-3, 1);
        assert!(report.passes(2e-2), "report: {report:?}");
        assert!(report.checked >= 18);
    }

    #[test]
    fn mlp_gradients_match_finite_differences() {
        let mut model = models::mlp(5, &[7], 3, 3);
        let (x, y) = batch(5, 3, 3);
        let report = check_model_gradients(&mut model, &x, &y, 1e-3, 1);
        assert!(report.passes(3e-2), "report: {report:?}");
    }

    #[test]
    fn downsized_alexnet_gradients_match_finite_differences() {
        let mut model = models::downsized_alexnet(8, 4, 5);
        let (x, y) = image_batch(8, 4, 2);
        // Check a spread-out subset: the conv stack makes full checking expensive. The
        // tolerance is looser than for the smooth models because the max-pooling layers
        // are only piecewise differentiable — a finite-difference probe that flips a
        // pooling winner produces an isolated large deviation that says nothing about
        // the analytic gradient.
        let report = check_model_gradients(&mut model, &x, &y, 1e-2, 97);
        assert!(report.passes(0.15), "report: {report:?}");
        assert!(report.checked > 20);
    }

    #[test]
    fn resnet_gradients_match_finite_differences() {
        let mut model = models::resnet_cifar(8, 2, 4, 7);
        let (x, y) = image_batch(8, 4, 2);
        // epsilon must stay well below the typical pre-activation magnitude: a 1e-2
        // probe can push a pre-activation across its ReLU kink, producing an isolated
        // O(1) finite-difference deviation that says nothing about the analytic
        // gradient (the measured deviation collapses from ~2.5e-1 at eps = 1e-2 to
        // ~1.6e-4 at eps = 1e-3 with identical gradients).
        let report = check_model_gradients(&mut model, &x, &y, 1e-3, 211);
        assert!(report.passes(5e-2), "report: {report:?}");
    }

    #[test]
    fn checker_restores_the_original_parameters() {
        let mut model = models::mlp(4, &[5], 2, 9);
        let before = model.params_flat();
        let (x, y) = batch(4, 2, 2);
        check_model_gradients(&mut model, &x, &y, 1e-3, 3);
        assert_eq!(model.params_flat(), before);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_rejected() {
        let mut model = models::mlp(4, &[5], 2, 9);
        let (x, y) = batch(4, 2, 2);
        check_model_gradients(&mut model, &x, &y, 1e-3, 0);
    }
}
