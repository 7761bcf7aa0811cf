//! Classification loss and accuracy metrics.

use dssp_tensor::Tensor;

/// Softmax cross-entropy loss over a mini-batch of logits.
///
/// This is the loss used for both of the paper's tasks (CIFAR-10 and CIFAR-100 image
/// classification). The struct is stateless; it exists as a type to mirror the layer
/// API and so callers can hold it alongside a model.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SoftmaxCrossEntropy;

impl SoftmaxCrossEntropy {
    /// Creates the loss.
    pub fn new() -> Self {
        Self
    }

    /// Computes the mean cross-entropy loss and the gradient with respect to the logits.
    ///
    /// * `logits` — `[N, classes]`
    /// * `labels` — class indices, one per row
    ///
    /// Returns `(mean_loss, grad_logits)` where `grad_logits` is already divided by the
    /// batch size (so the worker pushes the mean gradient of the mini-batch, matching
    /// Algorithm 1, worker line 4 of the paper).
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the number of logit rows or a label is out
    /// of range.
    pub fn loss_and_grad(&self, logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        let mut grad = Tensor::default();
        let loss = self.loss_and_grad_into(logits, labels, &mut grad);
        (loss, grad)
    }

    /// [`SoftmaxCrossEntropy::loss_and_grad`] writing the gradient into a
    /// caller-provided buffer (reused without allocation once warmed).
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the number of logit rows or a label is out
    /// of range.
    pub fn loss_and_grad_into(&self, logits: &Tensor, labels: &[usize], grad: &mut Tensor) -> f32 {
        let n = logits.rows();
        let classes = logits.cols();
        assert_eq!(labels.len(), n, "one label per logit row required");
        logits.softmax_rows_into(grad);
        let mut loss = 0.0f32;
        for (i, &label) in labels.iter().enumerate() {
            assert!(
                label < classes,
                "label {label} out of range for {classes} classes"
            );
            let current = grad.at2(i, label);
            loss -= current.max(1e-12).ln();
            grad.set2(i, label, current - 1.0);
        }
        grad.scale_inplace(1.0 / n as f32);
        loss / n as f32
    }

    /// Computes only the mean loss (no gradient), for evaluation passes.
    pub fn loss(&self, logits: &Tensor, labels: &[usize]) -> f32 {
        self.loss_and_grad(logits, labels).0
    }
}

/// Fraction of rows whose argmax logit equals the label.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the number of logit rows.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f32 {
    let correct = correct_predictions(logits, labels);
    if labels.is_empty() {
        0.0
    } else {
        correct as f32 / labels.len() as f32
    }
}

/// Number of rows whose argmax logit (first maximum) equals the label.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the number of logit rows.
pub(crate) fn correct_predictions(logits: &Tensor, labels: &[usize]) -> usize {
    assert_eq!(
        labels.len(),
        logits.rows(),
        "one label per logit row required"
    );
    let classes = logits.cols();
    let mut correct = 0usize;
    for (i, &label) in labels.iter().enumerate() {
        let row = &logits.as_slice()[i * classes..(i + 1) * classes];
        let mut best = 0usize;
        for (j, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = j;
            }
        }
        if best == label {
            correct += 1;
        }
    }
    correct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_has_low_loss() {
        let logits = Tensor::from_vec(vec![10.0, -10.0, -10.0, 10.0], &[2, 2]);
        let loss = SoftmaxCrossEntropy::new().loss(&logits, &[0, 1]);
        assert!(loss < 1e-3);
    }

    #[test]
    fn uniform_logits_give_log_classes_loss() {
        let logits = Tensor::zeros(&[4, 10]);
        let loss = SoftmaxCrossEntropy::new().loss(&logits, &[0, 3, 5, 9]);
        assert!((loss - (10.0f32).ln()).abs() < 1e-4);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = Tensor::from_vec(vec![0.5, -0.2, 0.1, 1.0, 0.0, -1.0], &[2, 3]);
        let labels = [2usize, 0usize];
        let ce = SoftmaxCrossEntropy::new();
        let (_, grad) = ce.loss_and_grad(&logits, &labels);
        let eps = 1e-3f32;
        for i in 0..logits.len() {
            let mut plus = logits.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = logits.clone();
            minus.as_mut_slice()[i] -= eps;
            let numeric = (ce.loss(&plus, &labels) - ce.loss(&minus, &labels)) / (2.0 * eps);
            assert!(
                (numeric - grad.as_slice()[i]).abs() < 1e-3,
                "logit {i}: numeric {numeric} analytic {}",
                grad.as_slice()[i]
            );
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.5, 0.0], &[2, 3]);
        let (_, grad) = SoftmaxCrossEntropy::new().loss_and_grad(&logits, &[1, 2]);
        for row in grad.as_slice().chunks(3) {
            let s: f32 = row.iter().sum();
            assert!(s.abs() < 1e-5);
        }
    }

    #[test]
    fn accuracy_counts_argmax_matches() {
        let logits = Tensor::from_vec(vec![2.0, 1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 3.0, 1.0], &[3, 3]);
        assert!((accuracy(&logits, &[0, 2, 1]) - 1.0).abs() < 1e-6);
        assert!((accuracy(&logits, &[1, 2, 1]) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_label_panics() {
        let logits = Tensor::zeros(&[1, 3]);
        SoftmaxCrossEntropy::new().loss(&logits, &[5]);
    }
}
