//! Server-side gradient aggregation.
//!
//! Algorithm 1 (server line 2) notes that "if some other workers send their updates at
//! the same time, their gradients are aggregated before updating" the global weights.
//! The reproduction exposes that choice explicitly: the server can apply every push the
//! moment it arrives ([`AggregationMode::PerPush`], the behaviour the rest of the paper
//! assumes) or buffer pushes and apply their average once enough have accumulated
//! ([`AggregationMode::Buffered`]), which is the "aggregation granularity" ablation
//! (`repro ablation_aggregation`). Buffering trades update latency for lower gradient
//! variance — with a buffer the size of the worker count it behaves like synchronous
//! mini-batch accumulation even under an asynchronous paradigm.

use serde::{Deserialize, Serialize};

/// How the server folds incoming gradients into the global weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggregationMode {
    /// Apply each push to the weights immediately (the paper's default behaviour).
    PerPush,
    /// Buffer pushes and apply their average once `capacity` of them have accumulated.
    /// A trailing partial buffer is applied on [`GradientBuffer::flush`].
    Buffered {
        /// Number of pushes averaged into one weight update.
        capacity: usize,
    },
}

impl Default for AggregationMode {
    fn default() -> Self {
        AggregationMode::PerPush
    }
}

impl AggregationMode {
    /// A short label for reports.
    pub fn label(&self) -> String {
        match self {
            AggregationMode::PerPush => "per-push".to_string(),
            AggregationMode::Buffered { capacity } => format!("buffered x{capacity}"),
        }
    }
}

/// Accumulates pushed gradients according to an [`AggregationMode`] and emits the
/// averaged gradient that should actually be applied to the weights.
///
/// The hot path is allocation-free: [`GradientBuffer::add_in_place`] accumulates into a
/// preallocated sum buffer and averages into a second preallocated buffer, so buffered
/// steady state performs no heap allocation per push (a regression test enforces this
/// with a counting allocator). The `Option<Vec<f32>>`-returning [`GradientBuffer::add`]
/// / [`GradientBuffer::flush`] remain as allocating conveniences for tests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GradientBuffer {
    mode: AggregationMode,
    sums: Vec<f32>,
    /// The averaged update of the most recent emission (valid while `ready`).
    avg: Vec<f32>,
    /// Whether `avg` holds the update produced by the last `add_in_place`/
    /// `flush_in_place` call (per-push mode never sets it: the pushed gradient itself
    /// is the update and no copy is made).
    ready: bool,
    count: usize,
    emitted: u64,
    absorbed: u64,
}

impl GradientBuffer {
    /// Creates a buffer for gradients of length `dim`.
    ///
    /// # Panics
    ///
    /// Panics if the mode is [`AggregationMode::Buffered`] with a zero capacity.
    pub fn new(dim: usize, mode: AggregationMode) -> Self {
        if let AggregationMode::Buffered { capacity } = mode {
            assert!(
                capacity > 0,
                "buffered aggregation needs a positive capacity"
            );
        }
        Self {
            mode,
            sums: vec![0.0; dim],
            avg: Vec::new(),
            ready: false,
            count: 0,
            emitted: 0,
            absorbed: 0,
        }
    }

    /// The aggregation mode in use.
    pub fn mode(&self) -> AggregationMode {
        self.mode
    }

    /// Number of gradients currently buffered (always zero for per-push mode).
    pub fn pending(&self) -> usize {
        self.count
    }

    /// Number of aggregated gradients emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Number of individual gradients absorbed so far.
    pub fn absorbed(&self) -> u64 {
        self.absorbed
    }

    /// Absorbs one pushed gradient in place. Returns `true` when an update is ready to
    /// apply: in per-push mode the update is the pushed gradient itself
    /// ([`GradientBuffer::pending_update`] returns `None` and the caller applies
    /// `grads` directly, with no copy); in buffered mode the averaged buffer is exposed
    /// through [`GradientBuffer::pending_update`] once `capacity` pushes accumulated.
    ///
    /// # Panics
    ///
    /// Panics if the gradient length differs from the buffer dimension.
    pub fn add_in_place(&mut self, grads: &[f32]) -> bool {
        assert_eq!(grads.len(), self.sums.len(), "gradient length mismatch");
        self.absorbed += 1;
        self.ready = false;
        match self.mode {
            AggregationMode::PerPush => {
                self.emitted += 1;
                true
            }
            AggregationMode::Buffered { capacity } => {
                for (s, &g) in self.sums.iter_mut().zip(grads) {
                    *s += g;
                }
                self.count += 1;
                if self.count >= capacity {
                    self.emit();
                    true
                } else {
                    false
                }
            }
        }
    }

    /// The averaged update produced by the last [`GradientBuffer::add_in_place`] /
    /// [`GradientBuffer::flush_in_place`] call that returned `true`, or `None` in
    /// per-push mode (where the pushed gradient itself is the update).
    pub fn pending_update(&self) -> Option<&[f32]> {
        self.ready.then(|| self.avg.as_slice())
    }

    /// Emits whatever is currently buffered (a no-op returning `false` when empty);
    /// the average is exposed through [`GradientBuffer::pending_update`]. Used at the
    /// end of training so no pushed work is dropped.
    pub fn flush_in_place(&mut self) -> bool {
        self.ready = false;
        if self.count == 0 {
            false
        } else {
            self.emit();
            true
        }
    }

    /// Adds one pushed gradient. Returns the gradient the server should apply now, if
    /// any: the push itself in per-push mode, or the buffer average once the buffer
    /// reaches its capacity. Allocating convenience over
    /// [`GradientBuffer::add_in_place`].
    ///
    /// # Panics
    ///
    /// Panics if the gradient length differs from the buffer dimension.
    pub fn add(&mut self, grads: &[f32]) -> Option<Vec<f32>> {
        if self.add_in_place(grads) {
            Some(self.pending_update().unwrap_or(grads).to_vec())
        } else {
            None
        }
    }

    /// Applies whatever is currently buffered, returning the averaged gradient if the
    /// buffer was non-empty. Allocating convenience over
    /// [`GradientBuffer::flush_in_place`].
    pub fn flush(&mut self) -> Option<Vec<f32>> {
        if self.flush_in_place() {
            Some(self.avg.clone())
        } else {
            None
        }
    }

    /// Averages `sums` into the preallocated `avg` buffer and resets the accumulator.
    fn emit(&mut self) {
        let n = self.count as f32;
        self.avg.clear();
        self.avg.extend(self.sums.iter().map(|&s| s / n));
        self.sums.iter_mut().for_each(|s| *s = 0.0);
        self.count = 0;
        self.emitted += 1;
        self.ready = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_push_mode_passes_gradients_through_unchanged() {
        let mut buf = GradientBuffer::new(2, AggregationMode::PerPush);
        assert_eq!(buf.add(&[1.0, 2.0]), Some(vec![1.0, 2.0]));
        assert_eq!(buf.add(&[3.0, 4.0]), Some(vec![3.0, 4.0]));
        assert_eq!(buf.pending(), 0);
        assert_eq!(buf.emitted(), 2);
        assert_eq!(buf.absorbed(), 2);
        assert_eq!(buf.flush(), None);
    }

    #[test]
    fn buffered_mode_averages_capacity_pushes() {
        let mut buf = GradientBuffer::new(2, AggregationMode::Buffered { capacity: 2 });
        assert_eq!(buf.add(&[1.0, 0.0]), None);
        assert_eq!(buf.pending(), 1);
        assert_eq!(buf.add(&[3.0, 2.0]), Some(vec![2.0, 1.0]));
        assert_eq!(buf.pending(), 0);
        assert_eq!(buf.emitted(), 1);
        assert_eq!(buf.absorbed(), 2);
    }

    #[test]
    fn flush_applies_a_partial_buffer() {
        let mut buf = GradientBuffer::new(1, AggregationMode::Buffered { capacity: 4 });
        buf.add(&[2.0]);
        buf.add(&[4.0]);
        assert_eq!(buf.flush(), Some(vec![3.0]));
        assert_eq!(buf.flush(), None);
        assert_eq!(buf.pending(), 0);
    }

    #[test]
    fn buffer_resets_between_emissions() {
        let mut buf = GradientBuffer::new(1, AggregationMode::Buffered { capacity: 2 });
        buf.add(&[2.0]);
        assert_eq!(buf.add(&[4.0]), Some(vec![3.0]));
        buf.add(&[10.0]);
        assert_eq!(buf.add(&[20.0]), Some(vec![15.0]));
    }

    #[test]
    fn in_place_api_exposes_the_update_without_copying() {
        let mut buf = GradientBuffer::new(2, AggregationMode::Buffered { capacity: 2 });
        assert!(!buf.add_in_place(&[1.0, 0.0]));
        assert_eq!(buf.pending_update(), None);
        assert!(buf.add_in_place(&[3.0, 2.0]));
        assert_eq!(buf.pending_update(), Some(&[2.0, 1.0][..]));
        // The pending update is invalidated by the next absorb.
        assert!(!buf.add_in_place(&[5.0, 5.0]));
        assert_eq!(buf.pending_update(), None);
        assert!(buf.flush_in_place());
        assert_eq!(buf.pending_update(), Some(&[5.0, 5.0][..]));
        assert!(!buf.flush_in_place());
        // Per-push mode signals "apply the push itself": ready but no stored copy.
        let mut per_push = GradientBuffer::new(2, AggregationMode::PerPush);
        assert!(per_push.add_in_place(&[7.0, 8.0]));
        assert_eq!(per_push.pending_update(), None);
    }

    #[test]
    fn labels_describe_the_mode() {
        assert_eq!(AggregationMode::PerPush.label(), "per-push");
        assert_eq!(
            AggregationMode::Buffered { capacity: 4 }.label(),
            "buffered x4"
        );
        assert_eq!(AggregationMode::default(), AggregationMode::PerPush);
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn zero_capacity_rejected() {
        GradientBuffer::new(1, AggregationMode::Buffered { capacity: 0 });
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_gradient_length_rejected() {
        GradientBuffer::new(2, AggregationMode::PerPush).add(&[1.0]);
    }
}
