//! Reusable scratch memory for allocation-free training steps.
//!
//! Every training iteration of the original layer API allocated fresh tensors for
//! activations, gradients, packed convolution operands and masks. [`Workspace`] owns all of those
//! buffers instead: a ping-pong pair of activation/gradient tensors driven by
//! [`crate::Sequential`], the model input's gradient, plus one [`LayerScratch`] arena
//! per layer. After the first (warm-up) step every buffer has reached its steady-state
//! size and subsequent steps perform **zero heap allocations** in the forward and
//! backward passes.
//!
//! A workspace is tied to the model that warmed it only by buffer shapes, so it can be
//! reused across models of identical architecture, and it tolerates varying batch
//! sizes (buffers grow to the largest batch seen and are then reused).

use dssp_tensor::Tensor;

/// Scratch buffers owned by one layer position in a [`Workspace`].
///
/// Layers index buffers by small constants (`buf 0` = cached input copy, `buf 1` =
/// matmul scratch, ...); composite layers such as `ResidualBlock` additionally get one
/// child `LayerScratch` per sub-layer.
#[derive(Debug, Default)]
pub struct LayerScratch {
    bufs: Vec<Tensor>,
    children: Vec<LayerScratch>,
}

impl LayerScratch {
    /// Returns the scratch tensor at `idx`, creating empty tensors up to that index on
    /// first use.
    pub fn buf(&mut self, idx: usize) -> &mut Tensor {
        while self.bufs.len() <= idx {
            self.bufs.push(Tensor::default());
        }
        &mut self.bufs[idx]
    }

    /// Returns the child scratch at `idx`, creating empty children up to that index on
    /// first use (used by composite layers for their sub-layers).
    pub fn child(&mut self, idx: usize) -> &mut LayerScratch {
        while self.children.len() <= idx {
            self.children.push(LayerScratch::default());
        }
        &mut self.children[idx]
    }

    /// Splits the scratch into its buffer slice and its child slice so a composite
    /// layer can hold buffers and drive sub-layers simultaneously. Ensures at least
    /// `bufs` buffers and `children` children exist first.
    pub fn parts(&mut self, bufs: usize, children: usize) -> (&mut [Tensor], &mut [LayerScratch]) {
        while self.bufs.len() < bufs {
            self.bufs.push(Tensor::default());
        }
        while self.children.len() < children {
            self.children.push(LayerScratch::default());
        }
        (&mut self.bufs, &mut self.children)
    }

    /// Total capacity (in `f32` elements) of every buffer in this scratch, recursively.
    pub fn total_capacity(&self) -> usize {
        self.bufs.iter().map(Tensor::capacity).sum::<usize>()
            + self
                .children
                .iter()
                .map(LayerScratch::total_capacity)
                .sum::<usize>()
    }
}

/// All scratch memory needed to run a [`crate::Sequential`] model without allocating.
///
/// Created empty with [`Workspace::new`]; buffers are grown on demand during the first
/// training step and reused afterwards.
///
/// # Example
///
/// ```
/// use dssp_nn::{models, Workspace};
/// use dssp_tensor::Tensor;
///
/// let mut model = models::mlp(8, &[16], 4, 42);
/// let mut ws = Workspace::new();
/// let x = Tensor::zeros(&[2, 8]);
/// let logits = model.forward_ws(&x, true, &mut ws);
/// assert_eq!(logits.shape().dims(), &[2, 4]);
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    /// Activation / gradient ping-pong buffers, alternated between consecutive layers
    /// by the `Sequential` driver.
    pub(crate) ping: Tensor,
    pub(crate) pong: Tensor,
    /// The gradient with respect to the model input. Only
    /// [`crate::Sequential::backward_ws`] writes it; a workspace that only trains
    /// ([`crate::Sequential::backward_params_ws`]) never sizes it.
    pub(crate) input_grad: Tensor,
    /// One scratch arena per layer position.
    pub(crate) layers: Vec<LayerScratch>,
}

impl Workspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures one [`LayerScratch`] exists for each of `n` layers.
    pub(crate) fn ensure_layers(&mut self, n: usize) {
        while self.layers.len() < n {
            self.layers.push(LayerScratch::default());
        }
    }

    /// Total capacity (in `f32` elements) of every buffer owned by this workspace.
    ///
    /// After a warm-up step this number is stable: the steady-state regression tests
    /// assert it does not change across further training steps.
    pub fn total_capacity(&self) -> usize {
        self.ping.capacity()
            + self.pong.capacity()
            + self.input_grad.capacity()
            + self
                .layers
                .iter()
                .map(LayerScratch::total_capacity)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_buffers_are_created_on_demand_and_persist() {
        let mut s = LayerScratch::default();
        s.buf(2).ensure_shape(&[4, 4]);
        assert_eq!(s.bufs.len(), 3);
        assert_eq!(s.buf(2).len(), 16);
        assert!(s.total_capacity() >= 16);
    }

    #[test]
    fn parts_provides_disjoint_buffers_and_children() {
        let mut s = LayerScratch::default();
        let (bufs, children) = s.parts(2, 1);
        assert_eq!(bufs.len(), 2);
        assert_eq!(children.len(), 1);
        bufs[0].ensure_shape(&[8]);
        children[0].buf(0).ensure_shape(&[2]);
        assert!(s.total_capacity() >= 10);
    }

    #[test]
    fn workspace_capacity_counts_all_buffers() {
        let mut ws = Workspace::new();
        assert_eq!(ws.total_capacity(), 0);
        ws.ping.ensure_shape(&[3]);
        ws.ensure_layers(1);
        ws.layers[0].buf(0).ensure_shape(&[5]);
        assert!(ws.total_capacity() >= 8);
    }
}
