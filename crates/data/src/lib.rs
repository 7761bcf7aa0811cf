//! Synthetic datasets, sharding and mini-batch iteration.
//!
//! The paper trains on CIFAR-10 and CIFAR-100 (50 000 training / 10 000 test images of
//! size 32×32×3, with 10 or 100 classes). This reproduction does not ship the CIFAR
//! binaries; instead it generates deterministic synthetic image-classification tasks
//! with the same interface (image tensors + integer labels, train/test split, per-worker
//! shards) and a tunable difficulty, so that accuracy-versus-time curves exhibit the
//! same gradual convergence the paper's figures show. See PAPER.md ("Two deliberate
//! substitutions") for the rationale.
//!
//! # Example
//!
//! ```
//! use dssp_data::{SyntheticImageSpec, Dataset};
//!
//! let spec = SyntheticImageSpec::cifar10_like().with_sizes(256, 64).with_image_side(8);
//! let data = Dataset::generate(&spec, 42);
//! assert_eq!(data.train_len(), 256);
//! assert_eq!(data.test_len(), 64);
//! let shards = data.shard_train(4);
//! assert_eq!(shards.len(), 4);
//! ```

mod batcher;
mod dataset;
mod synthetic;

pub use batcher::BatchIter;
pub use dataset::{shard_sizes, Dataset, Examples, Shard, Split};
pub use synthetic::{SyntheticImageSpec, SyntheticVectorSpec};
