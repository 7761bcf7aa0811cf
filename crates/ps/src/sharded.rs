//! Key-sharded parameter storage.
//!
//! Production parameter servers (MXNet's KVStore, Li et al.'s Parameter Server) split
//! the model into key ranges and spread them over several server shards so that pushes
//! and pulls for different parts of the model can proceed in parallel and no single
//! machine has to hold the whole model. The synchronization paradigms studied in the
//! paper are orthogonal to this sharding — they gate whole worker iterations, not
//! individual keys — so [`ShardedStore`] keys ranges and versions *within* one server
//! process: since the rework that made it the [`crate::ParameterServer`]'s storage
//! backend, the shards are contiguous views over a single flat parameter vector, which
//! keeps whole-model pulls and SGD steps zero-copy (a flat store is simply the
//! single-shard special case) while preserving per-shard version counters for the wire
//! protocol's pull metadata.

use serde::{Deserialize, Serialize};

/// The key range `[start, end)` that shard `shard` owns when `total` parameters are
/// split into `num_shards` near-equal contiguous shards.
///
/// This closed form is the protocol-level layout contract: a networked worker that
/// knows only the parameter count and shard count of a job reconstructs exactly the
/// ranges a server-side [`ShardedStore`] uses, so delta pull replies can ship bare
/// `(shard, weights)` pairs without repeating offsets on the wire.
///
/// # Panics
///
/// Panics if `num_shards` is zero or `shard >= num_shards`.
pub fn shard_range(total: usize, num_shards: usize, shard: usize) -> (usize, usize) {
    assert!(num_shards > 0, "need at least one shard");
    assert!(shard < num_shards, "shard index out of range");
    let base = total / num_shards;
    let remainder = total % num_shards;
    let start = shard * base + shard.min(remainder);
    let end = start + base + usize::from(shard < remainder);
    (start, end)
}

/// Whether a client's `known` per-shard version vector can be answered with a delta
/// against a store at `versions`: one entry per shard and nowhere ahead of the server
/// (a client from the future means the server restarted — fall back to a full pull).
///
/// This predicate is the single definition of delta compatibility:
/// [`ShardedStore::delta_compatible`] and the wire layer's `PullView` both delegate
/// here, so the fallback rule cannot silently diverge between the storage and
/// transport layers.
pub fn delta_compatible(versions: &[u64], known: &[u64]) -> bool {
    known.len() == versions.len() && known.iter().zip(versions).all(|(k, v)| k <= v)
}

/// A parameter vector split into contiguous, near-equal key ranges ("shards"), each with
/// its own update version counter.
///
/// The backing storage is one flat `Vec<f32>`; shard accessors return sub-slices of it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardedStore {
    flat: Vec<f32>,
    /// Start offset of each shard within the flat parameter vector (plus a final
    /// sentinel equal to the total length).
    offsets: Vec<usize>,
    versions: Vec<u64>,
}

impl ShardedStore {
    /// Splits `initial` into `num_shards` contiguous shards of near-equal size.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero or exceeds the parameter count (for a non-empty
    /// vector).
    pub fn new(initial: Vec<f32>, num_shards: usize) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        assert!(
            initial.is_empty() || num_shards <= initial.len(),
            "cannot split {} parameters into {num_shards} shards",
            initial.len()
        );
        let total = initial.len();
        let mut offsets = Vec::with_capacity(num_shards + 1);
        for i in 0..num_shards {
            offsets.push(shard_range(total, num_shards, i).0);
        }
        offsets.push(total);
        Self {
            flat: initial,
            offsets,
            versions: vec![0; num_shards],
        }
    }

    /// Builds a store over `initial` with explicitly given shard boundaries.
    ///
    /// `offsets` must be the start offset of every shard plus a final sentinel equal to
    /// `initial.len()`, monotonically non-decreasing. This is how a group's shard
    /// server materializes its slice of the model: the boundaries are the *global*
    /// [`shard_range`] layout restricted to the shards it owns, so they are not
    /// recomputed from the slice length (which could drift from the global layout).
    /// A bare `[0]` boundary vector over an empty `initial` is the zero-shard store —
    /// what a shard server drained by a live migration holds.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is not a valid monotone boundary vector for `initial`.
    pub fn with_offsets(initial: Vec<f32>, offsets: Vec<usize>) -> Self {
        assert!(!offsets.is_empty(), "need at least the sentinel offset");
        assert_eq!(offsets[0], 0, "first shard must start at offset 0");
        assert_eq!(
            *offsets.last().expect("non-empty"),
            initial.len(),
            "final sentinel must equal the parameter count"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "shard offsets must be monotone"
        );
        let shards = offsets.len() - 1;
        Self {
            flat: initial,
            offsets,
            versions: vec![0; shards],
        }
    }

    /// Rebuilds a store from checkpointed weights, boundaries, and per-shard versions
    /// (unlike [`ShardedStore::with_offsets`], which starts every version at zero).
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is not a valid monotone boundary vector for `flat` or if
    /// `versions` does not hold exactly one entry per shard.
    pub fn restore(flat: Vec<f32>, offsets: Vec<usize>, versions: Vec<u64>) -> Self {
        let mut store = Self::with_offsets(flat, offsets);
        assert_eq!(
            versions.len(),
            store.versions.len(),
            "restored version vector must have one entry per shard"
        );
        store.versions = versions;
        store
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.versions.len()
    }

    /// Total number of parameters across all shards.
    pub fn len(&self) -> usize {
        *self.offsets.last().expect("offsets always has a sentinel")
    }

    /// Whether the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The key range `[start, end)` owned by `shard`.
    pub fn key_range(&self, shard: usize) -> (usize, usize) {
        (self.offsets[shard], self.offsets[shard + 1])
    }

    /// The current parameters of one shard.
    pub fn shard(&self, shard: usize) -> &[f32] {
        &self.flat[self.offsets[shard]..self.offsets[shard + 1]]
    }

    /// The update version (number of applied updates) of one shard.
    pub fn version(&self, shard: usize) -> u64 {
        self.versions[shard]
    }

    /// All per-shard versions, in shard order (what a networked pull reports alongside
    /// the weights).
    pub fn versions(&self) -> &[u64] {
        &self.versions
    }

    /// Start offset of every shard within the flat parameter vector, plus a final
    /// sentinel equal to the total length (so `offsets()[i]..offsets()[i + 1]` is
    /// shard `i`'s key range).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Copies the whole parameter vector into `out` (cleared first) — the
    /// allocation-free full pull: once `out` has grown to the model size, this is a
    /// single bounds-checked memcpy.
    pub fn pull_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.extend_from_slice(&self.flat);
    }

    /// Whether `known` is a per-shard version vector this store can answer with a
    /// delta (see the crate-level [`delta_compatible`] predicate both layers share).
    pub fn delta_compatible(&self, known: &[u64]) -> bool {
        delta_compatible(&self.versions, known)
    }

    /// Indices of the shards whose version advanced past the client's `known` vector —
    /// the shards a delta pull must ship.
    ///
    /// # Panics
    ///
    /// Panics if `known` has the wrong length (callers must check
    /// [`ShardedStore::delta_compatible`] first).
    pub fn stale_shards<'a>(&'a self, known: &'a [u64]) -> impl Iterator<Item = usize> + 'a {
        assert_eq!(known.len(), self.versions.len(), "shard count mismatch");
        (0..self.versions.len()).filter(move |&i| self.versions[i] > known[i])
    }

    /// The incremental pull: for every shard stale relative to `known`, appends its
    /// `(shard, version)` pair to `meta` and memcpys its weights into `weights` back to
    /// back (both buffers are cleared first and never allocated here once warm).
    /// Returns the number of shards shipped.
    ///
    /// # Panics
    ///
    /// Panics if `known` has the wrong length (callers must check
    /// [`ShardedStore::delta_compatible`] first).
    pub fn pull_delta_into(
        &self,
        known: &[u64],
        meta: &mut Vec<(u32, u64)>,
        weights: &mut Vec<f32>,
    ) -> usize {
        meta.clear();
        weights.clear();
        for shard in self.stale_shards(known) {
            meta.push((shard as u32, self.versions[shard]));
            weights.extend_from_slice(self.shard(shard));
        }
        meta.len()
    }

    /// Applies a gradient to one shard with a plain SGD step (`w -= lr * g`), bumping
    /// that shard's version.
    ///
    /// # Panics
    ///
    /// Panics if the gradient length differs from the shard length.
    pub fn apply_shard(&mut self, shard: usize, grads: &[f32], lr: f32) {
        let params = &mut self.flat[self.offsets[shard]..self.offsets[shard + 1]];
        assert_eq!(grads.len(), params.len(), "shard gradient length mismatch");
        for (w, &g) in params.iter_mut().zip(grads) {
            *w -= lr * g;
        }
        self.versions[shard] += 1;
    }

    /// The whole parameter vector as one contiguous slice (zero-copy whole-model view).
    pub fn as_flat(&self) -> &[f32] {
        &self.flat
    }

    /// Mutable access to the whole parameter vector, for optimizers that update all
    /// shards in one pass. The caller is responsible for calling
    /// [`ShardedStore::bump_all_versions`] afterwards so per-shard versions stay honest.
    pub fn flat_mut(&mut self) -> &mut [f32] {
        &mut self.flat
    }

    /// Records one whole-model update on every shard's version counter (the bookkeeping
    /// counterpart of a [`ShardedStore::flat_mut`] update).
    pub fn bump_all_versions(&mut self) {
        for v in &mut self.versions {
            *v += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A full-model gradient applied shard by shard.
    fn apply_all(store: &mut ShardedStore, grads: &[f32], lr: f32) {
        assert_eq!(grads.len(), store.len(), "gradient length mismatch");
        for shard in 0..store.num_shards() {
            let (start, end) = store.key_range(shard);
            store.apply_shard(shard, &grads[start..end], lr);
        }
    }

    #[test]
    fn splits_parameters_into_near_equal_contiguous_shards() {
        let store = ShardedStore::new((0..10).map(|i| i as f32).collect(), 3);
        assert_eq!(store.num_shards(), 3);
        assert_eq!(store.len(), 10);
        // 10 = 4 + 3 + 3
        assert_eq!(store.shard(0), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(store.shard(1), &[4.0, 5.0, 6.0]);
        assert_eq!(store.shard(2), &[7.0, 8.0, 9.0]);
        assert_eq!(store.key_range(0), (0, 4));
        assert_eq!(store.key_range(2), (7, 10));
        assert_eq!(
            store.as_flat(),
            (0..10).map(|i| i as f32).collect::<Vec<_>>()
        );
    }

    #[test]
    fn shard_updates_bump_only_that_shards_version() {
        let mut store = ShardedStore::new(vec![0.0; 6], 2);
        store.apply_shard(1, &[1.0, 1.0, 1.0], 0.5);
        assert_eq!(store.version(0), 0);
        assert_eq!(store.version(1), 1);
        assert_eq!(store.shard(1), &[-0.5, -0.5, -0.5]);
        assert_eq!(store.shard(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn whole_model_update_touches_every_shard() {
        let mut store = ShardedStore::new(vec![1.0; 5], 2);
        apply_all(&mut store, &[1.0; 5], 1.0);
        assert_eq!(store.as_flat(), [0.0; 5]);
        assert_eq!(store.versions(), [1, 1]);
    }

    #[test]
    fn single_shard_behaves_like_a_flat_store() {
        let mut store = ShardedStore::new(vec![0.0; 4], 1);
        apply_all(&mut store, &[2.0; 4], 0.25);
        assert_eq!(store.as_flat(), [-0.5; 4]);
        assert_eq!(store.key_range(0), (0, 4));
    }

    #[test]
    fn empty_store_is_permitted() {
        let store = ShardedStore::new(vec![], 2);
        assert!(store.is_empty());
        assert_eq!(store.as_flat(), [] as [f32; 0]);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ShardedStore::new(vec![0.0; 4], 0);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn more_shards_than_parameters_rejected() {
        ShardedStore::new(vec![0.0; 2], 3);
    }

    #[test]
    fn flat_view_is_contiguous_and_matches_pull_all() {
        let mut store = ShardedStore::new((0..7).map(|i| i as f32).collect(), 3);
        let mut pulled = Vec::new();
        store.pull_into(&mut pulled);
        assert_eq!(store.as_flat(), pulled);
        store.flat_mut()[6] = -1.0;
        store.bump_all_versions();
        assert_eq!(store.shard(2), &[5.0, -1.0]);
        assert_eq!(store.versions(), &[1, 1, 1]);
    }

    #[test]
    fn shard_range_matches_the_constructed_offsets() {
        for total in [0usize, 1, 5, 10, 23, 64] {
            for shards in 1..=total.clamp(1, 8) {
                let store = ShardedStore::new(vec![0.0; total], shards);
                for i in 0..shards {
                    assert_eq!(
                        shard_range(total, shards, i),
                        store.key_range(i),
                        "total={total} shards={shards} i={i}"
                    );
                }
                assert_eq!(store.offsets().len(), shards + 1);
                assert_eq!(*store.offsets().last().unwrap(), total);
            }
        }
    }

    #[test]
    fn with_offsets_preserves_an_explicit_global_sub_layout() {
        // A 2-server split of 10 params over 4 global shards: server 1 owns global
        // shards 2 and 3 ([6..8) and [8..10)), so its local store spans [6..10) with
        // boundaries taken from the global layout, not recomputed from its length.
        let global: Vec<usize> = (0..4).map(|s| shard_range(10, 4, s).0).collect();
        assert_eq!(global, vec![0, 3, 6, 8]);
        let slice: Vec<f32> = (6..10).map(|i| i as f32).collect();
        let store = ShardedStore::with_offsets(slice, vec![0, 2, 4]);
        assert_eq!(store.num_shards(), 2);
        assert_eq!(store.shard(0), &[6.0, 7.0]);
        assert_eq!(store.shard(1), &[8.0, 9.0]);
        assert_eq!(store.versions(), &[0, 0]);
    }

    #[test]
    fn zero_shard_store_is_the_drained_server_case() {
        let store = ShardedStore::with_offsets(vec![], vec![0]);
        assert_eq!(store.num_shards(), 0);
        assert!(store.is_empty());
        assert!(store.delta_compatible(&[]));
        assert_eq!(store.versions(), &[] as &[u64]);
        let (mut meta, mut weights) = (Vec::new(), Vec::new());
        assert_eq!(store.pull_delta_into(&[], &mut meta, &mut weights), 0);
        let mut store = store;
        apply_all(&mut store, &[], 0.1); // a zero-length push round is a no-op
        store.bump_all_versions();
        assert!(store.versions().is_empty());
    }

    #[test]
    #[should_panic(expected = "final sentinel")]
    fn with_offsets_rejects_a_bad_sentinel() {
        ShardedStore::with_offsets(vec![0.0; 4], vec![0, 2, 5]);
    }

    #[test]
    fn pull_into_reuses_the_callers_buffer() {
        let store = ShardedStore::new((0..6).map(|i| i as f32).collect(), 2);
        let mut out = vec![9.0; 10]; // stale content and excess length
        store.pull_into(&mut out);
        assert_eq!(out, (0..6).map(|i| i as f32).collect::<Vec<_>>());
    }

    #[test]
    fn delta_pulls_ship_exactly_the_stale_shards() {
        let mut store = ShardedStore::new(vec![0.0; 9], 3);
        store.apply_shard(0, &[1.0; 3], 1.0);
        store.apply_shard(2, &[2.0; 3], 1.0);
        store.apply_shard(2, &[2.0; 3], 1.0);
        // Client knows shard 0's update but not shard 2's two.
        let known = [1u64, 0, 0];
        assert!(store.delta_compatible(&known));
        assert_eq!(store.stale_shards(&known).collect::<Vec<_>>(), vec![2]);
        let (mut meta, mut weights) = (Vec::new(), Vec::new());
        assert_eq!(store.pull_delta_into(&known, &mut meta, &mut weights), 1);
        assert_eq!(meta, vec![(2, 2)]);
        assert_eq!(weights, vec![-4.0; 3]);
        // Fully caught-up client: empty delta.
        let caught_up = [1u64, 0, 2];
        assert_eq!(
            store.pull_delta_into(&caught_up, &mut meta, &mut weights),
            0
        );
        assert!(meta.is_empty() && weights.is_empty());
        // Wrong length or future versions are incompatible.
        assert!(!store.delta_compatible(&[1, 0]));
        assert!(!store.delta_compatible(&[9, 0, 0]));
    }

    #[test]
    fn per_shard_application_is_bitwise_identical_to_whole_model_application() {
        // The SGD arithmetic is elementwise, so splitting a full-model gradient into
        // per-shard applications must produce exactly the same bits as one flat pass.
        let initial: Vec<f32> = (0..23).map(|i| (i as f32).sin()).collect();
        let grads: Vec<f32> = (0..23).map(|i| (i as f32 * 0.7).cos()).collect();
        let mut whole = ShardedStore::new(initial.clone(), 1);
        let mut split = ShardedStore::new(initial, 5);
        apply_all(&mut whole, &grads, 0.05);
        apply_all(&mut split, &grads, 0.05);
        assert_eq!(whole.as_flat(), split.as_flat());
        assert_eq!(split.versions(), &[1; 5]);
    }
}
