//! The epoch-versioned group layout: which shard server owns which global shards.
//!
//! Until the live-migration work this was a closed form — two nested applications of
//! [`dssp_ps::shard_range`] dividing the `params`-long model into `shards` key ranges
//! and those shards into `servers` ownership runs, never wire-carried. Migration
//! splits the two levels apart: the **key ranges stay closed-form** (shard `i` always
//! covers `shard_range(params, shards, i)`, so delta pulls still ship bare shard
//! indices), while the **ownership assignment becomes explicit state** — a
//! `shard → server` vector stamped with a monotonically increasing `epoch`. Epoch 0
//! is exactly the old closed form ([`GroupLayout::new`]); every committed migration
//! bumps the epoch and re-routes the fan.
//!
//! Two invariants make an assignment valid, checked by [`GroupLayout::from_parts`]:
//! every shard names a server inside the fleet, and each server's owned shards form
//! one contiguous run of shard indices (possibly empty — a drained server stays in
//! the fleet owning nothing). Contiguity keeps every server's slice of the model a
//! single key range, which is what lets a shard server back its store with one flat
//! vector and lets workers push one contiguous gradient slice per server.

use dssp_ps::shard_range;

/// One shard changing hands in a migration plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMove {
    /// Global shard index being transferred.
    pub shard: u32,
    /// Server that owns the shard under the plan's `from_epoch` layout.
    pub from: u32,
    /// Server that owns the shard once the plan commits.
    pub to: u32,
}

/// A migration plan: the assignment the group moves to, the epoch it moves from, and
/// the individual shard transfers that get it there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationPlan {
    /// The layout epoch this plan was computed against; [`GroupLayout::apply`]
    /// commits it as `from_epoch + 1`.
    pub from_epoch: u64,
    /// The post-commit shard → server assignment.
    pub assignment: Vec<u32>,
    /// Every shard whose owner changes, in shard order.
    pub moves: Vec<ShardMove>,
}

/// The group layout of one job: model size, fleet size, and the epoch-stamped
/// shard → server assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupLayout {
    params: usize,
    servers: usize,
    assignment: Vec<u32>,
    epoch: u64,
}

impl GroupLayout {
    /// Builds the epoch-0 layout: the closed-form near-equal split of `shards`
    /// contiguous shard runs over `servers` servers.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero, there are more servers than shards, or more
    /// shards than parameters (for a non-empty model).
    pub fn new(params: usize, shards: usize, servers: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(servers > 0, "need at least one server");
        assert!(
            servers <= shards,
            "every server must own at least one shard"
        );
        assert!(
            params == 0 || shards <= params,
            "cannot split {params} parameters into {shards} shards"
        );
        let mut assignment = vec![0u32; shards];
        for s in 0..servers {
            let (lo, hi) = shard_range(shards, servers, s);
            for a in &mut assignment[lo..hi] {
                *a = s as u32;
            }
        }
        Self {
            params,
            servers,
            assignment,
            epoch: 0,
        }
    }

    /// Rebuilds a layout from an explicit assignment — what a worker does when it
    /// adopts a wire-carried `LayoutUpdate` and what restore does with a checkpointed
    /// layout section. Validates the two assignment invariants (in-fleet owners,
    /// contiguous per-server runs) and the shard/parameter relationship.
    pub fn from_parts(
        params: usize,
        servers: usize,
        assignment: Vec<u32>,
        epoch: u64,
    ) -> Result<Self, String> {
        if assignment.is_empty() {
            return Err("assignment must cover at least one shard".into());
        }
        if servers == 0 {
            return Err("need at least one server".into());
        }
        if params != 0 && assignment.len() > params {
            return Err(format!(
                "cannot split {params} parameters into {} shards",
                assignment.len()
            ));
        }
        let mut last_seen = vec![None::<usize>; servers];
        for (shard, &owner) in assignment.iter().enumerate() {
            let owner = owner as usize;
            if owner >= servers {
                return Err(format!(
                    "shard {shard} assigned to server {owner}, but the fleet has {servers}"
                ));
            }
            if let Some(prev) = last_seen[owner] {
                if prev + 1 != shard {
                    return Err(format!(
                        "server {owner} owns a non-contiguous shard run ({prev} and {shard})"
                    ));
                }
            }
            last_seen[owner] = Some(shard);
        }
        Ok(Self {
            params,
            servers,
            assignment,
            epoch,
        })
    }

    /// Total model parameters.
    pub fn params(&self) -> usize {
        self.params
    }

    /// Global shard count (the delta-pull granularity).
    pub fn shards(&self) -> usize {
        self.assignment.len()
    }

    /// Shard-server fleet size (fixed at launch; a drained server stays a fleet
    /// member owning zero shards).
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// The layout epoch: 0 at launch, bumped by every committed migration.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The shard → server assignment, one owner per global shard.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// The run of global shard indices `[lo, hi)` that server `server` owns;
    /// `(0, 0)` for a drained server that owns nothing.
    pub fn shard_span(&self, server: usize) -> (usize, usize) {
        assert!(server < self.servers, "server index out of range");
        let server = server as u32;
        let mut lo = None;
        let mut hi = 0;
        for (shard, &owner) in self.assignment.iter().enumerate() {
            if owner == server {
                lo.get_or_insert(shard);
                hi = shard + 1;
            }
        }
        match lo {
            Some(lo) => (lo, hi),
            None => (0, 0),
        }
    }

    /// Number of global shards `server` owns.
    pub fn owned_shards(&self, server: usize) -> usize {
        let (lo, hi) = self.shard_span(server);
        hi - lo
    }

    /// Whether `server` currently owns any shard.
    pub fn active(&self, server: usize) -> bool {
        self.owned_shards(server) > 0
    }

    /// The key range `[start, end)` of the flat parameter vector that `server` owns
    /// (the concatenation of its shards' key ranges); `(0, 0)` for a drained server.
    pub fn key_range(&self, server: usize) -> (usize, usize) {
        let (lo, hi) = self.shard_span(server);
        if lo == hi {
            return (0, 0);
        }
        let start = shard_range(self.params, self.shards(), lo).0;
        let end = shard_range(self.params, self.shards(), hi - 1).1;
        (start, end)
    }

    /// The key range `[start, end)` of one global shard. Still the closed form —
    /// migration moves ownership, never shard boundaries, so delta replies keep
    /// shipping bare shard indices across epochs.
    pub fn shard_key_range(&self, shard: usize) -> (usize, usize) {
        shard_range(self.params, self.shards(), shard)
    }

    /// The server owning a global shard index.
    pub fn server_of_shard(&self, shard: usize) -> usize {
        assert!(shard < self.shards(), "shard index out of range");
        self.assignment[shard] as usize
    }

    /// Boundary offsets of `server`'s owned shards **relative to its slice start**
    /// (one start per owned shard plus a final sentinel equal to the slice length) —
    /// what `ShardedStore::with_offsets` wants. Taken from the global layout, so the
    /// server's local shard boundaries are the global ones, not a recomputation from
    /// the slice length. A drained server gets `[0]`: zero shards over an empty slice.
    pub fn local_offsets(&self, server: usize) -> Vec<usize> {
        let (lo, hi) = self.shard_span(server);
        if lo == hi {
            return vec![0];
        }
        let base = self.shard_key_range(lo).0;
        let mut offsets: Vec<usize> = (lo..hi).map(|s| self.shard_key_range(s).0 - base).collect();
        offsets.push(self.key_range(server).1 - base);
        offsets
    }

    /// Plans draining `victim`: every shard it owns moves to the nearest active
    /// neighbor (preferring the lower-indexed side), leaving `victim` in the fleet
    /// with zero shards. Refused when `victim` is out of range, already drained, or
    /// the last active server.
    pub fn drain_plan(&self, victim: usize) -> Result<MigrationPlan, String> {
        if victim >= self.servers {
            return Err(format!(
                "cannot drain server {victim}: the fleet has {} servers",
                self.servers
            ));
        }
        if !self.active(victim) {
            return Err(format!("server {victim} is already drained"));
        }
        let recipient = (0..victim)
            .rev()
            .chain(victim + 1..self.servers)
            .find(|&s| self.active(s))
            .ok_or_else(|| format!("cannot drain server {victim}: it is the last active server"))?;
        let next: Vec<u32> = self
            .assignment
            .iter()
            .map(|&o| {
                if o as usize == victim {
                    recipient as u32
                } else {
                    o
                }
            })
            .collect();
        self.plan_to(next)
    }

    /// Plans a rebalance: the shards are re-split into near-equal contiguous blocks
    /// over the currently active servers, in server order. Drained servers stay
    /// drained (draining is a decommission signal, not a load hint). Refused when
    /// the layout is already balanced (the plan would move nothing).
    pub fn rebalance_plan(&self) -> Result<MigrationPlan, String> {
        let active: Vec<usize> = (0..self.servers).filter(|&s| self.active(s)).collect();
        let mut next = vec![0u32; self.shards()];
        for (k, &server) in active.iter().enumerate() {
            let (lo, hi) = shard_range(self.shards(), active.len(), k);
            for a in &mut next[lo..hi] {
                *a = server as u32;
            }
        }
        if next == self.assignment {
            return Err("layout is already balanced".into());
        }
        self.plan_to(next)
    }

    fn plan_to(&self, next: Vec<u32>) -> Result<MigrationPlan, String> {
        // Validate the candidate under the same rules a wire-received one faces.
        Self::from_parts(self.params, self.servers, next.clone(), self.epoch + 1)?;
        let moves: Vec<ShardMove> = self
            .assignment
            .iter()
            .zip(&next)
            .enumerate()
            .filter(|(_, (old, new))| old != new)
            .map(|(shard, (&from, &to))| ShardMove {
                shard: shard as u32,
                from,
                to,
            })
            .collect();
        Ok(MigrationPlan {
            from_epoch: self.epoch,
            assignment: next,
            moves,
        })
    }

    /// Commits a plan: the new layout at `epoch + 1`.
    ///
    /// # Panics
    ///
    /// Panics if the plan was computed against a different epoch (a stale plan must
    /// never be applied — the coordinator recomputes instead).
    pub fn apply(&self, plan: &MigrationPlan) -> GroupLayout {
        assert_eq!(
            plan.from_epoch, self.epoch,
            "migration plan is stale: computed at epoch {}, layout is at {}",
            plan.from_epoch, self.epoch
        );
        assert_eq!(plan.assignment.len(), self.shards(), "shard count mismatch");
        GroupLayout {
            params: self.params,
            servers: self.servers,
            assignment: plan.assignment.clone(),
            epoch: self.epoch + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_tile_the_shards_and_keys_exactly() {
        for params in [1usize, 7, 64, 997] {
            for shards in [1usize, 2, 5, 16] {
                if shards > params {
                    continue;
                }
                for servers in 1..=shards.min(6) {
                    let l = GroupLayout::new(params, shards, servers);
                    assert_eq!(l.epoch(), 0);
                    let mut next_shard = 0;
                    let mut next_key = 0;
                    for s in 0..servers {
                        let (lo, hi) = l.shard_span(s);
                        assert_eq!(lo, next_shard, "shard gap at server {s}");
                        assert!(hi > lo, "server {s} owns no shard");
                        next_shard = hi;
                        let (a, b) = l.key_range(s);
                        assert_eq!(a, next_key, "key gap at server {s}");
                        next_key = b;
                        for shard in lo..hi {
                            assert_eq!(l.server_of_shard(shard), s);
                        }
                    }
                    assert_eq!(next_shard, shards);
                    assert_eq!(next_key, params);
                }
            }
        }
    }

    #[test]
    fn local_offsets_match_the_global_shard_boundaries() {
        let l = GroupLayout::new(10, 4, 2);
        // Global shards: [0..3) [3..6) [6..8) [8..10); server 1 owns shards 2..4.
        assert_eq!(l.shard_span(1), (2, 4));
        assert_eq!(l.key_range(1), (6, 10));
        assert_eq!(l.local_offsets(1), vec![0, 2, 4]);
        assert_eq!(l.local_offsets(0), vec![0, 3, 6]);
    }

    #[test]
    #[should_panic(expected = "every server must own at least one shard")]
    fn more_servers_than_shards_rejected() {
        GroupLayout::new(10, 2, 3);
    }

    #[test]
    fn drain_absorbs_into_the_nearest_active_neighbor() {
        let l = GroupLayout::new(10, 4, 3); // assignment [0, 0, 1, 2]
        assert_eq!(l.assignment(), &[0, 0, 1, 2]);
        let plan = l.drain_plan(2).unwrap();
        assert_eq!(plan.from_epoch, 0);
        assert_eq!(plan.assignment, vec![0, 0, 1, 1]);
        assert_eq!(
            plan.moves,
            vec![ShardMove {
                shard: 3,
                from: 2,
                to: 1
            }]
        );
        let drained = l.apply(&plan);
        assert_eq!(drained.epoch(), 1);
        assert!(!drained.active(2));
        assert_eq!(drained.owned_shards(2), 0);
        assert_eq!(drained.key_range(2), (0, 0));
        assert_eq!(drained.local_offsets(2), vec![0]);
        // The migrated assignment equals the closed form for one fewer server.
        assert_eq!(
            drained.assignment(),
            GroupLayout::new(10, 4, 2).assignment()
        );
        // Draining server 0 has no active lower neighbor: absorb upward.
        let plan = drained.drain_plan(0).unwrap();
        assert_eq!(plan.assignment, vec![1, 1, 1, 1]);
        let last = drained.apply(&plan);
        // The last active server cannot be drained.
        assert!(last.drain_plan(1).is_err());
        // Nor can an already-drained one.
        assert!(last.drain_plan(2).is_err());
        assert!(last.drain_plan(9).is_err());
    }

    #[test]
    fn rebalance_spreads_blocks_over_active_servers_only() {
        let l = GroupLayout::new(10, 4, 3);
        let drained = l.apply(&l.drain_plan(0).unwrap()); // [1, 1, 1, 2]
        assert_eq!(drained.assignment(), &[1, 1, 1, 2]);
        let owned = |l: &GroupLayout| (0..3).map(|s| l.owned_shards(s)).collect::<Vec<_>>();
        assert_eq!(owned(&drained), [0, 3, 1]);
        let plan = drained.rebalance_plan().unwrap();
        assert_eq!(plan.assignment, vec![1, 1, 2, 2]);
        assert_eq!(
            plan.moves,
            vec![ShardMove {
                shard: 2,
                from: 1,
                to: 2
            }]
        );
        let balanced = drained.apply(&plan);
        assert_eq!(balanced.epoch(), 2);
        assert_eq!(owned(&balanced), [0, 2, 2]);
        assert!(
            !balanced.active(0),
            "rebalance must not reactivate a drained server"
        );
        // A balanced layout refuses a no-op rebalance.
        assert!(balanced.rebalance_plan().is_err());
        assert!(GroupLayout::new(10, 4, 2).rebalance_plan().is_err());
    }

    #[test]
    fn from_parts_enforces_the_assignment_invariants() {
        assert!(GroupLayout::from_parts(10, 2, vec![0, 1, 0], 1).is_err()); // split run
        assert!(GroupLayout::from_parts(10, 2, vec![0, 2], 1).is_err()); // out of fleet
        assert!(GroupLayout::from_parts(10, 2, vec![], 1).is_err()); // no shards
        assert!(GroupLayout::from_parts(2, 2, vec![0, 1, 1], 1).is_err()); // shards > params
        let l = GroupLayout::from_parts(10, 3, vec![2, 2, 0, 0], 7).unwrap();
        assert_eq!(l.epoch(), 7);
        assert_eq!(l.shard_span(2), (0, 2));
        assert_eq!(l.shard_span(0), (2, 4));
        assert!(!l.active(1));
        // Round-trips through its own parts.
        let back =
            GroupLayout::from_parts(l.params(), l.servers(), l.assignment().to_vec(), l.epoch())
                .unwrap();
        assert_eq!(back, l);
    }

    #[test]
    fn stale_plans_are_rejected_at_apply() {
        let l = GroupLayout::new(10, 4, 3);
        let plan = l.drain_plan(2).unwrap();
        let next = l.apply(&plan);
        let stale = std::panic::catch_unwind(|| next.apply(&plan));
        assert!(stale.is_err(), "a stale plan must not commit twice");
    }
}
