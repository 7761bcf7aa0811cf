//! The migration tentpole's headline guarantee, end to end: in deterministic mode a
//! group that **drains a shard server mid-job** is bitwise-equal to a group that was
//! statically launched with the final layout. Shard key ranges are global and fixed —
//! a migration only moves ownership — so the per-shard weight and momentum evolution
//! must not differ by a single bit between the two fleets.

use dssp::coord::run_group_threads;
use dssp::core::driver::{CheckpointSpec, JobConfig, MigrationSpec};
use dssp::ps::{shard_checkpoint_name, Checkpoint, StoreSnapshot};
use dssp::PolicyKind;
use std::path::{Path, PathBuf};

/// A per-test scratch directory under the system temp dir, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("dssp_migration_eq_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Self(dir)
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn group_job(servers: usize, dir: PathBuf) -> JobConfig {
    let mut job = JobConfig::small(PolicyKind::Dssp { s_l: 1, r_max: 4 });
    job.shards = 4;
    job.servers = servers;
    job.epochs = 1;
    job.deterministic = true;
    // Cadence 1: the last applied push is always on disk, so the terminal
    // checkpoints are the terminal model state.
    job.checkpoint = Some(CheckpointSpec {
        dir,
        every_pushes: 1,
        restore: false,
    });
    job
}

/// Loads a shard server's terminal checkpoint.
fn terminal_checkpoint(dir: &Path, index: usize, job: &JobConfig) -> Checkpoint {
    let path = dir.join(shard_checkpoint_name(index));
    Checkpoint::load_for_job(&path, job.stable_digest())
        .unwrap_or_else(|e| panic!("shard {index} checkpoint loads: {e}"))
}

/// Loads a shard server's terminal store snapshot.
fn terminal_store(dir: &Path, index: usize, job: &JobConfig) -> StoreSnapshot {
    terminal_checkpoint(dir, index, job)
        .store
        .unwrap_or_else(|| panic!("shard {index} checkpoint carries a store section"))
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn mid_job_drain_is_bitwise_equal_to_the_statically_smaller_group() {
    let migrated_dir = ScratchDir::new("drained");
    let static_dir = ScratchDir::new("static");

    // Fleet A: three servers, drain server 2 once the clock reaches version 8.
    // `GroupLayout::new(_, 4, 3)` assigns shards [0,0,1,2]; draining server 2 hands
    // shard 3 to its nearest active neighbour, landing on [0,0,1,1] — exactly the
    // closed-form two-server layout fleet B launches with.
    let mut migrated = group_job(3, migrated_dir.path().clone());
    migrated.migration = Some(MigrationSpec {
        drain: 2,
        at_version: 8,
    });
    let migrated_outcome = run_group_threads(&migrated).expect("migrated run completes");

    // Fleet B: statically launched with the post-drain layout, no migration.
    let static_job = group_job(2, static_dir.path().clone());
    let static_outcome = run_group_threads(&static_job).expect("static run completes");

    // The migration really happened: the victim's terminal checkpoint is at layout
    // epoch 1 and owns nothing.
    let victim = terminal_checkpoint(migrated_dir.path(), 2, &migrated);
    let victim_layout = victim.layout.as_ref().expect("layout section");
    assert_eq!(victim_layout.epoch, 1, "the drain must have committed");
    assert_eq!(victim_layout.assignment, vec![0, 0, 1, 1]);
    let victim_store = victim.store.expect("store section");
    assert!(
        victim_store.flat.is_empty(),
        "the drained server must own no parameters, has {}",
        victim_store.flat.len()
    );

    // Worker-visible equality: same push totals, same per-worker iteration counts,
    // same learning outcome to the last bit.
    let (mt, st) = (&migrated_outcome.trace, &static_outcome.trace);
    assert!(mt.total_pushes > 8, "the drain fired mid-run, not after it");
    assert_eq!(mt.total_pushes, st.total_pushes);
    assert_eq!(mt.worker_summaries.len(), st.worker_summaries.len());
    for (a, b) in mt.worker_summaries.iter().zip(&st.worker_summaries) {
        assert_eq!(a.iterations, b.iterations, "worker {}", a.worker);
    }
    assert_eq!(
        mt.final_accuracy().to_bits(),
        st.final_accuracy().to_bits(),
        "final accuracies must match bitwise: {} vs {}",
        mt.final_accuracy(),
        st.final_accuracy()
    );

    // The headline: per-server terminal model state — weights, momentum, per-shard
    // versions, slice geometry — is bitwise-identical between the drained three-server
    // fleet and the statically-launched two-server fleet.
    for index in 0..2 {
        let a = terminal_store(migrated_dir.path(), index, &migrated);
        let b = terminal_store(static_dir.path(), index, &static_job);
        assert_eq!(a.offsets, b.offsets, "server {index} slice geometry");
        assert_eq!(a.versions, b.versions, "server {index} shard versions");
        assert_eq!(bits(&a.flat), bits(&b.flat), "server {index} weights");
        assert_eq!(
            bits(&a.velocity),
            bits(&b.velocity),
            "server {index} momentum"
        );
    }
}
