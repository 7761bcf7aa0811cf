//! The coordinator and every shard server of one group share one job digest, so a
//! checkpoint of the wrong role or the wrong shard passes `load_for_job`. Restoring
//! from it must be a typed refusal (`NetError::Checkpoint`), not a panic inside the
//! `restore` constructors.

use dssp_coord::{coordinate, serve_shard, ShardServerState};
use dssp_core::driver::{CheckpointSpec, JobConfig, ServerLoop};
use dssp_net::transport::loopback;
use dssp_net::NetError;
use dssp_ps::{CheckpointError, PolicyKind};
use std::path::{Path, PathBuf};

/// A per-test scratch directory under the system temp dir, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("dssp_restore_role_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Self(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A restoring 2-server group job over 3 shards — server 0 owns two, server 1 one,
/// so their slices differ in length — with a fresh fleet's three checkpoints on disk.
fn restoring_job(dir: &Path) -> JobConfig {
    let mut job = JobConfig::small(PolicyKind::Dssp { s_l: 1, r_max: 4 });
    job.servers = 2;
    job.shards = 3;
    job.checkpoint = Some(CheckpointSpec {
        dir: dir.to_path_buf(),
        every_pushes: 8,
        restore: true,
    });
    let digest = job.stable_digest();
    ServerLoop::clock_only(&job)
        .snapshot(digest)
        .save_atomic(&dir.join("coord.ckpt"))
        .expect("write coord.ckpt");
    for index in 0..job.servers {
        let state = ShardServerState::from_job(&job, index);
        state
            .snapshot(digest)
            .save_atomic(&dir.join(dssp_ps::shard_checkpoint_name(index)))
            .expect("write shard checkpoint");
    }
    job
}

fn refuses_as_role_mismatch<T: std::fmt::Debug>(result: Result<T, NetError>) {
    match result {
        Err(NetError::Checkpoint(CheckpointError::RoleMismatch(_))) => {}
        other => panic!("expected a role-mismatch refusal, got {other:?}"),
    }
}

#[test]
fn the_fleets_own_checkpoints_restore() {
    let dir = ScratchDir::new("own");
    let job = restoring_job(&dir.0);
    let slices: Vec<usize> = (0..job.servers)
        .map(|index| {
            let path = dir.0.join(dssp_ps::shard_checkpoint_name(index));
            let ckpt = dssp_ps::Checkpoint::load_for_job(&path, job.stable_digest()).unwrap();
            let restored = ShardServerState::restore(&job, index, &ckpt).expect("own file");
            restored.layout().key_range(index).1 - restored.layout().key_range(index).0
        })
        .collect();
    assert_ne!(slices[0], slices[1], "the swap test needs unequal slices");
    let coord = dssp_ps::Checkpoint::load(&dir.0.join("coord.ckpt")).unwrap();
    assert!(ServerLoop::restore(&job, &coord, true).is_ok());
}

#[test]
fn a_shard_server_refuses_the_coordinators_checkpoint() {
    let dir = ScratchDir::new("coord_as_shard");
    let job = restoring_job(&dir.0);
    std::fs::copy(dir.0.join("coord.ckpt"), dir.0.join("shard0.ckpt")).unwrap();
    let (mut transport, _clients) = loopback(job.num_workers + 1);
    refuses_as_role_mismatch(serve_shard(&job, 0, &mut transport));
}

#[test]
fn the_coordinator_refuses_a_shard_servers_checkpoint() {
    let dir = ScratchDir::new("shard_as_coord");
    let job = restoring_job(&dir.0);
    std::fs::copy(dir.0.join("shard0.ckpt"), dir.0.join("coord.ckpt")).unwrap();
    let (mut transport, _clients) = loopback(job.num_workers);
    refuses_as_role_mismatch(coordinate(&job, &mut transport, Vec::new()));
}

#[test]
fn a_shard_server_refuses_another_shards_slice() {
    let dir = ScratchDir::new("shard1_as_shard0");
    let job = restoring_job(&dir.0);
    std::fs::copy(dir.0.join("shard1.ckpt"), dir.0.join("shard0.ckpt")).unwrap();
    let (mut transport, _clients) = loopback(job.num_workers + 1);
    refuses_as_role_mismatch(serve_shard(&job, 0, &mut transport));
}

#[test]
fn a_restore_refuses_a_snapshot_that_records_retired_workers() {
    let job = JobConfig::small(PolicyKind::Dssp { s_l: 1, r_max: 4 });
    let mut ckpt = ServerLoop::clock_only(&job).snapshot(job.stable_digest());
    ckpt.gate.as_mut().expect("a gate section").retired[0] = true;
    match ServerLoop::restore(&job, &ckpt, true) {
        Err(e @ CheckpointError::RetiredWorkers) => {
            // What the chaos matrix's designed outcomes match.
            assert!(e.to_string().contains("retired"), "{e}");
        }
        other => panic!(
            "expected the retired-workers refusal, got {:?}",
            other.err()
        ),
    }
}
