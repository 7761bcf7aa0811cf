//! The worker-side zero-allocation guarantee, enforced with a counting global
//! allocator: once warm, [`WorkerStep::compute_gradient_into`] — draw a mini-batch,
//! forward, loss, backward, read the gradient out — performs no heap allocation, for a
//! dense and for a convolutional job, across epoch boundaries (reshuffle, short last
//! batch) included. This is what the README's "zero heap allocations per steady-state
//! step" rests on and what the ledger's `nn.step_allocs` row counts.

use dssp_core::{JobConfig, WorkerStep};
use dssp_ps::PolicyKind;
use dssp_testalloc::{thread_allocations_during, CountingAlloc};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn assert_warm_steps_do_not_allocate(config: JobConfig, label: &str) {
    let mut step = WorkerStep::for_rank(&config, 0);
    let weights = vec![0.01f32; step.param_len()];
    let mut grads = Vec::new();
    // Warm-up: one full epoch, so every buffer has held a full and a short batch.
    let per_epoch = step.target() / config.epochs as u64;
    for _ in 0..per_epoch {
        step.compute_gradient_into(&weights, &mut grads);
    }
    assert!(step.target() >= 2 * per_epoch, "{label}: job too short");
    for i in per_epoch..2 * per_epoch {
        let count = thread_allocations_during(|| step.compute_gradient_into(&weights, &mut grads));
        assert_eq!(
            count, 0,
            "{label}: warm training step #{i} performed {count} heap allocations"
        );
    }
    assert_eq!(
        step.epoch(),
        1,
        "{label}: the window must cross an epoch boundary"
    );
}

#[test]
fn warm_mlp_steps_are_allocation_free() {
    // 256 examples per worker, batch 24: ten full batches and one of 16 per epoch.
    let config = JobConfig {
        batch_size: 24,
        ..JobConfig::small(PolicyKind::Asp)
    };
    assert_warm_steps_do_not_allocate(config, "mlp");
}

#[test]
fn warm_convolutional_steps_are_allocation_free() {
    // 32 examples per worker, batch 12: two full batches and one of 8 per epoch.
    let config = JobConfig {
        batch_size: 12,
        epochs: 2,
        ..JobConfig::small_alexnet(PolicyKind::Asp)
    };
    assert_warm_steps_do_not_allocate(config, "downsized-alexnet");
}
