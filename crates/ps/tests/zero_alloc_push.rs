//! The server-side zero-allocation guarantee, enforced with a counting global
//! allocator: once warm, [`ParameterServer::handle_push_into`] performs no heap
//! allocation per push — the pushed gradient is applied directly, never copied, and
//! the gate decides without allocating under every policy, including the DSSP
//! variants whose pushes consult the synchronization controller.

use dssp_nn::{LrSchedule, Sgd, SgdConfig};
use dssp_ps::{ParameterServer, PolicyKind, ServerConfig};
use dssp_testalloc::{thread_allocations_during, CountingAlloc};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const DIMS: usize = 2048;

fn server(policy: PolicyKind) -> ParameterServer {
    let sgd = Sgd::new(
        SgdConfig {
            schedule: LrSchedule::constant(0.05),
            momentum: 0.9,
            weight_decay: 1e-4,
        },
        DIMS,
    );
    ParameterServer::new(
        vec![0.1; DIMS],
        sgd,
        ServerConfig::new(2, policy).with_shards(4),
    )
}

#[test]
fn per_push_aggregation_steady_state_is_allocation_free() {
    let mut s = server(PolicyKind::Asp);
    let grads = vec![1e-3f32; DIMS];
    let mut released = Vec::new();
    for i in 0..8u64 {
        released.clear();
        s.handle_push_into((i % 2) as usize, &grads, i as f64, &mut released);
    }
    for i in 8..16u64 {
        let count = thread_allocations_during(|| {
            released.clear();
            s.handle_push_into((i % 2) as usize, &grads, i as f64, &mut released);
        });
        assert_eq!(
            count, 0,
            "steady-state push #{i} performed {count} heap allocations"
        );
    }
    assert!(s.stats().pushes == 16);
}

#[test]
fn dssp_decision_path_steady_state_is_allocation_free() {
    // Worker 1 pushes once per five rounds, so worker 0 keeps crossing `s_L`, consults
    // the controller, runs on its credits and blocks at `s_U` until worker 1's push
    // releases it: every branch of the rule, the controller and the release scan.
    let mut s = server(PolicyKind::DsspStrict { s_l: 1, r_max: 4 });
    let grads = vec![1e-3f32; DIMS];
    let mut released = Vec::new();
    let mut waiting = false; // worker 0 is owed a deferred OK
    let (mut measured, mut allocations, mut credits_at_warm) = (0u64, 0u64, 0);
    for round in 0..200u64 {
        let warm = round >= 20;
        if round == 20 {
            credits_at_warm = s.stats().credits_granted;
        }
        for worker in [0usize, 1] {
            if (worker == 0 && waiting) || (worker == 1 && round % 5 != 4) {
                continue;
            }
            let mut ok_now = false;
            let count = thread_allocations_during(|| {
                released.clear();
                ok_now = s
                    .handle_push_into(worker, &grads, round as f64, &mut released)
                    .ok_now;
            });
            if warm {
                measured += 1;
                allocations += count;
            }
            if worker == 0 {
                waiting = !ok_now;
            } else if released.contains(&0) {
                waiting = false;
            }
        }
    }
    assert!(
        s.stats().credits_granted > credits_at_warm && s.stats().releases > 0,
        "the measured pushes must consult the controller and release a waiter: {:?}",
        s.stats()
    );
    assert_eq!(
        allocations, 0,
        "{allocations} heap allocations in {measured} steady-state DSSP pushes"
    );
}
