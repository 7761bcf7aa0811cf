//! The server-side zero-allocation guarantee, enforced with a counting global
//! allocator: once warm, [`ParameterServer::handle_push_into`] performs no heap
//! allocation per push — under per-push aggregation (the pushed gradient is applied
//! directly, never copied) *and* under buffered aggregation (the buffer accumulates
//! in place and averages into a preallocated buffer). This is the regression test for
//! the in-place `GradientBuffer` rework.

use dssp_nn::{LrSchedule, Sgd, SgdConfig};
use dssp_ps::{AggregationMode, ParameterServer, PolicyKind, ServerConfig};
use dssp_testalloc::{thread_allocations_during, CountingAlloc};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn server(aggregation: AggregationMode, dims: usize) -> ParameterServer {
    let sgd = Sgd::new(
        SgdConfig {
            schedule: LrSchedule::constant(0.05),
            momentum: 0.9,
            weight_decay: 1e-4,
        },
        dims,
    );
    ParameterServer::new(
        vec![0.1; dims],
        sgd,
        ServerConfig::new(2, PolicyKind::Asp)
            .with_aggregation(aggregation)
            .with_shards(4),
    )
}

fn assert_steady_state_pushes_do_not_allocate(aggregation: AggregationMode, label: &str) {
    const DIMS: usize = 2048;
    let mut s = server(aggregation, DIMS);
    let grads = vec![1e-3f32; DIMS];
    let mut released = Vec::new();
    // Warm-up: covers at least two buffered emissions (capacity 4, 8 pushes), so the
    // in-place average buffer has reached its final size.
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
            "{label}: steady-state push #{i} performed {count} heap allocations"
        );
    }
    assert!(s.stats().pushes == 16);
}

#[test]
fn per_push_aggregation_steady_state_is_allocation_free() {
    assert_steady_state_pushes_do_not_allocate(AggregationMode::PerPush, "per-push");
}

#[test]
fn buffered_aggregation_steady_state_is_allocation_free() {
    assert_steady_state_pushes_do_not_allocate(
        AggregationMode::Buffered { capacity: 4 },
        "buffered x4",
    );
}

#[test]
fn in_place_buffering_matches_the_allocating_reference_bitwise() {
    // The same push sequence through handle_push (allocating wrapper) and
    // handle_push_into must leave identical weights — the in-place path is a pure
    // mechanical rewrite.
    let mut a = server(AggregationMode::Buffered { capacity: 3 }, 64);
    let mut b = server(AggregationMode::Buffered { capacity: 3 }, 64);
    let mut released = Vec::new();
    for i in 0..10u64 {
        let grads: Vec<f32> = (0..64)
            .map(|j| ((i * 64 + j) as f32 * 0.01).sin())
            .collect();
        let worker = (i % 2) as usize;
        let result = a.handle_push(worker, &grads, i as f64);
        released.clear();
        let decision = b.handle_push_into(worker, &grads, i as f64, &mut released);
        assert_eq!(result.ok_now, decision.ok_now);
        assert_eq!(result.version, decision.version);
        assert_eq!(result.released, released);
        assert_eq!(a.weights(), b.weights(), "diverged at push {i}");
    }
    a.flush_aggregation();
    b.flush_aggregation();
    assert_eq!(a.weights(), b.weights());
}
