//! The worker's run ([`run_worker_loop`]) driven through a scripted in-memory link:
//! the exact exchange sequence, resume, every shutdown point, the drain and the
//! worker's fault points — what is otherwise reachable only through real transports
//! and the chaos matrix.

mod common;

use common::{Exchange, Script, ScriptedLink, SHARDS};
use dssp_core::driver::{FaultPlan, JobConfig};
use dssp_net::worker::{run_worker_loop, WorkerReport};
use dssp_net::NetError;
use dssp_ps::PolicyKind;

/// A job whose worker 0 runs `iterations` iterations (one epoch over 256 examples).
fn job(iterations: usize) -> JobConfig {
    JobConfig {
        batch_size: 256usize.div_ceil(iterations),
        epochs: 1,
        ..JobConfig::small(PolicyKind::Dssp { s_l: 1, r_max: 4 })
    }
}

fn run(job: &JobConfig, script: Script) -> (Result<WorkerReport, NetError>, Vec<Exchange>) {
    let mut calls = Vec::new();
    let result = run_worker_loop(job, 0, |param_len, _| {
        ScriptedLink::new(script, param_len, &mut calls)
    });
    (result, calls)
}

/// The recorded sequence with trace ids and gradient checksums dropped.
fn shape(calls: &[Exchange]) -> Vec<String> {
    calls
        .iter()
        .map(|c| match c {
            Exchange::Pull { ask, .. } => format!("pull(ask={ask})"),
            Exchange::Push { iteration, .. } => format!("push({iteration})"),
            Exchange::AwaitOk { iteration } => format!("ok({iteration})"),
            Exchange::Done { iterations } => format!("done({iterations})"),
            Exchange::Join => "join".to_string(),
            Exchange::Pulled => "pulled".to_string(),
        })
        .collect()
}

fn traces(calls: &[Exchange]) -> Vec<(&'static str, u64)> {
    calls
        .iter()
        .filter_map(|c| match c {
            Exchange::Pull { trace, .. } => Some(("pull", *trace)),
            Exchange::Push { trace, .. } => Some(("push", *trace)),
            _ => None,
        })
        .collect()
}

#[test]
fn fresh_run_when_the_ok_carries_the_weights() {
    let (result, calls) = run(&job(3), Script::default());
    let report = result.expect("clean run");
    assert_eq!(
        shape(&calls),
        [
            "join",
            "pull(ask=true)",
            "pulled",
            "push(1)",
            "ok(1)",
            "pull(ask=false)",
            "pulled",
            "push(2)",
            "ok(2)",
            "pull(ask=false)",
            "pulled",
            "push(3)", // the final push is not awaited
            "done(3)",
            "ok(3)", // the drain meets the shutdown broadcast
        ]
    );
    // Every push but the final one is handed the weight buffers.
    let handed: Vec<bool> = calls
        .iter()
        .filter_map(|c| match c {
            Exchange::Push { weights, .. } => Some(*weights),
            _ => None,
        })
        .collect();
    assert_eq!(handed, [true, true, false]);
    // Rank 0's trace sequence starts at 1; weights riding an `OK` share its push's id.
    assert_eq!(
        traces(&calls),
        [
            ("pull", 1),
            ("push", 2),
            ("pull", 2),
            ("push", 3),
            ("pull", 3),
            ("push", 4)
        ]
    );
    assert_eq!(
        report,
        WorkerReport {
            rank: 0,
            iterations: 3,
            full_pulls: 1,
            delta_pulls: 2,
            last_shard_versions: vec![3; SHARDS],
            waiting_time_s: report.waiting_time_s,
            ..WorkerReport::default()
        }
    );
}

#[test]
fn resume_replays_the_batch_schedule_and_pushes_from_the_next_clock() {
    let pushes = |calls: &[Exchange]| -> Vec<(u64, u64)> {
        calls
            .iter()
            .filter_map(|c| match c {
                Exchange::Push {
                    iteration, grads, ..
                } => Some((*iteration, *grads)),
                _ => None,
            })
            .collect()
    };
    let (_, fresh) = run(&job(6), Script::default());
    let fresh = pushes(&fresh);
    assert_eq!(fresh.len(), 6);
    let (result, resumed) = run(
        &job(6),
        Script {
            resume_from: 2,
            ..Script::default()
        },
    );
    assert_eq!(result.expect("resumed run").iterations, 6);
    // The link's weights never change, so equal checksums mean equal batches: the
    // resumed worker's first push is iteration 3 on iteration 3's batch.
    assert_eq!(pushes(&resumed), fresh[2..]);
}

#[test]
fn resume_at_the_target_pulls_and_reports_done_without_pushing() {
    for resume_from in [3, 9] {
        let script = Script {
            resume_from,
            ..Script::default()
        };
        let (result, calls) = run(&job(3), script);
        assert_eq!(
            shape(&calls),
            ["join", "pull(ask=true)", "pulled", "done(3)", "ok(3)"]
        );
        let report = result.expect("nothing left to do is not an error");
        assert_eq!((report.iterations, report.shutdown_early), (3, false));
    }
}

#[test]
fn a_shutdown_at_any_exchange_ends_the_run_cleanly_and_early() {
    let (_, clean) = run(&job(3), Script::default());
    // Every exchange but the last, which is where the clean run's shutdown is.
    for at in 0..clean.len() - 1 {
        let script = Script {
            shutdown_at: Some(at),
            ..Script::default()
        };
        let (result, calls) = run(&job(3), script);
        assert_eq!(
            calls,
            clean[..=at],
            "nothing is attempted after the shutdown"
        );
        let report = result.expect("a shutdown is not a worker failure");
        assert!(report.shutdown_early, "exchange {at}: {:?}", clean[at]);
        // Whatever the version cache held: the count of pulls that completed.
        let pulls = calls[..at]
            .iter()
            .filter(|c| matches!(c, Exchange::Pull { .. }))
            .count() as u64;
        let held = if pulls == 0 {
            Vec::new()
        } else {
            vec![pulls; SHARDS]
        };
        assert_eq!(report.last_shard_versions, held, "exchange {at}");
    }
}

#[test]
fn granted_extras_are_summed_over_awaited_and_late_oks() {
    let script = Script {
        granted_extra: 2,
        late_oks: 1,
        ..Script::default()
    };
    let (result, calls) = run(&job(3), script);
    assert_eq!(
        shape(&calls)[12..],
        ["done(3)", "ok(3)", "ok(3)"],
        "one late OK, then the shutdown"
    );
    // Two awaited `OK`s and the late one for the final push.
    assert_eq!(result.expect("clean run").granted_extra_total, 6);
}

#[test]
fn worker_faults_fire_at_their_occurrence_before_the_next_exchange() {
    // (plan, the exchange the run dies right after)
    let cells = [
        ("worker0:pull:evict:1", "pull(ask=true)"),
        ("worker0:pull:restart:2", "pull(ask=false)"),
        ("worker0:push:evict:1", "push(1)"),
        ("worker0:push:restart:3", "push(3)"),
        ("worker0:gate:evict:2", "push(2)"),
    ];
    for (spec, last) in cells {
        let mut job = job(3);
        job.fault_plan = FaultPlan::parse(spec);
        let (result, calls) = run(&job, Script::default());
        match result {
            Err(NetError::FaultInjected { plan }) => assert_eq!(plan, spec),
            other => panic!("{spec}: expected the fault to fire, got {other:?}"),
        }
        let shape = shape(&calls);
        assert_eq!(shape.last().map(String::as_str), Some(last), "{spec}");
        let occurrence = spec.rsplit(':').next().unwrap().parse::<usize>().unwrap();
        let kind = &last[..5]; // "pull(" or "push("
        assert_eq!(
            shape.iter().filter(|s| s.starts_with(kind)).count(),
            occurrence,
            "{spec}: fires at occurrence {occurrence}, not later"
        );
    }
    // The final push is never awaited, so its gate phase never comes; and a plan for
    // another rank is not this worker's.
    for spec in ["worker0:gate:evict:3", "worker1:push:evict:1"] {
        let mut job = job(3);
        job.fault_plan = FaultPlan::parse(spec);
        assert!(run(&job, Script::default()).0.is_ok(), "{spec}");
    }
}
