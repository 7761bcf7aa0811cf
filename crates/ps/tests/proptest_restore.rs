//! Property test of gate checkpointing: a [`SyncGate`] that goes through
//! `snapshot` → [`Checkpoint::encode`] → [`Checkpoint::decode`] → [`SyncGate::restore`]
//! mid-run is indistinguishable from the gate that ran on uninterrupted. Both are
//! driven in lockstep through one random interleaving of pushes (at monotone
//! timestamps, so the DSSP controller sees real intervals), retirements and
//! evictions; every decision, every release list and the statistics must agree at
//! every step, and the two snapshots must agree at the end.

use dssp_ps::{Checkpoint, PolicyKind, SyncGate};
use proptest::prelude::*;

/// Every policy kind at the given threshold and range width.
fn every_kind(s: u64, r_max: u64) -> [PolicyKind; 5] {
    [
        PolicyKind::Bsp,
        PolicyKind::Asp,
        PolicyKind::Ssp { s },
        PolicyKind::Dssp { s_l: s, r_max },
        PolicyKind::DsspStrict { s_l: s, r_max },
    ]
}

/// The gate a restarted process would rebuild from a checkpoint of `gate`.
fn through_checkpoint(policy: PolicyKind, gate: &SyncGate) -> SyncGate {
    let ckpt = Checkpoint {
        job_digest: 0x5eed,
        tick: 0.0,
        store: None,
        gate: Some(gate.snapshot()),
        layout: None,
    };
    let decoded = Checkpoint::decode(&ckpt.encode()).expect("a fresh checkpoint decodes");
    SyncGate::restore(
        policy,
        decoded.gate.as_ref().expect("the gate section survives"),
    )
}

/// Runs `events` through an uninterrupted gate and through one restored from a
/// checkpoint taken before step `cut`. Event `e` names worker
/// `min((e / 32) % n, (e / 1024) % n)` — skewed towards low ranks, so leads grow and
/// the controller is consulted — and is a push for `e % 32 < 30`, a retirement for
/// 30 and an eviction for 31. Only runnable workers push: a blocked or departed
/// worker sends nothing.
fn check_restore_equivalence(
    policy: PolicyKind,
    workers: usize,
    events: &[u64],
    gaps: &[f64],
    cut: usize,
) {
    let n = workers as u64;
    let mut live = SyncGate::new(workers, policy);
    let mut restored = SyncGate::new(workers, policy);
    let (mut blocked, mut gone) = (vec![false; workers], vec![false; workers]);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut now = 0.0;
    for (step, (&event, &gap)) in events.iter().zip(gaps).enumerate() {
        if step == cut {
            restored = through_checkpoint(policy, &restored);
            prop_assert_eq!(live.snapshot(), restored.snapshot(), "{policy} at the cut");
        }
        let w = ((event / 32) % n).min((event / 1024) % n) as usize;
        if gone[w] {
            continue;
        }
        now += gap;
        a.clear();
        b.clear();
        match event % 32 {
            0..=29 if blocked[w] => continue,
            0..=29 => {
                let decision = live.on_push(w, now, &mut a);
                prop_assert_eq!(
                    decision,
                    restored.on_push(w, now, &mut b),
                    "{} push {} by {}",
                    policy,
                    step,
                    w
                );
                blocked[w] = !decision.ok_now;
            }
            30 => {
                gone[w] = true;
                live.retire_into(w, &mut a);
                restored.retire_into(w, &mut b);
            }
            _ => {
                gone[w] = true;
                let reclaimed = live.evict_into(w, &mut a);
                prop_assert_eq!(reclaimed, restored.evict_into(w, &mut b));
            }
        }
        prop_assert_eq!(&a, &b, "{} releases at step {}", policy, step);
        for &r in &a {
            blocked[r] = false;
        }
        prop_assert_eq!(live.stats(), restored.stats(), "{} step {}", policy, step);
    }
    prop_assert_eq!(live.version(), restored.version());
    prop_assert_eq!(live.snapshot(), restored.snapshot(), "{policy} at the end");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A gate restored from its checkpoint at any step makes the same decisions,
    /// releases the same waiters and ends in the same state as one never interrupted,
    /// under every policy kind and fleet size.
    #[test]
    fn a_restored_gate_continues_like_the_uninterrupted_one(
        workers in 1usize..6,
        s in 0u64..4,
        r_max in 0u64..8,
        events in prop::collection::vec(0u64..1_000_000, 160),
        gaps in prop::collection::vec(0.0f64..3.0, 160),
        cut in 0usize..160,
    ) {
        for policy in every_kind(s, r_max) {
            check_restore_equivalence(policy, workers, &events, &gaps, cut);
        }
    }
}
