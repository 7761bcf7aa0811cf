//! Property-based tests of the synchronization invariants each paradigm promises.
//!
//! The test harness drives a [`ParameterServer`] with randomized worker schedules
//! (random speeds, random jitter) the same way the simulator does: a worker only starts
//! a new iteration after it has received its `OK`, and blocked workers are woken up by
//! the `released` list of later pushes.

use dssp_nn::{LrSchedule, Sgd, SgdConfig};
use dssp_ps::{ParameterServer, PolicyKind, ServerConfig, SyncGate};
use proptest::prelude::*;

/// A deterministic replay of a distributed run: worker `w` performs an iteration taking
/// `durations[w]` seconds (plus jitter), pushes, and starts the next iteration as soon
/// as the server allows. Returns the server, the maximum observed clock spread and the
/// total number of completed iterations.
fn run_schedule(
    policy: PolicyKind,
    durations: &[f64],
    jitters: &[Vec<f64>],
    iterations_per_worker: usize,
) -> (ParameterServer, u64, u64) {
    let workers = durations.len();
    let sgd = Sgd::new(
        SgdConfig {
            schedule: LrSchedule::constant(0.01),
            momentum: 0.0,
            weight_decay: 0.0,
        },
        1,
    );
    let mut server = ParameterServer::new(vec![0.0], sgd, ServerConfig::new(workers, policy));

    // Per-worker state: next push time (None = blocked or finished), completed pushes.
    let mut next_push: Vec<Option<f64>> = durations.iter().map(|&d| Some(d)).collect();
    let mut blocked: Vec<bool> = vec![false; workers];
    let mut done: Vec<usize> = vec![0; workers];
    let mut max_spread = 0u64;
    let mut total = 0u64;

    let iteration_time =
        |w: usize, k: usize| -> f64 { durations[w] * (1.0 + jitters[w][k % jitters[w].len()]) };

    // Each round takes the earliest pending push.
    while let Some((w, t)) = next_push
        .iter()
        .enumerate()
        .filter_map(|(w, t)| t.map(|t| (w, t)))
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
    {
        next_push[w] = None;
        let mut released = Vec::new();
        let result = server.handle_push_into(w, &[0.0], t, &mut released);
        done[w] += 1;
        total += 1;
        max_spread = max_spread.max(server.gate().clocks().spread());

        if result.ok_now {
            if done[w] < iterations_per_worker {
                next_push[w] = Some(t + iteration_time(w, done[w]));
            }
        } else {
            blocked[w] = true;
        }
        for r in released {
            if blocked[r] && done[r] < iterations_per_worker {
                blocked[r] = false;
                next_push[r] = Some(t + iteration_time(r, done[r]));
            } else {
                blocked[r] = false;
            }
        }
    }
    (server, max_spread, total)
}

/// Drives a [`SyncGate`] under `policy` through a random interleaving of pushes,
/// retirements and evictions and checks every decision and every release against
/// `may_proceed`, the paradigm's reference predicate on a worker's lead over the
/// slowest active worker (`lead <= s_L` for the DSSP kinds): a waiter is released
/// exactly when it holds, and a push that neither spends nor is granted a credit
/// proceeds exactly when it holds. Pushes carry monotone timestamps with uneven gaps
/// drawn from the events, so under the DSSP kinds the real controller sees varied
/// intervals and grants varied `r*`. At every step it also checks that no clock
/// decreases, that every credit granted is held, spent or reclaimed (a grant spends
/// its first credit at once), and that the strict kind never pushes at a lead past
/// `s_L + r_max + 1`. Only runnable workers push (a blocked or departed worker sends
/// nothing), but a blocked worker may still retire: its final push does not wait for
/// the `OK`.
fn check_against_reference(
    policy: PolicyKind,
    may_proceed: impl Fn(u64) -> bool,
    workers: usize,
    events: &[u64],
) {
    // The range width (`None` for a fixed threshold) and the lead no push may pass.
    let (range, lead_cap) = match policy {
        PolicyKind::Dssp { r_max, .. } => (Some(r_max), u64::MAX),
        PolicyKind::DsspStrict { s_l, r_max } => (Some(r_max), s_l + r_max + 1),
        _ => (None, u64::MAX),
    };
    let mut gate = SyncGate::new(workers, policy);
    let mut blocked: Vec<usize> = Vec::new();
    let mut gone = vec![false; workers];
    let (mut blocked_pushes, mut releases) = (0u64, 0u64);
    // The test's own credit ledger: what each worker holds, and what was spent.
    let (mut held, mut spent) = (vec![0u64; workers], 0u64);
    let mut clocks = vec![0u64; workers];
    let mut released = Vec::new();
    let mut now = 0.0;
    for (step, &event) in events.iter().enumerate() {
        let w = (event / 128) as usize % workers;
        if gone[w] {
            continue;
        }
        now += (event % 8) as f64 * 0.25;
        released.clear();
        let mut just_blocked = None;
        match event % 128 {
            0..=125 if blocked.contains(&w) => continue,
            0..=125 => {
                let decision = gate.on_push(w, now, &mut released);
                let lead = gate.clocks().lead_over_slowest(w);
                prop_assert_eq!(decision.staleness, lead);
                prop_assert!(lead <= lead_cap, "push {step} by {w} at lead {lead}");
                prop_assert!(decision.granted_extra <= range.unwrap_or(0));
                if held[w] > 0 {
                    // A held credit is spent before the lead is looked at.
                    prop_assert!(decision.ok_now && decision.granted_extra == 0);
                    held[w] -= 1;
                    spent += 1;
                } else if decision.granted_extra > 0 {
                    prop_assert!(decision.ok_now && !may_proceed(lead), "grant at {step}");
                    held[w] = decision.granted_extra - 1;
                    spent += 1;
                } else {
                    prop_assert_eq!(decision.ok_now, may_proceed(lead), "push {step} by {w}");
                }
                if !decision.ok_now {
                    blocked.push(w);
                    blocked_pushes += 1;
                    just_blocked = Some(w);
                }
            }
            126 => {
                gone[w] = true;
                gate.retire_into(w, &mut released);
            }
            _ => {
                gone[w] = true;
                blocked.retain(|&b| b != w);
                let reclaimed = gate.evict_into(w, &mut released);
                prop_assert_eq!(reclaimed, std::mem::take(&mut held[w]));
            }
        }
        // Waiters go in blocking order, each as soon as the predicate lets it; the
        // worker this very push blocked cannot be released by it.
        let (free, still): (Vec<usize>, Vec<usize>) = blocked.iter().partition(|&&b| {
            Some(b) != just_blocked && may_proceed(gate.clocks().lead_over_slowest(b))
        });
        prop_assert_eq!(&released, &free, "releases at step {step}");
        releases += free.len() as u64;
        blocked = still;

        let snap = gate.snapshot();
        prop_assert!(
            snap.counts
                .iter()
                .zip(&clocks)
                .all(|(after, before)| after >= before),
            "a clock went back at step {step}"
        );
        clocks = snap.counts;
        if range.is_some() {
            prop_assert_eq!(&snap.credits, &held, "credits held at step {step}");
        }
        prop_assert_eq!(
            snap.stats.credits_granted,
            held.iter().sum::<u64>() + spent + snap.stats.credits_reclaimed,
            "credits granted, held, spent and reclaimed at step {step}"
        );
    }
    let snap = gate.snapshot();
    prop_assert_eq!(&snap.blocked, &blocked);
    prop_assert_eq!(snap.stats.blocked_pushes, blocked_pushes);
    prop_assert_eq!(snap.stats.releases, releases);
    if range.is_none() {
        // No fixed-threshold kind ever consults the controller or holds a credit, so
        // its checkpoint carries neither.
        prop_assert_eq!(snap.controller_invocations, 0);
        prop_assert_eq!(snap.stats.credits_granted, 0);
        prop_assert!(snap.credits.is_empty());
    }
}

fn durations_strategy(workers: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.05f64..4.0, workers)
}

fn jitter_strategy(workers: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-0.2f64..0.2, 4), workers)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// BSP never lets any worker get more than one iteration ahead of another.
    #[test]
    fn bsp_spread_never_exceeds_one(
        durations in durations_strategy(4),
        jitters in jitter_strategy(4),
    ) {
        let (_, spread, total) = run_schedule(PolicyKind::Bsp, &durations, &jitters, 12);
        prop_assert!(spread <= 1, "BSP spread {spread} > 1");
        prop_assert_eq!(total, 4 * 12);
    }

    /// SSP never lets the fastest worker exceed the slowest by more than s + 1 (the push
    /// that triggers blocking still increments the clock).
    #[test]
    fn ssp_spread_respects_threshold(
        durations in durations_strategy(3),
        jitters in jitter_strategy(3),
        s in 0u64..6,
    ) {
        let (_, spread, total) = run_schedule(PolicyKind::Ssp { s }, &durations, &jitters, 15);
        prop_assert!(spread <= s + 1, "SSP spread {spread} > s+1 = {}", s + 1);
        prop_assert_eq!(total, 3 * 15);
    }

    /// Strict-range DSSP never exceeds the upper end of the staleness range:
    /// spread <= s_L + r_max + 1.
    #[test]
    fn dssp_strict_spread_respects_upper_bound(
        durations in durations_strategy(3),
        jitters in jitter_strategy(3),
        s_l in 0u64..4,
        r_max in 0u64..8,
    ) {
        let (_, spread, total) =
            run_schedule(PolicyKind::DsspStrict { s_l, r_max }, &durations, &jitters, 15);
        prop_assert!(
            spread <= s_l + r_max + 1,
            "DSSP-strict spread {spread} > s_U+1 = {}",
            s_l + r_max + 1
        );
        prop_assert_eq!(total, 3 * 15);
    }

    /// Literal (Algorithm 1) DSSP completes every scheduled iteration, and every push
    /// that was blocked is eventually released — running ahead on credits removes
    /// synchronization stalls but never strands a worker.
    #[test]
    fn dssp_literal_completes_all_work_and_releases_every_blocked_push(
        durations in durations_strategy(3),
        jitters in jitter_strategy(3),
        s_l in 0u64..4,
        r_max in 1u64..8,
    ) {
        let (server, _, total) =
            run_schedule(PolicyKind::Dssp { s_l, r_max }, &durations, &jitters, 15);
        prop_assert_eq!(total, 3 * 15, "every worker finishes its iterations");
        prop_assert_eq!(server.stats().blocked_pushes, server.stats().releases);
    }

    /// DSSP with r_max = 0 makes exactly the same accept/block decisions as SSP with
    /// s = s_L (it degenerates to SSP at the lower bound).
    #[test]
    fn dssp_with_zero_range_equals_ssp(
        durations in durations_strategy(3),
        jitters in jitter_strategy(3),
        s_l in 0u64..5,
    ) {
        let (ssp_server, ssp_spread, _) =
            run_schedule(PolicyKind::Ssp { s: s_l }, &durations, &jitters, 10);
        let (dssp_server, dssp_spread, _) =
            run_schedule(PolicyKind::Dssp { s_l, r_max: 0 }, &durations, &jitters, 10);
        prop_assert_eq!(ssp_spread, dssp_spread);
        prop_assert_eq!(
            ssp_server.stats().blocked_pushes,
            dssp_server.stats().blocked_pushes
        );
        prop_assert_eq!(ssp_server.stats().staleness_sum, dssp_server.stats().staleness_sum);
    }

    /// BSP, ASP and SSP are the points `lead == 0`, `true` and `lead <= s` of the one
    /// staleness rule, under any interleaving of pushes, retirements and evictions.
    #[test]
    fn fixed_threshold_kinds_match_their_reference_predicates(
        workers in 1usize..7,
        s in 0u64..4,
        events in prop::collection::vec(0u64..10_000, 160),
    ) {
        check_against_reference(PolicyKind::Bsp, |lead| lead == 0, workers, &events);
        check_against_reference(PolicyKind::Asp, |_| true, workers, &events);
        check_against_reference(PolicyKind::Ssp { s }, |lead| lead <= s, workers, &events);
    }

    /// Both DSSP kinds, with the real controller answering: under any interleaving of
    /// pushes, retirements and evictions credits are conserved, clocks never go back,
    /// a waiter leaves exactly when its lead is back within `s_L`, and the strict kind
    /// never pushes at a lead past `s_L + r_max + 1`. Literal DSSP's worst-case lead
    /// is not asserted: it has no stated bound.
    #[test]
    fn dssp_kinds_conserve_credits_and_release_at_the_lower_bound(
        workers in 1usize..7,
        s_l in 0u64..4,
        r_max in 0u64..8,
        events in prop::collection::vec(0u64..1_000_000, 1000),
    ) {
        for policy in [PolicyKind::Dssp { s_l, r_max }, PolicyKind::DsspStrict { s_l, r_max }] {
            check_against_reference(policy, |lead| lead <= s_l, workers, &events);
        }
    }

    /// ASP never blocks anyone, and every worker finishes all its iterations.
    #[test]
    fn asp_never_blocks(
        durations in durations_strategy(4),
        jitters in jitter_strategy(4),
    ) {
        let (server, _, total) = run_schedule(PolicyKind::Asp, &durations, &jitters, 10);
        prop_assert_eq!(server.stats().blocked_pushes, 0);
        prop_assert_eq!(total, 40);
    }

    /// Larger SSP thresholds can only reduce (never increase) the number of blocked
    /// pushes for an identical schedule.
    #[test]
    fn larger_ssp_threshold_blocks_no_more(
        durations in durations_strategy(3),
        jitters in jitter_strategy(3),
        s in 0u64..5,
    ) {
        let (a, _, _) = run_schedule(PolicyKind::Ssp { s }, &durations, &jitters, 12);
        let (b, _, _) = run_schedule(PolicyKind::Ssp { s: s + 3 }, &durations, &jitters, 12);
        prop_assert!(b.stats().blocked_pushes <= a.stats().blocked_pushes);
    }

    /// The DSSP regret bound (Theorem 2) always dominates the SSP bound at the lower
    /// bound of the range and is dominated by the SSP bound at the upper bound + 1.
    #[test]
    fn dssp_bound_sits_between_ssp_bounds(
        s_l in 0u64..10,
        r_max in 0u64..20,
        t in 1u64..1_000_000,
    ) {
        let params = dssp_ps::theory::BoundParams::default();
        let dssp = dssp_ps::theory::dssp_regret_bound(&params, s_l, r_max, t);
        let ssp_low = dssp_ps::theory::ssp_regret_bound(&params, s_l, t);
        let ssp_above = dssp_ps::theory::ssp_regret_bound(&params, s_l + r_max + 1, t);
        prop_assert!(dssp >= ssp_low);
        prop_assert!(dssp <= ssp_above);
    }
}
