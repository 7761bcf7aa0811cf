//! Property-based tests of the live-migration machinery: random layouts × plans
//! move every re-owned shard exactly once, the transfer codec round-trips weights
//! *and* momentum bitwise and rejects mutilated frames, and the shard-server
//! migration state machine refuses every epoch-skewed transfer leg.

use dssp_coord::{GroupLayout, MigrationPlan, ShardServerState};
use dssp_core::driver::JobConfig;
use dssp_net::wire::{decode, encode, Message};
use dssp_ps::PolicyKind;
use proptest::prelude::*;

/// Checks the exactly-once coverage contract between a layout and one of its plans:
/// the moves list is precisely the set of shards whose owner changes — each named
/// once, in shard order, with `from`/`to` matching the old and new assignment.
fn assert_plan_covers_exactly_once(layout: &GroupLayout, plan: &MigrationPlan) {
    assert_eq!(plan.from_epoch, layout.epoch(), "plan epoch anchor");
    assert_eq!(plan.assignment.len(), layout.shards(), "assignment arity");
    // The committed assignment satisfies the same invariants a wire-received one
    // must (in-fleet owners, contiguous runs).
    GroupLayout::from_parts(
        layout.params(),
        layout.servers(),
        plan.assignment.clone(),
        plan.from_epoch + 1,
    )
    .expect("planned assignment is valid");
    let mut expected = Vec::new();
    for (shard, (&old, &new)) in layout.assignment().iter().zip(&plan.assignment).enumerate() {
        if old != new {
            expected.push((shard as u32, old, new));
        }
    }
    let got: Vec<(u32, u32, u32)> = plan.moves.iter().map(|m| (m.shard, m.from, m.to)).collect();
    assert_eq!(
        got, expected,
        "moves must cover each re-owned shard exactly once"
    );
    for w in plan.moves.windows(2) {
        assert!(
            w[0].shard < w[1].shard,
            "moves are shard-ordered and unique"
        );
    }
}

/// A 2-to-4-server job small enough to drive full shard-server states directly,
/// with momentum turned on so the transfer legs carry non-trivial optimizer state.
fn migration_test_job(servers: usize, shards: usize) -> JobConfig {
    let mut job = JobConfig::small(PolicyKind::Bsp);
    job.servers = servers;
    job.shards = shards;
    job.sgd.momentum = 0.9;
    job
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random layouts × random drain/rebalance sequences: every plan the layout
    /// produces covers each shard whose owner changes exactly once, bumps the epoch
    /// by one at apply, and leaves a drained victim in the fleet owning nothing.
    #[test]
    fn random_plans_cover_each_reowned_shard_exactly_once(
        params in 1usize..200,
        shards_seed in 1usize..16,
        servers_seed in 1usize..8,
        commands in prop::collection::vec(0u64..u64::MAX, 6),
    ) {
        let shards = shards_seed.min(params);
        let servers = servers_seed.min(shards);
        let mut layout = GroupLayout::new(params, shards, servers);
        for (step, &word) in commands.iter().enumerate() {
            let plan = if word % 3 == 0 {
                match layout.rebalance_plan() {
                    Ok(plan) => plan,
                    Err(_) => continue, // already balanced: a refusal, not a no-op plan
                }
            } else {
                let victim = ((word >> 8) % servers as u64) as usize;
                match layout.drain_plan(victim) {
                    Ok(plan) => plan,
                    Err(_) => continue, // drained / last active server: typed refusal
                }
            };
            assert_plan_covers_exactly_once(&layout, &plan);
            let before = layout.epoch();
            let next = layout.apply(&plan);
            prop_assert_eq!(next.epoch(), before + 1, "step {}: epoch bumps by one", step);
            if word % 3 != 0 {
                let victim = ((word >> 8) % servers as u64) as usize;
                prop_assert!(!next.active(victim), "step {}: victim still owns shards", step);
                prop_assert_eq!(next.key_range(victim), (0, 0));
            }
            // Every parameter keeps exactly one owner: the spans of all servers
            // tile the key space.
            let mut covered = 0usize;
            for s in 0..next.servers() {
                let (a, b) = next.key_range(s);
                covered += b - a;
            }
            prop_assert_eq!(covered, params, "step {}: key ranges must tile the model", step);
            layout = next;
        }
    }

    /// The transfer frame round-trips bitwise: weights and the SGD momentum slice
    /// come back with identical bit patterns, never merely approximately equal.
    #[test]
    fn transfer_codec_round_trips_weights_and_momentum_bitwise(
        epoch in 0u64..u64::MAX,
        shard in 0u32..4096,
        version in 0u64..u64::MAX,
        weights in prop::collection::vec(-1.0e6f32..1.0e6, 32),
        len in 0usize..33,
    ) {
        let weights = weights[..len.min(weights.len())].to_vec();
        let velocity: Vec<f32> = weights.iter().map(|w| w * -0.125).collect();
        let msg = Message::MigrateShard {
            epoch,
            shard,
            version,
            trace: dssp_core::events::trace_id(7, 42),
            weights: weights.clone(),
            velocity: velocity.clone(),
        };
        let mut buf = Vec::new();
        encode(&msg, &mut buf);
        match decode(&buf).expect("transfer frame decodes") {
            Message::MigrateShard {
                epoch: e,
                shard: s,
                version: v,
                trace: t,
                weights: w,
                velocity: vel,
            } => {
                prop_assert_eq!(e, epoch);
                prop_assert_eq!(s, shard);
                prop_assert_eq!(v, version);
                prop_assert_eq!(t, dssp_core::events::trace_id(7, 42));
                let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
                prop_assert_eq!(bits(&w), bits(&weights), "weights must survive bitwise");
                prop_assert_eq!(bits(&vel), bits(&velocity), "momentum must survive bitwise");
            }
            other => prop_assert!(false, "decoded into {:?}", other),
        }
    }

    /// A truncated or bit-flipped transfer frame is rejected — or at the very least
    /// never silently misparses back into the original shard payload.
    #[test]
    fn mutilated_transfer_frames_never_misparse(
        epoch in 0u64..u64::MAX,
        shard in 0u32..4096,
        version in 0u64..u64::MAX,
        weights in prop::collection::vec(-1.0e6f32..1.0e6, 16),
        cut_fraction in 0.0f64..1.0,
        pos in 0u64..u64::MAX,
        bit in 0u32..8,
    ) {
        let velocity: Vec<f32> = weights.iter().map(|w| w + 1.0).collect();
        let msg = Message::MigrateShard {
            epoch,
            shard,
            version,
            trace: dssp_core::events::NO_TRACE,
            weights,
            velocity,
        };
        let mut buf = Vec::new();
        encode(&msg, &mut buf);

        // Truncation: every strict prefix is refused.
        let cut = ((buf.len() as f64) * cut_fraction) as usize;
        prop_assert!(decode(&buf[..cut.min(buf.len() - 1)]).is_err());

        // Corruption: one flipped bit must not decode back into the original.
        let pos = (pos as usize) % buf.len();
        buf[pos] ^= 1 << bit;
        match decode(&buf) {
            Err(_) => {}
            Ok(decoded) => prop_assert!(
                decoded != msg,
                "flipping bit {} of byte {} decoded back to the original frame",
                bit, pos
            ),
        }
    }

    /// The shard-server migration state machine end to end, with epoch-skew refusal
    /// at every leg: freeze accepts only the successor epoch exactly once, extract
    /// and stage refuse any epoch other than the frozen one, and a committed drain
    /// delivers the moved shard's weights, version and momentum to the destination
    /// **bitwise** (checked by re-freezing the committed group and extracting the
    /// shard back out of its new owner).
    #[test]
    fn state_machine_refuses_skew_and_moves_momentum_bitwise(
        servers_seed in 2usize..5,
        shards_extra in 0usize..3,
        rounds in 1usize..4,
        grad_seed in 0u32..1_000,
        skew in 2u64..1_000,
    ) {
        let servers = servers_seed;
        let shards = servers + shards_extra;
        let job = migration_test_job(servers, shards);
        let mut states: Vec<ShardServerState> =
            (0..servers).map(|i| ShardServerState::from_job(&job, i)).collect();

        // Build up distinct weights and momentum on every server.
        for round in 0..rounds {
            for state in states.iter_mut() {
                let grads: Vec<f32> = (0..state.slice_len())
                    .map(|i| ((i as u32 + grad_seed + round as u32) as f32 * 0.13).sin())
                    .collect();
                state.apply_slice(&grads);
            }
        }

        let victim = servers - 1;
        let plan = states[0].layout().drain_plan(victim).expect("drainable");
        let epoch = plan.from_epoch + 1;

        // Unfrozen extract/stage: refused regardless of the epoch.
        prop_assert!(states[victim].extract(epoch, plan.moves[0].shard).is_err());

        // Freeze every server; a second prepare and a non-successor epoch are refused.
        for state in states.iter_mut() {
            prop_assert!(state.freeze(epoch + skew).is_err(), "non-successor epoch");
            state.freeze(epoch).expect("freeze toward the successor epoch");
            prop_assert!(state.freeze(epoch).is_err(), "double prepare");
        }

        // Transfer every move through the wire codec, capturing the source payloads.
        let mut shipped = Vec::new();
        for mv in &plan.moves {
            let (from, to) = (mv.from as usize, mv.to as usize);
            // Epoch-skewed legs are refused before any state changes hands.
            prop_assert!(states[from].extract(epoch + skew, mv.shard).is_err());
            let mut buf = Vec::new();
            {
                let (version, weights, velocity) =
                    states[from].extract(epoch, mv.shard).expect("extract");
                let payload = Message::MigrateShard {
                    epoch,
                    shard: mv.shard,
                    version,
                    trace: dssp_core::events::NO_TRACE,
                    weights: weights.to_vec(),
                    velocity: velocity.to_vec(),
                };
                dssp_net::wire::encode(&payload, &mut buf);
            }
            match decode(&buf).expect("relayed frame decodes") {
                Message::MigrateShard {
                    epoch: e,
                    shard,
                    version,
                    trace: _,
                    weights,
                    velocity,
                } => {
                    prop_assert!(
                        states[to].stage(e + skew, shard, version, weights.clone(), velocity.clone()).is_err(),
                        "skewed stage must be refused"
                    );
                    shipped.push((shard, version, weights.clone(), velocity.clone()));
                    states[to].stage(e, shard, version, weights, velocity).expect("stage");
                }
                other => prop_assert!(false, "relay decoded into {:?}", other),
            }
        }

        // Commit everywhere; the group now serves the post-drain epoch.
        for state in states.iter_mut() {
            state.commit_layout(epoch, &plan.assignment).expect("commit");
            prop_assert_eq!(state.epoch(), epoch);
            prop_assert!(state.pending_epoch().is_none());
        }
        prop_assert_eq!(states[victim].slice_len(), 0, "the victim is drained");

        // Re-freeze the committed group and extract each moved shard back out of
        // its new owner: version, weights and momentum must match what the source
        // shipped, bit for bit.
        for state in states.iter_mut() {
            state.freeze(epoch + 1).expect("re-freeze the committed group");
        }
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for (mv, (shard, version, weights, velocity)) in plan.moves.iter().zip(&shipped) {
            let (got_version, got_weights, got_velocity) = states[mv.to as usize]
                .extract(epoch + 1, *shard)
                .expect("extract from the new owner");
            prop_assert_eq!(got_version, *version, "shard {} version", shard);
            prop_assert_eq!(bits(got_weights), bits(weights), "shard {} weights", shard);
            prop_assert_eq!(bits(got_velocity), bits(velocity), "shard {} momentum", shard);
        }
        for state in states.iter_mut() {
            state.thaw(epoch + 1);
            prop_assert!(state.pending_epoch().is_none());
        }
    }
}
