//! Property tests of the group storage path: for random layouts (params, shards,
//! servers) and random per-server update histories, a client that delta-pulls from
//! every shard server reconstructs exactly the weights a full fan-out pull downloads;
//! and the rule that keeps or re-pulls the weights a push round fetched keeps them
//! exactly when they hold every push the grant counted.

use dssp_coord::{keeps_weights, GroupLayout};
use dssp_net::wire::{self};
use dssp_ps::ShardedStore;
use proptest::prelude::*;
use std::collections::HashSet;

/// Builds each server's slice store over a deterministic initial vector.
fn build_stores(layout: &GroupLayout, initial: &[f32]) -> Vec<ShardedStore> {
    (0..layout.servers())
        .map(|s| {
            let (start, end) = layout.key_range(s);
            ShardedStore::with_offsets(initial[start..end].to_vec(), layout.local_offsets(s))
        })
        .collect()
}

/// Encodes one server's pull reply (updates carry global shard ids) and applies it to
/// the client's global buffers — the same wire path the real fan-out uses.
fn pull_from_server(
    layout: &GroupLayout,
    server: usize,
    store: &ShardedStore,
    all: bool,
    weights: &mut Vec<f32>,
    versions: &mut Vec<u64>,
) {
    let (lo, hi) = layout.shard_span(server);
    let known = &versions[lo..hi];
    let mut buf = Vec::new();
    if all || !store.delta_compatible(known) {
        wire::encode_pull_reply_delta(
            &mut buf,
            0,
            (0..store.num_shards()).map(|i| ((lo + i) as u32, store.version(i), store.shard(i))),
        );
    } else {
        let stale: Vec<usize> = store.stale_shards(known).collect();
        wire::encode_pull_reply_delta(
            &mut buf,
            0,
            stale
                .into_iter()
                .map(|i| ((lo + i) as u32, store.version(i), store.shard(i))),
        );
    }
    wire::apply_pull_reply(&buf, weights, versions).expect("reply applies");
}

/// A tiny deterministic generator for the histories below (xorshift64*).
struct Draws(u64);

impl Draws {
    fn next(&mut self, below: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % below
    }
}

/// One shard server's slice applies since it started, as `(rank, iteration)` in
/// arrival order: each rank's iterations `1..=reached[rank]` in order, ranks
/// interleaved at random, and now and then the slice just applied again — what a
/// worker that died between its acks and its `ClockPush` replays after a restart.
fn history(reached: &[u64], draws: &mut Draws) -> Vec<(usize, u64)> {
    let mut next = vec![1u64; reached.len()];
    let mut out = Vec::new();
    loop {
        let open: Vec<usize> = (0..reached.len())
            .filter(|&w| next[w] <= reached[w])
            .collect();
        if open.is_empty() {
            return out;
        }
        let rank = open[draws.next(open.len() as u64) as usize];
        out.push((rank, next[rank]));
        if draws.next(4) == 0 {
            out.push((rank, next[rank]));
        }
        next[rank] += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_pushed_weights_are_kept_exactly_when_no_counted_push_is_missing(
        ranks in 1usize..6,
        servers in 1usize..5,
        counts in prop::collection::vec(0u64..6, 5),
        seed in 1u64..u64::MAX,
    ) {
        let mut draws = Draws(seed);
        let counted = &counts[..ranks];
        // Per server: restored (it has applied nothing since, whatever its store
        // holds), or it reached, per rank, up to one past that rank's count — one
        // entry in eight lags behind.
        let histories: Vec<Vec<(usize, u64)>> = (0..servers)
            .map(|_| {
                if draws.next(6) == 0 {
                    return Vec::new();
                }
                let reached: Vec<u64> = counted
                    .iter()
                    .map(|&c| match draws.next(8) {
                        0 => draws.next(c + 1),
                        1 => c + 1,
                        _ => c,
                    })
                    .collect();
                history(&reached, &mut draws)
            })
            .collect();
        // What each server's `SliceApplied` reports: the highest iteration per rank,
        // folded the way the shard server folds it.
        let applied: Vec<Vec<u64>> = histories
            .iter()
            .map(|h| {
                let mut applied = vec![0u64; ranks];
                for &(rank, iteration) in h {
                    applied[rank] = applied[rank].max(iteration);
                }
                applied
            })
            .collect();
        // The oracle: every counted push `(w, 1..=counted[w])` is among the applies of
        // every server.
        let none_missing = histories.iter().all(|h| {
            let held: HashSet<&(usize, u64)> = h.iter().collect();
            (0..ranks).all(|w| (1..=counted[w]).all(|k| held.contains(&(w, k))))
        });
        prop_assert_eq!(
            keeps_weights(counted, applied.iter().map(Vec::as_slice)),
            none_missing,
            "counted {:?}, applied {:?}",
            counted,
            applied
        );
    }

    #[test]
    fn random_group_update_histories_reconstruct_via_deltas(
        params in 1usize..120,
        shards_seed in 1usize..16,
        servers_seed in 1usize..8,
        rounds in 1usize..8,
        update_bits in prop::collection::vec(0u64..u64::MAX, 8),
        lr_scale in 1u32..50,
    ) {
        let shards = shards_seed.min(params);
        let servers = servers_seed.min(shards);
        let layout = GroupLayout::new(params, shards, servers);
        let initial: Vec<f32> = (0..params).map(|i| (i as f32 * 0.31).sin()).collect();
        let mut stores = build_stores(&layout, &initial);

        // The delta client keeps its cache across rounds; the full client re-downloads
        // everything each round.
        let (mut delta_w, mut delta_v) = (Vec::new(), Vec::new());
        let lr = lr_scale as f32 * 1e-3;

        for round in 0..rounds {
            // Random per-shard updates: bit (round, shard) of the random words decides
            // whether a global shard advances this round.
            for shard in 0..shards {
                let word = update_bits[shard % update_bits.len()];
                if (word >> (round % 64)) & 1 == 1 {
                    let server = layout.server_of_shard(shard);
                    let (lo, _) = layout.shard_span(server);
                    let local = shard - lo;
                    let len = {
                        let (a, b) = layout.shard_key_range(shard);
                        b - a
                    };
                    let grads: Vec<f32> = (0..len)
                        .map(|i| ((i + round + shard) as f32 * 0.7).cos())
                        .collect();
                    stores[server].apply_shard(local, &grads, lr);
                }
            }

            // Delta fan-out against the persistent cache.
            delta_w.resize(params, 0.0);
            delta_v.resize(shards, 0);
            let cold = round == 0;
            for (s, store) in stores.iter().enumerate() {
                pull_from_server(&layout, s, store, cold, &mut delta_w, &mut delta_v);
            }

            // Full fan-out from scratch.
            let (mut full_w, mut full_v) = (vec![0.0f32; params], vec![0u64; shards]);
            for (s, store) in stores.iter().enumerate() {
                pull_from_server(&layout, s, store, true, &mut full_w, &mut full_v);
            }

            prop_assert_eq!(&delta_w, &full_w, "round {} weights diverged", round);
            prop_assert_eq!(&delta_v, &full_v, "round {} versions diverged", round);
            // And both match the authoritative per-server slices bitwise.
            for (s, store) in stores.iter().enumerate() {
                let (start, end) = layout.key_range(s);
                prop_assert_eq!(&full_w[start..end], store.as_flat());
            }
        }
    }

    #[test]
    fn sliced_sgd_matches_whole_model_sgd_bitwise(
        params in 1usize..96,
        shards_seed in 1usize..12,
        servers_seed in 1usize..6,
        steps in 1usize..6,
        momentum in 0.0f32..0.95,
    ) {
        // The property the whole group design rests on: applying a full-model
        // gradient as per-server slices through per-server optimizers is bitwise
        // identical to one whole-model optimizer step, including momentum state.
        use dssp_nn::{LrSchedule, Sgd, SgdConfig};
        let shards = shards_seed.min(params);
        let servers = servers_seed.min(shards);
        let layout = GroupLayout::new(params, shards, servers);
        let config = SgdConfig {
            schedule: LrSchedule::constant(0.05),
            momentum,
            weight_decay: 0.01,
        };
        let initial: Vec<f32> = (0..params).map(|i| (i as f32 * 0.77).cos()).collect();

        let mut whole = initial.clone();
        let mut whole_sgd = Sgd::new(config.clone(), params);

        let mut slices: Vec<Vec<f32>> = (0..servers)
            .map(|s| {
                let (a, b) = layout.key_range(s);
                initial[a..b].to_vec()
            })
            .collect();
        let mut slice_sgds: Vec<Sgd> = (0..servers)
            .map(|s| {
                let (a, b) = layout.key_range(s);
                Sgd::new(config.clone(), b - a)
            })
            .collect();

        for step in 0..steps {
            let grads: Vec<f32> = (0..params)
                .map(|i| ((i * 7 + step * 13) as f32 * 0.21).sin())
                .collect();
            whole_sgd.step(&mut whole, &grads);
            for s in 0..servers {
                let (a, b) = layout.key_range(s);
                slice_sgds[s].step(&mut slices[s], &grads[a..b]);
            }
            let stitched: Vec<f32> = slices.iter().flatten().copied().collect();
            prop_assert_eq!(&stitched, &whole, "diverged at step {}", step);
        }
    }
}
