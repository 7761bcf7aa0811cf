//! Property-based proof that delta pulls are bitwise-equivalent to full pulls: a
//! client that keeps a per-shard version cache and applies `PullReplyDelta` frames
//! reconstructs exactly the weight vector a full-pulling client downloads, across
//! random shard layouts, random update/pull interleavings, and cache invalidation
//! (reconnects). Every reply travels through the real codec (`encode` → bytes →
//! `apply_pull_reply`), so the wire format of the two new message tags is exercised
//! end to end, including the full-pull fallback on incompatible caches.

use dssp_net::transport::PullView;
use dssp_net::wire::{apply_pull_reply, decode, encode, WireError};
use dssp_net::Message;
use dssp_ps::ShardedStore;
use proptest::prelude::*;

/// A delta-pulling client's cached state.
#[derive(Default)]
struct Cache {
    weights: Vec<f32>,
    versions: Vec<u64>,
}

/// Serves one pull against `store`: encodes the reply the server would send for
/// `known`, ships it through bytes, and applies it to the client cache.
fn pull(store: &ShardedStore, clock: u64, cache: &mut Cache, delta: bool) -> bool {
    let known = (delta && !cache.versions.is_empty()).then_some(cache.versions.clone());
    let view = PullView {
        clock,
        versions: store.versions(),
        offsets: store.offsets(),
        weights: store.as_flat(),
        known: known.as_deref(),
    };
    let mut payload = Vec::new();
    view.encode(&mut payload);
    // The reply's exact size. A delta is a 13-byte header plus 16 + 4·len bytes for
    // each stale shard and nothing for the others; a full reply is 17 + 8·shards +
    // 4·params. So `k` stale shards carry only those `k` ranges, and the worst case —
    // every shard stale, which is every reply under dense SGD — costs 8·shards − 4
    // bytes more than the full reply it replaces.
    let (versions, offsets) = (store.versions(), store.offsets());
    let expected = match known.as_deref().filter(|_| view.delta_applicable()) {
        Some(known) => {
            let stale = (0..versions.len()).filter(|&i| versions[i] > known[i]);
            13 + stale
                .map(|i| 16 + 4 * (offsets[i + 1] - offsets[i]))
                .sum::<usize>()
        }
        None => 17 + 8 * versions.len() + 4 * store.as_flat().len(),
    };
    assert_eq!(payload.len(), expected);
    let applied =
        apply_pull_reply(&payload, &mut cache.weights, &mut cache.versions).expect("reply applies");
    assert_eq!(applied.clock, clock);
    applied.full
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn delta_pulls_reconstruct_exactly_what_full_pulls_download(
        params in 1usize..96,
        shards_pick in 1usize..9,
        ops in prop::collection::vec(0u32..10_000, 48),
        vals in prop::collection::vec(-2.0f32..2.0, 48),
    ) {
        let shards = shards_pick.min(params);
        let initial: Vec<f32> = (0..params).map(|i| (i as f32 * 0.7).sin()).collect();
        let mut store = ShardedStore::new(initial, shards);
        let mut clock = 0u64;
        let mut full_client = Cache::default();
        let mut delta_client = Cache::default();

        for (&op, &val) in ops.iter().zip(&vals) {
            match op % 5 {
                // Update a random shard (the skew source: some shards advance more).
                0..=2 => {
                    let shard = (op / 5) as usize % shards;
                    let (a, b) = store.key_range(shard);
                    let grads: Vec<f32> = (0..b - a).map(|j| val + j as f32 * 0.1).collect();
                    store.apply_shard(shard, &grads, 0.25);
                    clock += 1;
                }
                // Both clients pull; their reconstructions must agree bitwise.
                3 => {
                    let was_full = pull(&store, clock, &mut full_client, false);
                    prop_assert!(was_full, "the full client must always get full replies");
                    pull(&store, clock, &mut delta_client, true);
                    prop_assert_eq!(&delta_client.weights, &full_client.weights);
                    prop_assert_eq!(&delta_client.versions, &full_client.versions);
                    prop_assert_eq!(delta_client.versions.as_slice(), store.versions());
                }
                // The delta client "reconnects": a fresh process has no cache, so its
                // next pull must fall back to a full reply and resynchronize.
                _ => {
                    delta_client.weights.clear();
                    delta_client.versions.clear();
                }
            }
        }
        // Final synchronization always holds.
        pull(&store, clock, &mut full_client, false);
        pull(&store, clock, &mut delta_client, true);
        prop_assert_eq!(&delta_client.weights, &full_client.weights);
        prop_assert_eq!(delta_client.weights.as_slice(), store.as_flat());
    }

    #[test]
    fn incompatible_caches_fall_back_to_full_replies(
        params in 1usize..64,
        shards_pick in 1usize..9,
        bogus_len in 0usize..12,
        ahead in 1u64..100,
    ) {
        let shards = shards_pick.min(params);
        let store = ShardedStore::new(vec![1.0; params], shards);
        // Wrong shard count.
        let mut client = Cache {
            weights: vec![0.0; params],
            versions: vec![0; bogus_len],
        };
        if bogus_len != shards {
            let view = PullView {
                clock: 1,
                versions: store.versions(),
                offsets: store.offsets(),
                weights: store.as_flat(),
                known: Some(&client.versions.clone()),
            };
            prop_assert!(!view.delta_applicable());
            let mut payload = Vec::new();
            view.encode(&mut payload);
            let applied = apply_pull_reply(&payload, &mut client.weights, &mut client.versions)
                .expect("fallback applies");
            prop_assert!(applied.full);
            prop_assert_eq!(client.weights.as_slice(), store.as_flat());
        }
        // A cache from the server's future (e.g. the server restarted).
        let future = vec![ahead; shards];
        let view = PullView {
            clock: 1,
            versions: store.versions(),
            offsets: store.offsets(),
            weights: store.as_flat(),
            known: Some(&future),
        };
        prop_assert!(!view.delta_applicable());
    }

    #[test]
    fn corrupted_delta_frames_are_rejected(
        clock in 0u64..u64::MAX,
        shard in 0u32..64,
        version in 0u64..u64::MAX,
        weights in prop::collection::vec(-1.0f32..1.0, 6),
        flip in 0usize..1000,
        garbage in 1usize..9,
    ) {
        let msg = Message::PullReplyDelta {
            clock,
            updates: vec![dssp_net::ShardUpdate { shard, version, weights }],
        };
        let mut buf = Vec::new();
        encode(&msg, &mut buf);
        // Round-trips intact...
        prop_assert_eq!(decode(&buf).as_ref(), Ok(&msg));
        // ...every strict prefix is rejected...
        let cut = flip % buf.len();
        prop_assert!(decode(&buf[..cut]).is_err());
        // ...and trailing garbage is rejected.
        let mut extended = buf.clone();
        extended.extend(std::iter::repeat_n(0xcdu8, garbage));
        prop_assert!(matches!(
            decode(&extended),
            Err(WireError::TrailingBytes { .. }) | Err(WireError::BadLength { .. })
        ));
    }
}
