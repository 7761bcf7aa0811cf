//! Property-based tests of the checkpoint codec: encode→decode is the bitwise
//! identity on arbitrary snapshots, and every mutilated payload — truncation, bit
//! flips, version skew, digest skew — is rejected (or at least never misparses back
//! into the original) without sizing a buffer from a count the payload cannot back,
//! mirroring the wire codec's strictness discipline.

use dssp_ps::{
    Checkpoint, CheckpointError, GateSnapshot, LayoutSnapshot, ServerStats, StoreSnapshot,
    CHECKPOINT_VERSION,
};
use dssp_testalloc::{thread_bytes_during, CountingAlloc};
use proptest::prelude::*;

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// The most memory a decoded checkpoint takes per payload byte: a `None` timestamp is
/// one byte on disk and a 16-byte `Option<f64>` in memory. A decoder that sized a
/// buffer from an unchecked count could ask for far more.
const BYTES_PER_PAYLOAD_BYTE: u64 = 16;

/// Builds an arbitrary checkpoint from flat random draws (the proptest shim has no
/// enum/recursive strategies, so section presence and vector shapes are derived from
/// scalar draws, the same way the wire-codec property suite builds its messages).
#[allow(clippy::too_many_arguments)]
fn build_checkpoint(
    digest: u64,
    tick: f64,
    sections: u32,
    floats: &[f32],
    float_len: usize,
    counts: &[u64],
    count_len: usize,
    workers: usize,
) -> Checkpoint {
    let floats = &floats[..float_len.clamp(1, floats.len())];
    let counts = &counts[..count_len.clamp(1, counts.len())];
    let workers = workers.max(1);
    let take = |i: usize| counts[i % counts.len()];
    let store = (!sections.is_multiple_of(4)).then(|| {
        let shards = counts.len().clamp(1, 4);
        let per_shard = floats.len() / shards;
        let mut offsets: Vec<u64> = (0..=shards).map(|i| (i * per_shard) as u64).collect();
        *offsets.last_mut().unwrap() = floats.len() as u64;
        StoreSnapshot {
            flat: floats.to_vec(),
            offsets,
            versions: (0..shards).map(|i| take(i) % 1_000).collect(),
            velocity: floats.iter().map(|v| v * 0.5).collect(),
            epoch: take(0) % 64,
        }
    });
    let gate = (!sections.is_multiple_of(3)).then(|| GateSnapshot {
        counts: (0..workers).map(|w| take(w) % 500).collect(),
        retired: (0..workers).map(|w| take(w + 1) % 2 == 0).collect(),
        latest: (0..workers)
            .map(|w| (take(w + 2) % 3 != 0).then_some(tick + w as f64))
            .collect(),
        previous: (0..workers)
            .map(|w| (take(w + 3) % 3 != 0).then_some(tick + w as f64 - 1.0))
            .collect(),
        blocked: (0..workers).filter(|&w| take(w + 4) % 4 == 0).collect(),
        stats: ServerStats {
            pushes: take(0),
            blocked_pushes: take(1),
            releases: take(2),
            staleness_sum: take(3),
            staleness_max: take(4),
            credits_granted: take(5),
            credits_reclaimed: take(6),
        },
        credits: (0..workers).map(|w| take(w + 5) % 8).collect(),
        controller_invocations: take(10),
    });
    let layout = (!sections.is_multiple_of(5)).then(|| LayoutSnapshot {
        epoch: take(1) % 64,
        assignment: (0..counts.len().clamp(1, 8))
            .map(|i| (take(i) % 4) as u32)
            .collect(),
    });
    Checkpoint {
        job_digest: digest,
        tick,
        store,
        gate,
        layout,
    }
}

fn floats_strategy() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-1.0e3f32..1.0e3, 48)
}

fn counts_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..1_000_000, 12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Encode→decode is the identity on every section combination and shape.
    #[test]
    fn encode_decode_is_the_identity(
        digest in 0u64..u64::MAX,
        tick in 0.0f64..1.0e9,
        sections in 0u32..u32::MAX,
        floats in floats_strategy(),
        float_len in 1usize..48,
        counts in counts_strategy(),
        count_len in 1usize..12,
        workers in 1usize..6,
    ) {
        let ckpt = build_checkpoint(
            digest, tick, sections, &floats, float_len, &counts, count_len, workers,
        );
        let bytes = ckpt.encode();
        let decoded = Checkpoint::decode(&bytes).expect("decode");
        prop_assert_eq!(decoded, ckpt);
    }

    /// Every strict prefix of an encoded checkpoint is rejected — a half-written
    /// file (the case the atomic temp+rename dance prevents) never decodes.
    #[test]
    fn truncation_is_always_rejected(
        digest in 0u64..u64::MAX,
        sections in 0u32..u32::MAX,
        floats in floats_strategy(),
        float_len in 1usize..48,
        counts in counts_strategy(),
        count_len in 1usize..12,
        cut in 0u64..u64::MAX,
    ) {
        let ckpt = build_checkpoint(digest, 4.0, sections, &floats, float_len, &counts, count_len, 3);
        let bytes = ckpt.encode();
        let cut = (cut as usize) % bytes.len();
        prop_assert!(
            Checkpoint::decode(&bytes[..cut]).is_err(),
            "prefix of {} / {} bytes decoded",
            cut,
            bytes.len()
        );
    }

    /// A single flipped bit anywhere in the payload either fails to decode or
    /// decodes to something observably different — never silently back to the
    /// original (so a torn or bit-rotted file cannot masquerade as the snapshot).
    #[test]
    fn bit_flips_never_misparse_back_to_the_original(
        digest in 0u64..u64::MAX,
        sections in 0u32..u32::MAX,
        floats in floats_strategy(),
        float_len in 1usize..48,
        counts in counts_strategy(),
        count_len in 1usize..12,
        pos in 0u64..u64::MAX,
        bit in 0u32..8,
    ) {
        let ckpt = build_checkpoint(digest, 4.0, sections, &floats, float_len, &counts, count_len, 3);
        let mut bytes = ckpt.encode();
        let pos = (pos as usize) % bytes.len();
        bytes[pos] ^= 1 << bit;
        match Checkpoint::decode(&bytes) {
            Err(_) => {}
            Ok(decoded) => prop_assert!(
                decoded != ckpt,
                "flipping bit {} of byte {} decoded back to the original",
                bit, pos
            ),
        }
    }

    /// Whatever the bytes — a valid checkpoint with one byte overwritten, one bit
    /// flipped and, half the time, the tail cut off — decoding asks the allocator for
    /// at most [`BYTES_PER_PAYLOAD_BYTE`] per payload byte: every declared count is
    /// checked against the bytes left before anything is sized from it.
    #[test]
    fn decoding_never_sizes_a_buffer_past_the_payload(
        digest in 0u64..u64::MAX,
        sections in 0u32..u32::MAX,
        floats in floats_strategy(),
        float_len in 1usize..48,
        counts in counts_strategy(),
        count_len in 1usize..12,
        workers in 1usize..6,
        pos in 0u64..u64::MAX,
        value in 0u32..256,
        bit in 0u32..8,
        cut in 0u64..u64::MAX,
    ) {
        let ckpt = build_checkpoint(
            digest, 4.0, sections, &floats, float_len, &counts, count_len, workers,
        );
        let mut bytes = ckpt.encode();
        let len = bytes.len();
        bytes[pos as usize % len] = value as u8;
        bytes[(pos >> 32) as usize % len] ^= 1 << bit;
        if cut % 2 == 1 {
            bytes.truncate((cut >> 1) as usize % (len + 1));
        }
        let requested = thread_bytes_during(|| {
            let _ = Checkpoint::decode(&bytes);
        });
        prop_assert!(
            requested <= BYTES_PER_PAYLOAD_BYTE * bytes.len() as u64,
            "decoding {} bytes asked for {} bytes",
            bytes.len(),
            requested
        );
    }

    /// Any format version other than the one this build writes is refused, in both
    /// directions (older and newer).
    #[test]
    fn version_skew_is_rejected(
        digest in 0u64..u64::MAX,
        sections in 0u32..u32::MAX,
        floats in floats_strategy(),
        float_len in 1usize..48,
        counts in counts_strategy(),
        count_len in 1usize..12,
        skew in 1u32..1_000,
    ) {
        let ckpt = build_checkpoint(digest, 4.0, sections, &floats, float_len, &counts, count_len, 3);
        let mut bytes = ckpt.encode();
        let bad = CHECKPOINT_VERSION.wrapping_add(skew);
        bytes[8..12].copy_from_slice(&bad.to_le_bytes());
        prop_assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::UnsupportedVersion(v)) if v == bad
        ));
    }

    /// The layout-epoch skew refusal is typed and self-describing for every pair of
    /// diverging epochs: a restore that meets a group running a different layout
    /// epoch must surface the "restore skew" wording the chaos harness keys on,
    /// naming both epochs.
    #[test]
    fn layout_epoch_skew_error_is_typed_and_descriptive(
        found in 0u64..u64::MAX,
        skew in 1u64..1_000,
    ) {
        let expected = found.wrapping_add(skew);
        let err = CheckpointError::LayoutSkew { found, expected };
        let msg = err.to_string();
        prop_assert!(msg.contains("restore skew"), "missing the typed wording: {msg}");
        prop_assert!(msg.contains(&found.to_string()), "missing found epoch: {msg}");
        prop_assert!(msg.contains(&expected.to_string()), "missing expected epoch: {msg}");
    }

    /// A checkpoint taken under one job digest never restores under another, while
    /// the matching digest always passes.
    #[test]
    fn digest_skew_is_rejected(
        digest in 0u64..u64::MAX,
        sections in 0u32..u32::MAX,
        floats in floats_strategy(),
        float_len in 1usize..48,
        counts in counts_strategy(),
        count_len in 1usize..12,
        other in 0u64..u64::MAX,
    ) {
        let ckpt = build_checkpoint(digest, 4.0, sections, &floats, float_len, &counts, count_len, 3);
        let bytes = ckpt.encode();
        prop_assert!(Checkpoint::decode_for_job(&bytes, digest).is_ok());
        if other != digest {
            prop_assert!(matches!(
                Checkpoint::decode_for_job(&bytes, other),
                Err(CheckpointError::DigestMismatch { expected, found })
                    if expected == other && found == digest
            ));
        }
    }
}
