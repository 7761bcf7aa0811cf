//! Property-based tests for the wire codec: encode→decode is the identity on every
//! message kind, and corrupted frames (truncation, trailing bytes, absurd lengths) are
//! rejected rather than misparsed; frames with arbitrary bytes overwritten never panic
//! a decoder or make it size a buffer past what the frame holds. The streaming path both
//! transports run for the bulk frames — `FrameBody` in, the `write_*_frame` family out —
//! is held to references that share none of its code: the table's codec for pushes and
//! for every writer's bytes, and for pull replies, which the table cannot apply to a
//! cache, a second pull-reply reader kept in this file. Same values, same errors, same
//! bytes, over streams that move only a few bytes per call.

use dssp_net::transport::PullView;
use dssp_net::wire::{
    self, decode, encode, FrameBody, Message, PullApplied, ShardUpdate, WireError, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
use dssp_net::NetError;
use dssp_ps::{shard_range, ShardedStore};
use proptest::prelude::*;
use std::io::{IoSlice, Read, Write};

/// Builds an arbitrary message from flat random draws (the proptest shim has no enum
/// strategies, so the variant is picked by an index).
#[allow(clippy::too_many_arguments)]
fn build_message(
    variant: u32,
    a: u64,
    b: u64,
    c: f64,
    floats: Vec<f32>,
    float_len: usize,
    versions: Vec<u64>,
    version_len: usize,
) -> Message {
    let floats = floats[..float_len.min(floats.len())].to_vec();
    let versions = versions[..version_len.min(versions.len())].to_vec();
    let assignment: Vec<u32> = versions.iter().map(|&v| (v % 64) as u32).collect();
    match variant % 35 {
        0 => Message::Hello {
            version: PROTOCOL_VERSION,
            rank: (a % 1024) as u32,
            num_workers: (b % 1024) as u32,
            config_digest: a.wrapping_mul(b),
        },
        1 => Message::Push {
            iteration: a,
            trace: b.rotate_left(5),
            grads: floats,
        },
        2 => Message::PushReply {
            granted_extra: a,
            version: b,
        },
        3 => Message::Pull { trace: a ^ b },
        4 => Message::PullReply {
            clock: a,
            shard_versions: versions,
            weights: floats,
        },
        5 => Message::Done {
            iterations: a,
            epochs: b,
            waiting_time_s: c,
        },
        6 => Message::Shutdown {
            reason: (a % 256) as u8,
        },
        7 => Message::PullDelta {
            trace: a.wrapping_add(b),
            known_versions: versions,
        },
        8 => Message::PullReplyDelta {
            clock: a,
            updates: versions
                .iter()
                .enumerate()
                .map(|(i, &version)| ShardUpdate {
                    shard: (b % 512) as u32 + i as u32,
                    version,
                    weights: floats[..float_len.min(floats.len()).min(4 + i)].to_vec(),
                })
                .collect(),
        },
        9 => Message::GroupHello {
            version: PROTOCOL_VERSION,
            rank: (a % 1024) as u32,
            num_workers: (b % 1024) as u32,
            config_digest: a ^ b,
            servers: (a % 64) as u32 + 1,
            server_index: (b % 64) as u32,
        },
        10 => Message::ClockPush {
            iteration: a,
            trace: b,
        },
        11 => Message::ClockGrant {
            granted_extra: a,
            version: b,
        },
        12 => Message::PushGrant,
        13 => Message::PushApplied { iteration: b },
        14 => Message::PushSlice {
            iteration: a,
            epoch: b % 1024,
            trace: a.rotate_right(9),
            pull: a.is_multiple_of(3),
            grads: floats,
        },
        15 => Message::SliceAck { version: a },
        16 => Message::PullShards {
            known_versions: versions,
            all: a.is_multiple_of(2),
            epoch: b % 1024,
            trace: b.wrapping_mul(3),
        },
        17 => Message::PullDone,
        18 => Message::StatsRequest,
        19 => Message::JoinRequest,
        20 => Message::JoinAck {
            clock: a,
            epoch: b % 1024,
            assignment,
        },
        21 => Message::Evict {
            rank: (a % 1024) as u32,
        },
        22 => Message::StatsReply {
            pushes: a,
            pulls_full: b,
            pulls_delta: a.wrapping_add(b),
            bytes_sent: a.rotate_left(17),
            bytes_received: b.rotate_right(9),
            epoch: b % 1024,
        },
        23 => Message::MigratePrepare { epoch: a },
        24 => Message::MigrateRequest {
            epoch: a,
            shard: (b % 512) as u32,
            trace: a | b,
        },
        25 => Message::MigrateShard {
            epoch: a,
            shard: (b % 512) as u32,
            version: a ^ b,
            trace: b ^ (a << 1),
            weights: floats.clone(),
            velocity: floats,
        },
        26 => Message::MigrateAck {
            epoch: a,
            shard: (b % 512) as u32,
        },
        27 => Message::LayoutUpdate {
            epoch: a,
            assignment,
        },
        28 => Message::MigrateAbort { epoch: a },
        29 => Message::EpochRefused {
            epoch: a,
            assignment,
        },
        30 => Message::Drain {
            server: (a % 64) as u32,
        },
        31 => Message::Rebalance,
        32 => Message::AdminAck {
            epoch: a,
            accepted: b.is_multiple_of(2),
            reason: format!("r{}", a % 1000),
        },
        33 => Message::SliceApplied {
            version: a,
            applied: versions,
        },
        _ => Message::GroupGrant {
            granted_extra: a % 64,
            version: b,
            counted: versions,
        },
    }
}

/// A stream that hands out its bytes a few at a time — `steps[i]` (at least one) on
/// the `i`-th call, cycling — so every multi-byte field and every run is split across
/// reads somewhere. `at` is how much it has given out.
struct TrickleReader<'a> {
    bytes: &'a [u8],
    at: usize,
    steps: &'a [usize],
    calls: usize,
}

impl Read for TrickleReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let step = self.steps[self.calls % self.steps.len()].max(1);
        self.calls += 1;
        let n = step.min(buf.len()).min(self.bytes.len() - self.at);
        buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// A sink that accepts a few bytes per call, `steps[i]` on the `i`-th; a vectored
/// write takes them across slice boundaries, so partial vectored writes end in the
/// middle of a header, between slices and in the middle of a run.
struct TrickleWriter<'a> {
    out: Vec<u8>,
    steps: &'a [usize],
    calls: usize,
}

impl TrickleWriter<'_> {
    fn budget(&mut self) -> usize {
        self.calls += 1;
        self.steps[(self.calls - 1) % self.steps.len()].max(1)
    }
}

impl Write for TrickleWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.budget().min(buf.len());
        self.out.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        let mut left = self.budget();
        let mut taken = 0;
        for buf in bufs {
            let n = left.min(buf.len());
            self.out.extend_from_slice(&buf[..n]);
            taken += n;
            left -= n;
        }
        Ok(taken)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Payload tags (`golden_frames.rs` pins them).
const PUSH_TAG: u8 = 2;
const PULL_REPLY_TAG: u8 = 5;
const PULL_REPLY_DELTA_TAG: u8 = 9;
const PUSH_SLICE_TAG: u8 = 15;

/// The bulk frame kinds of the training path.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BulkKind {
    Push,
    PushSlice,
    PullReply,
    PullReplyDelta,
}

const BULK_KINDS: [BulkKind; 4] = [
    BulkKind::Push,
    BulkKind::PushSlice,
    BulkKind::PullReply,
    BulkKind::PullReplyDelta,
];

/// What a bulk frame decodes to, runs as bit patterns. For the pull replies: the
/// summary and the receiving worker's cache after the reply was applied.
#[derive(Debug, PartialEq)]
enum Decoded {
    Push(u64, u64, Vec<u32>),
    PushSlice(u64, u64, u64, bool, Vec<u32>),
    Pull(PullApplied, Vec<u32>, Vec<u64>),
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A worker's cache before a reply arrives: `params` weights over `shards` shards.
fn cache(params: usize, shards: usize) -> (Vec<f32>, Vec<u64>) {
    (
        (0..params).map(|i| i as f32 * 0.5 - 3.0).collect(),
        (0..shards as u64).collect(),
    )
}

/// A valid payload of `kind`. The pull replies fit the cache [`cache`] builds: the
/// delta carries every shard whose bit is set in `pick`, each with its whole key
/// range.
fn bulk_payload(
    kind: BulkKind,
    a: u64,
    b: u64,
    floats: &[f32],
    params: usize,
    shards: usize,
    pick: u64,
) -> Vec<u8> {
    let run = |len: usize| -> Vec<f32> { (0..len).map(|i| floats[i % floats.len()]).collect() };
    let mut payload = Vec::new();
    match kind {
        BulkKind::Push => wire::encode_push(&mut payload, a, b, &run(params)),
        BulkKind::PushSlice => wire::encode_push_slice(
            &mut payload,
            a,
            b % 1024,
            !b,
            a.is_multiple_of(2),
            &run(params),
        ),
        BulkKind::PullReply => {
            let versions: Vec<u64> = (0..shards as u64).map(|i| b.wrapping_add(i)).collect();
            wire::encode_pull_reply(&mut payload, a, &versions, &run(params));
        }
        BulkKind::PullReplyDelta => {
            let updates: Vec<(u32, u64, Vec<f32>)> = (0..shards)
                .filter(|i| pick >> (i % 64) & 1 == 1)
                .map(|i| {
                    let (start, end) = shard_range(params, shards, i);
                    (i as u32, b.wrapping_add(i as u64), run(end - start))
                })
                .collect();
            wire::encode_pull_reply_delta(
                &mut payload,
                a,
                updates.iter().map(|(s, v, w)| (*s, *v, w.as_slice())),
            );
        }
    }
    payload
}

/// `payload` as it crosses a socket, followed by the start of a next frame that the
/// reader of this one must leave alone.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut stream = (payload.len() as u32).to_le_bytes().to_vec();
    stream.extend_from_slice(payload);
    stream.extend_from_slice(&[0xee; 9]);
    stream
}

fn wire_error(e: NetError) -> WireError {
    match e {
        NetError::Wire(e) => e,
        other => panic!("expected a wire error, got {other:?}"),
    }
}

/// A bounds-checked reader over a buffered payload, for [`reference_apply_pull_reply`].
struct Payload<'a>(&'a [u8]);

impl<'a> Payload<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.0.len() {
            return Err(WireError::Truncated);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A run's element count, refused when `elem_bytes` per element overrun the payload.
    fn count(&mut self, elem_bytes: usize) -> Result<usize, WireError> {
        let declared = self.u32()? as usize;
        if declared.saturating_mul(elem_bytes) > self.0.len() {
            return Err(WireError::BadLength { declared });
        }
        Ok(declared)
    }

    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, WireError> {
        let bytes = self.take(n * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().unwrap()))
            .collect())
    }

    fn finish(&self) -> Result<(), WireError> {
        match self.0.len() {
            0 => Ok(()),
            extra => Err(WireError::TrailingBytes { extra }),
        }
    }
}

/// The pull-reply reader written a second time, over a buffered payload: a full reply
/// replaces the cache, a delta copies each update into the key range
/// [`shard_range`] gives its shard. It checks what `FrameBody::pull_reply_apply`
/// checks in the same order, so the two agree error for error when a payload has
/// several faults.
fn reference_apply_pull_reply(
    payload: &[u8],
    weights: &mut Vec<f32>,
    versions: &mut Vec<u64>,
) -> Result<PullApplied, WireError> {
    let mut r = Payload(payload);
    match r.take(1)?[0] {
        PULL_REPLY_TAG => {
            let clock = r.u64()?;
            let shards = r.count(8)?;
            *versions = (0..shards).map(|_| r.u64()).collect::<Result<_, _>>()?;
            let declared = r.count(4)?;
            let run = r.f32s(declared)?;
            r.finish()?;
            *weights = run;
            Ok(PullApplied {
                clock,
                full: true,
                shards_updated: shards,
            })
        }
        PULL_REPLY_DELTA_TAG => {
            let clock = r.u64()?;
            // An update is at least its 16 header bytes, which bounds the count.
            let count = r.count(16)?;
            for _ in 0..count {
                let shard = r.u32()?;
                let version = r.u64()?;
                let declared = r.count(4)?;
                let run = r.f32s(declared)?;
                if shard as usize >= versions.len() {
                    return Err(WireError::BadShard { shard });
                }
                let (start, end) = shard_range(weights.len(), versions.len(), shard as usize);
                if declared != end - start {
                    return Err(WireError::BadShard { shard });
                }
                weights[start..end].copy_from_slice(&run);
                versions[shard as usize] = version;
            }
            r.finish()?;
            Ok(PullApplied {
                clock,
                full: false,
                shards_updated: count,
            })
        }
        other => Err(WireError::UnknownTag(other)),
    }
}

/// The owned codec, narrowed the way the streaming reader narrows: another tag is
/// refused before any field is read.
fn decode_as(tag: u8, payload: &[u8]) -> Result<Message, WireError> {
    match payload.first() {
        Some(&other) if other != tag => Err(WireError::UnknownTag(other)),
        _ => decode(payload),
    }
}

/// The reference: the frame is read whole into a buffer, then decoded from it by a
/// reader that is not `FrameBody`.
fn buffered(
    kind: BulkKind,
    stream: &[u8],
    params: usize,
    shards: usize,
) -> Result<Decoded, WireError> {
    let mut payload = Vec::new();
    wire::FrameBody::begin(&mut &stream[..])
        .and_then(|body| body.buffer(&mut payload))
        .map_err(wire_error)?;
    match kind {
        BulkKind::Push => decode_as(PUSH_TAG, &payload).map(|msg| match msg {
            Message::Push {
                iteration,
                trace,
                grads,
            } => Decoded::Push(iteration, trace, bits(&grads)),
            other => unreachable!("tag {PUSH_TAG} decoded as {other:?}"),
        }),
        BulkKind::PushSlice => decode_as(PUSH_SLICE_TAG, &payload).map(|msg| match msg {
            Message::PushSlice {
                iteration,
                epoch,
                trace,
                pull,
                grads,
            } => Decoded::PushSlice(iteration, epoch, trace, pull, bits(&grads)),
            other => unreachable!("tag {PUSH_SLICE_TAG} decoded as {other:?}"),
        }),
        BulkKind::PullReply | BulkKind::PullReplyDelta => {
            let (mut weights, mut versions) = cache(params, shards);
            reference_apply_pull_reply(&payload, &mut weights, &mut versions)
                .map(|applied| Decoded::Pull(applied, bits(&weights), versions))
        }
    }
}

/// The streaming path, over a stream that trickles. Also returns how many bytes of
/// the stream it consumed and the largest capacity it grew a bulk buffer to.
fn streamed(
    kind: BulkKind,
    stream: &[u8],
    params: usize,
    shards: usize,
    steps: &[usize],
) -> (Result<Decoded, WireError>, usize, usize) {
    let mut reader = TrickleReader {
        bytes: stream,
        at: 0,
        steps,
        calls: 0,
    };
    let mut grads = Vec::new();
    let (mut weights, mut versions) = cache(params, shards);
    let decoded = FrameBody::begin(&mut reader).and_then(|body| match kind {
        BulkKind::Push => body
            .push_into(&mut grads)
            .map(|(iteration, trace)| Decoded::Push(iteration, trace, bits(&grads))),
        BulkKind::PushSlice => {
            body.push_slice_into(&mut grads)
                .map(|(iteration, epoch, trace, pull)| {
                    Decoded::PushSlice(iteration, epoch, trace, pull, bits(&grads))
                })
        }
        BulkKind::PullReply | BulkKind::PullReplyDelta => body
            .pull_reply_apply(&mut weights, &mut versions)
            .map(|applied| Decoded::Pull(applied, bits(&weights), versions.clone())),
    });
    let grown = grads.capacity().max(weights.capacity());
    (decoded.map_err(wire_error), reader.at, grown)
}

/// Holds the streaming reader to the buffered one on `payload` (valid or not): same
/// value or same error, no byte read past the frame's declared length, and no bulk
/// buffer grown past what the frame (or the cache it applies to) can hold.
fn assert_streams_like_buffered(
    kind: BulkKind,
    payload: &[u8],
    params: usize,
    shards: usize,
    steps: &[usize],
) -> Result<Decoded, WireError> {
    let stream = framed(payload);
    let reference = buffered(kind, &stream, params, shards);
    let (decoded, consumed, grown) = streamed(kind, &stream, params, shards, steps);
    assert_eq!(
        decoded,
        reference,
        "{kind:?}, payload of {} bytes",
        payload.len()
    );
    assert!(
        consumed <= 4 + payload.len(),
        "{kind:?}: read {consumed} bytes of a {}-byte frame",
        4 + payload.len()
    );
    if decoded.is_ok() {
        assert_eq!(
            consumed,
            4 + payload.len(),
            "{kind:?}: frame not read to its end"
        );
    }
    assert!(
        grown * 4 <= payload.len().max(params * 4),
        "{kind:?}: a buffer grew to {grown} elements for a {}-byte frame",
        payload.len()
    );
    decoded
}

/// Holds [`wire::decode_with_run`] to [`decode`] on `payload` (valid or not): the
/// same verdict, and the same message once the run it kept aside is moved back in.
/// Any other kind leaves the caller's run as it was.
fn assert_decodes_with_run_like_decode(payload: &[u8]) {
    let stale = vec![u64::MAX; 3];
    let mut run = stale.clone();
    let got = wire::decode_with_run(payload, &mut run);
    let reference = decode(payload);
    match (got, &reference) {
        (Ok(mut msg), Ok(_)) => {
            match &mut msg {
                Message::SliceApplied { applied: kept, .. }
                | Message::GroupGrant { counted: kept, .. }
                | Message::PullDelta {
                    known_versions: kept,
                    ..
                }
                | Message::PullShards {
                    known_versions: kept,
                    ..
                } => {
                    assert!(kept.is_empty(), "the run goes to the caller's buffer");
                    *kept = run;
                }
                _ => assert_eq!(run, stale, "another kind wrote the run"),
            }
            assert_eq!(Ok(msg), reference);
        }
        (Err(e), Err(reference)) => assert_eq!(&e, reference),
        (got, _) => panic!("decode_with_run gave {got:?}, decode {reference:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encode_then_decode_is_the_identity(
        variant in 0u32..35,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        c in -1.0e12f64..1.0e12,
        floats in prop::collection::vec(-1.0e6f32..1.0e6, 32),
        float_len in 0usize..33,
        versions in prop::collection::vec(0u64..u64::MAX, 8),
        version_len in 0usize..9,
    ) {
        let msg = build_message(variant, a, b, c, floats, float_len, versions, version_len);
        let mut buf = Vec::new();
        encode(&msg, &mut buf);
        let decoded = decode(&buf);
        prop_assert_eq!(decoded.as_ref(), Ok(&msg));
        assert_decodes_with_run_like_decode(&buf);
    }

    #[test]
    fn every_strict_prefix_is_rejected(
        variant in 0u32..35,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        c in -1.0e12f64..1.0e12,
        floats in prop::collection::vec(-1.0e6f32..1.0e6, 8),
        float_len in 0usize..9,
        versions in prop::collection::vec(0u64..u64::MAX, 4),
        version_len in 0usize..5,
        cut_fraction in 0.0f64..1.0,
    ) {
        let msg = build_message(variant, a, b, c, floats, float_len, versions, version_len);
        let mut buf = Vec::new();
        encode(&msg, &mut buf);
        let cut = ((buf.len() as f64) * cut_fraction) as usize;
        // A strict prefix must never decode into a message. (Strictness matters: a
        // truncated Push must not silently become a shorter gradient vector.)
        prop_assert!(decode(&buf[..cut.min(buf.len().saturating_sub(1))]).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected(
        variant in 0u32..35,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        c in -1.0e12f64..1.0e12,
        floats in prop::collection::vec(-1.0e6f32..1.0e6, 8),
        float_len in 0usize..9,
        versions in prop::collection::vec(0u64..u64::MAX, 4),
        version_len in 0usize..5,
        garbage in 1usize..16,
    ) {
        let msg = build_message(variant, a, b, c, floats, float_len, versions, version_len);
        let mut buf = Vec::new();
        encode(&msg, &mut buf);
        buf.extend(std::iter::repeat_n(0xabu8, garbage));
        prop_assert!(matches!(
            decode(&buf),
            Err(WireError::TrailingBytes { .. }) | Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn declared_vector_lengths_beyond_the_payload_are_rejected(
        iteration in 0u64..u64::MAX,
        declared in 1u32..u32::MAX,
        available in 0usize..16,
    ) {
        // Hand-build a v6 Push (tag, iteration, trace, count) whose gradient count
        // claims more elements than exist.
        let mut buf = vec![2u8];
        buf.extend_from_slice(&iteration.to_le_bytes());
        buf.extend_from_slice(&77u64.to_le_bytes()); // trace id
        buf.extend_from_slice(&declared.to_le_bytes());
        let supplied = (available).min((declared as usize).saturating_sub(1));
        buf.extend(std::iter::repeat_n(0u8, supplied * 4));
        prop_assert!(decode(&buf).is_err());
    }

    #[test]
    fn unknown_tags_are_rejected(
        tag in 36u32..256,
        body in prop::collection::vec(0u32..256, 16),
        body_len in 0usize..17,
    ) {
        // Tags 1..=35 are assigned; everything else (including the reserved 0) must
        // come back as UnknownTag, whatever bytes follow.
        let body: Vec<u8> = body[..body_len.min(body.len())].iter().map(|&b| b as u8).collect();
        for t in [0u8, tag as u8] {
            let mut buf = vec![t];
            buf.extend_from_slice(&body);
            prop_assert!(matches!(decode(&buf), Err(WireError::UnknownTag(x)) if x == t));
        }
    }
    #[test]
    fn streaming_reader_yields_what_the_buffered_decoders_yield(
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        floats in prop::collection::vec(-1.0e6f32..1.0e6, 24),
        params in 40usize..160,
        shards in 1usize..41,
        pick in 0u64..u64::MAX,
        steps in prop::collection::vec(1usize..48, 7),
    ) {
        for kind in BULK_KINDS {
            let payload = bulk_payload(kind, a, b, &floats, params, shards, pick);
            let decoded = assert_streams_like_buffered(kind, &payload, params, shards, &steps);
            prop_assert!(decoded.is_ok(), "{kind:?}: a valid frame must decode: {decoded:?}");
        }
    }

    #[test]
    fn streaming_reader_rejects_what_the_buffered_decoders_reject(
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        floats in prop::collection::vec(-1.0e6f32..1.0e6, 24),
        params in 40usize..96,
        shards in 2usize..12,
        pick in 0u64..u64::MAX,
        steps in prop::collection::vec(1usize..48, 7),
        bump in 1u32..u32::MAX,
    ) {
        for kind in BULK_KINDS {
            // Shard 0 always ships, so the delta has an update to corrupt.
            let payload = bulk_payload(kind, a, b, &floats, params, shards, pick | 1);
            // Every truncation point, the empty frame included.
            for cut in 0..payload.len() {
                let decoded =
                    assert_streams_like_buffered(kind, &payload[..cut], params, shards, &steps);
                prop_assert!(decoded.is_err(), "{kind:?}: a {cut}-byte prefix decoded");
            }
            // One trailing byte.
            let mut trailing = payload.clone();
            trailing.push(0xab);
            let decoded = assert_streams_like_buffered(kind, &trailing, params, shards, &steps);
            prop_assert!(
                matches!(decoded, Err(WireError::TrailingBytes { .. } | WireError::BadLength { .. })),
                "{kind:?}: {decoded:?}"
            );
            // A corrupt count on the first f32 run: larger by `bump` (wrapping — so
            // sometimes smaller), which no longer matches the bytes that follow.
            let count_at = match kind {
                BulkKind::Push => 17,
                BulkKind::PushSlice => 26,
                BulkKind::PullReply => 13 + shards * 8,
                BulkKind::PullReplyDelta => 25,
            };
            let mut corrupt = payload.clone();
            let count = u32::from_le_bytes(corrupt[count_at..count_at + 4].try_into().unwrap());
            corrupt[count_at..count_at + 4]
                .copy_from_slice(&count.wrapping_add(bump).to_le_bytes());
            let decoded = assert_streams_like_buffered(kind, &corrupt, params, shards, &steps);
            prop_assert!(decoded.is_err(), "{kind:?}: a corrupt run count decoded");
        }

        // A delta whose first update names a shard the worker does not have.
        let delta = bulk_payload(BulkKind::PullReplyDelta, a, b, &floats, params, shards, pick | 1);
        let mut stranger = delta.clone();
        stranger[13..17].copy_from_slice(&(shards as u32 + bump % 1000).to_le_bytes());
        let decoded =
            assert_streams_like_buffered(BulkKind::PullReplyDelta, &stranger, params, shards, &steps);
        prop_assert!(matches!(decoded, Err(WireError::BadShard { .. })), "{decoded:?}");
        // A well-formed delta cut for a different layout: shard 0's run is one weight
        // longer than the range this worker derives for it.
        let wider = bulk_payload(BulkKind::PullReplyDelta, a, b, &floats, params + shards, shards, 1);
        let decoded =
            assert_streams_like_buffered(BulkKind::PullReplyDelta, &wider, params, shards, &steps);
        prop_assert_eq!(decoded, Err(WireError::BadShard { shard: 0 }));

        // A length prefix past the cap is refused before anything is sized from it.
        let mut oversized = ((MAX_FRAME_LEN + 1 + (bump as usize % 1024)) as u32)
            .to_le_bytes()
            .to_vec();
        oversized.extend_from_slice(&delta);
        for kind in BULK_KINDS {
            let reference = buffered(kind, &oversized, params, shards);
            let (decoded, consumed, grown) = streamed(kind, &oversized, params, shards, &steps);
            prop_assert!(matches!(decoded, Err(WireError::Oversized { .. })), "{decoded:?}");
            prop_assert_eq!(decoded, reference);
            prop_assert_eq!(consumed, 4);
            prop_assert!(grown <= params);
        }
    }

    #[test]
    fn decoders_survive_arbitrary_byte_mutations(
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        c in -1.0e12f64..1.0e12,
        floats in prop::collection::vec(-1.0e6f32..1.0e6, 24),
        float_len in 0usize..25,
        versions in prop::collection::vec(0u64..u64::MAX, 8),
        version_len in 0usize..9,
        params in 40usize..96,
        shards in 2usize..12,
        pick in 0u64..u64::MAX,
        steps in prop::collection::vec(1usize..48, 7),
        edits in prop::collection::vec(0u64..u64::MAX, 3),
        edit_count in 1usize..4,
        cut in 0u64..u64::MAX,
    ) {
        // Every kind once per case: the four bulk payloads, then the 35 owned kinds.
        for variant in 0..39u32 {
            let mut bytes = match BULK_KINDS.get(variant as usize) {
                Some(&kind) => bulk_payload(kind, a, b, &floats, params, shards, pick | 1),
                None => {
                    let msg = build_message(
                        variant - 4, a, b, c, floats.clone(), float_len, versions.clone(), version_len,
                    );
                    let mut buf = Vec::new();
                    encode(&msg, &mut buf);
                    buf
                }
            };
            // Overwrite one to three bytes anywhere — tag, counts, lengths, runs — with
            // a draw that also depends on the kind, then (half the time) truncate.
            for edit in &edits[..edit_count] {
                let edit = edit.rotate_left(variant);
                let at = (edit >> 8) as usize % bytes.len();
                bytes[at] = edit as u8;
            }
            if cut % 2 == 1 {
                bytes.truncate((cut >> 1) as usize % (bytes.len() + 1));
            }
            // Arbitrary bytes may still be a message; what they may not do is panic a
            // decoder or make one size a buffer from a count the bytes cannot back
            // (the helper's bound, far below `MAX_FRAME_LEN`). Every bulk reader is
            // tried on every kind's bytes, buffered and streaming, and the two must
            // reach the same verdict.
            assert_decodes_with_run_like_decode(&bytes);
            for kind in BULK_KINDS {
                let _ = assert_streams_like_buffered(kind, &bytes, params, shards, &steps);
            }
        }
    }

    #[test]
    fn streaming_writers_produce_the_buffered_encoders_bytes(
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        floats in prop::collection::vec(-1.0e6f32..1.0e6, 24),
        params in 40usize..160,
        shards in 1usize..41,
        pick in 0u64..u64::MAX,
        steps in prop::collection::vec(1usize..48, 7),
    ) {
        let sink = || TrickleWriter { out: Vec::new(), steps: &steps, calls: 0 };
        let reference = |payload: &[u8]| {
            let mut out = Vec::new();
            wire::write_frame_payload(&mut out, payload).unwrap();
            out
        };
        let grads: Vec<f32> = (0..params).map(|i| floats[i % floats.len()]).collect();

        let mut w = sink();
        let written = wire::write_push_frame(&mut w, a, b, &grads).unwrap();
        let mut payload = Vec::new();
        wire::encode_push(&mut payload, a, b, &grads);
        prop_assert_eq!(&w.out, &reference(&payload));
        prop_assert_eq!(written, w.out.len());

        let mut w = sink();
        let pull = a % 2 == 1;
        let written = wire::write_push_slice_frame(&mut w, a, b % 1024, !b, pull, &grads).unwrap();
        let mut payload = Vec::new();
        wire::encode_push_slice(&mut payload, a, b % 1024, !b, pull, &grads);
        prop_assert_eq!(&w.out, &reference(&payload));
        prop_assert_eq!(written, w.out.len());

        // Pull replies through the view the server answers from: full without a
        // record, a delta of the shards `pick` made stale with one — more of them than
        // one vectored write gathers whenever `shards` allows, and none at all when
        // `pick` selects nobody.
        let mut store = ShardedStore::new(grads.clone(), shards);
        let known = store.versions().to_vec();
        for shard in (0..shards).filter(|i| pick >> (i % 64) & 1 == 1) {
            let (start, end) = store.key_range(shard);
            store.apply_shard(shard, &grads[start..end], 0.5);
        }
        for known in [None, Some(known.as_slice())] {
            let view = PullView {
                clock: a,
                versions: store.versions(),
                offsets: store.offsets(),
                weights: store.as_flat(),
                known,
            };
            let mut w = sink();
            let written = view.write_frame(&mut w).unwrap();
            let mut payload = Vec::new();
            view.encode(&mut payload);
            prop_assert_eq!(&w.out, &reference(&payload));
            prop_assert_eq!(written, w.out.len());

            // A shard server's answer to a pulling slice: the ack and the shards in
            // the same gathered writes, numbered from its first global shard.
            let applied: Vec<u64> = (0..shards as u64 % 5).map(|r| b.rotate_left(r as u32)).collect();
            let first = (a % 64) as u32;
            let mut w = sink();
            let written =
                wire::write_slice_applied_frames(&mut w, b, &applied, a, view.shard_updates(first))
                    .unwrap();
            let mut ack = Vec::new();
            wire::encode_slice_applied(&mut ack, b, &applied);
            let mut shards_payload = Vec::new();
            wire::encode_pull_reply_delta(&mut shards_payload, a, view.shard_updates(first));
            let mut expected = reference(&ack);
            expected.extend(reference(&shards_payload));
            prop_assert_eq!(&w.out, &expected);
            prop_assert_eq!(written, w.out.len());
        }
    }
}
