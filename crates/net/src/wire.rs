//! The versioned, length-prefixed binary wire protocol.
//!
//! Every frame on the wire is
//!
//! ```text
//! [ payload length: u32 LE ][ payload ]
//! payload = [ tag: u8 ][ message fields, little-endian ]
//! ```
//!
//! The codec is hand-rolled (no serde — the serde shim only marks types, it does not
//! serialize) and strictly validating: truncated payloads, trailing bytes, unknown
//! tags and oversized frames are all rejected rather than guessed at. `f32`/`f64`
//! values travel as their IEEE-754 bit patterns, so weights and gradients cross the
//! network bitwise intact — the property the cross-substrate equivalence tests rely
//! on. A run travels as a view of its own bytes (only little-endian hosts are
//! supported): one memcpy into a buffered encoder's payload, none on the
//! transports' path, where a streaming writer sends it from where it lies and
//! [`FrameBody`] reads it straight into the buffer it is for.
//!
//! # The message table
//!
//! Every message kind is one row of the `messages!` table below: its tag, the name
//! of its tag constant, the [`HELLO_MAGIC`] prefix if it has one, the names of its
//! borrowed codecs if it has them, and its fields in wire order, fixed-size ones
//! first. Every codec that only restates a row's field order is generated from it:
//! [`Message`], [`Message::tag`], [`encode`], [`decode`], [`decode_with_run`], the
//! borrowed encoders ([`encode_push`], …), the streaming writers
//! ([`write_push_frame`], [`write_push_slice_frame`], [`write_pull_reply_frame`]) and
//! the stream readers ([`FrameBody::push_into`], [`FrameBody::push_slice_into`], the
//! full arm of [`FrameBody::pull_reply_apply`]). One generated body per row puts the
//! fixed fields into a stack header and hands each run over as a view of its own
//! bytes; a buffered encoder appends those parts, a streaming writer sends the length
//! prefix and the parts in one vectored write, and every reader reads the fields back
//! through [`FrameBody`]. Only the `[ShardUpdate]` delta forms are written by hand
//! ([`encode_pull_reply_delta`], [`write_pull_reply_delta_frame`], the delta halves
//! of [`write_slice_applied_frames`] and [`FrameBody::pull_reply_apply`]): they gather
//! up to 16 shards per write and check each shard's key range. Adding a kind is one
//! row plus its handling in the roles that send and receive it. A new or changed row
//! changes the protocol: bump [`PROTOCOL_VERSION`] and recapture
//! `tests/golden_frames.rs`, which pins every kind's bytes and every writer's output.
//!
//! Both transports run the streaming codecs, over a socket or over the bytes of an
//! in-process channel alike.
//!
//! Protocol flow (client = worker, server = parameter server):
//!
//! ```text
//! worker                               server
//!   | -- Hello{version,rank,digest} --> |   handshake, config fingerprint check
//!   | -- Pull ------------------------> |
//!   | <----- PullReply{clock,weights} - |   initial weights (always full)
//!   | == per iteration ================ |
//!   | -- Push{iteration,grads} -------> |   gradients applied, policy consulted
//!   | <-- PushReply{granted_extra} ---- |   the OK (deferred while the policy blocks) ...
//!   | <-- PullReplyDelta{updates} ----- |   ... and, right behind it, the weights
//!   | ================================= |
//!   | -- Done{iterations,...} --------> |   after the final push
//!   | <-- Shutdown{reason} ------------ |   broadcast once every worker is done
//! ```
//!
//! Since protocol v7 a round is **one** round trip: the `OK` carries the weights. The
//! server records the per-shard versions it last shipped to each rank and follows
//! every `PushReply` with a [`Message::PullReplyDelta`] holding only the shards that
//! advanced since — or a full [`Message::PullReply`] when it has no record for the
//! rank, the job runs with delta pulls off, or the record is incompatible. The `OK`
//! of a rank's final push is followed by nothing: both ends know the rank's iteration
//! target from the digest-checked job. An explicit `Pull` happens on first contact
//! and after a server restore only. [`Message::PullDelta`] — the protocol-v2 request
//! that carried the *worker's* cached versions — is still understood by the
//! transports (`WorkerTransport::pull_into`), but `run_worker` no longer sends it and
//! `serve` no longer answers it. Shard key ranges are never carried on the wire: both
//! ends derive them from the parameter count and shard count via
//! [`dssp_ps::shard_range`].
//!
//! # Protocol v3: multi-server groups
//!
//! Version 3 splits the single server into a **coordinator** (clock/policy only) and
//! N **shard servers** (storage only), each owning the contiguous run of global
//! shards `dssp_ps::shard_range(shards, servers, i)` — assignment, like key ranges,
//! is closed-form and never wire-carried. Workers exchange tiny clock messages with
//! the coordinator and bulk weight traffic with the shard servers directly:
//!
//! ```text
//! worker                    coordinator                 shard server i
//!   | -- Hello -------------> |                           |
//!   | ------------------------------ GroupHello --------> |  (rank, topology, digest)
//!   | ------------------------------ PullShards{all} ---> |
//!   | <----------------------------- PullReplyDelta ----- |  (global shard ids)
//!   | == per iteration ====== |                           |
//!   | ------------------------------ PushSlice{pull} ---> |  (server's key range)
//!   | <----------------------------- SliceApplied ------- |  applied[w]: per rank ...
//!   | <----------------------------- PullReplyDelta ----- |  ... and every owned shard
//!   | -- ClockPush ---------> |   gate + policy, no grads |
//!   | <-- GroupGrant -------- |   the OK + counted[w]     |
//!   | ------------------------------ PullShards --------> |  only if a counted push is
//!   | <----------------------------- PullReplyDelta ----- |  missing from the weights
//!   | ======================= |                           |
//!   | -- Done --------------> |                           |
//!   |                         | -- StatsRequest/Reply --> |  (per-server counters)
//!   | <-- Shutdown ---------- | -- Shutdown ------------> |
//! ```
//!
//! Since protocol v8 a group round is **two** exchanges. A [`Message::PushSlice`]
//! with `pull` set is answered with a [`Message::SliceApplied`] — carrying, per rank,
//! the highest iteration the server has applied — and, in the same write, a
//! [`Message::PullReplyDelta`] of every shard the server owns. The worker reads both
//! before it announces the push. The coordinator grants with a
//! [`Message::GroupGrant`] that carries the gate's per-rank push counts at the
//! decision; the worker keeps the weights it holds when every counted push is in
//! them (`counted[w] ≤ applied[w]` on every server) and pulls as before otherwise.
//! A rank's final push asks for no weights and is acked with a [`Message::SliceAck`].
//!
//! Deterministic mode adds a serialization handshake so an N-server group is bitwise
//! equal to a single server: the coordinator answers each `ClockPush` with a
//! [`Message::PushGrant`] in canonical event order, the worker applies its slices and
//! confirms with [`Message::PushApplied`], and each completed pull fan-out is reported
//! with [`Message::PullDone`] before the coordinator dispatches the next mutating
//! event.

use crate::NetError;
use dssp_ps::codec::{LeScalar, RunLen as _};
use std::borrow::Cow;
use std::io::{self, IoSlice, Read, Write};

/// The result of a frame read: a [`WireError`] or a failure of the stream under it.
type Result<T, E = NetError> = std::result::Result<T, E>;

/// Protocol version carried in [`Message::Hello`]; peers with a different version are
/// rejected during the handshake. Version 2 added the incremental pull pair
/// ([`Message::PullDelta`] / [`Message::PullReplyDelta`]); version 3 added the
/// multi-server group messages ([`Message::GroupHello`], the `ClockPush`/`ClockGrant`
/// clock channel, shard-scoped `PushSlice`/`PullShards`, and the deterministic-mode
/// and stats handshakes); version 5 added live shard migration (the epoch-stamped
/// `Migrate*`/`LayoutUpdate`/`EpochRefused` family, layout epochs on the bulk
/// messages, and the `Drain`/`Rebalance` admin channel); version 6 added the causal
/// trace id — a `(rank, seq)` pair packed into a `u64` (see `dssp_core::events`) —
/// to every worker-originated operation (`Push`, `Pull`, `PullDelta`, `ClockPush`,
/// `PushSlice`, `PullShards`) and to the coordinator-driven migration legs
/// (`MigrateRequest`, `MigrateShard`), so receivers can stamp the id into their
/// event logs and the offline analyzer can join per-role timelines; version 7 changed
/// no frame layout but fused the single-server round — every `PushReply` except the
/// one answering a rank's final push is followed by a pull reply the worker did not
/// ask for — so a v6 peer, which would wait for a request that never comes, is
/// refused at the handshake; version 8 fused the group round the same way:
/// `PushSlice` gained its `pull` flag, answered with the new `SliceApplied` plus every
/// owned shard, and the coordinator grants with the new `GroupGrant`, whose per-rank
/// push counts say whether those weights may be kept.
pub const PROTOCOL_VERSION: u16 = 8;

/// The `shard` value in a [`Message::MigrateAck`] acknowledging a control step
/// (prepare or commit) rather than one shard's transfer.
pub const MIGRATE_CONTROL: u32 = u32::MAX;

/// Magic number opening every `Hello` payload (`b"DSSP"` little-endian).
pub const HELLO_MAGIC: u32 = u32::from_le_bytes(*b"DSSP");

/// Upper bound on a frame payload (256 MiB ≈ a 64M-parameter pull); larger length
/// prefixes are rejected before any allocation happens.
pub const MAX_FRAME_LEN: usize = 256 * 1024 * 1024;

/// Shutdown reason: the run completed normally.
pub const SHUTDOWN_OK: u8 = 0;
/// Shutdown reason: the server failed or aborted; workers must discard the run.
pub const SHUTDOWN_SERVER_ERROR: u8 = 1;

/// One shard's contribution to a [`Message::PullReplyDelta`]: the weights of a shard
/// whose version advanced past what the client reported knowing.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardUpdate {
    /// Shard index in the server's [`dssp_ps::ShardedStore`].
    pub shard: u32,
    /// The shard's update version after this delta is applied.
    pub version: u64,
    /// The shard's current weights (its full key range).
    pub weights: Vec<f32>,
}

// ---------------------------------------------------------------------------
// The message table
// ---------------------------------------------------------------------------

/// Generates the protocol from its table (see the module docs). A row is
///
/// ```text
/// tag TAG_NAME Kind [MAGIC]? (=> encoder (, writer, reader)?)? ({ fixed: ty, ..; run: ty, .. })?,
/// ```
///
/// with the fields in wire order, each a [`Field`] type: the fixed-size ones (`u8`,
/// `u16`, `u32`, `u64`, `f64`, `bool`), then, after a `;`, the length-prefixed runs
/// (`[f32]`, `[u32]`, `[u64]`, `[ShardUpdate]`, `str`). A [`Message`] holds a run as a
/// `Vec` and `str` as a `String`; the borrowed codecs take them as slices. A row
/// without fields is a unit variant.
macro_rules! messages {
    ($(
        $(#[$doc:meta])*
        $tag:literal $tag_name:ident $kind:ident $([$magic:ident])?
        $(=> $encoder:ident $(, $writer:ident, $reader_vis:vis $reader:ident)?)?
        $({
            $( $(#[$fixed_doc:meta])* $fixed:ident: $fixed_ty:tt ),*
            $(; $( $(#[$run_doc:meta])* $run:ident: $run_ty:tt ),+ )? $(,)?
        })?
    ),* $(,)?) => {
        /// One protocol message.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Message {
            $(
                $(#[$doc])*
                $kind $({
                    $( $(#[$fixed_doc])* $fixed: $fixed_ty, )*
                    $($( $(#[$run_doc])* $run: owned!($run_ty), )+)?
                })?,
            )*
        }

        $(
            #[doc = concat!("Payload tag of [`Message::", stringify!($kind), "`].")]
            pub(crate) const $tag_name: u8 = $tag;
        )*

        impl Message {
            /// The payload tag identifying this message kind on the wire.
            pub fn tag(&self) -> u8 {
                match self {
                    $( Message::$kind { .. } => $tag_name, )*
                }
            }
        }

        /// Serializes `msg` into a payload (tag + fields, no length prefix), appending
        /// to `buf`.
        pub fn encode(msg: &Message, buf: &mut Vec<u8>) {
            match msg {
                $( Message::$kind { $($($fixed,)* $($($run,)+)?)? } => {
                    frame!($tag_name $([$magic])?; $($($fixed,)* $($($run,)+)?)?).append(buf)
                } )*
            }
        }

        /// Deserializes one payload produced by [`encode`]. Strict: rejects unknown tags,
        /// a hello without [`HELLO_MAGIC`], truncation and trailing bytes.
        pub fn decode(payload: &[u8]) -> Result<Message, WireError> {
            read_payload(payload, |mut body| {
                let msg = match body.tag {
                    $( $tag_name => {
                        $(
                            let magic = body.field::<u32>()?;
                            if magic != $magic {
                                return Err(WireError::BadMagic(magic).into());
                            }
                        )?
                        Message::$kind { $(
                            $( $fixed: body.field::<$fixed_ty>()?, )*
                            $($( $run: body.field::<$run_ty>()?, )+)?
                        )? }
                    } )*
                    other => return Err(WireError::UnknownTag(other).into()),
                };
                body.finish()?;
                Ok(msg)
            })
        }

        /// Decodes one payload like [`decode`], except that the `[u64]` run of a kind
        /// whose one length-prefixed field it is ([`Message::PullDelta`],
        /// [`Message::PullShards`], [`Message::SliceApplied`], [`Message::GroupGrant`])
        /// goes into the caller-owned `run` (overwritten; no allocation once warm) and the
        /// message comes back holding an empty one. No other kind writes to `run`.
        pub fn decode_with_run(payload: &[u8], run: &mut Vec<u64>) -> Result<Message, WireError> {
            read_payload(payload, |mut body| {
                $( with_run!(body run $kind $tag_name $([$magic])?;
                    $($($fixed: $fixed_ty),*)?; $($($($run: $run_ty),+)?)?); )*
                Ok(decode(payload)?)
            })
        }

        $( row_codecs!($kind $tag_name $([$magic])?
            $(=> $encoder $(, $writer, $reader_vis $reader)?)?;
            $($($fixed: $fixed_ty),*)?; $($($($run: $run_ty),+)?)?); )*
    };
}

/// A run as a [`Message`] holds it.
macro_rules! owned {
    ([$t:ty]) => { Vec<$t> };
    (str) => { String };
}

/// A run as the borrowed codecs take it, borrowed for `$lt`.
macro_rules! borrowed {
    ($lt:lifetime [$t:ty]) => { &$lt [$t] };
    ($lt:lifetime str) => { &$lt str };
}

/// The one body that lays a row's payload out: a [`Frame`] of the tag, the magic and
/// the fields, in wire order.
macro_rules! frame {
    ($tag_name:ident $([$magic:ident])?; $($field:ident,)*) => {{
        let mut frame = Frame { head: [0; 64], len: 4, runs: Default::default(), count: 0 };
        frame.fixed(&[$tag_name]);
        $( (&$magic).put(&mut frame); )?
        $( $field.put(&mut frame); )*
        frame
    }};
}

/// A row's early return in [`decode_with_run`], for a row whose one length-prefixed
/// field is a `[u64]` run; any other row adds nothing.
macro_rules! with_run {
    ($body:ident $buf:ident $kind:ident $tag_name:ident;
     $($fixed:ident: $fixed_ty:tt),*; $run:ident: [u64]) => {
        if $body.tag == $tag_name {
            let msg = Message::$kind { $($fixed: $body.field::<$fixed_ty>()?,)* $run: Vec::new() };
            <[u64] as Field>::read(&mut $body, $buf)?;
            $body.finish()?;
            return Ok(msg);
        }
    };
    ($($other:tt)*) => {};
}

/// A row's borrowed codecs, when it names them: its [`Frame`] constructor and the
/// encoder that appends that frame to a buffer, and for a streamed row the writer that
/// writes it and the [`FrameBody`] reader that reads it back.
macro_rules! row_codecs {
    ($kind:ident $tag_name:ident $([$magic:ident])?; $($rest:tt)*) => {};
    ($kind:ident $tag_name:ident $([$magic:ident])? => $encoder:ident;
     $($fixed:ident: $fixed_ty:tt),*; $($run:ident: $run_ty:tt),*) => {
        impl<'a> Frame<'a> {
            #[allow(non_snake_case)]
            fn $kind($($fixed: &'a $fixed_ty,)* $($run: borrowed!('a $run_ty)),*) -> Self {
                frame!($tag_name $([$magic])?; $($fixed,)* $($run,)*)
            }
        }

        #[doc = concat!(
            "Appends a [`Message::", stringify!($kind), "`] payload built from borrowed ",
            "fields: byte for byte what [`encode`] appends for the owned message."
        )]
        pub fn $encoder(
            buf: &mut Vec<u8>,
            $($fixed: $fixed_ty,)* $($run: borrowed!('_ $run_ty)),*
        ) {
            Frame::$kind($(&$fixed,)* $($run),*).append(buf)
        }
    };
    ($kind:ident $tag_name:ident => $encoder:ident, $writer:ident, $reader_vis:vis $reader:ident;
     $($fixed:ident: $fixed_ty:tt),*; $($run:ident: $run_ty:tt),*) => {
        row_codecs!($kind $tag_name => $encoder; $($fixed: $fixed_ty),*; $($run: $run_ty),*);

        #[doc = concat!(
            "Writes a [`Message::", stringify!($kind), "`] frame straight from borrowed ",
            "fields, in one vectored write of a stack header and each run's own bytes: byte ",
            "for byte [`", stringify!($encoder), "`] and [`write_frame_payload`]. Returns the ",
            "bytes written, length prefix included."
        )]
        pub fn $writer<W: Write + ?Sized>(
            w: &mut W,
            $($fixed: $fixed_ty,)* $($run: borrowed!('_ $run_ty)),*
        ) -> io::Result<usize> {
            Frame::$kind($(&$fixed,)* $($run),*).write(w)
        }

        impl<R: Read + ?Sized> FrameBody<'_, R> {
            #[doc = concat!(
                "Streams a [`Message::", stringify!($kind), "`]: returns its fixed fields in ",
                "wire order and reads each run straight into the caller's buffer (resized to ",
                "the run). Same values and errors as [`decode`] on the buffered frame, once ",
                "the tag is known to be this kind's."
            )]
            $reader_vis fn $reader(
                mut self,
                $($run: &mut owned!($run_ty)),*
            ) -> Result<($($fixed_ty,)*)> {
                if self.tag != $tag_name {
                    return Err(WireError::UnknownTag(self.tag).into());
                }
                let fixed = ($(self.field::<$fixed_ty>()?,)*);
                $( <$run_ty as Field>::read(&mut self, $run)?; )*
                self.finish()?;
                Ok(fixed)
            }
        }
    };
}

messages! {
    /// Worker → server: connection handshake.
    1 TAG_HELLO Hello [HELLO_MAGIC] {
        /// Protocol version ([`PROTOCOL_VERSION`]).
        version: u16,
        /// The worker's rank, in `0..num_workers`.
        rank: u32,
        /// Number of workers the sender believes the job has.
        num_workers: u32,
        /// Fingerprint of the sender's `JobConfig` (`JobConfig::digest`); the server
        /// refuses workers whose training configuration differs from its own.
        config_digest: u64,
    },
    /// Worker → server: gradients of one completed iteration (1-based).
    2 TAG_PUSH Push => encode_push, write_push_frame, pub push_into {
        /// 1-based iteration number of this push.
        iteration: u64,
        /// Causal trace id (`dssp_core::events::trace_id`), or 0 for untraced.
        trace: u64;
        /// Flat gradient vector.
        grads: [f32],
    },
    /// Server → worker: the `OK` of Algorithm 1 — the worker may start its next
    /// iteration. Sent immediately or deferred, according to the policy.
    3 TAG_PUSH_REPLY PushReply {
        /// Extra iterations the DSSP controller granted at this push (`r*`; 0 for
        /// catch-up releases and non-DSSP policies).
        granted_extra: u64,
        /// Server weight version when the reply was issued.
        version: u64,
    },
    /// Worker → server: request the current global weights in full (first contact, or
    /// delta pulls disabled).
    4 TAG_PULL Pull => encode_pull {
        /// Causal trace id (`dssp_core::events::trace_id`), or 0 for untraced.
        trace: u64,
    },
    /// Server → worker: the current global weights.
    5 TAG_PULL_REPLY PullReply => encode_pull_reply, write_pull_reply_frame, pull_reply_into {
        /// Server weight version (total pushes applied).
        clock: u64;
        /// Per-shard update versions of the server's `ShardedStore`, in shard order.
        shard_versions: [u64],
        /// The flat weight vector.
        weights: [f32],
    },
    /// Worker → server: all iterations complete (sent after the final push, without
    /// waiting for its reply).
    6 TAG_DONE Done {
        /// Iterations the worker completed.
        iterations: u64,
        /// Epochs the worker completed.
        epochs: u64,
        /// Wall-clock seconds the worker spent waiting for deferred `OK`s.
        waiting_time_s: f64,
    },
    /// Server → worker (broadcast): the run is over; the worker process exits.
    7 TAG_SHUTDOWN Shutdown {
        /// [`SHUTDOWN_OK`] or [`SHUTDOWN_SERVER_ERROR`].
        reason: u8,
    },
    /// Worker → server: request only the shards that advanced past the worker's cached
    /// per-shard versions (from its previous pull reply). Answered with
    /// [`Message::PullReplyDelta`], or a full [`Message::PullReply`] when the version
    /// vector is incompatible.
    8 TAG_PULL_DELTA PullDelta => encode_pull_delta {
        /// Causal trace id (`dssp_core::events::trace_id`), or 0 for untraced.
        trace: u64;
        /// The per-shard versions the worker already holds, in shard order.
        known_versions: [u64],
    },
    /// Server → worker: the incremental pull reply — only the shards whose version
    /// advanced past the client's `known_versions`. May be empty (nothing changed).
    /// Its borrowed encoder, [`encode_pull_reply_delta`], takes the updates as an
    /// iterator.
    9 TAG_PULL_REPLY_DELTA PullReplyDelta {
        /// Server weight version (total pushes applied).
        clock: u64;
        /// The stale shards' fresh weights, in ascending shard order.
        updates: [ShardUpdate],
    },
    /// Client → shard server: the group-topology handshake (protocol v3). Sent by
    /// workers (`rank < num_workers`) and by the coordinator (`rank == num_workers`,
    /// the extra client slot every shard server reserves). The server refuses clients
    /// whose topology or job configuration differs from its own.
    10 TAG_GROUP_HELLO GroupHello [HELLO_MAGIC] {
        /// Protocol version ([`PROTOCOL_VERSION`]).
        version: u16,
        /// The client's rank: `0..num_workers` for workers, `num_workers` for the
        /// coordinator.
        rank: u32,
        /// Number of workers the sender believes the job has.
        num_workers: u32,
        /// Fingerprint of the sender's `JobConfig` (covers shard count, server count
        /// and delta-pull mode).
        config_digest: u64,
        /// Number of shard servers the sender believes the group has.
        servers: u32,
        /// The index of the shard server the sender believes it is talking to.
        server_index: u32,
    },
    /// Worker → coordinator: the clock half of a push — "iteration `iteration`'s
    /// gradients are with the shard servers; may I proceed?" Carries no gradients:
    /// this is the tiny message that keeps the coordinator off the bulk data path.
    11 TAG_CLOCK_PUSH ClockPush {
        /// 1-based iteration number of the push.
        iteration: u64,
        /// Causal trace id (`dssp_core::events::trace_id`), or 0 for untraced.
        trace: u64,
    },
    /// Coordinator → worker: the `OK` of Algorithm 1 for a group run before protocol
    /// v8, which grants with [`Message::GroupGrant`] instead. No role of the program
    /// sends it any more; the row stays for callers that time a bare clock hop.
    12 TAG_CLOCK_GRANT ClockGrant {
        /// Extra iterations the DSSP controller granted at this push (`r*`).
        granted_extra: u64,
        /// Coordinator clock (total pushes) when the grant was issued.
        version: u64,
    },
    /// Coordinator → worker (deterministic mode only): the worker's `ClockPush` has
    /// been released in canonical order — apply the gradient slices to the shard
    /// servers now and confirm with [`Message::PushApplied`].
    13 TAG_PUSH_GRANT PushGrant,
    /// Worker → coordinator (deterministic mode only): every shard server acked this
    /// iteration's gradient slices; the coordinator may advance the clock and dispatch
    /// the next event.
    14 TAG_PUSH_APPLIED PushApplied {
        /// 1-based iteration number of the applied push.
        iteration: u64,
    },
    /// Worker → shard server: the gradient slice covering exactly the server's owned
    /// key range, for one iteration. Always acknowledged once applied — with
    /// [`Message::SliceAck`], or with [`Message::SliceApplied`] and the server's
    /// shards when `pull` is set — so a worker's `Done` implies every slice it pushed
    /// is in the weights.
    15 TAG_PUSH_SLICE PushSlice => encode_push_slice, write_push_slice_frame, pub push_slice_into {
        /// 1-based iteration number of this push.
        iteration: u64,
        /// The layout epoch the sender sliced against. A server at a different epoch
        /// refuses the slice with [`Message::EpochRefused`] instead of applying it to
        /// the wrong key range.
        epoch: u64,
        /// Causal trace id (`dssp_core::events::trace_id`), or 0 for untraced.
        trace: u64,
        /// Answer with [`Message::SliceApplied`] followed by a
        /// [`Message::PullReplyDelta`] of every owned shard (global indices), written
        /// straight after the apply: the group round's pull, fused into its push.
        pull: bool;
        /// The gradient run for the server's key range (its owned shards, in order).
        grads: [f32],
    },
    /// Shard server → worker: the slice of a [`Message::PushSlice`] has been applied.
    16 TAG_SLICE_ACK SliceAck {
        /// The server's local weight version (slice pushes applied) after this one.
        version: u64,
    },
    /// Client → shard server: a shard-scoped pull. `known_versions` holds the
    /// client's cached versions of exactly the server's owned shards, in owned order;
    /// with `all` set (or an incompatible vector) the server ships every owned shard,
    /// otherwise only the stale ones. Answered with a [`Message::PullReplyDelta`]
    /// whose updates carry **global** shard indices, so the client applies them to its
    /// whole-model buffers with the ordinary global-layout [`apply_pull_reply`] path.
    17 TAG_PULL_SHARDS PullShards => encode_pull_shards {
        /// Ship every owned shard regardless of staleness (full fan-out pull).
        all: bool,
        /// The layout epoch the sender routed against (see [`Message::PushSlice`]).
        epoch: u64,
        /// Causal trace id (`dssp_core::events::trace_id`), or 0 for untraced.
        trace: u64;
        /// The client's cached per-shard versions of the server's owned shards.
        known_versions: [u64],
    },
    /// Worker → coordinator (deterministic mode only): the worker's pull fan-out
    /// completed on every shard server; mutating events may be dispatched again.
    18 TAG_PULL_DONE PullDone,
    /// Coordinator → shard server: report your storage/transport counters (sent once,
    /// when the run ends, so group traces aggregate per-server statistics).
    19 TAG_STATS_REQUEST StatsRequest,
    /// Shard server → coordinator: the counters a [`Message::StatsRequest`] asked for.
    20 TAG_STATS_REPLY StatsReply {
        /// Gradient-slice pushes applied.
        pushes: u64,
        /// Pulls answered with every owned shard.
        pulls_full: u64,
        /// Pulls answered incrementally.
        pulls_delta: u64,
        /// Bytes written to this server's sockets, frame headers included.
        bytes_sent: u64,
        /// Bytes read from this server's sockets, frame headers included.
        bytes_received: u64,
        /// The layout epoch the server is serving at — the coordinator's restore-skew
        /// check compares this against its own checkpointed epoch.
        epoch: u64,
    },
    /// Worker → coordinator: ask to be admitted to (or rejoin) the run. Sent right
    /// after the handshake; a fresh worker is admitted at clock 0, a restarted worker
    /// at whatever push count the coordinator has recorded for its rank.
    21 TAG_JOIN_REQUEST JoinRequest,
    /// Coordinator → worker: admission granted at `clock` (the number of this rank's
    /// pushes the coordinator has already counted). A restarted worker fast-forwards
    /// its batch schedule past `clock` iterations and resumes at `clock + 1`.
    22 TAG_JOIN_ACK JoinAck {
        /// Pushes already recorded for the joining worker's rank.
        clock: u64,
        /// The group's current layout epoch (0 for single-server runs and
        /// never-migrated groups).
        epoch: u64;
        /// The current shard → server assignment; empty for single-server runs and
        /// epoch-0 groups (where the joiner derives the closed form itself).
        assignment: [u32],
    },
    /// Coordinator → shard servers (or chaos driver → coordinator): worker `rank` is
    /// gone for good; reap its pending state via the eviction path instead of waiting
    /// on it.
    23 TAG_EVICT Evict {
        /// Rank of the departed worker.
        rank: u32,
    },
    /// Coordinator → shard server: a migration toward `epoch` is starting — freeze.
    /// Until the matching [`Message::LayoutUpdate`] or [`Message::MigrateAbort`]
    /// arrives, the server refuses every push and pull with
    /// [`Message::EpochRefused`]. Acked with a control [`Message::MigrateAck`].
    24 TAG_MIGRATE_PREPARE MigratePrepare {
        /// The epoch the group is migrating **to**.
        epoch: u64,
    },
    /// Coordinator → source shard server: extract one migrating shard (weights,
    /// momentum slice and version) and reply with [`Message::MigrateShard`].
    25 TAG_MIGRATE_REQUEST MigrateRequest {
        /// The epoch the group is migrating to (must match the prepared one).
        epoch: u64,
        /// Global index of the shard to extract.
        shard: u32,
        /// Causal trace id of this migration leg (rank slot `num_workers`), or 0.
        trace: u64,
    },
    /// One migrating shard's complete state. Source server → coordinator in reply to
    /// [`Message::MigrateRequest`]; relayed verbatim coordinator → destination server
    /// (servers never dial each other — the coordinator owns the only server links).
    26 TAG_MIGRATE_SHARD MigrateShard {
        /// The epoch the group is migrating to.
        epoch: u64,
        /// Global index of the shard.
        shard: u32,
        /// The shard's update version (carried so the destination's version vector
        /// stays bitwise-equal to a never-migrated group's).
        version: u64,
        /// Causal trace id of this migration leg (rank slot `num_workers`), or 0.
        trace: u64;
        /// The shard's weights (its full key range).
        weights: [f32],
        /// The shard's SGD momentum slice, same length as `weights` (empty when the
        /// job runs without momentum).
        velocity: [f32],
    },
    /// Shard server → coordinator: a migration step landed. `shard` is the staged
    /// shard's index for transfer acks, [`MIGRATE_CONTROL`] for prepare/commit acks.
    27 TAG_MIGRATE_ACK MigrateAck {
        /// The epoch the group is migrating to.
        epoch: u64,
        /// The acknowledged shard, or [`MIGRATE_CONTROL`].
        shard: u32,
    },
    /// Coordinator → everyone: the migration **committed** — this is the new layout.
    /// Shard servers rebuild their stores from staged + retained shards and unfreeze;
    /// workers re-route their fan. Servers ack with a control
    /// [`Message::MigrateAck`]; workers adopt silently.
    28 TAG_LAYOUT_UPDATE LayoutUpdate {
        /// The now-current layout epoch.
        epoch: u64;
        /// The now-current shard → server assignment.
        assignment: [u32],
    },
    /// Coordinator → shard servers: the migration toward `epoch` is **rolled back** —
    /// discard staged shards, unfreeze, keep serving the old layout.
    29 TAG_MIGRATE_ABORT MigrateAbort {
        /// The abandoned target epoch.
        epoch: u64,
    },
    /// Shard server → client: a typed, retryable refusal of an epoch-mismatched push
    /// or pull. With an empty `assignment` the server is frozen mid-migration (retry
    /// after a short wait); with a non-empty one the server has already committed a
    /// newer layout the client should adopt before retrying.
    30 TAG_EPOCH_REFUSED EpochRefused {
        /// The epoch the server is at (or migrating to, while frozen).
        epoch: u64;
        /// The committed assignment to adopt, or empty while frozen.
        assignment: [u32],
    },
    /// Admin client → coordinator: drain shard server `server` (move its shards to a
    /// neighbor at the next round boundary, leaving it empty for decommission).
    31 TAG_DRAIN Drain {
        /// Index of the server to drain.
        server: u32,
    },
    /// Admin client → coordinator: rebalance the shards over the active servers at
    /// the next round boundary.
    32 TAG_REBALANCE Rebalance,
    /// Coordinator → admin client: the verdict on a [`Message::Drain`] or
    /// [`Message::Rebalance`] command, sent after the migration commits (or refuses).
    33 TAG_ADMIN_ACK AdminAck {
        /// The layout epoch after the command was handled.
        epoch: u64,
        /// Whether the migration committed.
        accepted: bool;
        /// Why the command was refused; empty on success.
        reason: str,
    },
    /// Shard server → worker: the slice of a [`Message::PushSlice`] with `pull` set
    /// has been applied. A [`Message::PullReplyDelta`] of every shard the server
    /// owns follows in the same write; `applied` says which pushes those weights hold.
    34 TAG_SLICE_APPLIED SliceApplied => encode_slice_applied {
        /// The server's local weight version (slice pushes applied) after this one.
        version: u64;
        /// Per rank, the highest iteration the server has applied from it since it
        /// started (a restored server starts from zeros).
        applied: [u64],
    },
    /// Coordinator → worker: the `OK` of Algorithm 1 for a group run (the group
    /// analogue of [`Message::PushReply`]). Sent immediately or deferred, according to
    /// the policy.
    35 TAG_GROUP_GRANT GroupGrant {
        /// Extra iterations the DSSP controller granted at this push (`r*`).
        granted_extra: u64,
        /// Coordinator clock (total pushes) when the grant was issued.
        version: u64;
        /// Per rank, the pushes the gate had counted when it decided. The worker's
        /// weights must hold every one of them.
        counted: [u64],
    },
}

/// A decoding failure. Every variant means the frame is unusable; the connection
/// should be torn down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the message was complete.
    Truncated,
    /// The payload had bytes left over after the message was complete.
    TrailingBytes {
        /// How many bytes were left.
        extra: usize,
    },
    /// The payload tag is not a known message kind (or a `bool` field is neither 0
    /// nor 1).
    UnknownTag(u8),
    /// The frame length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// The declared payload length.
        len: usize,
    },
    /// A `Hello` payload did not open with [`HELLO_MAGIC`].
    BadMagic(u32),
    /// An embedded vector declares more elements than the payload can hold.
    BadLength {
        /// The declared element count.
        declared: usize,
    },
    /// A delta update references a shard the receiver does not have, or its weight
    /// run does not match that shard's key range.
    BadShard {
        /// The offending shard index.
        shard: u32,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after message")
            }
            WireError::UnknownTag(tag) => write!(f, "unknown message tag {tag}"),
            WireError::Oversized { len } => {
                write!(
                    f,
                    "frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
                )
            }
            WireError::BadMagic(m) => write!(f, "bad Hello magic {m:#010x}"),
            WireError::BadLength { declared } => {
                write!(
                    f,
                    "embedded vector declares {declared} elements beyond payload end"
                )
            }
            WireError::BadShard { shard } => {
                write!(
                    f,
                    "delta update for shard {shard} does not fit the receiver"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Field types
// ---------------------------------------------------------------------------

/// A wire type of the message table: how a value goes into a [`Frame`], and how it is
/// read back, strictly. The trait is private, so the impls below are every type a row
/// can name.
trait Field {
    /// What a [`Message`] holds: the type itself, or a `Vec` / `String` for a run.
    type Owned: Default;
    fn put<'a>(&'a self, frame: &mut Frame<'a>);
    /// Reads one value over `into`; a run reuses its buffer.
    fn read<R: Read + ?Sized>(body: &mut FrameBody<'_, R>, into: &mut Self::Owned) -> Result<()>;
}

/// A scalar is its little-endian bytes; an `f64`, its bit pattern's.
macro_rules! scalar_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            type Owned = $t;
            fn put<'a>(&'a self, frame: &mut Frame<'a>) {
                frame.fixed(&self.to_le_bytes());
            }
            fn read<R: Read + ?Sized>(body: &mut FrameBody<'_, R>, into: &mut $t) -> Result<()> {
                *into = <$t>::from_le_bytes(body.take()?);
                Ok(())
            }
        }
    )*};
}
scalar_field!(u8, u16, u32, u64, f64);

/// A `bool` is one byte, 0 or 1; any other byte is [`WireError::UnknownTag`].
impl Field for bool {
    type Owned = bool;
    fn put<'a>(&'a self, frame: &mut Frame<'a>) {
        frame.fixed(&[u8::from(*self)]);
    }
    fn read<R: Read + ?Sized>(body: &mut FrameBody<'_, R>, into: &mut bool) -> Result<()> {
        *into = match body.take()? {
            [0] => false,
            [1] => true,
            [other] => return Err(WireError::UnknownTag(other).into()),
        };
        Ok(())
    }
}

/// A run: its `u32` count into the frame's header, its elements as a view of their own
/// bytes, and read back straight into the buffer they are for.
impl<T: LeScalar + Default> Field for [T] {
    type Owned = Vec<T>;
    fn put<'a>(&'a self, frame: &mut Frame<'a>) {
        frame.fixed(&u32::from_len(self.len()).to_le_bytes());
        frame.run(Cow::Borrowed(le_bytes(self)));
    }
    fn read<R: Read + ?Sized>(body: &mut FrameBody<'_, R>, into: &mut Vec<T>) -> Result<()> {
        let len = body.run_len(std::mem::size_of::<T>())?;
        into.resize(len, T::default());
        body.scalars(into)
    }
}

/// A string: its `u32` byte count, then the bytes (read back lossily as UTF-8). A count
/// past the frame's end is [`WireError::Truncated`].
impl Field for str {
    type Owned = String;
    fn put<'a>(&'a self, frame: &mut Frame<'a>) {
        frame.fixed(&u32::from_len(self.len()).to_le_bytes());
        frame.run(Cow::Borrowed(self.as_bytes()));
    }
    fn read<R: Read + ?Sized>(body: &mut FrameBody<'_, R>, into: &mut String) -> Result<()> {
        let len = body.field::<u32>()? as usize;
        if len > body.left {
            return Err(WireError::Truncated.into());
        }
        let mut bytes = vec![0; len];
        body.scalars(&mut bytes)?;
        *into = String::from_utf8_lossy(&bytes).into_owned();
        Ok(())
    }
}

/// The updates of a delta reply: their `u32` count, then per update its shard, version
/// and weight run. The owned message hands them to the frame as one run, laid out by
/// the borrowed delta encoder.
impl Field for [ShardUpdate] {
    type Owned = Vec<ShardUpdate>;
    fn put<'a>(&'a self, frame: &mut Frame<'a>) {
        let mut payload = Vec::new();
        let updates = self.iter().map(|u| (u.shard, u.version, &u.weights[..]));
        encode_pull_reply_delta(&mut payload, 0, updates);
        frame.run(Cow::Owned(payload.split_off(9))); // past the tag and the clock
    }
    fn read<R: Read + ?Sized>(body: &mut FrameBody<'_, R>, into: &mut Self::Owned) -> Result<()> {
        // An update is at least its 16 header bytes, which bounds the count.
        let count = body.run_len(16)?;
        into.clear();
        for _ in 0..count {
            into.push(ShardUpdate {
                shard: body.field::<u32>()?,
                version: body.field::<u64>()?,
                weights: body.field::<[f32]>()?,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Zero-copy views: on a little-endian host a run's in-memory bytes *are* its wire
// bytes, so every writer appends a run, and `FrameBody` reads one, through a plain byte
// view of its slice. The two views below are the only `unsafe` in this crate. Only
// little-endian hosts are supported: a big-endian build stops here.
// ---------------------------------------------------------------------------

#[cfg(not(target_endian = "little"))]
compile_error!(
    "dssp-net supports little-endian hosts only: its runs travel as their in-memory bytes"
);

/// The wire bytes of a bulk run: its own bytes, viewed in place.
fn le_bytes<T: LeScalar>(values: &[T]) -> &[u8] {
    // SAFETY: `T` is one of `dssp_ps::codec`'s sealed `LeScalar`s (`u8`, `u16`, `u32`,
    // `u64`, `f32`, `f64`): it has no padding, so all `size_of_val(values)` bytes are
    // initialized; `u8` has alignment 1; and the view borrows `values`, so it can
    // neither outlive the run nor overlap a mutable use of it.
    unsafe {
        std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), std::mem::size_of_val(values))
    }
}

/// The wire bytes of a run, viewed in place for writing — what lets a socket read land
/// in a gradient, weight or version buffer without a staging copy.
fn le_bytes_mut<T: LeScalar>(values: &mut [T]) -> &mut [u8] {
    // SAFETY: as in `le_bytes`; in addition every bit pattern is a valid value of each
    // sealed `LeScalar`, so no write through the view can leave the run holding an
    // invalid value, and the view holds the unique borrow of `values` for as long as it
    // lives.
    unsafe {
        std::slice::from_raw_parts_mut(
            values.as_mut_ptr().cast::<u8>(),
            std::mem::size_of_val(values),
        )
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// One message laid out by the table's body without copying a run: the length prefix
/// and every fixed-size field (a run's count too) in a stack header, which holds the
/// largest row's, and each run (two at most) a view of its own bytes, with the header
/// offset it follows. [`Frame::append`] encodes it, [`Frame::write`] streams it.
struct Frame<'a> {
    head: [u8; 64],
    /// Header bytes in use, the four of the length prefix included.
    len: usize,
    runs: [(usize, Cow<'a, [u8]>); 2],
    count: usize,
}

impl<'a> Frame<'a> {
    fn fixed(&mut self, bytes: &[u8]) {
        self.head[self.len..][..bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    fn run(&mut self, bytes: Cow<'a, [u8]>) {
        self.runs[self.count] = (self.len, bytes);
        self.count += 1;
    }

    /// The frame's bytes in wire order from header offset `from` (0 with the length
    /// prefix, 4 without): the header's pieces and the runs between them.
    fn parts(&self, from: usize) -> [&[u8]; 5] {
        let mut parts = [&[][..]; 5];
        let mut at = from;
        for (i, (end, run)) in self.runs[..self.count].iter().enumerate() {
            parts[2 * i] = &self.head[at..*end];
            parts[2 * i + 1] = run;
            at = *end;
        }
        parts[2 * self.count] = &self.head[at..self.len];
        parts
    }

    /// Appends the payload to `buf`.
    fn append(&self, buf: &mut Vec<u8>) {
        for part in self.parts(4) {
            buf.extend_from_slice(part);
        }
    }

    /// Fills in the length prefix ([`frame_prefix`], so an oversized frame is refused
    /// here) and returns the frame's size, length prefix included.
    fn seal(&mut self) -> io::Result<usize> {
        let payload_len = self.parts(4).iter().map(|part| part.len()).sum();
        self.head[..4].copy_from_slice(&frame_prefix(payload_len)?);
        Ok(payload_len + 4)
    }

    /// Writes the frame in one vectored write and returns its size.
    fn write<W: Write + ?Sized>(mut self, w: &mut W) -> io::Result<usize> {
        let len = self.seal()?;
        write_gathered(w, &mut self.parts(0).map(IoSlice::new)[..=2 * self.count])?;
        Ok(len)
    }
}

/// Appends a [`Message::PullReplyDelta`] payload from an iterator of
/// `(shard, version, weights)` updates — the server's zero-copy delta path (shard
/// weights are memcpy'd straight from the store into the frame buffer).
pub fn encode_pull_reply_delta<'a>(
    buf: &mut Vec<u8>,
    clock: u64,
    updates: impl Iterator<Item = (u32, u64, &'a [f32])>,
) {
    buf.push(TAG_PULL_REPLY_DELTA);
    buf.extend_from_slice(&clock.to_le_bytes());
    // The update count is only known after iterating; write a placeholder and patch.
    let count_at = buf.len();
    buf.extend_from_slice(&[0; 4]);
    let mut count = 0u32;
    for (shard, version, weights) in updates {
        buf.extend_from_slice(&update_head(shard, version, weights));
        buf.extend_from_slice(le_bytes(weights));
        count += 1;
    }
    buf[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
}

/// The 16 bytes in front of an update's weights: its shard, version and weight count.
fn update_head(shard: u32, version: u64, weights: &[f32]) -> [u8; 16] {
    let mut head = [0; 16];
    head[..4].copy_from_slice(&shard.to_le_bytes());
    head[4..12].copy_from_slice(&version.to_le_bytes());
    head[12..].copy_from_slice(&u32::from_len(weights.len()).to_le_bytes());
    head
}

impl crate::transport::PullView<'_> {
    /// Encodes the reply this view answers with — a delta when applicable, a full
    /// reply otherwise — appending the payload to `buf`, with the weights memcpy'd
    /// straight from the store. The buffered reference for
    /// [`PullView::write_frame`](crate::transport::PullView::write_frame), which the
    /// transports run.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        if self.delta_applicable() {
            encode_pull_reply_delta(buf, self.clock, self.shard_updates(0));
        } else {
            encode_pull_reply(buf, self.clock, self.versions, self.weights);
        }
    }
}

// ---------------------------------------------------------------------------
// Decoding: every decoder is `FrameBody` over a payload in memory.
// ---------------------------------------------------------------------------

/// Decodes a [`Message::Push`] payload into a caller-owned gradient buffer
/// (overwritten; no allocation once warm) and returns the push's `(iteration, trace)`
/// pair: [`FrameBody::push_into`] over the payload. Same strictness as [`decode`].
///
/// Returns [`WireError::UnknownTag`] if the payload is not a `Push`.
pub fn decode_push_into(payload: &[u8], grads: &mut Vec<f32>) -> Result<(u64, u64), WireError> {
    read_payload(payload, |body| body.push_into(grads))
}

/// Runs a [`FrameBody`] reader over a payload in memory (tag first, no length prefix).
fn read_payload<T>(
    mut payload: &[u8],
    read: impl FnOnce(FrameBody<'_, &[u8]>) -> Result<T>,
) -> Result<T, WireError> {
    let len = payload.len();
    FrameBody::with_len(&mut payload, len)
        .and_then(read)
        .map_err(|e| match e {
            NetError::Wire(e) => e,
            // Every read is bounded by the payload's own length, so none runs dry.
            _ => WireError::Truncated,
        })
}

/// What [`apply_pull_reply`] reconstructed from a pull reply payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PullApplied {
    /// Server weight version at reply time.
    pub clock: u64,
    /// Whether the reply was a full [`Message::PullReply`] (versus a delta).
    pub full: bool,
    /// Number of shards whose weights this reply carried.
    pub shards_updated: usize,
}

/// Applies a pull reply payload — full ([`Message::PullReply`]) or incremental
/// ([`Message::PullReplyDelta`]) — to a worker's cached weight vector and per-shard
/// version vector, in place: [`FrameBody::pull_reply_apply`] over the payload, so a
/// full reply overwrites both buffers wholesale and a delta copies each update into
/// its shard's key range (derived via [`dssp_ps::shard_range`]) and bumps that
/// shard's cached version.
///
/// Strict like [`decode`], plus layout validation: a delta against an empty cache, an
/// out-of-range shard index, or a weight run that does not exactly fill its shard's
/// key range is rejected with [`WireError::BadShard`].
///
/// Returns [`WireError::UnknownTag`] if the payload is neither reply kind.
pub fn apply_pull_reply(
    payload: &[u8],
    weights: &mut Vec<f32>,
    versions: &mut Vec<u64>,
) -> Result<PullApplied, WireError> {
    read_payload(payload, |body| body.pull_reply_apply(weights, versions))
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one length-prefixed frame to `w`, reusing `scratch` as the serialization
/// buffer (cleared first). The header and payload go out in one vectored write.
/// Returns the bytes written, length prefix included.
pub fn write_frame<W: Write + ?Sized>(
    w: &mut W,
    msg: &Message,
    scratch: &mut Vec<u8>,
) -> io::Result<usize> {
    scratch.clear();
    encode(msg, scratch);
    write_frame_payload(w, scratch)
}

/// Writes every byte of `slices` to `w`, then flushes: one `write_vectored` when the
/// writer takes it all, resumed where it stopped after a partial or interrupted
/// write. The slices are advanced as they go out.
fn write_gathered<W: Write + ?Sized>(w: &mut W, mut slices: &mut [IoSlice<'_>]) -> io::Result<()> {
    // Drop leading empty slices, so "nothing left to write" is never read as `Ok(0)`.
    IoSlice::advance_slices(&mut slices, 0);
    while !slices.is_empty() {
        match w.write_vectored(slices) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut slices, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Writes an already-encoded payload as one length-prefixed frame, using a vectored
/// write so header and payload reach the socket in a single syscall without being
/// copied into a combined buffer first. Returns the bytes written, length prefix
/// included.
pub fn write_frame_payload<W: Write + ?Sized>(w: &mut W, payload: &[u8]) -> io::Result<usize> {
    let prefix = frame_prefix(payload.len())?;
    write_gathered(w, &mut [IoSlice::new(&prefix), IoSlice::new(payload)])?;
    Ok(payload.len() + 4)
}

/// The length prefix of a frame of `payload_len` bytes. Every frame writer takes it
/// before it writes a byte, so a frame past [`MAX_FRAME_LEN`], which every reader
/// refuses, is refused at the sender instead: [`io::ErrorKind::InvalidInput`],
/// carrying [`WireError::Oversized`].
fn frame_prefix(payload_len: usize) -> io::Result<[u8; 4]> {
    if payload_len > MAX_FRAME_LEN {
        let oversized = WireError::Oversized { len: payload_len };
        return Err(io::Error::new(io::ErrorKind::InvalidInput, oversized));
    }
    Ok(u32::from_len(payload_len).to_le_bytes())
}

/// Stale shards one vectored write of [`write_pull_reply_delta_frame`] gathers: each
/// takes two slices (its 16-byte header, its weights), six more carry the frame's own
/// header and an acknowledgement frame riding in front of it, and the total stays far
/// below any platform's `IOV_MAX`.
const DELTA_SHARDS_PER_WRITE: usize = 16;

/// Writes a [`Message::PullReplyDelta`] frame straight from the server's store: the
/// frame header, then per stale shard a 16-byte stack header and the shard's own
/// weight bytes, gathered 16 shards per vectored write through fixed stack arrays (no
/// allocation, however many shards are stale). Byte for byte
/// [`encode_pull_reply_delta`] and [`write_frame_payload`]. `updates` is walked twice
/// — once to size the frame, once to write it — so it must be cheap to clone. Returns
/// the bytes written, length prefix included.
pub fn write_pull_reply_delta_frame<'a, W: Write + ?Sized>(
    w: &mut W,
    clock: u64,
    updates: impl Iterator<Item = (u32, u64, &'a [f32])> + Clone,
) -> io::Result<usize> {
    write_delta_frame_after(w, Default::default(), clock, updates)
}

/// Writes a [`Message::SliceApplied`] frame and, right behind it, a
/// [`Message::PullReplyDelta`] frame straight from the server's store: a shard
/// server's answer to a [`Message::PushSlice`] with `pull` set. The acknowledgement
/// rides in the first vectored write of [`write_pull_reply_delta_frame`], so a reply
/// of up to 16 shards reaches the socket in one syscall and wakes its reader once.
/// Byte for byte [`encode_slice_applied`] and [`encode_pull_reply_delta`], each
/// through [`write_frame_payload`]. Returns the bytes written, both length prefixes
/// included.
pub fn write_slice_applied_frames<'a, W: Write + ?Sized>(
    w: &mut W,
    version: u64,
    applied: &[u64],
    clock: u64,
    updates: impl Iterator<Item = (u32, u64, &'a [f32])> + Clone,
) -> io::Result<usize> {
    let mut ack = Frame::SliceApplied(&version, applied);
    let ack_len = ack.seal()?;
    Ok(ack_len + write_delta_frame_after(w, ack.parts(0), clock, updates)?)
}

/// The delta-frame writer behind [`write_pull_reply_delta_frame`] and
/// [`write_slice_applied_frames`]: `lead`'s bytes go out first, in the same vectored
/// write as the frame's header and first shards. Returns the delta frame's bytes.
fn write_delta_frame_after<'a, W: Write + ?Sized>(
    w: &mut W,
    lead: [&[u8]; 5],
    clock: u64,
    mut updates: impl Iterator<Item = (u32, u64, &'a [f32])> + Clone,
) -> io::Result<usize> {
    const HEAD: usize = 5;
    let (mut count, mut payload_len) = (0usize, 13usize);
    for (_, _, weights) in updates.clone() {
        count += 1;
        payload_len += 16 + weights.len() * 4;
    }
    let mut frame_head = [TAG_PULL_REPLY_DELTA; 17];
    frame_head[..4].copy_from_slice(&frame_prefix(payload_len)?);
    frame_head[5..13].copy_from_slice(&clock.to_le_bytes());
    frame_head[13..].copy_from_slice(&u32::from_len(count).to_le_bytes());
    // At least one write, so an empty delta still sends its frame header.
    for chunk in 0..count.div_ceil(DELTA_SHARDS_PER_WRITE).max(1) {
        let mut heads = [[0u8; 16]; DELTA_SHARDS_PER_WRITE];
        let mut runs: [&[u8]; DELTA_SHARDS_PER_WRITE] = [&[]; DELTA_SHARDS_PER_WRITE];
        let mut gathered = 0;
        for (shard, version, weights) in updates.by_ref().take(DELTA_SHARDS_PER_WRITE) {
            heads[gathered] = update_head(shard, version, weights);
            runs[gathered] = le_bytes(weights);
            gathered += 1;
        }
        let mut slices = [IoSlice::new(&[]); HEAD + 1 + 2 * DELTA_SHARDS_PER_WRITE];
        if chunk == 0 {
            for (slice, part) in slices.iter_mut().zip(lead) {
                *slice = IoSlice::new(part);
            }
            slices[HEAD] = IoSlice::new(&frame_head);
        }
        for i in 0..gathered {
            slices[HEAD + 1 + 2 * i] = IoSlice::new(&heads[i]);
            slices[HEAD + 2 + 2 * i] = IoSlice::new(runs[i]);
        }
        write_gathered(w, &mut slices[..HEAD + 1 + 2 * gathered])?;
    }
    Ok(payload_len + 4)
}

/// One incoming frame, consumed from its stream field by field: the length prefix and
/// the tag have been read, the rest is still on the stream. It is the one reader: every
/// frame either transport reads starts here, and the decoders run it over a payload in
/// memory. A bulk frame's reader ([`FrameBody::push_into`],
/// [`FrameBody::push_slice_into`], [`FrameBody::pull_reply_apply`]) checks its fixed
/// fields, then reads each run from the stream straight into the buffer it is for, so
/// a received gradient or weight byte is written once; every other frame is read whole
/// ([`FrameBody::buffer`]) for the buffered decoders. Every read is bounded by the
/// frame's declared length, so a malformed frame can neither make this read into the
/// next frame nor size a buffer past [`MAX_FRAME_LEN`].
///
/// Read through a buffered source — a socket's `BufReader`, or the bytes an
/// in-process channel delivered — so by the time a frame's tag is known the source
/// already holds the first kilobytes of its body.
///
/// A frame that fails part-way leaves the stream mid-frame; like every decoding
/// failure it ends the connection.
pub struct FrameBody<'r, R: ?Sized> {
    r: &'r mut R,
    /// Declared payload length.
    len: usize,
    /// Payload bytes not read yet.
    left: usize,
    tag: u8,
}

impl<'r, R: Read + ?Sized> FrameBody<'r, R> {
    /// Reads the next frame's length prefix and tag. [`NetError::Disconnected`]
    /// on a clean EOF at the frame boundary, [`WireError::Oversized`] for a length
    /// past [`MAX_FRAME_LEN`], and [`WireError::Truncated`] for an empty frame, which
    /// is what every buffered decoder makes of one.
    pub fn begin(r: &'r mut R) -> Result<Self> {
        let mut len = [0u8; 4];
        r.read_exact(&mut len).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => NetError::Disconnected,
            _ => e.into(),
        })?;
        match u32::from_le_bytes(len) as usize {
            len if len > MAX_FRAME_LEN => Err(WireError::Oversized { len }.into()),
            len => Self::with_len(r, len),
        }
    }

    /// Reads the tag of a frame whose `len` payload bytes follow on `r`.
    fn with_len(r: &'r mut R, len: usize) -> Result<Self> {
        let mut body = Self {
            r,
            len,
            left: len,
            tag: 0,
        };
        [body.tag] = body.take()?;
        Ok(body)
    }

    /// The frame's payload tag.
    pub fn tag(&self) -> u8 {
        self.tag
    }

    /// The frame's size on the wire, length prefix included.
    pub fn wire_len(&self) -> usize {
        self.len + 4
    }

    /// Reads the rest of the frame into `payload`, tag first, for the buffered
    /// decoders — the path of every frame kind that carries no bulk run. `payload` is
    /// reused: no allocation once it reached the source's largest such frame.
    pub fn buffer(self, payload: &mut Vec<u8>) -> Result<()> {
        payload.resize(self.len, 0);
        payload[0] = self.tag;
        self.r.read_exact(&mut payload[1..])?;
        Ok(())
    }

    /// Streams a pull reply — full or delta — into a worker's cached weight and
    /// version vectors: a full reply's weights are read into `weights` wholesale, a
    /// delta's shard runs each into their own key range, and a shard's cached version
    /// is written only once its run has arrived whole. Errors as [`apply_pull_reply`]
    /// documents.
    pub fn pull_reply_apply(
        mut self,
        weights: &mut Vec<f32>,
        versions: &mut Vec<u64>,
    ) -> Result<PullApplied> {
        match self.tag {
            TAG_PULL_REPLY => {
                let (clock,) = self.pull_reply_into(versions, weights)?;
                Ok(PullApplied {
                    clock,
                    full: true,
                    shards_updated: versions.len(),
                })
            }
            TAG_PULL_REPLY_DELTA => {
                let clock = self.field::<u64>()?;
                // An update is at least its 16 header bytes, which bounds the count.
                let count = self.run_len(16)?;
                for _ in 0..count {
                    let shard = self.field::<u32>()?;
                    let version = self.field::<u64>()?;
                    let declared = self.run_len(4)?;
                    if (shard as usize) >= versions.len() {
                        return Err(WireError::BadShard { shard }.into());
                    }
                    let (start, end) =
                        dssp_ps::shard_range(weights.len(), versions.len(), shard as usize);
                    if declared != end - start {
                        return Err(WireError::BadShard { shard }.into());
                    }
                    self.scalars(&mut weights[start..end])?;
                    versions[shard as usize] = version;
                }
                self.finish()?;
                Ok(PullApplied {
                    clock,
                    full: false,
                    shards_updated: count,
                })
            }
            other => Err(WireError::UnknownTag(other).into()),
        }
    }

    /// Reads one fixed-size field, refusing to read past the frame's end.
    fn take<const N: usize>(&mut self) -> Result<[u8; N]> {
        if N > self.left {
            return Err(WireError::Truncated.into());
        }
        let mut bytes = [0u8; N];
        self.r.read_exact(&mut bytes)?;
        self.left -= N;
        Ok(bytes)
    }

    /// Reads one value of a wire type, into a new buffer for a run.
    fn field<F: Field + ?Sized>(&mut self) -> Result<F::Owned> {
        let mut value = F::Owned::default();
        F::read(self, &mut value)?;
        Ok(value)
    }

    /// Reads a run's element count and validates it against the bytes left in the
    /// frame, at `elem_bytes` per element.
    fn run_len(&mut self, elem_bytes: usize) -> Result<usize> {
        let declared = self.field::<u32>()? as usize;
        if declared.saturating_mul(elem_bytes) > self.left {
            return Err(WireError::BadLength { declared }.into());
        }
        Ok(declared)
    }

    /// Fills `out` from the stream. The caller has validated the run against the
    /// frame ([`FrameBody::run_len`]).
    fn scalars<T: LeScalar>(&mut self, out: &mut [T]) -> Result<()> {
        self.r.read_exact(le_bytes_mut(out))?;
        self.left -= std::mem::size_of_val(out);
        Ok(())
    }

    fn finish(&self) -> Result<(), WireError> {
        match self.left {
            0 => Ok(()),
            extra => Err(WireError::TrailingBytes { extra }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssp_ps::codec::{put_run, Reader};

    fn round_trip(msg: &Message) -> Message {
        let mut buf = Vec::new();
        encode(msg, &mut buf);
        decode(&buf).expect("decodes")
    }

    /// Reads one length-prefixed frame whole and decodes it.
    fn read_frame<R: Read>(r: &mut R) -> Result<Message, crate::NetError> {
        let mut payload = Vec::new();
        FrameBody::begin(r)?.buffer(&mut payload)?;
        Ok(decode(&payload)?)
    }

    #[test]
    fn every_message_kind_round_trips() {
        let messages = vec![
            Message::Hello {
                version: PROTOCOL_VERSION,
                rank: 2,
                num_workers: 4,
                config_digest: 0xdead_beef_cafe_f00d,
            },
            Message::Push {
                iteration: 7,
                trace: (2u64 << 32) | 7,
                grads: vec![1.5, -0.25, f32::MIN_POSITIVE, -0.0],
            },
            Message::PushReply {
                granted_extra: 3,
                version: 41,
            },
            Message::Pull { trace: 0 },
            Message::Pull { trace: u64::MAX },
            Message::PullReply {
                clock: 99,
                shard_versions: vec![99, 98, 99],
                weights: vec![0.125; 9],
            },
            Message::PullDelta {
                trace: (2u64 << 32) | 8,
                known_versions: vec![4, 0, u64::MAX],
            },
            Message::PullReplyDelta {
                clock: 12,
                updates: vec![
                    ShardUpdate {
                        shard: 0,
                        version: 12,
                        weights: vec![1.0, 2.0],
                    },
                    ShardUpdate {
                        shard: 3,
                        version: 11,
                        weights: vec![],
                    },
                ],
            },
            Message::Done {
                iterations: 24,
                epochs: 2,
                waiting_time_s: 1.75,
            },
            Message::Shutdown {
                reason: SHUTDOWN_OK,
            },
            Message::GroupHello {
                version: PROTOCOL_VERSION,
                rank: 3,
                num_workers: 3, // the coordinator slot
                config_digest: 0x0123_4567_89ab_cdef,
                servers: 4,
                server_index: 2,
            },
            Message::ClockPush {
                iteration: 17,
                trace: (1u64 << 32) | 17,
            },
            Message::ClockGrant {
                granted_extra: 2,
                version: 40,
            },
            Message::PushGrant,
            Message::PushApplied { iteration: 17 },
            Message::PushSlice {
                iteration: 9,
                epoch: 1,
                trace: (3u64 << 32) | 9,
                pull: true,
                grads: vec![0.5, -2.0, 1e-6],
            },
            Message::SliceAck { version: 9 },
            Message::SliceApplied {
                version: 9,
                applied: vec![9, 0, 4],
            },
            Message::GroupGrant {
                granted_extra: 1,
                version: 40,
                counted: vec![12, 11],
            },
            Message::PullShards {
                known_versions: vec![7, 7, 8],
                all: false,
                epoch: 0,
                trace: (3u64 << 32) | 10,
            },
            Message::PullShards {
                known_versions: vec![],
                all: true,
                epoch: 3,
                trace: 0,
            },
            Message::PullDone,
            Message::StatsRequest,
            Message::StatsReply {
                pushes: 100,
                pulls_full: 3,
                pulls_delta: 97,
                bytes_sent: 1 << 33,
                bytes_received: 12345,
                epoch: 2,
            },
            Message::JoinRequest,
            Message::JoinAck {
                clock: 42,
                epoch: 1,
                assignment: vec![0, 0, 1, 1],
            },
            Message::JoinAck {
                clock: 0,
                epoch: 0,
                assignment: vec![],
            },
            Message::Evict { rank: 2 },
            Message::MigratePrepare { epoch: 5 },
            Message::MigrateRequest {
                epoch: 5,
                shard: 3,
                trace: (4u64 << 32) | 1,
            },
            Message::MigrateShard {
                epoch: 5,
                shard: 3,
                version: 120,
                trace: (4u64 << 32) | 1,
                weights: vec![1.0, -0.5, f32::MIN_POSITIVE],
                velocity: vec![0.25, -0.0, 3e-12],
            },
            Message::MigrateShard {
                epoch: 5,
                shard: 3,
                version: 120,
                trace: 0,
                weights: vec![2.0],
                velocity: vec![], // momentum-free job
            },
            Message::MigrateAck { epoch: 5, shard: 3 },
            Message::MigrateAck {
                epoch: 5,
                shard: MIGRATE_CONTROL,
            },
            Message::LayoutUpdate {
                epoch: 5,
                assignment: vec![0, 1, 1, 1],
            },
            Message::MigrateAbort { epoch: 5 },
            Message::EpochRefused {
                epoch: 5,
                assignment: vec![],
            },
            Message::EpochRefused {
                epoch: 5,
                assignment: vec![2, 2, 0, 0],
            },
            Message::Drain { server: 2 },
            Message::Rebalance,
            Message::AdminAck {
                epoch: 6,
                accepted: true,
                reason: String::new(),
            },
            Message::AdminAck {
                epoch: 5,
                accepted: false,
                reason: "server 2 is already drained".into(),
            },
        ];
        for msg in &messages {
            assert_eq!(&round_trip(msg), msg);
        }
    }

    #[test]
    fn group_pooled_decoders_match_the_owned_decode() {
        let mut buf = Vec::new();
        encode_pull_shards(&mut buf, true, 1, 78, &[2, 3]);
        let mut known = vec![0u64; 4]; // stale content must be cleared
        assert_eq!(
            decode_with_run(&buf, &mut known),
            Ok(Message::PullShards {
                all: true,
                epoch: 1,
                trace: 78,
                known_versions: Vec::new(),
            })
        );
        assert_eq!(known, vec![2, 3]);
        assert_eq!(
            decode(&buf),
            Ok(Message::PullShards {
                all: true,
                epoch: 1,
                trace: 78,
                known_versions: known.clone(),
            })
        );
        // A corrupt bool discriminant is rejected, not guessed at.
        buf[1] = 7;
        assert_eq!(
            decode_with_run(&buf, &mut known),
            Err(WireError::UnknownTag(7))
        );
        assert_eq!(decode(&buf), Err(WireError::UnknownTag(7)));
    }

    #[test]
    fn special_floats_survive_bitwise() {
        let grads = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1e-42];
        let mut buf = Vec::new();
        encode(
            &Message::Push {
                iteration: 1,
                trace: 0,
                grads: grads.clone(),
            },
            &mut buf,
        );
        match decode(&buf).unwrap() {
            Message::Push { grads: got, .. } => {
                assert_eq!(got.len(), grads.len());
                for (a, b) in got.iter().zip(&grads) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn bulk_conversions_match_the_per_element_reference() {
        let values: Vec<f32> = (0..257)
            .map(|i| f32::from_bits(0x9e37_79b9_u32.wrapping_mul(i as u32 + 1)))
            .collect();
        let mut reference = Vec::new();
        for v in &values {
            reference.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(le_bytes(&values), &reference[..]);
        // Back through the one bulk reader, into a buffer of another length.
        let mut push = vec![TAG_PUSH];
        push.extend_from_slice(&[0; 16]); // iteration, trace
        put_run::<u32, f32>(&mut push, &values);
        let mut decoded = vec![1.0f32; 3];
        assert_eq!(decode_push_into(&push, &mut decoded), Ok((0, 0)));
        assert_eq!(
            decoded.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            values.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );

        let u64s: Vec<u64> = (0..129).map(|i| u64::MAX / 3 + i * 0x1_0001).collect();
        let mut bulk = Vec::new();
        put_run::<u32, u64>(&mut bulk, &u64s);
        let mut reference = (u64s.len() as u32).to_le_bytes().to_vec();
        for v in &u64s {
            reference.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(bulk, reference);
        assert_eq!(Reader::<u32>::new(&bulk).run::<u64>(), Ok(u64s));

        let u32s: Vec<u32> = (0..67).map(|i| u32::MAX / 7 + i * 0x101).collect();
        let mut bulk = Vec::new();
        put_run::<u32, u32>(&mut bulk, &u32s);
        let mut reference = (u32s.len() as u32).to_le_bytes().to_vec();
        for v in &u32s {
            reference.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(bulk, reference);
        assert_eq!(Reader::<u32>::new(&bulk).run::<u32>(), Ok(u32s));
    }

    #[test]
    fn pooled_decoders_match_the_owned_decode() {
        let mut buf = Vec::new();
        encode_push(&mut buf, 21, 99, &[1.0, -2.0]);
        let mut grads = vec![9.0; 7]; // stale content must be cleared
        assert_eq!(decode_push_into(&buf, &mut grads), Ok((21, 99)));
        assert_eq!(grads, vec![1.0, -2.0]);
        assert_eq!(
            decode_push_into(&[4u8, 0, 0, 0, 0, 0, 0, 0, 0], &mut grads),
            Err(WireError::UnknownTag(4))
        );

        let mut buf = Vec::new();
        encode_pull_delta(&mut buf, 100, &[5, 6]);
        let mut known = vec![0u64; 3];
        assert_eq!(
            decode_with_run(&buf, &mut known),
            Ok(Message::PullDelta {
                trace: 100,
                known_versions: Vec::new()
            })
        );
        assert_eq!(known, vec![5, 6]);

        // The per-rank runs of the group round land in the caller's buffer.
        let mut run = vec![7u64; 5];
        let mut buf = Vec::new();
        encode_slice_applied(&mut buf, 4, &[3, 1]);
        assert_eq!(
            decode_with_run(&buf, &mut run),
            Ok(Message::SliceApplied {
                version: 4,
                applied: Vec::new()
            })
        );
        assert_eq!(run, vec![3, 1]);
        let grant = Message::GroupGrant {
            granted_extra: 2,
            version: 9,
            counted: vec![5, 4, 0],
        };
        let mut buf = Vec::new();
        encode(&grant, &mut buf);
        assert!(matches!(
            decode_with_run(&buf, &mut run),
            Ok(Message::GroupGrant { granted_extra: 2, version: 9, ref counted }) if counted.is_empty()
        ));
        assert_eq!(run, vec![5, 4, 0]);
        // Every other kind decodes as usual and leaves the buffer alone.
        let mut buf = Vec::new();
        encode(&Message::SliceAck { version: 3 }, &mut buf);
        assert_eq!(
            decode_with_run(&buf, &mut run),
            Ok(Message::SliceAck { version: 3 })
        );
        assert_eq!(run, vec![5, 4, 0]);
    }

    #[test]
    fn apply_pull_reply_reconstructs_full_and_delta_replies() {
        let mut weights = Vec::new();
        let mut versions = Vec::new();
        // Full reply establishes the cache.
        let mut buf = Vec::new();
        encode_pull_reply(&mut buf, 10, &[1, 1, 1], &[0.0, 1.0, 2.0, 3.0, 4.0]);
        let applied = apply_pull_reply(&buf, &mut weights, &mut versions).unwrap();
        assert_eq!(
            applied,
            PullApplied {
                clock: 10,
                full: true,
                shards_updated: 3
            }
        );
        // Layout of 5 params over 3 shards: [0..2), [2..4), [4..5).
        // Delta updates shards 0 and 2.
        let mut buf = Vec::new();
        encode_pull_reply_delta(
            &mut buf,
            12,
            vec![(0u32, 3u64, &[-1.0f32, -2.0f32][..]), (2, 2, &[9.0][..])].into_iter(),
        );
        let applied = apply_pull_reply(&buf, &mut weights, &mut versions).unwrap();
        assert_eq!(
            applied,
            PullApplied {
                clock: 12,
                full: false,
                shards_updated: 2
            }
        );
        assert_eq!(weights, vec![-1.0, -2.0, 2.0, 3.0, 9.0]);
        assert_eq!(versions, vec![3, 1, 2]);
    }

    #[test]
    fn apply_pull_reply_rejects_incompatible_deltas() {
        let mut weights = vec![0.0; 4];
        let mut versions = vec![0u64; 2];
        // Out-of-range shard index.
        let mut buf = Vec::new();
        encode_pull_reply_delta(&mut buf, 1, vec![(5u32, 1u64, &[1.0f32][..])].into_iter());
        assert_eq!(
            apply_pull_reply(&buf, &mut weights, &mut versions),
            Err(WireError::BadShard { shard: 5 })
        );
        // Wrong run length for the shard's key range ([0..2) expects 2 weights).
        let mut buf = Vec::new();
        encode_pull_reply_delta(&mut buf, 1, vec![(0u32, 1u64, &[1.0f32][..])].into_iter());
        assert_eq!(
            apply_pull_reply(&buf, &mut weights, &mut versions),
            Err(WireError::BadShard { shard: 0 })
        );
        // Delta against an empty cache.
        let mut empty_w = Vec::new();
        let mut empty_v = Vec::new();
        let mut buf = Vec::new();
        encode_pull_reply_delta(&mut buf, 1, vec![(0u32, 1u64, &[][..])].into_iter());
        assert_eq!(
            apply_pull_reply(&buf, &mut empty_w, &mut empty_v),
            Err(WireError::BadShard { shard: 0 })
        );
    }

    #[test]
    fn truncated_payloads_are_rejected() {
        let mut messages = vec![
            Message::Push {
                iteration: 3,
                trace: (1u64 << 32) | 3,
                grads: vec![1.0, 2.0],
            },
            Message::Pull { trace: 5 },
            Message::PullDelta {
                trace: (1u64 << 32) | 4,
                known_versions: vec![1, 2, 3],
            },
            Message::PullReplyDelta {
                clock: 4,
                updates: vec![ShardUpdate {
                    shard: 0,
                    version: 1,
                    weights: vec![1.0, 2.0],
                }],
            },
            Message::GroupHello {
                version: PROTOCOL_VERSION,
                rank: 1,
                num_workers: 2,
                config_digest: 9,
                servers: 2,
                server_index: 0,
            },
            Message::PushSlice {
                iteration: 2,
                epoch: 0,
                trace: 9,
                pull: false,
                grads: vec![1.0],
            },
            Message::SliceApplied {
                version: 3,
                applied: vec![2, 1],
            },
            Message::GroupGrant {
                granted_extra: 0,
                version: 5,
                counted: vec![3, 2],
            },
            Message::PullShards {
                known_versions: vec![5],
                all: false,
                epoch: 0,
                trace: 9,
            },
            Message::ClockPush {
                iteration: 4,
                trace: 9,
            },
            Message::StatsReply {
                pushes: 1,
                pulls_full: 2,
                pulls_delta: 3,
                bytes_sent: 4,
                bytes_received: 5,
                epoch: 0,
            },
            Message::JoinAck {
                clock: 7,
                epoch: 1,
                assignment: vec![0, 1],
            },
            Message::Evict { rank: 1 },
            Message::MigrateShard {
                epoch: 1,
                shard: 0,
                version: 3,
                trace: 9,
                weights: vec![1.0, 2.0],
                velocity: vec![3.0, 4.0],
            },
            Message::LayoutUpdate {
                epoch: 1,
                assignment: vec![0, 0, 1],
            },
            Message::EpochRefused {
                epoch: 1,
                assignment: vec![1, 1],
            },
            Message::AdminAck {
                epoch: 1,
                accepted: false,
                reason: "nope".into(),
            },
            Message::MigrateRequest {
                epoch: 1,
                shard: 2,
                trace: 9,
            },
        ];
        for msg in messages.drain(..) {
            let mut buf = Vec::new();
            encode(&msg, &mut buf);
            for cut in 0..buf.len() {
                let err = decode(&buf[..cut]);
                assert!(err.is_err(), "prefix of {cut} bytes must not decode");
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        encode(&Message::Pull { trace: 0 }, &mut buf);
        buf.push(0);
        assert_eq!(decode(&buf), Err(WireError::TrailingBytes { extra: 1 }));
    }

    #[test]
    fn unknown_tags_and_bad_magic_are_rejected() {
        assert_eq!(decode(&[42]), Err(WireError::UnknownTag(42)));
        let mut buf = Vec::new();
        encode(
            &Message::Hello {
                version: 1,
                rank: 0,
                num_workers: 1,
                config_digest: 0,
            },
            &mut buf,
        );
        buf[1] ^= 0xff; // corrupt the magic
        assert!(matches!(decode(&buf), Err(WireError::BadMagic(_))));
    }

    #[test]
    fn absurd_vector_lengths_are_rejected_before_allocation() {
        // Push with a declared gradient count of u32::MAX but no data.
        let mut buf = vec![2u8];
        buf.extend_from_slice(&7u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes()); // trace id
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&buf), Err(WireError::BadLength { .. })));
        // Delta reply with a declared update count of u32::MAX but no data.
        let mut buf = vec![TAG_PULL_REPLY_DELTA];
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&buf), Err(WireError::BadLength { .. })));
    }

    #[test]
    fn oversized_frames_are_rejected_by_the_frame_reader() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = std::io::Cursor::new(bytes);
        match read_frame(&mut cursor) {
            Err(crate::NetError::Wire(WireError::Oversized { len })) => {
                assert_eq!(len, u32::MAX as usize);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn writers_refuse_a_frame_past_the_cap_before_writing() {
        // One element past the cap in a full pull reply, the frame with the fewest
        // fixed bytes (17). Zeroed on demand by the allocator: no page is touched.
        let run = vec![0.0f32; (MAX_FRAME_LEN - 17) / 4 + 1];
        assert_eq!(17 + run.len() * 4, MAX_FRAME_LEN + 1);
        let refused = |written: io::Result<usize>, sink: &[u8]| {
            let e = written.expect_err("the frame exceeds MAX_FRAME_LEN");
            assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
            assert!(
                sink.is_empty(),
                "{} bytes written before the refusal",
                sink.len()
            );
        };
        let mut sink = Vec::new();
        refused(write_push_frame(&mut sink, 1, 0, &run), &sink);
        refused(
            write_push_slice_frame(&mut sink, 1, 0, 0, true, &run),
            &sink,
        );
        refused(write_pull_reply_frame(&mut sink, 1, &[], &run), &sink);
        let updates = [(0u32, 1u64, &run[..])];
        refused(
            write_pull_reply_delta_frame(&mut sink, 1, updates.into_iter()),
            &sink,
        );
        refused(
            write_slice_applied_frames(&mut sink, 1, &[], 1, updates.into_iter()),
            &sink,
        );
        let payload = vec![0u8; MAX_FRAME_LEN + 1];
        refused(write_frame_payload(&mut sink, &payload), &sink);
        // One element fewer fits: a payload of `MAX_FRAME_LEN - 3` bytes, prefix included.
        let fits = write_pull_reply_frame(&mut io::sink(), 1, &[], &run[1..]);
        assert_eq!(fits.unwrap(), MAX_FRAME_LEN + 1);
    }

    #[test]
    fn frames_round_trip_through_a_stream() {
        let messages = vec![
            Message::Pull { trace: 1 },
            Message::Push {
                iteration: 1,
                trace: 2,
                grads: vec![0.5; 3],
            },
            Message::PullDelta {
                trace: 3,
                known_versions: vec![8, 9],
            },
            Message::Shutdown {
                reason: SHUTDOWN_SERVER_ERROR,
            },
        ];
        let mut stream = Vec::new();
        let mut scratch = Vec::new();
        for msg in &messages {
            write_frame(&mut stream, msg, &mut scratch).unwrap();
        }
        let mut cursor = std::io::Cursor::new(stream);
        for msg in &messages {
            assert_eq!(&read_frame(&mut cursor).unwrap(), msg);
        }
        assert!(matches!(
            read_frame(&mut cursor),
            Err(crate::NetError::Disconnected)
        ));
    }

    #[test]
    fn frame_payload_reader_reuses_its_buffer() {
        let mut stream = Vec::new();
        let mut scratch = Vec::new();
        let big = Message::Push {
            iteration: 1,
            trace: 0,
            grads: vec![1.0; 64],
        };
        write_frame(&mut stream, &big, &mut scratch).unwrap();
        write_frame(&mut stream, &Message::Pull { trace: 7 }, &mut scratch).unwrap();
        let mut cursor = std::io::Cursor::new(stream);
        let mut payload = Vec::new();
        let body = FrameBody::begin(&mut cursor).unwrap();
        let len = body.wire_len() - 4;
        body.buffer(&mut payload).unwrap();
        assert_eq!(payload.len(), len);
        let cap_after_big = payload.capacity();
        let body = FrameBody::begin(&mut cursor).unwrap();
        assert_eq!(body.wire_len(), 4 + 9);
        body.buffer(&mut payload).unwrap();
        assert_eq!(decode(&payload), Ok(Message::Pull { trace: 7 }));
        assert_eq!(payload.capacity(), cap_after_big, "buffer must be reused");
    }

    /// A writer that fragments every write to exercise the vectored-write resume loop.
    struct TrickleWriter {
        out: Vec<u8>,
    }

    impl std::io::Write for TrickleWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(3);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
            // Take at most 3 bytes from the first non-empty slice.
            for b in bufs {
                if !b.is_empty() {
                    let n = b.len().min(3);
                    self.out.extend_from_slice(&b[..n]);
                    return Ok(n);
                }
            }
            Ok(0)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_frame_writes_survive_partial_writes() {
        let msg = Message::Push {
            iteration: 5,
            trace: (2u64 << 32) | 5,
            grads: vec![0.25; 11],
        };
        let mut scratch = Vec::new();
        let mut trickle = TrickleWriter { out: Vec::new() };
        write_frame(&mut trickle, &msg, &mut scratch).unwrap();
        let mut cursor = std::io::Cursor::new(trickle.out);
        assert_eq!(read_frame(&mut cursor).unwrap(), msg);
    }
}
