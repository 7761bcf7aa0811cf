//! Golden frame bytes: one fixed instance of every message kind, and one output of
//! each streaming writer, against the bytes the protocol puts on the wire.
//!
//! Round-trip properties cannot see a field-order slip made the same way in the
//! encoder and the decoder; a byte-for-byte comparison can. Every field of a fixture
//! holds a value no other field of it holds, so swapping two fields changes the bytes.
//!
//! The constants are the wire protocol. A change that makes this test fail changes
//! what peers exchange, and must bump [`PROTOCOL_VERSION`]. To recapture after such a
//! change, run `cargo test -p dssp-net --test golden_frames`: the failure message
//! lists every kind's current bytes, in the order of the table.

use dssp_net::wire::{
    self, decode, encode, Message, ShardUpdate, MIGRATE_CONTROL, PROTOCOL_VERSION,
    SHUTDOWN_SERVER_ERROR,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// One instance of each of the 35 kinds, in tag order, with its payload bytes.
fn golden_messages() -> Vec<(Message, &'static str)> {
    vec![
        (
            Message::Hello {
                version: PROTOCOL_VERSION,
                rank: 2,
                num_workers: 5,
                config_digest: 0xdead_beef_cafe_f00d,
            },
            "01 44535350 0800 02000000 05000000 0df0fecaefbeadde",
        ),
        (
            Message::Push {
                iteration: 7,
                trace: (2 << 32) | 7,
                grads: vec![1.5, -0.25, -0.0],
            },
            "02 0700000000000000 0700000002000000 03000000 0000c03f 000080be 00000080",
        ),
        (
            Message::PushReply {
                granted_extra: 3,
                version: 41,
            },
            "03 0300000000000000 2900000000000000",
        ),
        (
            Message::Pull {
                trace: (1 << 32) | 9,
            },
            "04 0900000001000000",
        ),
        (
            Message::PullReply {
                clock: 99,
                shard_versions: vec![98, 97],
                weights: vec![0.125, 2.0, -8.0],
            },
            "05 6300000000000000 02000000 6200000000000000 6100000000000000 03000000 0000003e 00000040 000000c1",
        ),
        (
            Message::Done {
                iterations: 24,
                epochs: 2,
                waiting_time_s: 1.75,
            },
            "06 1800000000000000 0200000000000000 000000000000fc3f",
        ),
        (
            Message::Shutdown {
                reason: SHUTDOWN_SERVER_ERROR,
            },
            "07 01",
        ),
        (
            Message::PullDelta {
                trace: (2 << 32) | 8,
                known_versions: vec![4, 0, u64::MAX],
            },
            "08 0800000002000000 03000000 0400000000000000 0000000000000000 ffffffffffffffff",
        ),
        (
            Message::PullReplyDelta {
                clock: 12,
                updates: vec![
                    ShardUpdate {
                        shard: 1,
                        version: 11,
                        weights: vec![1.0, 2.0],
                    },
                    ShardUpdate {
                        shard: 3,
                        version: 10,
                        weights: vec![],
                    },
                ],
            },
            "09 0c00000000000000 02000000 01000000 0b00000000000000 02000000 0000803f 00000040 03000000 0a00000000000000 00000000",
        ),
        (
            Message::GroupHello {
                version: PROTOCOL_VERSION,
                rank: 3,
                num_workers: 6,
                config_digest: 0x0123_4567_89ab_cdef,
                servers: 4,
                server_index: 1,
            },
            "0a 44535350 0800 03000000 06000000 efcdab8967452301 04000000 01000000",
        ),
        (
            Message::ClockPush {
                iteration: 17,
                trace: (1 << 32) | 17,
            },
            "0b 1100000000000000 1100000001000000",
        ),
        (
            Message::ClockGrant {
                granted_extra: 2,
                version: 40,
            },
            "0c 0200000000000000 2800000000000000",
        ),
        (Message::PushGrant, "0d"),
        (Message::PushApplied { iteration: 18 }, "0e 1200000000000000"),
        (
            Message::PushSlice {
                iteration: 9,
                epoch: 1,
                trace: (3 << 32) | 9,
                pull: true,
                grads: vec![0.5, -2.0],
            },
            "0f 0900000000000000 0100000000000000 0900000003000000 01 02000000 0000003f 000000c0",
        ),
        (Message::SliceAck { version: 19 }, "10 1300000000000000"),
        (
            Message::PullShards {
                known_versions: vec![7, 8],
                all: true,
                epoch: 3,
                trace: (3 << 32) | 10,
            },
            "11 01 0300000000000000 0a00000003000000 02000000 0700000000000000 0800000000000000",
        ),
        (Message::PullDone, "12"),
        (Message::StatsRequest, "13"),
        (
            Message::StatsReply {
                pushes: 100,
                pulls_full: 3,
                pulls_delta: 97,
                bytes_sent: 1 << 33,
                bytes_received: 12345,
                epoch: 2,
            },
            "14 6400000000000000 0300000000000000 6100000000000000 0000000002000000 3930000000000000 0200000000000000",
        ),
        (Message::JoinRequest, "15"),
        (
            Message::JoinAck {
                clock: 42,
                epoch: 1,
                assignment: vec![0, 2, 1],
            },
            "16 2a00000000000000 0100000000000000 03000000 00000000 02000000 01000000",
        ),
        (Message::Evict { rank: 6 }, "17 06000000"),
        (Message::MigratePrepare { epoch: 5 }, "18 0500000000000000"),
        (
            Message::MigrateRequest {
                epoch: 5,
                shard: 3,
                trace: (4 << 32) | 1,
            },
            "19 0500000000000000 03000000 0100000004000000",
        ),
        (
            Message::MigrateShard {
                epoch: 5,
                shard: 3,
                version: 120,
                trace: (4 << 32) | 2,
                weights: vec![1.0, -0.5],
                velocity: vec![0.25],
            },
            "1a 0500000000000000 03000000 7800000000000000 0200000004000000 02000000 0000803f 000000bf 01000000 0000803e",
        ),
        (
            Message::MigrateAck {
                epoch: 5,
                shard: MIGRATE_CONTROL,
            },
            "1b 0500000000000000 ffffffff",
        ),
        (
            Message::LayoutUpdate {
                epoch: 6,
                assignment: vec![0, 1, 1],
            },
            "1c 0600000000000000 03000000 00000000 01000000 01000000",
        ),
        (Message::MigrateAbort { epoch: 7 }, "1d 0700000000000000"),
        (
            Message::EpochRefused {
                epoch: 8,
                assignment: vec![2, 0],
            },
            "1e 0800000000000000 02000000 02000000 00000000",
        ),
        (Message::Drain { server: 2 }, "1f 02000000"),
        (Message::Rebalance, "20"),
        (
            Message::AdminAck {
                epoch: 9,
                accepted: false,
                reason: "busy".into(),
            },
            "21 0900000000000000 00 04000000 62757379",
        ),
        (
            Message::SliceApplied {
                version: 34,
                applied: vec![12, 0, 11],
            },
            "22 2200000000000000 03000000 0c00000000000000 0000000000000000 0b00000000000000",
        ),
        (
            Message::GroupGrant {
                granted_extra: 3,
                version: 35,
                counted: vec![13, 10],
            },
            "23 0300000000000000 2300000000000000 02000000 0d00000000000000 0a00000000000000",
        ),
    ]
}

/// The five streaming writers' frames (length prefix included).
fn golden_streamed_frames() -> Vec<(&'static str, Vec<u8>, &'static str)> {
    let mut push = Vec::new();
    wire::write_push_frame(&mut push, 21, (1 << 32) | 21, &[0.5, -1.5]).unwrap();
    let mut push_slice = Vec::new();
    wire::write_push_slice_frame(&mut push_slice, 22, 4, (2 << 32) | 22, false, &[3.0]).unwrap();
    let mut pull_reply = Vec::new();
    wire::write_pull_reply_frame(&mut pull_reply, 23, &[5, 6], &[-1.0, 0.75, 4.0]).unwrap();
    let mut pull_reply_delta = Vec::new();
    let updates = [(0u32, 24u64, &[2.5f32][..]), (2, 25, &[-3.0, 0.5][..])];
    wire::write_pull_reply_delta_frame(&mut pull_reply_delta, 26, updates.into_iter()).unwrap();
    let mut slice_applied = Vec::new();
    let updates = [(5u32, 28u64, &[1.25f32, -6.0][..])];
    wire::write_slice_applied_frames(&mut slice_applied, 27, &[9, 8], 29, updates.into_iter())
        .unwrap();
    vec![
        ("write_push_frame", push, "1d000000 02 1500000000000000 1500000001000000 02000000 0000003f 0000c0bf"),
        ("write_push_slice_frame", push_slice, "22000000 0f 1600000000000000 0400000000000000 1600000002000000 00 01000000 00004040"),
        ("write_pull_reply_frame", pull_reply, "2d000000 05 1700000000000000 02000000 0500000000000000 0600000000000000 03000000 000080bf 0000403f 00008040"),
        ("write_pull_reply_delta_frame", pull_reply_delta, "39000000 09 1a00000000000000 02000000 00000000 1800000000000000 01000000 00002040 02000000 1900000000000000 02000000 000040c0 0000003f"),
        ("write_slice_applied_frames", slice_applied, "1d000000 22 1b00000000000000 02000000 0900000000000000 0800000000000000 25000000 09 1d00000000000000 01000000 05000000 1c00000000000000 02000000 0000a03f 0000c0c0"),
    ]
}

#[test]
fn every_kind_encodes_to_its_golden_bytes() {
    assert_eq!(PROTOCOL_VERSION, 8, "a protocol bump recaptures this table");
    let messages = golden_messages();
    assert_eq!(messages.len(), 35, "one instance of every kind");
    let mut report = String::new();
    let mut changed = 0;
    for (i, (msg, golden)) in messages.iter().enumerate() {
        assert_eq!(usize::from(msg.tag()), i + 1, "the table is in tag order");
        let mut bytes = Vec::new();
        encode(msg, &mut bytes);
        let got = hex(&bytes);
        if got != golden.replace(' ', "") {
            changed += 1;
        }
        report += &format!("tag {:2}: {got}\n", msg.tag());
        assert_eq!(
            decode(&bytes).as_ref(),
            Ok(msg),
            "tag {} decodes back",
            msg.tag()
        );
    }
    for (name, frame, golden) in golden_streamed_frames() {
        let got = hex(&frame);
        if got != golden.replace(' ', "") {
            changed += 1;
        }
        report += &format!("{name}: {got}\n");
    }
    assert_eq!(
        changed, 0,
        "{changed} frames changed; current bytes:\n{report}"
    );
}
