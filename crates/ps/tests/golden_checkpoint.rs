//! Golden checkpoint bytes: one fixed checkpoint with every section, and one with
//! none, against the bytes the format writes.
//!
//! `proptest_checkpoint` and `proptest_restore` round-trip, so a field-order slip made
//! the same way in the encoder and the decoder passes them; a byte-for-byte comparison
//! does not. Every field of the fixture holds a value no other field holds, so
//! swapping two fields changes the bytes.
//!
//! The constants are the checkpoint format. A change that makes this test fail
//! changes what a restarted server reads back, and must bump [`CHECKPOINT_VERSION`].
//! To recapture after such a change, run `cargo test -p dssp-ps --test
//! golden_checkpoint`: the failure message prints each fixture's current bytes.

use dssp_ps::{
    Checkpoint, GateSnapshot, LayoutSnapshot, ServerStats, StoreSnapshot, CHECKPOINT_VERSION,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Three workers: worker 1 retired with no timestamps, worker 2 blocked, every
/// worker holding credits; a two-shard store over three weights; a two-shard layout.
fn full() -> Checkpoint {
    Checkpoint {
        job_digest: 0x0123_4567_89ab_cdef,
        tick: 12.5,
        store: Some(StoreSnapshot {
            flat: vec![1.5, -2.25, 0.75],
            offsets: vec![0, 2, 3],
            versions: vec![11, 12],
            velocity: vec![0.5, -0.125, 4.0],
            epoch: 13,
        }),
        gate: Some(GateSnapshot {
            counts: vec![21, 22, 23],
            retired: vec![false, true, false],
            latest: vec![Some(31.5), None, Some(33.25)],
            previous: vec![Some(30.5), None, Some(32.0)],
            blocked: vec![2],
            stats: ServerStats {
                pushes: 41,
                blocked_pushes: 42,
                releases: 43,
                staleness_sum: 44,
                staleness_max: 45,
                credits_granted: 46,
                credits_reclaimed: 47,
            },
            credits: vec![51, 52, 53],
            controller_invocations: 54,
        }),
        layout: Some(LayoutSnapshot {
            epoch: 61,
            assignment: vec![62, 63],
        }),
    }
}

/// No section at all: the header and three absent-section flags.
fn bare() -> Checkpoint {
    Checkpoint {
        job_digest: 0xfedc_ba98_7654_3210,
        tick: -0.5,
        store: None,
        gate: None,
        layout: None,
    }
}

/// The fixtures with their golden bytes, one field (or one run element) per group.
fn golden() -> Vec<(&'static str, Checkpoint, &'static str)> {
    vec![
        (
            "full",
            full(),
            "44535350434b5054 03000000 efcdab8967452301 0000000000002940 \
             01 \
             0300000000000000 0000c03f 000010c0 0000403f \
             0300000000000000 0000000000000000 0200000000000000 0300000000000000 \
             0200000000000000 0b00000000000000 0c00000000000000 \
             0300000000000000 0000003f 000000be 00008040 \
             0d00000000000000 \
             01 \
             0300000000000000 1500000000000000 1600000000000000 1700000000000000 \
             0300000000000000 00 01 00 \
             0300000000000000 01 0000000000803f40 00 01 0000000000a04040 \
             0300000000000000 01 0000000000803e40 00 01 0000000000004040 \
             0100000000000000 0200000000000000 \
             2900000000000000 2a00000000000000 2b00000000000000 2c00000000000000 \
             2d00000000000000 2e00000000000000 2f00000000000000 \
             0300000000000000 3300000000000000 3400000000000000 3500000000000000 \
             3600000000000000 \
             01 \
             3d00000000000000 \
             0200000000000000 3e000000 3f000000",
        ),
        (
            "bare",
            bare(),
            "44535350434b5054 03000000 1032547698badcfe 000000000000e0bf 00 00 00",
        ),
    ]
}

#[test]
fn every_fixture_encodes_to_its_golden_bytes() {
    assert_eq!(
        CHECKPOINT_VERSION, 3,
        "a format bump recaptures these bytes"
    );
    let mut report = String::new();
    let mut changed = 0;
    for (name, ckpt, golden) in golden() {
        let bytes = ckpt.encode();
        let got = hex(&bytes);
        if got != golden.replace(' ', "") {
            changed += 1;
        }
        report += &format!("{name}: {got}\n");
        assert_eq!(
            Checkpoint::decode(&bytes).ok().as_ref(),
            Some(&ckpt),
            "{name} decodes back"
        );
    }
    assert_eq!(
        changed, 0,
        "{changed} checkpoints changed; current bytes:\n{report}"
    );
}
