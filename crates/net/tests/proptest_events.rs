//! Property-based tests for the structured-event NDJSON codec: encode→parse is the
//! identity for every role/kind/payload/trace combination, and damaged lines are
//! rejected rather than misparsed.

use dssp_core::events::{encode_line, parse_line, trace_id, Event, EventKind, Role};
use proptest::prelude::*;

/// Picks a role by index (the proptest shim has no enum strategies).
fn role(variant: u32) -> Role {
    match variant % 4 {
        0 => Role::Server,
        1 => Role::Coordinator,
        2 => Role::ShardServer,
        _ => Role::Worker,
    }
}

/// Picks an event kind by index (all 15, spans included).
fn kind(variant: u32) -> EventKind {
    EventKind::ALL[(variant as usize) % EventKind::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn encode_then_parse_is_the_identity(
        role_ix in 0u32..4,
        kind_ix in 0u32..15,
        ts in 0u64..u64::MAX,
        rank in 0u32..u32::MAX,
        payload in 0u64..u64::MAX,
        trace_rank in 0u32..u32::MAX,
        trace_seq in 0u32..u32::MAX,
    ) {
        let event = Event {
            ts,
            role: role(role_ix),
            rank,
            kind: kind(kind_ix),
            payload,
            trace: trace_id(trace_rank, trace_seq),
        };
        let line = encode_line(&event);
        // NDJSON discipline: one line, no raw newline inside it.
        prop_assert!(!line.contains('\n'));
        prop_assert_eq!(parse_line(&line), Ok(event));
    }

    #[test]
    fn truncated_lines_are_rejected(
        role_ix in 0u32..4,
        kind_ix in 0u32..15,
        ts in 0u64..u64::MAX,
        rank in 0u32..u32::MAX,
        payload in 0u64..u64::MAX,
        trace in 0u64..u64::MAX,
        cut_fraction in 0.0f64..1.0,
    ) {
        let event = Event {
            ts,
            role: role(role_ix),
            rank,
            kind: kind(kind_ix),
            payload,
            trace,
        };
        let line = encode_line(&event);
        prop_assert!(line.is_ascii()); // slicing below is byte-indexed
        let cut = (((line.len() - 1) as f64) * cut_fraction) as usize;
        let prefix = &line[..cut.min(line.len() - 1)];
        prop_assert!(parse_line(prefix).is_err(), "prefix parsed: {prefix}");
    }

    #[test]
    fn field_corruption_is_rejected_or_roundtrips_differently(
        role_ix in 0u32..4,
        kind_ix in 0u32..15,
        ts in 0u64..1_000_000_000u64,
        rank in 0u32..1024,
        payload in 0u64..1_000_000_000u64,
        trace in 0u64..1_000_000_000u64,
        flip in 0usize..96,
    ) {
        let event = Event {
            ts,
            role: role(role_ix),
            rank,
            kind: kind(kind_ix),
            payload,
            trace,
        };
        let mut bytes = encode_line(&event).into_bytes();
        let i = flip % bytes.len();
        bytes[i] = bytes[i].wrapping_add(1);
        // A flipped byte either breaks the parse or yields a *different* event —
        // never silently the same one.
        if let Ok(line) = String::from_utf8(bytes) {
            if let Ok(reparsed) = parse_line(&line) { prop_assert!(reparsed != event) }
        }
    }
}
