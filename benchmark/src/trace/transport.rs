//! Transport probes: one client thread (this one) against the benchmark's own stub
//! servers, which acknowledge and reply but apply nothing. They time what the
//! transport adds to a round — syscalls, reader-thread hand-offs, framing, fan-out —
//! with the server's work taken out.

use super::{Probe, PROBE_SHARDS};
use crate::alloc::allocations;
use dssp_coord::{connect_links, GroupLayout, ShardFan};
use dssp_core::driver::JobConfig;
use dssp_core::events::NO_TRACE;
use dssp_net::transport::loopback;
use dssp_net::{
    wire, Message, PullOutcome, PullView, ServerTransport, TcpServerTransport, TcpWorkerTransport,
    WorkerTransport, PROTOCOL_VERSION,
};
use dssp_nn::Model;
use dssp_ps::ShardedStore;
use std::thread::JoinHandle;
use std::time::Duration;

/// A stalled probe errors out after this long instead of hanging the run.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// The stub: owns server `index`'s slice of `layout` and answers every request kind
/// the probes send. It acknowledges pushes without applying them, and advances every
/// shard's version on each push so that the next pull finds all of them stale, as
/// training does. Returns on `Done` or when the client goes away.
fn stub_server(mut transport: impl ServerTransport, layout: GroupLayout, index: usize) {
    let (start, end) = layout.key_range(index);
    let initial: Vec<f32> = (start..end).map(|i| (i as f32 * 0.37).sin()).collect();
    let mut store = ShardedStore::with_offsets(initial, layout.local_offsets(index));
    let (first_shard, _) = layout.shard_span(index);
    let mut version: u64 = 0;
    let mut reply = Vec::new();
    while let Ok((rank, msg)) = transport.recv() {
        let sent = match msg {
            Message::Hello { .. } | Message::GroupHello { .. } => Ok(()),
            Message::JoinRequest => transport.send(
                rank,
                &Message::JoinAck {
                    clock: version,
                    epoch: 0,
                    assignment: Vec::new(),
                },
            ),
            Message::ClockPush { .. } => {
                version += 1;
                transport.send(
                    rank,
                    &Message::ClockGrant {
                        granted_extra: 0,
                        version,
                    },
                )
            }
            Message::Push { grads, .. } => {
                transport.recycle_f32s(rank, grads);
                store.bump_all_versions();
                version += 1;
                transport.send(
                    rank,
                    &Message::PushReply {
                        granted_extra: 0,
                        version,
                    },
                )
            }
            Message::Pull { .. } => {
                transport.send_pull_reply(rank, &view_of(&store, version, None))
            }
            Message::PullDelta { known_versions, .. } => {
                let sent = transport
                    .send_pull_reply(rank, &view_of(&store, version, Some(&known_versions)));
                transport.recycle_u64s(rank, known_versions);
                sent
            }
            Message::PushSlice { grads, .. } => {
                transport.recycle_f32s(rank, grads);
                store.bump_all_versions();
                version += 1;
                transport.send(rank, &Message::SliceAck { version })
            }
            Message::PullShards { known_versions, .. } => {
                reply.clear();
                wire::encode_pull_reply_delta(
                    &mut reply,
                    version,
                    (0..store.num_shards())
                        .map(|i| ((first_shard + i) as u32, store.version(i), store.shard(i))),
                );
                transport.recycle_u64s(rank, known_versions);
                transport.send_payload(rank, &reply)
            }
            _ => return,
        };
        if sent.is_err() {
            return;
        }
    }
}

fn view_of<'a>(store: &'a ShardedStore, clock: u64, known: Option<&'a [u64]>) -> PullView<'a> {
    PullView {
        clock,
        versions: store.versions(),
        offsets: store.offsets(),
        weights: store.as_flat(),
        known,
    }
}

/// Starts one TCP stub per server of `layout`; returns their addresses and threads.
fn start_tcp_stubs(layout: &GroupLayout) -> Result<(Vec<String>, Vec<JoinHandle<()>>), String> {
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for index in 0..layout.servers() {
        let transport =
            TcpServerTransport::bind("127.0.0.1:0", 1).map_err(|e| format!("bind stub: {e}"))?;
        addrs.push(transport.local_addr().to_string());
        let layout = layout.clone();
        handles.push(std::thread::spawn(move || {
            stub_server(transport, layout, index)
        }));
    }
    Ok((addrs, handles))
}

fn join_all(handles: Vec<JoinHandle<()>>) -> Result<(), String> {
    for handle in handles {
        handle
            .join()
            .map_err(|_| "a stub server panicked".to_string())?;
    }
    Ok(())
}

fn done() -> Message {
    Message::Done {
        iterations: 0,
        epochs: 0,
        waiting_time_s: 0.0,
    }
}

/// Runs every transport probe at `job`'s parameter count and appends the metrics.
pub fn measure(
    probe: &mut Probe,
    job: &JobConfig,
    metrics: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let params = job.model.build(job.seed).param_len();
    let grads: Vec<f32> = (0..params).map(|i| (i as f32 * 0.11).cos()).collect();
    single_server(probe, params, &grads, metrics)?;
    loopback_push(probe, &grads, metrics)?;
    for (servers, push_metric, pull_metric) in [
        (1, "coord.push_round_us.s1", "coord.pull_group_us.s1"),
        (2, "coord.push_round_us.s2", "coord.pull_group_us.s2"),
        (4, "coord.push_round_us.s4", "coord.pull_group_us.s4"),
    ] {
        group(
            probe,
            job,
            params,
            &grads,
            servers,
            push_metric,
            pull_metric,
            metrics,
        )?;
    }
    Ok(())
}

/// One `TcpWorkerTransport` against one TCP stub: the small-message floor, a clock
/// hop, a push round trip, a pull round trip, and the allocations of a push + pull
/// round.
fn single_server(
    probe: &mut Probe,
    params: usize,
    grads: &[f32],
    metrics: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let layout = GroupLayout::new(params, PROBE_SHARDS, 1);
    let (addrs, handles) = start_tcp_stubs(&layout)?;
    let mut client = TcpWorkerTransport::connect(&addrs[0]).map_err(|e| e.to_string())?;
    client
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| e.to_string())?;
    client
        .send(&Message::Hello {
            version: PROTOCOL_VERSION,
            rank: 0,
            num_workers: 1,
            config_digest: 0,
        })
        .map_err(|e| e.to_string())?;

    let mut failures = 0u64;
    let mut weights = Vec::new();
    let mut versions = Vec::new();
    let push = |client: &mut TcpWorkerTransport, failures: &mut u64| {
        let ok = client.send_push(1, NO_TRACE, grads).is_ok()
            && matches!(client.recv(), Ok(Message::PushReply { .. }));
        *failures += u64::from(!ok);
    };
    let mut pull = |client: &mut TcpWorkerTransport, failures: &mut u64| {
        let applied = client.pull_into(true, NO_TRACE, &mut weights, &mut versions);
        *failures += u64::from(!matches!(applied, Ok(PullOutcome::Applied(_))));
    };

    let small = probe.time("net.tcp.small_rtt", || {
        let ok = client.send(&Message::JoinRequest).is_ok()
            && matches!(client.recv(), Ok(Message::JoinAck { .. }));
        failures += u64::from(!ok);
    });
    let clock = probe.time("coord.clock_rtt", || {
        let ok = client
            .send(&Message::ClockPush {
                iteration: 1,
                trace: NO_TRACE,
            })
            .is_ok()
            && matches!(client.recv(), Ok(Message::ClockGrant { .. }));
        failures += u64::from(!ok);
    });
    pull(&mut client, &mut failures); // the first pull is a full one; time deltas
                                      // Push and pull alternate, so every pull finds every shard stale, as in training.
    let rtts = probe.time_round(&["net.tcp.push_rtt", "net.tcp.pull_rtt"], |rec| {
        rec.span("net.tcp.push_rtt", || push(&mut client, &mut failures));
        rec.span("net.tcp.pull_rtt", || pull(&mut client, &mut failures));
    });

    // Allocations on every thread (client, stub, reader) over warm push + pull rounds.
    const COUNTED_ROUNDS: u64 = 32;
    let allocs_before = allocations();
    for _ in 0..COUNTED_ROUNDS {
        push(&mut client, &mut failures);
        pull(&mut client, &mut failures);
    }
    let allocs = allocations() - allocs_before;

    let _ = client.send(&done());
    drop(client);
    join_all(handles)?;
    if failures > 0 {
        return Err(format!("{failures} single-server probe exchanges failed"));
    }
    if weights.len() != params {
        return Err(format!(
            "pulled {} weights, expected {params}",
            weights.len()
        ));
    }
    metrics.push(("net.tcp.small_rtt_us", small / 1e3));
    metrics.push(("coord.clock_rtt_us", clock / 1e3));
    metrics.push(("net.tcp.push_rtt_us", rtts[0] / 1e3));
    metrics.push(("net.tcp.pull_rtt_us", rtts[1] / 1e3));
    metrics.push(("net.round_allocs", allocs as f64 / COUNTED_ROUNDS as f64));
    Ok(())
}

/// One push round trip over the in-process loopback transport: messages are moved
/// through channels, not serialized.
fn loopback_push(
    probe: &mut Probe,
    grads: &[f32],
    metrics: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let (server, mut workers) = loopback(1);
    let mut client = workers.pop().expect("one worker end");
    let layout = GroupLayout::new(grads.len(), PROBE_SHARDS, 1);
    let handle = std::thread::spawn(move || stub_server(server, layout, 0));
    let mut failures = 0u64;
    let rtt = probe.time("net.loopback.push_rtt", || {
        let ok = client.send_push(1, NO_TRACE, grads).is_ok()
            && matches!(client.recv(), Ok(Message::PushReply { .. }));
        failures += u64::from(!ok);
    });
    let _ = client.send(&done());
    join_all(vec![handle])?;
    if failures > 0 {
        return Err(format!("{failures} loopback push exchanges failed"));
    }
    metrics.push(("net.loopback.push_rtt_us", rtt / 1e3));
    Ok(())
}

/// The program's group client (`ShardFan`) against `servers` TCP stubs: one push
/// round (slices out, acks in) and one group pull (requests out, replies applied).
#[allow(clippy::too_many_arguments)]
fn group(
    probe: &mut Probe,
    job: &JobConfig,
    params: usize,
    grads: &[f32],
    servers: usize,
    push_metric: &'static str,
    pull_metric: &'static str,
    metrics: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let job = JobConfig {
        shards: PROBE_SHARDS,
        servers,
        num_workers: 1,
        extra_compute_delay_ms: Vec::new(),
        ..job.clone()
    };
    let layout = GroupLayout::new(params, PROBE_SHARDS, servers);
    let (addrs, handles) = start_tcp_stubs(&layout)?;
    let links = connect_links(&addrs, Some(READ_TIMEOUT)).map_err(|e| e.to_string())?;
    let mut fan = ShardFan::new(&job, params, links);
    fan.hello(&job, 0).map_err(|e| e.to_string())?;
    let mut weights = Vec::new();
    let mut versions = Vec::new();
    let mut failures = 0u64;
    // The first group pull asks for everything and primes the version cache.
    fan.pull_group(true, NO_TRACE, &mut weights, &mut versions)
        .map_err(|e| e.to_string())?;
    // Push and pull alternate, so every pull finds every shard stale, as in training.
    let ns = probe.time_round(&[push_metric, pull_metric], |rec| {
        let pushed = rec.span(push_metric, || fan.push_slices(1, NO_TRACE, grads));
        let pulled = rec.span(pull_metric, || {
            fan.pull_group(true, NO_TRACE, &mut weights, &mut versions)
        });
        failures += u64::from(pushed.is_err()) + u64::from(pulled.is_err());
    });
    fan.send_all(&done());
    drop(fan);
    join_all(handles)?;
    if failures > 0 {
        return Err(format!(
            "{failures} group probe exchanges failed at {servers} servers"
        ));
    }
    metrics.push((push_metric, ns[0] / 1e3));
    metrics.push((pull_metric, ns[1] / 1e3));
    Ok(())
}
