//! The worker side of a group: per-server links, the pipelined fan-out, and the
//! group's [`WorkerLink`].
//!
//! A [`ShardFan`] holds one [`WorkerTransport`] per shard server plus the closed-form
//! [`GroupLayout`], and runs every bulk exchange as a **pipelined fan-out**: requests
//! go out to all servers first, then the replies are collected, so the servers
//! decode/apply/encode concurrently while the client is still writing to the others.
//! Pulls assemble directly into the caller's *global* weight/version buffers (each
//! server's reply carries global shard indices, landing in its own key ranges — the
//! buffers are reused across the whole run, like the single-server path), and pushes
//! slice the caller's global gradient buffer by each server's key range without
//! copying.
//!
//! [`run_group_worker`] is `dssp_net::run_worker`'s loop
//! ([`dssp_net::worker::run_worker_loop`]) over a different link: weights fanned over
//! the servers, and only clock messages exchanged with the coordinator. The loop,
//! its events, trace ids and fault points are not repeated here.
//!
//! **A round is two exchanges.** The push round asks every server for its shards
//! ([`ShardFan::push_and_pull`]): each answers its slice with a
//! `SliceApplied` — per rank, the highest iteration it has applied — and all its shards
//! in the same write, and the worker reads both from every link, in link order, into
//! its weight and version buffers. It sends `ClockPush` (`PushApplied` in deterministic
//! mode) as soon as the last link's ack is in, so the clock hop travels while that
//! link's shards are read. The coordinator's `GroupGrant` carries the gate's per-rank
//! push counts at the decision. The worker keeps the weights it holds iff every
//! counted push is in them ([`keeps_weights`]); otherwise it pulls exactly as before
//! the fusion. The rule is exact:
//!
//! * the gate counts a push only once every server acked its slices (free-running:
//!   `ClockPush` follows the acks; deterministic: the clock advances on
//!   `PushApplied`), so every counted push is applied everywhere before any grant it
//!   causes, and a pull after the grant sees them all;
//! * the fused weights are each server's store at this worker's own apply, and a
//!   rank's pushes reach a server in iteration order, so they lack a counted push
//!   only if it reached some server afterwards: `counted[w] > applied_i[w]`;
//! * `applied` is a highest iteration, not a count, so a slice a restarted worker
//!   replays cannot stand in for another rank's missing push, and a restored server
//!   reports zeros until it has seen each rank again.
//!
//! The weights are read right behind each link's ack — the last link's while
//! `ClockPush` travels — and never left in the socket while the worker waits at the
//! gate: a shard server writes them from a step that holds its lock, so a parked
//! worker would stall every peer behind it (`dssp_net::tcp`'s module docs give the
//! whole argument).
//!
//! **One failure policy.** Push and pull rounds meet a lost, frozen or re-laid-out
//! shard server in one place, the per-link exchange behind both:
//!
//! * a lost link is re-dialed once per round, wherever the loss is met, its
//!   `GroupHello` replayed and its request sent again; a re-dialed link's restored
//!   server may be behind the version cache, so its pull, and the next round's, asks
//!   for every shard, and the round leaves no weights to keep;
//! * a frozen server (mid-migration, its refusal withholding the layout) is asked
//!   again with bounded probes until the migration resolves, and a freeze that
//!   outlives them is a typed error, never a hang;
//! * a committed layout goes back to the round, which adopts it. A push round
//!   re-slices and re-sends the whole round, sound only while no server applied a
//!   slice of it, so a commit behind an applied slice is the typed torn-round
//!   refusal. A pull round re-requests just that link by its new span, since replies
//!   carry global shard indices.

use crate::layout::GroupLayout;
use dssp_core::driver::{FaultRole, JobConfig};
use dssp_core::events::{EventKind, EventLog};
use dssp_net::tcp::TcpWorkerTransport;
use dssp_net::transport::PullOutcome;
use dssp_net::wire::PROTOCOL_VERSION;
use dssp_net::worker::{run_worker_loop, LinkEnd, WorkerLink, WorkerReport};
use dssp_net::{FaultClock, Message, NetError, WorkerTransport};
use std::sync::Arc;
use std::time::Duration;

/// The keep-or-re-pull rule of a group round: whether weights fused into a push
/// round hold every push a grant counted. `counted[w]` is how many of rank `w`'s
/// pushes the gate had counted at the decision (`GroupGrant::counted`); each item of
/// `applied` is one shard server's `SliceApplied::applied`, the highest iteration of
/// each rank it had applied when it wrote its shards (a rank it has no entry for reads
/// as 0). They do iff `counted[w] ≤ applied_i[w]` for every rank and server.
pub fn keeps_weights<'a>(counted: &[u64], applied: impl IntoIterator<Item = &'a [u64]>) -> bool {
    applied.into_iter().all(|server| {
        counted
            .iter()
            .enumerate()
            .all(|(w, &c)| c <= server.get(w).copied().unwrap_or(0))
    })
}

/// The caller's global weight and version buffers, filled by a pulling push round.
type Fetch<'b> = Option<(&'b mut Vec<f32>, &'b mut Vec<u64>)>;

/// What a pulling push round calls once every server acked its slice.
type Announce<'b> = Option<&'b mut dyn FnMut()>;

/// One connection to a shard server, with the label used to attribute failures.
pub struct ServerLink {
    /// The transport to the server.
    pub transport: Box<dyn WorkerTransport>,
    /// Human-readable name ("shard server 1 at 127.0.0.1:4242").
    pub label: String,
    /// The TCP address to re-dial if the connection drops. `None` disables
    /// reconnection (in-process loopback links cannot be re-dialed).
    pub addr: Option<String>,
    /// Read timeout to re-arm on a reconnected transport.
    pub read_timeout: Option<Duration>,
}

impl ServerLink {
    /// Wraps a transport with a label. The link is not reconnectable; see
    /// [`ServerLink::with_reconnect`].
    pub fn new(transport: Box<dyn WorkerTransport>, label: impl Into<String>) -> Self {
        Self {
            transport,
            label: label.into(),
            addr: None,
            read_timeout: None,
        }
    }

    /// Makes the link reconnectable: when the server vanishes mid-fan-out
    /// ([`NetError::PeerLost`] / [`NetError::PeerTimeout`]), the fan re-dials `addr`,
    /// re-arms `read_timeout`, replays the `GroupHello`, and sends the request again,
    /// once per round before giving up.
    pub fn with_reconnect(
        mut self,
        addr: impl Into<String>,
        read_timeout: Option<Duration>,
    ) -> Self {
        self.addr = Some(addr.into());
        self.read_timeout = read_timeout;
        self
    }
}

/// Outcome of a fan-out exchange (push round or pull round).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FanOutcome {
    /// Every server answered; the caller's buffers are up to date.
    Applied,
    /// A server relayed the coordinator's shutdown instead of answering.
    Shutdown {
        /// [`dssp_net::wire::SHUTDOWN_OK`] or the error reason.
        reason: u8,
    },
}

/// The `GroupHello` parameters recorded at handshake time, so a reconnected link can
/// replay the handshake without the caller's involvement.
#[derive(Clone, Copy)]
struct HelloReplay {
    rank: u32,
    num_workers: u32,
    config_digest: u64,
    servers: u32,
}

/// The per-server fan-out state of one group client (a worker, or the coordinator
/// assembling evaluation weights).
pub struct ShardFan {
    links: Vec<ServerLink>,
    layout: GroupLayout,
    /// Whether the version cache has been primed (first pull always ships all).
    warm: bool,
    /// The handshake to replay on a reconnected link (set by [`ShardFan::hello`]).
    hello_replay: Option<HelloReplay>,
    /// Per link, the `SliceApplied::applied` of the last pulling push round.
    applied: Vec<Vec<u64>>,
    /// Per link, whether it was re-dialed this round (at most once).
    redialed: Vec<bool>,
    /// Whether the caller's buffers hold what the last push round fetched, from
    /// every link and without a re-dial — the weights [`ShardFan::keeps_weights`]
    /// judges.
    fetched: bool,
    /// Fan-out pull rounds whose per-server requests asked for every owned shard
    /// (and kept push-round weights, counted as the pull they replace).
    pub full_pulls: u64,
    /// Fan-out pull rounds answered incrementally (and kept push-round weights,
    /// counted as the pull they replace).
    pub delta_pulls: u64,
    /// Links that were successfully re-dialed after a mid-run loss.
    pub reconnects: u64,
    /// Event log to record [`EventKind::Reconnect`] into (payload: the server index
    /// that was re-dialed). `None` keeps the fan silent.
    log: Option<Arc<EventLog>>,
}

impl ShardFan {
    /// Builds a fan over one link per shard server.
    ///
    /// # Panics
    ///
    /// Panics if the link count differs from the job's server count or the job's
    /// shard and server counts make no layout ([`GroupLayout::new`]).
    pub fn new(job: &JobConfig, param_len: usize, links: Vec<ServerLink>) -> Self {
        assert_eq!(
            links.len(),
            job.servers,
            "need exactly one link per shard server"
        );
        Self {
            applied: vec![Vec::new(); links.len()],
            redialed: vec![false; links.len()],
            links,
            layout: GroupLayout::new(param_len, job.shards, job.servers),
            warm: false,
            hello_replay: None,
            fetched: false,
            full_pulls: 0,
            delta_pulls: 0,
            reconnects: 0,
            log: None,
        }
    }

    /// Attaches an event log so successful re-dials surface as
    /// [`EventKind::Reconnect`] events.
    pub fn set_event_log(&mut self, log: Option<Arc<EventLog>>) {
        self.log = log;
    }

    /// The group layout.
    pub fn layout(&self) -> &GroupLayout {
        &self.layout
    }

    /// Adopts a committed migration's layout: re-routes every subsequent push and
    /// pull by the new shard→server assignment, stamped with the new epoch. The
    /// version cache survives — shard indices are global, and shards carried their
    /// versions with them.
    pub fn adopt(&mut self, epoch: u64, assignment: &[u32]) -> Result<(), NetError> {
        if epoch == self.layout.epoch() {
            return Ok(()); // already adopted (duplicate broadcast)
        }
        self.layout = GroupLayout::from_parts(
            self.layout.params(),
            self.layout.servers(),
            assignment.to_vec(),
            epoch,
        )
        .map_err(NetError::Protocol)?;
        Ok(())
    }

    /// Handshakes every server with a [`Message::GroupHello`] announcing `rank`
    /// (`num_workers` for the coordinator).
    pub fn hello(&mut self, job: &JobConfig, rank: u32) -> Result<(), NetError> {
        // The handshake carries the *stable* digest (chaos/checkpoint fields masked),
        // so a server restarted without its predecessor's fault plan still accepts
        // the surviving workers.
        let replay = HelloReplay {
            rank,
            num_workers: job.num_workers as u32,
            config_digest: job.stable_digest(),
            servers: job.servers as u32,
        };
        self.hello_replay = Some(replay);
        for (i, link) in self.links.iter_mut().enumerate() {
            link.transport
                .send(&hello_message(&replay, i as u32))
                .map_err(|e| at_link(link, e))?;
        }
        Ok(())
    }

    /// One push round: ships `grads` sliced by each server's key range (requests
    /// first, then all [`Message::SliceAck`]s), so a completed round means every
    /// server applied its slice. Every slice is stamped with the fan's layout epoch;
    /// a server that refuses the stamp is frozen mid-migration (waited out) or
    /// already committed a newer layout (adopted, and the whole round re-sliced and
    /// re-sent — sound because a commit implies no server applied this round's
    /// slices). The module docs give the whole failure policy.
    pub fn push_slices(
        &mut self,
        iteration: u64,
        trace: u64,
        grads: &[f32],
    ) -> Result<FanOutcome, NetError> {
        self.push_round(iteration, trace, grads, None, None)
    }

    /// A pulling push round: [`ShardFan::push_slices`], with every server asked to
    /// write all its shards right behind its ack. Each link's answer — the
    /// [`Message::SliceApplied`] and the shards — is read into the caller's global
    /// buffers (sized here on first use) before the next link's, whichever request
    /// of the round it answers. [`ShardFan::keeps_weights`] then says whether those
    /// weights hold the pushes a grant counted. A round that re-dialed a link leaves
    /// nothing to keep: the next pull asks for every shard.
    ///
    /// `announce` is called as soon as every server's [`Message::SliceApplied`] is in:
    /// once the links before the last one were read whole, and before the last link's
    /// shards are read. So whatever `announce` sends travels while those shards are
    /// still coming in. It is called at most once per round, and never on a refusal, a
    /// commit or a relayed shutdown; a link lost behind its ack is re-dialed as in any
    /// round.
    pub fn push_and_pull(
        &mut self,
        iteration: u64,
        trace: u64,
        grads: &[f32],
        weights: &mut Vec<f32>,
        versions: &mut Vec<u64>,
        announce: &mut dyn FnMut(),
    ) -> Result<FanOutcome, NetError> {
        weights.resize(self.layout.params(), 0.0);
        versions.resize(self.layout.shards(), 0);
        let fetch = Some((weights, versions));
        self.push_round(iteration, trace, grads, fetch, Some(announce))
    }

    /// Whether the weights the last push round fetched hold every push a grant
    /// `counted` ([`keeps_weights`] over every link's ack). False when that round
    /// fetched nothing, or re-dialed a link, or a pull has run since.
    pub fn keeps_weights(&self, counted: &[u64]) -> bool {
        self.fetched && keeps_weights(counted, self.applied.iter().map(Vec::as_slice))
    }

    /// The push round behind [`ShardFan::push_slices`] and
    /// [`ShardFan::push_and_pull`]: one attempt, and one more after a
    /// re-adoption. One re-adoption per round is the legitimate race (a commit landed
    /// between our last layout update and this push); a second means the group is
    /// committing migrations faster than we can push, which is a protocol anomaly.
    /// `announce` is handed to the last link's exchange only when every link before
    /// it acked, and it is taken when called, so it is called at most once.
    fn push_round(
        &mut self,
        iteration: u64,
        trace: u64,
        grads: &[f32],
        fetch: Fetch<'_>,
        mut announce: Announce<'_>,
    ) -> Result<FanOutcome, NetError> {
        assert_eq!(
            grads.len(),
            self.layout.params(),
            "gradient length mismatch"
        );
        self.fetched = false;
        self.redialed.fill(false);
        let pull = fetch.is_some();
        let mut ask = Ask::Push {
            iteration,
            trace,
            grads,
            fetch,
        };
        for _ in 0..2 {
            for i in 0..self.links.len() {
                self.request(i, &ask)?;
            }
            let mut acked = 0usize;
            let mut committed = None;
            for i in 0..self.links.len() {
                let mut unarmed = None;
                let hook = if i + 1 == self.links.len() && committed.is_none() {
                    &mut announce
                } else {
                    &mut unarmed
                };
                match self.exchange(i, &mut ask, hook)? {
                    Answer::Answered(FanOutcome::Applied) => acked += 1,
                    Answer::Answered(shutdown) => return Ok(shutdown),
                    Answer::Committed { epoch, assignment } => {
                        committed = Some((epoch, assignment));
                    }
                }
            }
            let Some((new_epoch, assignment)) = committed else {
                self.fetched = self.settle(pull);
                return Ok(FanOutcome::Applied);
            };
            if acked > 0 {
                // Unreachable when the coordinator migrates at quiescence; kept as
                // the typed terminal refusal for torn states under chaos.
                return Err(NetError::Protocol(format!(
                    "torn push round at iteration {iteration}: {acked} server(s) applied \
                     epoch-{} slices but the group committed epoch {new_epoch} mid-round",
                    self.layout.epoch()
                )));
            }
            self.adopt(new_epoch, &assignment)?;
        }
        Err(NetError::Protocol(format!(
            "push round {iteration} kept hitting retired layouts after re-adoption"
        )))
    }

    /// One pull round against the caller's global buffers (sized here on first use):
    /// each server is asked for its owned shards — all of them when `prefer_delta` is
    /// off or the cache is cold, only the stale ones otherwise — and every reply is
    /// applied in place.
    pub fn pull_group(
        &mut self,
        prefer_delta: bool,
        trace: u64,
        weights: &mut Vec<f32>,
        versions: &mut Vec<u64>,
    ) -> Result<FanOutcome, NetError> {
        weights.resize(self.layout.params(), 0.0);
        versions.resize(self.layout.shards(), 0);
        self.fetched = false;
        self.redialed.fill(false);
        let all = !prefer_delta || !self.warm;
        let mut ask = Ask::Pull {
            trace,
            all,
            weights,
            versions,
        };
        for i in 0..self.links.len() {
            self.request(i, &ask)?;
        }
        for i in 0..self.links.len() {
            // Pull replies carry global shard indices, so a commit re-routes this link
            // alone: shards the retired owners already shipped stay valid.
            loop {
                match self.exchange(i, &mut ask, &mut None)? {
                    Answer::Answered(FanOutcome::Applied) => break,
                    Answer::Answered(shutdown) => return Ok(shutdown),
                    Answer::Committed { epoch, assignment } => {
                        self.adopt(epoch, &assignment)?;
                        self.request(i, &ask)?;
                    }
                }
            }
        }
        self.settle(true);
        if all {
            self.full_pulls += 1;
        } else {
            self.delta_pulls += 1;
        }
        Ok(FanOutcome::Applied)
    }

    /// Ends a round every link answered. After a re-dial a restored server may hold
    /// shard versions behind the cache, so the next pull asks for every shard;
    /// otherwise a round that `fetched` every server's shards leaves the cache whole.
    /// Yields whether the caller's buffers hold what the round fetched.
    fn settle(&mut self, fetched: bool) -> bool {
        if self.redialed.contains(&true) {
            self.warm = false;
            return false;
        }
        self.warm |= fetched;
        fetched
    }

    /// Sends link `i` its request under the current layout, re-dialing the link once
    /// if it is lost.
    fn request(&mut self, i: usize, ask: &Ask<'_>) -> Result<(), NetError> {
        if let Err(e) = self.send_request(i, ask) {
            self.redial(i, e)?;
            self.send_request(i, ask)?;
        }
        Ok(())
    }

    /// Writes link `i`'s request: its key range of a push's gradients, or its span of
    /// the version cache — asking for every shard after a re-dial.
    fn send_request(&mut self, i: usize, ask: &Ask<'_>) -> Result<(), NetError> {
        let epoch = self.layout.epoch();
        let link = &mut self.links[i];
        match ask {
            Ask::Push {
                iteration,
                trace,
                grads,
                fetch,
            } => {
                let (start, end) = self.layout.key_range(i);
                let (pull, slice) = (fetch.is_some(), &grads[start..end]);
                link.transport
                    .send_push_slice(*iteration, epoch, *trace, pull, slice)
            }
            Ask::Pull {
                trace,
                all,
                versions,
                ..
            } => {
                let (lo, hi) = self.layout.shard_span(i);
                let all = *all || self.redialed[i];
                link.transport
                    .send_pull_shards(&versions[lo..hi], all, epoch, *trace)
            }
        }
        .map_err(|e| at_link(link, e))
    }

    /// Link `i`'s exchange once its request is out: the one place a round meets a
    /// lost, frozen or re-laid-out server. A lost link is re-dialed (once per round,
    /// wherever the loss is met) and asked again. A frozen server is asked again
    /// every [`FREEZE_PROBE_INTERVAL`] until its migration resolves, and a freeze
    /// that outlives [`FREEZE_PROBES`] probes is a typed error rather than a hang. A
    /// committed layout goes back to the caller to adopt and re-route by. `announce`
    /// is called once the link's ack is in, if it is handed one.
    fn exchange(
        &mut self,
        i: usize,
        ask: &mut Ask<'_>,
        announce: &mut Announce<'_>,
    ) -> Result<Answer, NetError> {
        let mut probes = 0;
        loop {
            match self.recv(i, ask, announce) {
                Ok(outcome) => return Ok(Answer::Answered(outcome)),
                Err(NetError::EpochRefused { epoch, assignment }) if !assignment.is_empty() => {
                    return Ok(Answer::Committed { epoch, assignment })
                }
                Err(NetError::EpochRefused { .. }) if probes < FREEZE_PROBES => {
                    probes += 1;
                    std::thread::sleep(FREEZE_PROBE_INTERVAL);
                }
                Err(NetError::EpochRefused { .. }) => {
                    return Err(NetError::Protocol(format!(
                        "migration freeze at {} never resolved (no commit or rollback \
                         within {FREEZE_PROBES} probes)",
                        self.links[i].label
                    )))
                }
                Err(e) => self.redial(i, e)?,
            }
            self.request(i, ask)?;
        }
    }

    /// Reads link `i`'s answer into the round's buffers. A pulling slice is answered
    /// with a [`Message::SliceApplied`], whose per-rank run lands in the link's
    /// `applied`, and the shards behind it; a plain one with a [`Message::SliceAck`];
    /// a pull with the shards. A shutdown relayed in place of any of them reads as the
    /// shutdown, and a refusal comes back as [`NetError::EpochRefused`] whichever
    /// request it answers. `announce`, if any, is taken and called between a
    /// `SliceApplied` and its shards.
    fn recv(
        &mut self,
        i: usize,
        ask: &mut Ask<'_>,
        announce: &mut Announce<'_>,
    ) -> Result<FanOutcome, NetError> {
        let link = &mut self.links[i];
        let shards = match ask {
            Ask::Pull {
                weights, versions, ..
            } => link.transport.recv_pull_apply(weights, versions),
            Ask::Push { fetch, .. } => {
                let pull = fetch.is_some();
                let ack = link
                    .transport
                    .recv_with_run(&mut self.applied[i])
                    .map_err(|e| at_link(link, e))?;
                match (ack, fetch) {
                    (Message::SliceApplied { .. }, Some((weights, versions))) => {
                        if let Some(announce) = announce.take() {
                            announce();
                        }
                        link.transport.recv_pull_apply(weights, versions)
                    }
                    (Message::SliceAck { .. }, None) => return Ok(FanOutcome::Applied),
                    (Message::Shutdown { reason }, _) => {
                        return Ok(FanOutcome::Shutdown { reason })
                    }
                    (Message::EpochRefused { epoch, assignment }, _) => {
                        return Err(NetError::EpochRefused { epoch, assignment })
                    }
                    (other, _) => {
                        return Err(NetError::Protocol(format!(
                            "{} answered a slice (pull {pull}) with {other:?}",
                            link.label
                        )))
                    }
                }
            }
        };
        match shards.map_err(|e| at_link(link, e))? {
            PullOutcome::Applied(shards) => {
                // Reconnect context: the server clock this link confirmed, so a later
                // PeerLost error says where the session stood.
                link.transport.note_confirmed_clock(shards.clock);
                Ok(FanOutcome::Applied)
            }
            PullOutcome::Shutdown { reason } => Ok(FanOutcome::Shutdown { reason }),
        }
    }

    /// Re-dials lost link `i` and replays its handshake, or hands `e` back: when it
    /// is not a loss, when the link cannot be re-dialed (no address, or no handshake
    /// to replay yet), or when it already was this round.
    fn redial(&mut self, i: usize, e: NetError) -> Result<(), NetError> {
        let lost = matches!(e, NetError::PeerLost { .. } | NetError::PeerTimeout { .. });
        let link = &mut self.links[i];
        match (link.addr.clone(), self.hello_replay) {
            (Some(addr), Some(replay)) if lost && !self.redialed[i] => {
                reconnect(link, &addr, &hello_message(&replay, i as u32))?;
            }
            _ => return Err(e),
        }
        self.redialed[i] = true;
        self.reconnects += 1;
        if let Some(log) = &self.log {
            log.record(EventKind::Reconnect, i as u64);
        }
        Ok(())
    }

    /// Best-effort send to every server (shutdown propagation).
    pub fn send_all(&mut self, msg: &Message) {
        for link in self.links.iter_mut() {
            let _ = link.transport.send(msg);
        }
    }

    /// The number of per-server links (the fleet size, drained servers included).
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Sends one control message to shard server `server`. Used by the coordinator's
    /// migration driver (prepare/transfer/commit legs); failures are attributed to
    /// the link, never retried — a dead server mid-migration means rollback.
    pub fn send_to(&mut self, server: usize, msg: &Message) -> Result<(), NetError> {
        let link = &mut self.links[server];
        link.transport.send(msg).map_err(|e| at_link(link, e))
    }

    /// Receives one message from shard server `server` (migration control acks and
    /// relayed shard payloads).
    pub fn recv_from(&mut self, server: usize) -> Result<Message, NetError> {
        let link = &mut self.links[server];
        link.transport.recv().map_err(|e| at_link(link, e))
    }

    /// Asks every server for its counters ([`Message::StatsRequest`]) and returns each
    /// link's answer in server order. Each link is asked and awaited on its own, so a
    /// server that cannot answer (dead link, failed send, unexpected reply) fails only
    /// its own entry.
    pub fn collect_stats(&mut self) -> Vec<Result<ServerCounters, NetError>> {
        self.links
            .iter_mut()
            .map(|link| {
                link.transport
                    .send(&Message::StatsRequest)
                    .map_err(|e| at_link(link, e))?;
                match link.transport.recv().map_err(|e| at_link(link, e))? {
                    Message::StatsReply {
                        pushes,
                        pulls_full,
                        pulls_delta,
                        bytes_sent,
                        bytes_received,
                        epoch,
                    } => Ok(ServerCounters {
                        pushes,
                        pulls_full,
                        pulls_delta,
                        bytes_sent,
                        bytes_received,
                        epoch,
                    }),
                    other => Err(NetError::Protocol(format!(
                        "expected StatsReply from {}, got {other:?}",
                        link.label
                    ))),
                }
            })
            .collect()
    }
}

/// One shard server's counters, as its [`Message::StatsReply`] reports them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Gradient-slice pushes applied.
    pub pushes: u64,
    /// Pulls answered with every owned shard.
    pub pulls_full: u64,
    /// Pulls answered incrementally.
    pub pulls_delta: u64,
    /// Bytes the server wrote, frame headers included.
    pub bytes_sent: u64,
    /// Bytes the server read, frame headers included.
    pub bytes_received: u64,
    /// The layout epoch the server is serving at.
    pub epoch: u64,
}

/// What a round asks each link for, with the caller's buffers the answers land in.
enum Ask<'b> {
    /// The link's key range of `grads`; with `fetch`, the server writes all its shards
    /// behind the ack, read into those buffers.
    Push {
        iteration: u64,
        trace: u64,
        grads: &'b [f32],
        fetch: Fetch<'b>,
    },
    /// The link's owned shards: the stale ones, or every one when `all`.
    Pull {
        trace: u64,
        all: bool,
        weights: &'b mut Vec<f32>,
        versions: &'b mut Vec<u64>,
    },
}

/// How one link's exchange ended.
enum Answer {
    /// The server answered, or relayed the coordinator's shutdown.
    Answered(FanOutcome),
    /// The group committed a newer layout; the round adopts it and re-routes.
    Committed {
        /// The committed epoch.
        epoch: u64,
        /// The committed shard→server assignment.
        assignment: Vec<u32>,
    },
}

/// Probes per frozen-server wait before the freeze is declared a hang. With
/// [`FREEZE_PROBE_INTERVAL`] this bounds the wait at ~2 s — far beyond any healthy
/// migration (microseconds of in-memory shard copying plus a few round-trips), far
/// below the chaos harness's per-cell budget, so "never hang" degrades into a typed
/// error rather than a stall when the coordinator dies mid-migration.
const FREEZE_PROBES: usize = 500;

/// Delay between two probes of a frozen shard server.
const FREEZE_PROBE_INTERVAL: Duration = Duration::from_millis(4);

/// Attributes an anonymous transport failure to the link it happened on, unless the
/// transport already named a peer (the TCP transport's timeout/disconnect paths do).
fn at_link(link: &ServerLink, e: NetError) -> NetError {
    match e {
        NetError::PeerTimeout { .. } | NetError::PeerLost { .. } => e,
        NetError::Disconnected => NetError::PeerLost {
            peer: link.label.clone(),
            addr: link.addr.clone(),
            rank: None,
            last_clock: None,
        },
        other => other,
    }
}

/// Builds the `GroupHello` for server `server_index` from the recorded handshake.
fn hello_message(replay: &HelloReplay, server_index: u32) -> Message {
    Message::GroupHello {
        version: PROTOCOL_VERSION,
        rank: replay.rank,
        num_workers: replay.num_workers,
        config_digest: replay.config_digest,
        servers: replay.servers,
        server_index,
    }
}

/// Re-dials `addr` with exponential backoff, re-arms the link's read timeout, and
/// sends `hello` so the restored server admits this client again.
///
/// The retry schedule (12 attempts, 50 ms doubling to the transport's 2 s cap) gives
/// a restarted server a ~10 s window to come back while keeping the *failure* path —
/// a server that is gone for good — bounded, so a collapsing fleet aborts in seconds
/// rather than minutes (the chaos matrix runs dozens of these collapses).
fn reconnect(link: &mut ServerLink, addr: &str, hello: &Message) -> Result<(), NetError> {
    let mut transport =
        TcpWorkerTransport::connect_with_retry(addr, 12, Duration::from_millis(50))?;
    transport.set_peer_label(link.label.clone());
    transport.set_read_timeout(link.read_timeout)?;
    transport.send(hello)?;
    link.transport = Box::new(transport);
    Ok(())
}

/// Runs the worker side of a **group** training job: the one worker loop
/// ([`run_worker_loop`]) over a link that handshakes with the coordinator and every
/// shard server, fans weights and gradients over the servers, and exchanges clocks
/// with the coordinator.
///
/// A mid-run `Shutdown` — from the coordinator directly, or relayed by a shard server
/// during a fan-out — ends the run cleanly with `shutdown_early` set, exactly like
/// the single-server worker.
///
/// # Panics
///
/// Panics if the configuration is inconsistent or `rank` is out of range.
pub fn run_group_worker(
    job: &JobConfig,
    rank: usize,
    coord: &mut dyn WorkerTransport,
    links: Vec<ServerLink>,
) -> Result<WorkerReport, NetError> {
    run_worker_loop(job, rank, |param_len, log| {
        let mut fan = ShardFan::new(job, param_len, links);
        // The fan shares the worker's log to surface shard-server re-dials.
        fan.set_event_log(log.cloned());
        GroupLink {
            job,
            rank,
            coord,
            fan,
            fault: FaultClock::new(job, FaultRole::Worker(rank)),
            in_rounds: false,
            counted: Vec::new(),
        }
    })
}

/// The link to a group: clocks with the coordinator, bulk data with the shard servers.
struct GroupLink<'a> {
    job: &'a JobConfig,
    rank: usize,
    coord: &'a mut dyn WorkerTransport,
    fan: ShardFan,
    /// Chaos cell `workerN:commit:*`: die right after adopting the `after`-th layout
    /// committed between this worker's join and its `Done`.
    fault: FaultClock,
    /// Whether a `LayoutUpdate` counts toward that cell (after join, before `Done`).
    in_rounds: bool,
    /// The per-rank push counts of the last `GroupGrant`, decoded in place.
    counted: Vec<u64>,
}

impl GroupLink<'_> {
    /// The coordinator's next message that is not a `LayoutUpdate`; those are
    /// adopted on the way. A migration that commits while this worker waits is
    /// broadcast *before* the withheld grants are flushed, so the adoption always
    /// precedes the next fan-out.
    fn recv_coord(&mut self) -> Result<Message, LinkEnd> {
        loop {
            match self.coord.recv_with_run(&mut self.counted)? {
                Message::LayoutUpdate { epoch, assignment } => {
                    self.fan.adopt(epoch, &assignment)?;
                    if self.in_rounds {
                        self.fault.migrate_commit()?;
                    }
                }
                other => return Ok(other),
            }
        }
    }

    /// A fan-out's outcome as an exchange's: a relayed shutdown ends the link.
    fn fanned(outcome: FanOutcome) -> Result<(), LinkEnd> {
        match outcome {
            FanOutcome::Applied => Ok(()),
            FanOutcome::Shutdown { reason } => Err(LinkEnd::Shutdown(reason)),
        }
    }
}

impl WorkerLink for GroupLink<'_> {
    fn join(&mut self) -> Result<u64, LinkEnd> {
        self.coord.send(&Message::Hello {
            version: PROTOCOL_VERSION,
            rank: self.rank as u32,
            num_workers: self.job.num_workers as u32,
            config_digest: self.job.stable_digest(),
        })?;
        self.fan.hello(self.job, self.rank as u32)?;
        self.coord.send(&Message::JoinRequest)?;
        match self.recv_coord()? {
            Message::JoinAck {
                clock,
                epoch,
                assignment,
            } => {
                // A worker (re)joining a group that already migrated learns the
                // committed layout from the ack itself.
                if epoch != 0 {
                    self.fan.adopt(epoch, &assignment)?;
                }
                self.in_rounds = true;
                Ok(clock)
            }
            other => Err(LinkEnd::unexpected(self.rank, other)),
        }
    }

    /// Unasked, keeps the weights the push round fetched when they hold every push
    /// the grant counted — one pull round, full or delta as the pull it replaces.
    /// Otherwise asks: each server ships the owned shards that advanced (all of them
    /// while the cache is cold or with delta pulls off).
    fn pull(
        &mut self,
        ask: bool,
        trace: u64,
        weights: &mut Vec<f32>,
        versions: &mut Vec<u64>,
    ) -> Result<(bool, u64), LinkEnd> {
        let full_before = self.fan.full_pulls;
        let delta = self.job.delta_pulls;
        if !ask && self.fan.keeps_weights(&self.counted) {
            if delta {
                self.fan.delta_pulls += 1;
            } else {
                self.fan.full_pulls += 1;
            }
        } else {
            Self::fanned(self.fan.pull_group(delta, trace, weights, versions)?)?;
        }
        let rounds = self.fan.full_pulls + self.fan.delta_pulls;
        Ok((self.fan.full_pulls > full_before, rounds))
    }

    /// Deterministic mode: the coordinator holds the next mutating event until every
    /// granted worker's pull is reported complete.
    fn pulled(&mut self) -> Result<(), LinkEnd> {
        if self.job.deterministic {
            self.coord.send(&Message::PullDone)?;
        }
        Ok(())
    }

    /// The same trace id stamps the `ClockPush` and the fan slices, so the
    /// coordinator's gate decision and every shard server's apply join back to this
    /// iteration. What tells the coordinator the push is applied everywhere —
    /// `ClockPush`, or `PushApplied` in deterministic mode — goes out once every
    /// server's ack is in, while the last server's shards are still being read.
    fn push(
        &mut self,
        iteration: u64,
        trace: u64,
        grads: &[f32],
        weights: Option<(&mut Vec<f32>, &mut Vec<u64>)>,
    ) -> Result<(), LinkEnd> {
        let clock_push = Message::ClockPush { iteration, trace };
        let applied = if self.job.deterministic {
            // Canonical order: announce the push, wait to be granted the apply slot,
            // fan the slices out, and confirm so the coordinator's clock can advance.
            self.coord.send(&clock_push)?;
            match self.recv_coord()? {
                Message::PushGrant => {}
                other => return Err(LinkEnd::unexpected(self.rank, other)),
            }
            Message::PushApplied { iteration }
        } else {
            clock_push
        };
        let Some((weights, versions)) = weights else {
            Self::fanned(self.fan.push_slices(iteration, trace, grads)?)?;
            return Ok(self.coord.send(&applied)?);
        };
        let mut sent = None;
        let mut announce = || sent = Some(self.coord.send(&applied));
        let fanned =
            self.fan
                .push_and_pull(iteration, trace, grads, weights, versions, &mut announce);
        Self::fanned(fanned?)?;
        Ok(sent.unwrap_or_else(|| self.coord.send(&applied))?)
    }

    fn await_ok(&mut self, iteration: u64) -> Result<u64, LinkEnd> {
        match self.recv_coord()? {
            Message::GroupGrant { granted_extra, .. } => {
                self.coord.note_confirmed_clock(iteration);
                Ok(granted_extra)
            }
            other => Err(LinkEnd::unexpected(self.rank, other)),
        }
    }

    fn done(&mut self, iterations: u64, epochs: u64, waiting_time_s: f64) -> Result<(), LinkEnd> {
        self.in_rounds = false;
        Ok(self.coord.send(&Message::Done {
            iterations,
            epochs,
            waiting_time_s,
        })?)
    }
}

/// The operator-facing admin client: dials the coordinator's spare admin slot (rank
/// `num_workers`), requests a drain or rebalance, and waits for the
/// [`Message::AdminAck`] that reports the migration's outcome.
///
/// Returns `(epoch, reason)` when the coordinator accepted and committed the
/// migration; a refusal (unknown server, already-draining group, …) comes back as a
/// typed [`NetError::Protocol`] carrying the coordinator's reason.
pub fn run_admin_command(
    coord: &mut dyn WorkerTransport,
    num_workers: usize,
    command: &Message,
) -> Result<(u64, String), NetError> {
    assert!(
        matches!(command, Message::Drain { .. } | Message::Rebalance),
        "admin channel carries Drain/Rebalance only"
    );
    // The admin handshake is version-checked only: an operator's CLI does not know
    // the job's config digest, and the admin slot neither pushes nor pulls.
    coord.send(&Message::Hello {
        version: PROTOCOL_VERSION,
        rank: num_workers as u32,
        num_workers: num_workers as u32,
        config_digest: 0,
    })?;
    coord.send(command)?;
    loop {
        match coord.recv()? {
            Message::AdminAck {
                epoch,
                accepted,
                reason,
            } => {
                if accepted {
                    return Ok((epoch, reason));
                }
                return Err(NetError::Protocol(format!(
                    "coordinator refused the migration: {reason}"
                )));
            }
            // The commit broadcast also reaches the admin slot; the ack follows.
            Message::LayoutUpdate { .. } => {}
            Message::Shutdown { .. } => {
                return Err(NetError::Protocol(
                    "run shut down before the migration was acknowledged".to_string(),
                ))
            }
            other => {
                return Err(NetError::Protocol(format!(
                    "admin channel received unexpected {other:?}"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssp_net::wire;
    use dssp_ps::PolicyKind;
    use std::net::{TcpListener, TcpStream};

    /// A push round re-dials a server lost while the fan probes it through a
    /// freeze, exactly as a pull round does.
    #[test]
    fn a_push_round_re_dials_a_server_lost_during_freeze_probes() {
        let mut job = JobConfig::small(PolicyKind::Asp);
        (job.num_workers, job.shards, job.servers) = (1, 2, 1);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut payload, mut scratch) = (Vec::new(), Vec::new());
            let mut next = |stream: &mut TcpStream| {
                wire::FrameBody::begin(stream)
                    .and_then(|body| body.buffer(&mut payload))
                    .unwrap();
                wire::decode(&payload).unwrap()
            };
            let (mut first, _) = listener.accept().unwrap();
            assert!(matches!(next(&mut first), Message::GroupHello { .. }));
            assert!(matches!(next(&mut first), Message::PushSlice { .. }));
            let frozen = Message::EpochRefused {
                epoch: 1,
                assignment: Vec::new(),
            };
            wire::write_frame(&mut first, &frozen, &mut scratch).unwrap();
            // The probe reaches a server that dies holding it.
            assert!(matches!(next(&mut first), Message::PushSlice { .. }));
            drop(first);
            let (mut second, _) = listener.accept().unwrap();
            assert!(matches!(next(&mut second), Message::GroupHello { .. }));
            assert!(matches!(
                next(&mut second),
                Message::PushSlice { iteration: 1, .. }
            ));
            let ack = Message::SliceAck { version: 1 };
            wire::write_frame(&mut second, &ack, &mut scratch).unwrap();
        });
        let links = crate::run::connect_links(&[addr], Some(Duration::from_secs(10))).unwrap();
        let mut fan = ShardFan::new(&job, 4, links);
        fan.hello(&job, 0).unwrap();
        assert_eq!(
            fan.push_slices(1, 0, &[0.5; 4]).unwrap(),
            FanOutcome::Applied
        );
        assert_eq!(fan.reconnects, 1);
        server.join().unwrap();
    }
}
