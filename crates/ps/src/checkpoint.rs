//! Versioned checkpointing of parameter-server state.
//!
//! The paper evaluates a fixed fleet: every worker and server survives the whole run.
//! The elastic extension relaxes that — processes may crash and be restarted — which
//! needs a durable copy of exactly the state Algorithms 1 and 2 accumulate: the shared
//! weights with their per-shard versions, the SGD momentum that makes the next step
//! depend on history, and the gate (clock array `t`, interval table `A`, DSSP credit
//! balances, statistics). [`Checkpoint`] captures all three in one length-prefixed
//! binary format, written and read through the byte codec the wire protocol shares
//! ([`crate::codec`], with `u64` run counts): decoding rejects truncation, trailing
//! bytes and absurd declared lengths, and here also unknown format versions and
//! checkpoints taken under a different job configuration (via the job digest).
//!
//! Files are written atomically — encode to `<name>.tmp` in the same directory, then
//! `rename` over the final name — so a crash mid-write leaves either the previous
//! complete checkpoint or a stray `.tmp`, never a torn file. A decoder therefore never
//! needs to "repair" anything: a checkpoint file that exists and decodes is complete.

use crate::codec::{put_opt, put_run, put_run_with, CodecError, LeScalar as _, Reader};
use crate::gate::GateSnapshot;
use crate::server::ServerStats;
use crate::sharded::ShardedStore;
use dssp_nn::{Sgd, SgdConfig};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

/// First bytes of every checkpoint file.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"DSSPCKPT";

/// Format version written by this build; decoding rejects anything else. Version 2
/// added the optional layout section (epoch-stamped shard→server assignment) after
/// the gate section. Version 3 dropped six gate fields that copied other ones or
/// that nothing read: the staleness histogram buckets, its per-worker sums and push
/// counts and its maximum, the weight version (the push count in the statistics) and
/// the rule's grant total (the statistics' `credits_granted`). It also made `tick`
/// the policy clock of wall-clock runs as well as deterministic ones.
pub const CHECKPOINT_VERSION: u32 = 3;

/// Hard ceiling on the size of a checkpoint this decoder will accept, so a corrupt
/// length prefix cannot drive a huge allocation.
pub const MAX_CHECKPOINT_LEN: usize = 1 << 30;

/// Extension of the temporary file a checkpoint is staged in before the atomic rename
/// (`server.ckpt` is staged as `server.ckpt.tmp`). Exposed so process supervisors can
/// sweep stray staging files after killing a child mid-write.
pub const CHECKPOINT_TMP_SUFFIX: &str = ".tmp";

/// The storage half of a checkpoint: the flat weights with their shard layout and
/// versions, plus the optimizer state that makes SGD-with-momentum history-dependent.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreSnapshot {
    /// The flat parameter vector.
    pub flat: Vec<f32>,
    /// Shard start offsets plus the final sentinel (see
    /// [`crate::ShardedStore::offsets`]).
    pub offsets: Vec<u64>,
    /// Per-shard update versions.
    pub versions: Vec<u64>,
    /// The SGD momentum velocity vector (same length as `flat`).
    pub velocity: Vec<f32>,
    /// The epoch the learning-rate schedule currently operates at.
    pub epoch: u64,
}

impl StoreSnapshot {
    /// Captures the storage half of a server: the store and the optimizer stepping it.
    pub fn capture(store: &ShardedStore, sgd: &Sgd) -> Self {
        Self {
            flat: store.as_flat().to_vec(),
            offsets: store.offsets().iter().map(|&o| o as u64).collect(),
            versions: store.versions().to_vec(),
            velocity: sgd.velocity().to_vec(),
            epoch: sgd.current_epoch() as u64,
        }
    }

    /// Rebuilds the store and its optimizer. The hyper-parameters are not part of the
    /// snapshot — `config` is the restoring job's, which the checkpoint's job digest
    /// ties to the one that wrote it.
    ///
    /// # Panics
    ///
    /// Panics if the boundaries or versions do not fit the weights; restore paths run
    /// [`Checkpoint::require_role`] first.
    pub fn rebuild(&self, config: SgdConfig) -> (ShardedStore, Sgd) {
        let store = ShardedStore::restore(
            self.flat.clone(),
            self.offsets.iter().map(|&o| o as usize).collect(),
            self.versions.clone(),
        );
        let sgd = Sgd::restore(config, self.velocity.clone(), self.epoch as usize);
        (store, sgd)
    }
}

/// The group-layout section of a checkpoint: the epoch-stamped shard→server
/// assignment in force when the snapshot was taken. Live migration bumps the epoch;
/// a process restored from an earlier epoch must not rejoin a migrated group, so
/// restore paths compare epochs and refuse skew (see
/// [`CheckpointError::LayoutSkew`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutSnapshot {
    /// The layout epoch (0 = the closed-form launch layout; each commit adds one).
    pub epoch: u64,
    /// Owning server index per global shard.
    pub assignment: Vec<u32>,
}

/// One durable snapshot of a server process: what a shard server, a coordinator, or a
/// classic single-process server writes between pushes and reads back on restart.
///
/// Any section may be absent: a storage-only shard server checkpoints just
/// [`Checkpoint::store`], a clock-only coordinator just [`Checkpoint::gate`], and a
/// classic single server both. Only group processes carry [`Checkpoint::layout`].
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Digest of the job configuration this checkpoint was taken under; restoring
    /// under a different job is refused (version/config skew).
    pub job_digest: u64,
    /// The policy clock at snapshot time — the logical event counter in deterministic
    /// mode, run time in seconds otherwise — which a restored run continues from, so
    /// its interval table keeps receiving monotonically increasing timestamps.
    pub tick: f64,
    /// The storage half, if this process owns weights.
    pub store: Option<StoreSnapshot>,
    /// The gating half, if this process owns synchronization state.
    pub gate: Option<GateSnapshot>,
    /// The group layout in force at snapshot time, if this process tracks one.
    pub layout: Option<LayoutSnapshot>,
}

/// Why a checkpoint could not be read or decoded.
#[derive(Debug)]
pub enum CheckpointError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The payload ended before a declared field.
    Truncated,
    /// The payload continued past the last declared field.
    TrailingBytes,
    /// The file does not start with [`CHECKPOINT_MAGIC`].
    BadMagic,
    /// The format version is not [`CHECKPOINT_VERSION`].
    UnsupportedVersion(u32),
    /// The checkpoint was taken under a different job configuration.
    DigestMismatch {
        /// Digest of the job attempting the restore.
        expected: u64,
        /// Digest recorded in the checkpoint.
        found: u64,
    },
    /// A declared length exceeds the remaining payload or the global size ceiling.
    BadLength,
    /// A field held a value outside its domain (e.g. a flag byte that is neither 0
    /// nor 1); the message names the field.
    Corrupt(&'static str),
    /// The checkpoint records a different layout epoch than the group is running at:
    /// the process missed (or predates) a live migration and its shard contents no
    /// longer match its ownership. Re-snapshot or relaunch instead of resuming.
    LayoutSkew {
        /// Layout epoch recorded in the checkpoint.
        found: u64,
        /// Layout epoch the group currently runs at.
        expected: u64,
    },
    /// The checkpoint is well-formed but not one the restoring role can build from: a
    /// section it owns is absent (a coordinator's file handed to a shard server), or
    /// a table or slice is sized for another fleet or another server's key range.
    /// Every process of a group shares one job digest, so the digest cannot tell
    /// these apart. The message names what disagrees.
    RoleMismatch(&'static str),
    /// The gating half records retired workers ([`Checkpoint::has_retired_workers`]):
    /// a finished run or a post-eviction snapshot, which a restore cannot resume.
    RetiredWorkers,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::TrailingBytes => write!(f, "trailing bytes after checkpoint"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (this build reads {CHECKPOINT_VERSION})"
                )
            }
            CheckpointError::DigestMismatch { expected, found } => write!(
                f,
                "checkpoint was taken under a different job (digest {found:#x}, this job is {expected:#x})"
            ),
            CheckpointError::BadLength => write!(f, "checkpoint declares an absurd length"),
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint field: {what}"),
            CheckpointError::LayoutSkew { found, expected } => write!(
                f,
                "checkpoint restore skew: layout epoch {found} but the group runs at epoch \
                 {expected} (a live migration happened in between)"
            ),
            CheckpointError::RoleMismatch(what) => {
                write!(f, "checkpoint does not fit the restoring role: {what}")
            }
            CheckpointError::RetiredWorkers => write!(
                f,
                "checkpoint records retired workers (a finished run or a post-eviction \
                 snapshot is not resumable)"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => CheckpointError::Truncated,
            CodecError::Trailing { .. } => CheckpointError::TrailingBytes,
            CodecError::Oversized { .. } => CheckpointError::BadLength,
        }
    }
}

/// What a flag byte that is neither 0 nor 1 is refused as: a corrupt `what`.
fn corrupt(what: &'static str) -> impl FnOnce(u8) -> CheckpointError {
    move |_| CheckpointError::Corrupt(what)
}

impl Checkpoint {
    /// Serializes the checkpoint into its little-endian binary form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = CHECKPOINT_MAGIC.to_vec();
        CHECKPOINT_VERSION.put_le(&mut out);
        self.job_digest.put_le(&mut out);
        self.tick.put_le(&mut out);
        put_opt(&mut out, self.store.as_ref(), |s, out| {
            put_run::<u64, _>(out, &s.flat);
            put_run::<u64, _>(out, &s.offsets);
            put_run::<u64, _>(out, &s.versions);
            put_run::<u64, _>(out, &s.velocity);
            s.epoch.put_le(out);
        });
        put_opt(&mut out, self.gate.as_ref(), |g, out| {
            put_run::<u64, _>(out, &g.counts);
            put_run_with::<u64, _>(out, &g.retired, |&r, out| out.push(u8::from(r)));
            for timestamps in [&g.latest, &g.previous] {
                put_run_with::<u64, _>(out, timestamps, |t, out| {
                    put_opt(out, t.as_ref(), |t, out| t.put_le(out))
                });
            }
            put_run_with::<u64, _>(out, &g.blocked, |&w, out| (w as u64).put_le(out));
            g.stats.pushes.put_le(out);
            g.stats.blocked_pushes.put_le(out);
            g.stats.releases.put_le(out);
            g.stats.staleness_sum.put_le(out);
            g.stats.staleness_max.put_le(out);
            g.stats.credits_granted.put_le(out);
            g.stats.credits_reclaimed.put_le(out);
            put_run::<u64, _>(out, &g.credits);
            g.controller_invocations.put_le(out);
        });
        put_opt(&mut out, self.layout.as_ref(), |l, out| {
            l.epoch.put_le(out);
            put_run::<u64, _>(out, &l.assignment);
        });
        out
    }

    /// Decodes a checkpoint, rejecting truncation, trailing bytes, bad magic, absurd
    /// declared lengths, and unknown format versions. The job digest is *not* checked
    /// here — use [`Checkpoint::decode_for_job`] on the restore path.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() > MAX_CHECKPOINT_LEN {
            return Err(CheckpointError::BadLength);
        }
        let mut r = Reader::<u64>::new(bytes);
        if r.take(CHECKPOINT_MAGIC.len())? != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.get()?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let opt_f64s = |r: &mut Reader<'_, u64>, what| {
            r.run_with(1, |r| r.opt(corrupt(what), |r| Ok(r.get()?)))
        };
        // A literal's fields are read in the order written: the format's order.
        let ckpt = Self {
            job_digest: r.get()?,
            tick: r.get()?,
            store: r.opt(corrupt("store presence flag"), |r| {
                Ok(StoreSnapshot {
                    flat: r.run()?,
                    offsets: r.run()?,
                    versions: r.run()?,
                    velocity: r.run()?,
                    epoch: r.get()?,
                })
            })?,
            gate: r.opt(corrupt("gate presence flag"), |r| {
                Ok(GateSnapshot {
                    counts: r.run()?,
                    retired: r.run_with(1, |r| r.flag(corrupt("retired flag")))?,
                    latest: opt_f64s(r, "latest timestamp flag")?,
                    previous: opt_f64s(r, "previous timestamp flag")?,
                    blocked: r.run_with(8, |r| {
                        usize::try_from(r.get::<u64>()?)
                            .map_err(|_| CheckpointError::Corrupt("blocked worker"))
                    })?,
                    stats: ServerStats {
                        pushes: r.get()?,
                        blocked_pushes: r.get()?,
                        releases: r.get()?,
                        staleness_sum: r.get()?,
                        staleness_max: r.get()?,
                        credits_granted: r.get()?,
                        credits_reclaimed: r.get()?,
                    },
                    credits: r.run()?,
                    controller_invocations: r.get()?,
                })
            })?,
            layout: r.opt(corrupt("layout presence flag"), |r| {
                Ok(LayoutSnapshot {
                    epoch: r.get()?,
                    assignment: r.run()?,
                })
            })?,
        };
        r.finish()?;
        Ok(ckpt)
    }

    /// Decodes a checkpoint and verifies it was taken under the job with digest
    /// `job_digest`, refusing configuration skew.
    pub fn decode_for_job(bytes: &[u8], job_digest: u64) -> Result<Self, CheckpointError> {
        let ckpt = Self::decode(bytes)?;
        if ckpt.job_digest != job_digest {
            return Err(CheckpointError::DigestMismatch {
                expected: job_digest,
                found: ckpt.job_digest,
            });
        }
        Ok(ckpt)
    }

    /// The staging path [`Checkpoint::save_atomic`] writes through for `path`
    /// (`<path><CHECKPOINT_TMP_SUFFIX>` in the same directory, so the final rename
    /// never crosses a filesystem boundary).
    pub fn tmp_path(path: &Path) -> PathBuf {
        let mut name = path.as_os_str().to_os_string();
        name.push(CHECKPOINT_TMP_SUFFIX);
        PathBuf::from(name)
    }

    /// Writes the checkpoint to `path` atomically: encode, write + flush to the
    /// staging file next to it, then `rename` over the final name. A crash at any
    /// point leaves either the previous complete checkpoint or a stray staging file —
    /// never a torn `path`.
    pub fn save_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        let tmp = Self::tmp_path(path);
        let bytes = self.encode();
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and decodes the checkpoint at `path` without checking its job digest. A
    /// file longer than [`MAX_CHECKPOINT_LEN`] is refused before it is read.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        Self::decode(&read_bounded(path)?)
    }

    /// Reads the checkpoint at `path`, like [`Checkpoint::load`], and verifies it was
    /// taken under the job with digest `job_digest`.
    pub fn load_for_job(path: &Path, job_digest: u64) -> Result<Self, CheckpointError> {
        Self::decode_for_job(&read_bounded(path)?, job_digest)
    }

    /// Checks that a role can build from this checkpoint, before it does — the
    /// `restore` constructors treat what is checked here as internal invariants.
    /// `workers` is the fleet size when the role owns the gate (the section must be
    /// present with every per-worker table sized to it); `store_offsets` is the
    /// boundary vector ([`crate::ShardedStore::offsets`]) of the key range the job
    /// gives the role when it owns weights (the section must be present and its
    /// slice, boundaries, versions and velocity must have exactly that shape).
    pub fn require_role(
        &self,
        workers: Option<usize>,
        store_offsets: Option<&[usize]>,
    ) -> Result<(), CheckpointError> {
        if let Some(n) = workers {
            let Some(g) = &self.gate else {
                return Err(CheckpointError::RoleMismatch("no gate section"));
            };
            let per_worker = [
                g.counts.len(),
                g.retired.len(),
                g.latest.len(),
                g.previous.len(),
            ];
            if per_worker.iter().any(|&len| len != n)
                || !(g.credits.is_empty() || g.credits.len() == n)
                || g.blocked.iter().any(|&w| w >= n)
            {
                return Err(CheckpointError::RoleMismatch(
                    "gate tables are not sized for this job's workers",
                ));
            }
        }
        if let Some(offsets) = store_offsets {
            let Some(s) = &self.store else {
                return Err(CheckpointError::RoleMismatch("no store section"));
            };
            let len = offsets.last().copied().unwrap_or(0);
            if s.flat.len() != len
                || s.velocity.len() != len
                || s.versions.len() + 1 != offsets.len()
                || !offsets
                    .iter()
                    .map(|&o| o as u64)
                    .eq(s.offsets.iter().copied())
            {
                return Err(CheckpointError::RoleMismatch(
                    "store slice does not match this server's key range",
                ));
            }
        }
        Ok(())
    }

    /// Whether the gating half records any retired (finished or evicted) worker.
    ///
    /// Elastic restore resumes a *full* fleet: every worker reconnects and replays
    /// from its checkpointed clock. A checkpoint holding retired workers — a finished
    /// run's terminal snapshot, or a snapshot taken after an eviction — cannot be
    /// resumed that way, so a restore refuses it up front
    /// ([`CheckpointError::RetiredWorkers`]) instead of letting a retired worker's
    /// replayed pushes corrupt the clock array.
    pub fn has_retired_workers(&self) -> bool {
        self.gate
            .as_ref()
            .is_some_and(|g| g.retired.iter().any(|&r| r))
    }

    /// The layout epoch this checkpoint was taken at: the recorded epoch when a
    /// layout section is present, epoch 0 (the closed-form launch layout) otherwise.
    pub fn layout_epoch(&self) -> u64 {
        self.layout.as_ref().map_or(0, |l| l.epoch)
    }

    /// Verifies this checkpoint was taken at layout epoch `expected`, refusing
    /// restore skew: a snapshot from before (or after) a live migration holds shard
    /// contents that no longer match the group's ownership map.
    pub fn require_layout_epoch(&self, expected: u64) -> Result<(), CheckpointError> {
        let found = self.layout_epoch();
        if found != expected {
            return Err(CheckpointError::LayoutSkew { found, expected });
        }
        Ok(())
    }
}

/// The bytes of the file at `path`, refusing ([`CheckpointError::BadLength`]) one
/// longer than [`MAX_CHECKPOINT_LEN`] before reading it. The read is bounded too: of a
/// file that grew since, one byte past the ceiling is read, which `decode` refuses.
fn read_bounded(path: &Path) -> Result<Vec<u8>, CheckpointError> {
    let file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    if len > MAX_CHECKPOINT_LEN as u64 {
        return Err(CheckpointError::BadLength);
    }
    let mut bytes = Vec::with_capacity(len as usize);
    file.take(MAX_CHECKPOINT_LEN as u64 + 1)
        .read_to_end(&mut bytes)?;
    Ok(bytes)
}

/// Conventional checkpoint file name for a classic single-process server.
pub fn server_checkpoint_name() -> String {
    "server.ckpt".to_string()
}

/// Conventional checkpoint file name for shard server `index` of a group.
pub fn shard_checkpoint_name(index: usize) -> String {
    format!("shard{index}.ckpt")
}

/// Conventional checkpoint file name for a group's coordinator.
pub fn coord_checkpoint_name() -> String {
    "coord.ckpt".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_gate() -> GateSnapshot {
        GateSnapshot {
            counts: vec![3, 1],
            retired: vec![false, true],
            latest: vec![Some(4.0), None],
            previous: vec![Some(3.0), None],
            blocked: vec![0],
            stats: ServerStats {
                pushes: 4,
                blocked_pushes: 1,
                releases: 1,
                staleness_sum: 3,
                staleness_max: 2,
                credits_granted: 5,
                credits_reclaimed: 1,
            },
            credits: vec![2, 0],
            controller_invocations: 3,
        }
    }

    fn sample() -> Checkpoint {
        Checkpoint {
            job_digest: 0xdead_beef_cafe_f00d,
            tick: 17.0,
            store: Some(StoreSnapshot {
                flat: vec![1.5, -2.25, 0.0, 3.0],
                offsets: vec![0, 2, 4],
                versions: vec![7, 9],
                velocity: vec![0.1, -0.2, 0.3, 0.0],
                epoch: 2,
            }),
            gate: Some(sample_gate()),
            layout: Some(LayoutSnapshot {
                epoch: 3,
                assignment: vec![0, 0, 1],
            }),
        }
    }

    #[test]
    fn round_trips_all_section_combinations() {
        for mask in 0u8..8 {
            let mut c = sample();
            if mask & 1 == 0 {
                c.store = None;
            }
            if mask & 2 == 0 {
                c.gate = None;
            }
            if mask & 4 == 0 {
                c.layout = None;
            }
            let decoded = Checkpoint::decode(&c.encode()).expect("decode");
            assert_eq!(decoded, c);
        }
    }

    #[test]
    fn capture_rebuild_capture_is_the_identity() {
        let config = SgdConfig {
            schedule: dssp_nn::LrSchedule::step(0.3, 0.5, &[1]),
            momentum: 0.9,
            weight_decay: 0.01,
        };
        let mut store = ShardedStore::new((0..7).map(|i| (i as f32).sin()).collect(), 3);
        let mut sgd = Sgd::new(config.clone(), store.len());
        sgd.set_epoch(2);
        for i in 0..3 {
            let grads: Vec<f32> = (0..7).map(|j| ((i * 7 + j) as f32).cos()).collect();
            sgd.step(store.flat_mut(), &grads);
            store.bump_all_versions();
        }
        store.apply_shard(1, &[0.5, -0.5], 0.1); // versions differ per shard
        let snap = StoreSnapshot::capture(&store, &sgd);
        assert_eq!((snap.epoch, &snap.versions[..]), (2, &[3, 4, 3][..]));
        assert!(snap.velocity.iter().any(|&v| v != 0.0));
        let (rebuilt, rebuilt_sgd) = snap.rebuild(config);
        assert_eq!(rebuilt, store);
        assert_eq!(StoreSnapshot::capture(&rebuilt, &rebuilt_sgd), snap);
    }

    #[test]
    fn every_strict_prefix_is_rejected() {
        let bytes = sample().encode();
        for n in 0..bytes.len() {
            assert!(
                Checkpoint::decode(&bytes[..n]).is_err(),
                "prefix of {n} bytes decoded"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::TrailingBytes)
        ));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample().encode();
        bytes[0] ^= 0xff;
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn unknown_versions_are_rejected() {
        let mut bytes = sample().encode();
        bytes[8] = 99;
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn absurd_declared_lengths_are_rejected_before_allocation() {
        let mut bytes = sample().encode();
        // The first vector length is the flat weight count, right after the store
        // presence byte at offset 8 (magic) + 4 (version) + 8 (digest) + 8 (tick) + 1.
        let len_at = 8 + 4 + 8 + 8 + 1;
        bytes[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::BadLength)
        ));
    }

    #[test]
    fn digest_skew_is_rejected() {
        let c = sample();
        let bytes = c.encode();
        assert!(Checkpoint::decode_for_job(&bytes, c.job_digest).is_ok());
        assert!(matches!(
            Checkpoint::decode_for_job(&bytes, c.job_digest ^ 1),
            Err(CheckpointError::DigestMismatch { .. })
        ));
    }

    #[test]
    fn corrupt_flag_bytes_are_rejected() {
        let mut bytes = sample().encode();
        let store_flag_at = 8 + 4 + 8 + 8;
        bytes[store_flag_at] = 2;
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn atomic_save_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("dssp-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(server_checkpoint_name());
        let c = sample();
        c.save_atomic(&path).expect("save");
        assert!(
            !Checkpoint::tmp_path(&path).exists(),
            "staging file remains"
        );
        let loaded = Checkpoint::load_for_job(&path, c.job_digest).expect("load");
        assert_eq!(loaded, c);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_file_names_are_distinct_per_role() {
        assert_ne!(server_checkpoint_name(), coord_checkpoint_name());
        assert_ne!(shard_checkpoint_name(0), shard_checkpoint_name(1));
    }

    #[test]
    fn layout_epoch_skew_is_a_typed_restore_refusal() {
        let c = sample();
        assert_eq!(c.layout_epoch(), 3);
        assert!(c.require_layout_epoch(3).is_ok());
        let err = c.require_layout_epoch(4).expect_err("skew accepted");
        assert!(matches!(
            err,
            CheckpointError::LayoutSkew {
                found: 3,
                expected: 4
            }
        ));
        assert!(
            err.to_string().contains("restore skew"),
            "refusal must carry the typed substring: {err}"
        );
        // No layout section means the closed-form launch layout, epoch 0.
        let mut bare = sample();
        bare.layout = None;
        assert_eq!(bare.layout_epoch(), 0);
        assert!(bare.require_layout_epoch(0).is_ok());
        assert!(bare.require_layout_epoch(1).is_err());
    }

    #[test]
    fn a_role_refuses_absent_sections_and_foreign_shapes() {
        let mismatch = |c: &Checkpoint, workers, offsets: Option<&[usize]>| {
            matches!(
                c.require_role(workers, offsets),
                Err(CheckpointError::RoleMismatch(_))
            )
        };
        let c = sample(); // 2 workers; a 4-key store split [0, 2, 4]
        assert!(c.require_role(Some(2), Some(&[0, 2, 4])).is_ok());
        assert!(
            c.require_role(None, None).is_ok(),
            "nothing owned, nothing asked"
        );
        assert!(
            mismatch(&c, Some(3), None),
            "tables sized for another fleet"
        );
        assert!(mismatch(&c, None, Some(&[0, 3, 4])), "other boundaries");
        assert!(mismatch(&c, None, Some(&[0, 2, 5])), "another key range");
        assert!(mismatch(&c, None, Some(&[0, 4])), "another shard count");

        let mut no_gate = sample();
        no_gate.gate = None;
        assert!(mismatch(&no_gate, Some(2), None));
        let mut no_store = sample();
        no_store.store = None;
        assert!(mismatch(&no_store, None, Some(&[0, 2, 4])));

        let mut torn = sample();
        torn.store.as_mut().unwrap().velocity.pop();
        assert!(
            mismatch(&torn, None, Some(&[0, 2, 4])),
            "velocity of another length"
        );
        let mut stray = sample();
        stray.gate.as_mut().unwrap().blocked = vec![2];
        assert!(
            mismatch(&stray, Some(2), None),
            "a blocked id past the fleet"
        );
    }
}
