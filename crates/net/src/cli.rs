//! Command-line flag parsing shared by the `repro` binary's `serve`/`worker`/`launch`
//! subcommands and by [`crate::launch`] (which re-serializes the job into worker
//! process arguments).
//!
//! A job built by [`job_from_flags`] round-trips exactly through [`job_args`]; any
//! drift between a server's and a worker's configuration is caught by the
//! `JobConfig::digest` check in the `Hello` handshake.

use dssp_core::driver::{CheckpointSpec, FaultPlan, JobConfig, MigrationSpec};
use dssp_ps::PolicyKind;

/// Returns the value following `flag` in `args`, if present.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match flag_value(args, flag) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("invalid value '{v}' for {flag}")),
    }
}

/// Parses a policy spec: `bsp`, `asp`, `ssp:S`, `dssp[:S_L[:R_MAX]]` or
/// `dssp-strict:S_L:R_MAX`.
pub fn parse_policy(spec: &str) -> Result<PolicyKind, String> {
    let mut parts = spec.split(':');
    let head = parts.next().unwrap_or_default();
    let nums: Vec<u64> = parts
        .map(|p| {
            p.parse()
                .map_err(|_| format!("invalid number '{p}' in policy '{spec}'"))
        })
        .collect::<Result<_, _>>()?;
    match (head, nums.as_slice()) {
        ("bsp", []) => Ok(PolicyKind::Bsp),
        ("asp", []) => Ok(PolicyKind::Asp),
        ("ssp", [s]) => Ok(PolicyKind::Ssp { s: *s }),
        ("dssp", []) => Ok(PolicyKind::Dssp { s_l: 1, r_max: 8 }),
        ("dssp", [s_l]) => Ok(PolicyKind::Dssp {
            s_l: *s_l,
            r_max: 8,
        }),
        ("dssp", [s_l, r_max]) => Ok(PolicyKind::Dssp {
            s_l: *s_l,
            r_max: *r_max,
        }),
        ("dssp-strict", [s_l, r_max]) => Ok(PolicyKind::DsspStrict {
            s_l: *s_l,
            r_max: *r_max,
        }),
        _ => Err(format!(
            "invalid policy '{spec}' (expected bsp | asp | ssp:S | dssp[:S_L[:R_MAX]] | dssp-strict:S_L:R_MAX)"
        )),
    }
}

/// Renders a policy back into the spec syntax accepted by [`parse_policy`].
pub fn policy_spec(policy: &PolicyKind) -> String {
    match policy {
        PolicyKind::Bsp => "bsp".to_string(),
        PolicyKind::Asp => "asp".to_string(),
        PolicyKind::Ssp { s } => format!("ssp:{s}"),
        PolicyKind::Dssp { s_l, r_max } => format!("dssp:{s_l}:{r_max}"),
        PolicyKind::DsspStrict { s_l, r_max } => format!("dssp-strict:{s_l}:{r_max}"),
    }
}

/// Builds a [`JobConfig`] from CLI flags. Recognized flags (all optional):
///
/// | flag | default | meaning |
/// |---|---|---|
/// | `--model mlp\|alexnet` | `mlp` | model/dataset preset |
/// | `--policy SPEC` | `dssp:1:8` | see [`parse_policy`] |
/// | `--workers N` | 2 | worker count |
/// | `--epochs E` | preset | passes over each shard |
/// | `--batch-size B` | preset | mini-batch size |
/// | `--seed S` | preset | master seed |
/// | `--shards K` | 1 | server storage shards |
/// | `--servers N` | 1 | shard servers the model is spread over (multi-server group; needs `K >= N`) |
/// | `--eval-every N` | preset | pushes between evaluations |
/// | `--straggler-ms MS` | 4 | extra per-iteration delay of the last worker (0 = homogeneous) |
/// | `--delta-pulls on\|off` | `on` | incremental pulls (workers fetch only shards whose version advanced) |
/// | `--deterministic` | off | canonical event order + logical clock |
/// | `--fault SPEC` | off | structured chaos: `role:phase:action:after` (see `FaultPlan::parse`); `server0:push:abort:N` stops the run after N pushes |
/// | `--checkpoint-dir D` | off | write role-conventional checkpoint files under `D` |
/// | `--checkpoint-every N` | 1 | applied pushes between checkpoint writes |
/// | `--restore` | off | restore from `--checkpoint-dir` instead of starting fresh |
/// | `--event-log D` | off | flush a structured NDJSON event log per role under `D` |
/// | `--metrics-addr H:P` | off | serve Prometheus `GET /metrics` (base port; shard server `i` at `P+1+i`) |
/// | `--migrate SPEC` | off | declarative live migration of a group: `drain:<server>:<at_version>` (rebalance is the admin verb `repro rebalance`) |
///
/// `--delta-pulls` is part of the config digest, so a server and a worker that
/// disagree on it are rejected at the `Hello` handshake rather than silently mixing
/// pull modes. A `--fault` plan naming a worker rank or shard-server index the job
/// does not have is refused: it would never fire. So is a `--migrate` spec on a
/// single server or naming a server the group lacks, and a job with more workers
/// than training examples (`JobConfig::misfit`): a worker would get an empty shard.
pub fn job_from_flags(args: &[String]) -> Result<JobConfig, String> {
    let policy =
        parse_policy(&flag_value(args, "--policy").unwrap_or_else(|| "dssp:1:8".to_string()))?;
    let model = flag_value(args, "--model").unwrap_or_else(|| "mlp".to_string());
    let mut job = match model.as_str() {
        "mlp" => JobConfig::small(policy),
        "alexnet" => JobConfig::small_alexnet(policy),
        other => return Err(format!("unknown model preset '{other}' (mlp | alexnet)")),
    };
    if let Some(n) = parse_flag::<usize>(args, "--workers")? {
        if n == 0 {
            return Err("--workers must be at least 1".to_string());
        }
        job.num_workers = n;
    }
    if let Some(e) = parse_flag::<usize>(args, "--epochs")? {
        job.epochs = e.max(1);
    }
    if let Some(b) = parse_flag::<usize>(args, "--batch-size")? {
        job.batch_size = b.max(1);
    }
    if let Some(s) = parse_flag::<u64>(args, "--seed")? {
        job.seed = s;
    }
    if let Some(k) = parse_flag::<usize>(args, "--shards")? {
        if k == 0 {
            return Err("--shards must be at least 1".to_string());
        }
        job.shards = k;
    }
    if let Some(n) = parse_flag::<usize>(args, "--servers")? {
        if n == 0 {
            return Err("--servers must be at least 1".to_string());
        }
        if n > job.shards {
            return Err(format!(
                "--servers {n} needs at least that many storage shards (got --shards {})",
                job.shards
            ));
        }
        job.servers = n;
    }
    if let Some(n) = parse_flag::<u64>(args, "--eval-every")? {
        job.eval_every_pushes = n.max(1);
    }
    let straggler_ms = parse_flag::<u64>(args, "--straggler-ms")?.unwrap_or(4);
    job.extra_compute_delay_ms = if straggler_ms == 0 || job.num_workers < 2 {
        Vec::new()
    } else {
        let mut delays = vec![0; job.num_workers];
        delays[job.num_workers - 1] = straggler_ms;
        delays
    };
    job.delta_pulls = match flag_value(args, "--delta-pulls").as_deref() {
        None | Some("on") => true,
        Some("off") => false,
        Some(other) => {
            return Err(format!(
                "invalid value '{other}' for --delta-pulls (expected on | off)"
            ))
        }
    };
    job.deterministic = args.iter().any(|a| a == "--deterministic");
    job.fault_plan = match flag_value(args, "--fault") {
        None => None,
        Some(spec) => Some(FaultPlan::parse(&spec).ok_or_else(|| {
            format!(
                "invalid fault spec '{spec}' (expected role:phase:action:after, e.g. \
                 worker0:push:restart:2; only server<i> and coord may abort)"
            )
        })?),
    };
    job.checkpoint = match flag_value(args, "--checkpoint-dir") {
        None => {
            if args.iter().any(|a| a == "--restore") {
                return Err("--restore needs --checkpoint-dir".to_string());
            }
            None
        }
        Some(dir) => Some(CheckpointSpec {
            dir: dir.into(),
            every_pushes: parse_flag::<u64>(args, "--checkpoint-every")?
                .unwrap_or(1)
                .max(1),
            restore: args.iter().any(|a| a == "--restore"),
        }),
    };
    job.migration = match flag_value(args, "--migrate") {
        None => None,
        Some(spec) => Some(MigrationSpec::parse(&spec).ok_or_else(|| {
            format!("invalid migration spec '{spec}' (expected drain:<server>:<at_version>)")
        })?),
    };
    if let Some(why) = job.misfit() {
        return Err(why);
    }
    job.event_log = flag_value(args, "--event-log").map(std::path::PathBuf::from);
    job.metrics_addr = match flag_value(args, "--metrics-addr") {
        None => None,
        Some(addr) => {
            if crate::metrics::derive_metrics_addr(&addr, 0).is_err() {
                return Err(format!(
                    "invalid value '{addr}' for --metrics-addr (expected HOST:PORT)"
                ));
            }
            Some(addr)
        }
    };
    Ok(job)
}

/// Serializes a job back into the flags [`job_from_flags`] accepts, for spawning
/// worker processes. Only CLI-representable jobs round-trip (model presets, a single
/// trailing straggler); anything else is caught by the handshake digest check.
pub fn job_args(job: &JobConfig) -> Vec<String> {
    let model = match &job.model {
        dssp_nn::models::ModelSpec::DownsizedAlexNet { .. } => "alexnet",
        _ => "mlp",
    };
    let straggler_ms = job.extra_compute_delay_ms.last().copied().unwrap_or(0);
    let mut args = vec![
        "--model".to_string(),
        model.to_string(),
        "--policy".to_string(),
        policy_spec(&job.policy),
        "--workers".to_string(),
        job.num_workers.to_string(),
        "--epochs".to_string(),
        job.epochs.to_string(),
        "--batch-size".to_string(),
        job.batch_size.to_string(),
        "--seed".to_string(),
        job.seed.to_string(),
        "--shards".to_string(),
        job.shards.to_string(),
        "--servers".to_string(),
        job.servers.to_string(),
        "--eval-every".to_string(),
        job.eval_every_pushes.to_string(),
        "--straggler-ms".to_string(),
        straggler_ms.to_string(),
        "--delta-pulls".to_string(),
        if job.delta_pulls { "on" } else { "off" }.to_string(),
    ];
    if job.deterministic {
        args.push("--deterministic".to_string());
    }
    if let Some(plan) = &job.fault_plan {
        args.push("--fault".to_string());
        args.push(plan.to_spec());
    }
    if let Some(ckpt) = &job.checkpoint {
        args.push("--checkpoint-dir".to_string());
        args.push(ckpt.dir.display().to_string());
        args.push("--checkpoint-every".to_string());
        args.push(ckpt.every_pushes.to_string());
        if ckpt.restore {
            args.push("--restore".to_string());
        }
    }
    if let Some(spec) = &job.migration {
        args.push("--migrate".to_string());
        args.push(spec.to_spec());
    }
    if let Some(dir) = &job.event_log {
        args.push("--event-log".to_string());
        args.push(dir.display().to_string());
    }
    if let Some(addr) = &job.metrics_addr {
        args.push("--metrics-addr".to_string());
        args.push(addr.clone());
    }
    args
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// Every field of the job, for round-trip comparisons.
    fn dump(job: &JobConfig) -> String {
        format!("{job:?}")
    }

    #[test]
    fn policy_specs_round_trip() {
        for spec in ["bsp", "asp", "ssp:3", "dssp:1:8", "dssp-strict:2:5"] {
            let policy = parse_policy(spec).unwrap();
            assert_eq!(policy_spec(&policy), spec);
        }
        assert_eq!(
            parse_policy("dssp").unwrap(),
            PolicyKind::Dssp { s_l: 1, r_max: 8 }
        );
        assert!(parse_policy("nope").is_err());
        assert!(parse_policy("ssp").is_err());
        assert!(parse_policy("ssp:x").is_err());
    }

    #[test]
    fn job_flags_round_trip_through_job_args() {
        let args = strings(&[
            "--model",
            "alexnet",
            "--policy",
            "dssp:2:6",
            "--workers",
            "3",
            "--epochs",
            "2",
            "--seed",
            "99",
            "--shards",
            "4",
            "--straggler-ms",
            "7",
            "--deterministic",
        ]);
        let job = job_from_flags(&args).unwrap();
        assert_eq!(job.num_workers, 3);
        assert_eq!(job.shards, 4);
        assert_eq!(job.extra_compute_delay_ms, vec![0, 0, 7]);
        assert!(job.deterministic);
        let rebuilt = job_from_flags(&job_args(&job)).unwrap();
        assert_eq!(dump(&job), dump(&rebuilt));
    }

    #[test]
    fn delta_pulls_default_on_and_round_trip_through_the_digest() {
        let on = job_from_flags(&[]).unwrap();
        assert!(on.delta_pulls);
        let off = job_from_flags(&strings(&["--delta-pulls", "off"])).unwrap();
        assert!(!off.delta_pulls);
        // Mixed-mode jobs must be rejected at handshake: the digest differs.
        assert_ne!(on.stable_digest(), off.stable_digest());
        let rebuilt = job_from_flags(&job_args(&off)).unwrap();
        assert!(!rebuilt.delta_pulls);
        assert_eq!(dump(&off), dump(&rebuilt));
        assert!(job_from_flags(&strings(&["--delta-pulls", "maybe"])).is_err());
    }

    #[test]
    fn servers_flag_round_trips_and_is_validated() {
        let job = job_from_flags(&strings(&["--shards", "8", "--servers", "2"])).unwrap();
        assert_eq!(job.servers, 2);
        let rebuilt = job_from_flags(&job_args(&job)).unwrap();
        assert_eq!(dump(&job), dump(&rebuilt));
        // Topology is part of the digest: a 1-server worker cannot join a 2-server job.
        let single = job_from_flags(&strings(&["--shards", "8"])).unwrap();
        assert_ne!(job.stable_digest(), single.stable_digest());
        // More servers than shards is rejected up front.
        assert!(job_from_flags(&strings(&["--shards", "2", "--servers", "4"])).is_err());
        assert!(job_from_flags(&strings(&["--servers", "0"])).is_err());
    }

    #[test]
    fn defaults_give_a_dssp_job_with_one_straggler() {
        let job = job_from_flags(&[]).unwrap();
        assert_eq!(job.policy, PolicyKind::Dssp { s_l: 1, r_max: 8 });
        assert_eq!(job.num_workers, 2);
        assert_eq!(job.extra_compute_delay_ms, vec![0, 4]);
        let rebuilt = job_from_flags(&job_args(&job)).unwrap();
        assert_eq!(dump(&job), dump(&rebuilt));
    }

    #[test]
    fn single_worker_jobs_drop_the_straggler() {
        let job = job_from_flags(&strings(&["--workers", "1"])).unwrap();
        assert!(job.extra_compute_delay_ms.is_empty());
    }

    #[test]
    fn chaos_flags_round_trip_but_stay_out_of_the_stable_digest() {
        let args = strings(&[
            "--fault",
            "worker1:push:restart:3",
            "--checkpoint-dir",
            "/tmp/ckpts",
            "--checkpoint-every",
            "5",
            "--restore",
        ]);
        let job = job_from_flags(&args).unwrap();
        let plan = job.fault_plan.expect("fault plan parsed");
        assert_eq!(plan.to_spec(), "worker1:push:restart:3");
        let ckpt = job.checkpoint.clone().expect("checkpoint spec parsed");
        assert_eq!(ckpt.dir, std::path::PathBuf::from("/tmp/ckpts"));
        assert_eq!(ckpt.every_pushes, 5);
        assert!(ckpt.restore);
        let rebuilt = job_from_flags(&job_args(&job)).unwrap();
        assert_eq!(dump(&job), dump(&rebuilt));
        // The chaos knobs change the job but are masked from the handshake digest: a
        // restarted process without its fault plan still interoperates.
        let clean = job_from_flags(&[]).unwrap();
        assert_ne!(dump(&job), dump(&clean));
        assert_eq!(job.stable_digest(), clean.stable_digest());
    }

    #[test]
    fn observability_flags_round_trip_but_stay_out_of_the_stable_digest() {
        let args = strings(&[
            "--event-log",
            "/tmp/events",
            "--metrics-addr",
            "127.0.0.1:9180",
        ]);
        let job = job_from_flags(&args).unwrap();
        assert_eq!(job.event_log, Some(std::path::PathBuf::from("/tmp/events")));
        assert_eq!(job.metrics_addr.as_deref(), Some("127.0.0.1:9180"));
        let rebuilt = job_from_flags(&job_args(&job)).unwrap();
        assert_eq!(dump(&job), dump(&rebuilt));
        // Observing a run does not change what it computes: the handshake-stable
        // digest ignores the observability knobs (mirroring the chaos flags).
        let dark = job_from_flags(&[]).unwrap();
        assert_ne!(dump(&job), dump(&dark));
        assert_eq!(job.stable_digest(), dark.stable_digest());
        assert!(job_from_flags(&strings(&["--metrics-addr", "no-port"])).is_err());
    }

    #[test]
    fn migration_flags_round_trip_but_stay_out_of_the_stable_digest() {
        let args = strings(&["--shards", "4", "--servers", "3", "--migrate", "drain:2:64"]);
        let job = job_from_flags(&args).unwrap();
        let spec = job.migration.expect("migration spec parsed");
        assert_eq!(spec.drain, 2);
        assert_eq!(spec.at_version, 64);
        let rebuilt = job_from_flags(&job_args(&job)).unwrap();
        assert_eq!(dump(&job), dump(&rebuilt));
        // Migrations move shard ownership, never shard boundaries or arithmetic, so
        // the handshake-stable digest masks the triggers (like the chaos flags): a
        // worker launched without them still joins the migrating group.
        let fixed = job_from_flags(&strings(&["--shards", "4", "--servers", "3"])).unwrap();
        assert_ne!(dump(&job), dump(&fixed));
        assert_eq!(job.stable_digest(), fixed.stable_digest());
        // Malformed specs are rejected.
        assert!(job_from_flags(&strings(&["--migrate", "drain:x:1"])).is_err());
        assert!(job_from_flags(&strings(&["--migrate", "shuffle:1"])).is_err());
    }

    #[test]
    fn malformed_chaos_flags_are_rejected() {
        assert!(job_from_flags(&strings(&["--fault", "worker0:nap:restart:1"])).is_err());
        assert!(job_from_flags(&strings(&["--fault", "coord:push:restart:0"])).is_err());
        assert!(job_from_flags(&strings(&["--fault", "worker0:push:abort:1"])).is_err());
        assert!(job_from_flags(&strings(&["--restore"])).is_err());
    }

    /// A plan for a role the job does not have would parse and never fire, so a
    /// chaos run would pass without its fault.
    #[test]
    fn a_fault_plan_for_a_missing_role_is_refused() {
        let flags = |extra: &[&str]| {
            let mut args = strings(&["--workers", "2", "--shards", "2", "--servers", "2"]);
            args.extend(strings(extra));
            job_from_flags(&args)
        };
        assert!(flags(&["--fault", "worker5:push:evict:1"]).is_err());
        assert!(flags(&["--fault", "server3:push:evict:1"]).is_err());
        assert!(flags(&["--fault", "worker1:push:evict:1"]).is_ok());
        assert!(flags(&["--fault", "server1:push:abort:3"]).is_ok());
        assert!(flags(&["--fault", "coord:push:abort:3"]).is_ok());
    }

    /// A migration the job can never run would parse and silently do nothing: a
    /// rebalance from the (balanced) launch layout, a drain of a server the group
    /// lacks, or any spec on a single server, which reads none.
    #[test]
    fn a_migration_the_job_cannot_run_is_refused() {
        let flags = |servers: &str, spec: &str| {
            job_from_flags(&strings(&[
                "--shards",
                "4",
                "--servers",
                servers,
                "--migrate",
                spec,
            ]))
        };
        assert!(flags("3", "rebalance:10").is_err());
        assert!(flags("3", "drain:3:10").is_err());
        assert!(flags("1", "drain:0:10").is_err());
        assert!(flags("3", "drain:2:10").is_ok());
    }

    /// The alexnet preset has 64 training examples: a 65th worker's shard would be
    /// empty, and its `BatchIter` would panic while the server waited for it.
    #[test]
    fn more_workers_than_training_examples_is_refused() {
        let flags =
            |workers: &str| job_from_flags(&strings(&["--model", "alexnet", "--workers", workers]));
        let why = flags("65").expect_err("a worker without a shard");
        assert!(why.contains("64") && why.contains("65"), "{why}");
        assert!(flags("64").is_ok());
    }
}
