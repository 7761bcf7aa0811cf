//! The whole worker round — model compute, the loop's bookkeeping, the dispatch into
//! the link and the enabled event log — allocates nothing once warm: the link's
//! `push` samples the process-wide allocation counter, and after the first epoch
//! consecutive samples read equal. (`zero_alloc_net` covers the transports; this
//! covers what sits above them.) The counter is process-wide, so this binary holds
//! one test.

mod common;

use common::{Script, ScriptedLink};
use dssp_core::driver::JobConfig;
use dssp_net::worker::run_worker_loop;
use dssp_ps::PolicyKind;
use dssp_testalloc::{process_allocations, CountingAlloc};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn a_warm_worker_round_allocates_nothing() {
    let dir = std::env::temp_dir().join(format!("dssp-zero-alloc-round-{}", std::process::id()));
    let mut job = JobConfig::small(PolicyKind::Dssp { s_l: 1, r_max: 4 });
    job.event_log = Some(dir.clone()); // every event of the round is recorded
    let per_epoch = 16; // 256 examples per worker, batch 16; two epochs
    let mut calls = Vec::with_capacity(8 * 2 * per_epoch);
    let mut samples = Vec::with_capacity(2 * per_epoch);
    let mut sample = || samples.push(process_allocations());
    let report = run_worker_loop(&job, 0, |param_len, log| {
        assert!(log.is_some(), "the event log is on");
        let mut link = ScriptedLink::new(Script::default(), param_len, &mut calls);
        link.on_push = Some(&mut sample);
        link
    })
    .expect("clean run");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(report.iterations as usize, 2 * per_epoch);
    // Warm after one epoch: every buffer has held a full and a last batch, and the
    // window that follows crosses the epoch boundary's reshuffle.
    let warm = &samples[per_epoch..];
    assert_eq!(warm.len(), per_epoch);
    assert!(
        warm.iter().all(|&s| s == warm[0]),
        "allocations between warm pushes: {:?}",
        warm.windows(2).map(|w| w[1] - w[0]).collect::<Vec<_>>()
    );
}
