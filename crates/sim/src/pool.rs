//! The pool private to `Simulation::run`: one simulation's gradients and evaluations
//! on every core, with the event loop unchanged.
//!
//! Work comes in *lanes*. A lane is state that only its tasks touch between a submit
//! and the matching join: one lane per worker (replica, batch stream, pulled weights,
//! gradient) and one for the evaluator (replica, weight snapshot, accuracy). The event
//! loop writes a lane's inputs, [`Pool::submit`]s its task, carries on, and
//! [`Pool::join`]s the lane where it needs the result. Nothing else reads or writes
//! the lane in between, so which thread runs the task, and when, cannot change what
//! it computes.
//!
//! Thread 0 is the event loop; threads `1..=helpers` are helpers. Every lane has a
//! home thread: lane 0 (the evaluator) goes on helper 1, and the lanes after it (the
//! workers) are dealt round-robin over helper 1, ..., helper `helpers`, then the
//! event loop. A helper runs the tasks of its own lanes only, in submission order, so
//! each replica's working set stays in one core's cache. The event loop runs a task
//! itself when the task's home thread has not started it by the join. While it waits
//! for a started task it runs the queued tasks of its own lanes instead of sleeping.
//! With zero helpers every task runs on the event loop at its join.
//!
//! The deal favours lanes with slack. A task can only overlap with other work while
//! the event loop has something else to do between its submit and its join. The
//! evaluator is joined an evaluation interval later. Of two workers on the 2-core
//! host, the one on the helper computes while the event loop handles the other one's
//! pushes and computes that one's gradients in place. A join that finds its task not
//! yet started (a worker pushing twice in a row) takes it rather than wait for a wake.
//!
//! A task that panics marks its lane failed and wakes the event loop, whose join then
//! panics. [`Pool::start`]'s guard shuts the helpers down when the event loop returns
//! or unwinds, so the enclosing `std::thread::scope` always joins.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::Scope;

/// What a pool runs: `run(lane)` executes the task submitted on `lane`.
pub(crate) trait Tasks: Sync {
    fn run(&self, lane: usize);
}

impl<F: Fn(usize) + Sync> Tasks for F {
    fn run(&self, lane: usize) {
        self(lane)
    }
}

/// Locks `mutex`, also after a panic elsewhere poisoned it: the pool's schedule says
/// which lanes are usable, not the poison flag (an evaluator keeps no state across
/// scores).
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Helpers for `lanes` lanes on this host: one per core beyond the event loop's, at
/// most one per lane after the first (which shares helper 1 with the second).
pub(crate) fn helpers_for(lanes: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(0, |cores| cores.get() - 1)
        .min(lanes.saturating_sub(1))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneState {
    Idle,
    Queued,
    Running,
    Failed,
}

struct Schedule {
    lanes: Vec<LaneState>,
    /// Queued lanes in submission order.
    queue: VecDeque<usize>,
    shutdown: bool,
}

impl Schedule {
    /// Takes the queued lane at `at` out of the queue and marks it running.
    fn take(&mut self, at: usize) -> usize {
        let lane = self.queue.remove(at).expect("queue position in range");
        self.lanes[lane] = LaneState::Running;
        lane
    }
}

/// A task pool over a fixed set of lanes (see the module docs).
pub(crate) struct Pool<T> {
    tasks: T,
    /// Home thread of each lane: 0 is the event loop, `1..` the helpers.
    home: Vec<usize>,
    schedule: Mutex<Schedule>,
    /// A task was queued or the pool shut down; helpers wait on it.
    queued: Condvar,
    /// A task finished or failed; the event loop waits on it.
    finished: Condvar,
}

impl<T: Tasks> Pool<T> {
    /// A pool running `tasks` on `lanes` lanes with `helpers` helper threads (started
    /// by [`Pool::start`]).
    pub fn new(tasks: T, lanes: usize, helpers: usize) -> Self {
        Self {
            tasks,
            // Deal order: helper 1, ..., helper `helpers`, then the event loop (0).
            home: (0..lanes)
                .map(|lane| (lane.saturating_sub(1) % (helpers + 1) + 1) % (helpers + 1))
                .collect(),
            schedule: Mutex::new(Schedule {
                lanes: vec![LaneState::Idle; lanes],
                queue: VecDeque::with_capacity(lanes),
                shutdown: false,
            }),
            queued: Condvar::new(),
            finished: Condvar::new(),
        }
    }

    /// The tasks, whose lane state the event loop reads after a join and writes
    /// before a submit.
    pub fn tasks(&self) -> &T {
        &self.tasks
    }

    /// Spawns the helper threads on `scope`. Dropping the returned guard, on return or
    /// while unwinding, shuts them down so that the scope can join them.
    pub fn start<'scope>(&'scope self, scope: &'scope Scope<'scope, '_>) -> Shutdown<'scope, T> {
        // Only helpers that are some lane's home: a helper without lanes would only sleep.
        let helpers = self.home.iter().copied().max().unwrap_or(0);
        for helper in 1..=helpers {
            scope.spawn(move || self.help(helper));
        }
        Shutdown(self)
    }

    /// Queues the task of `lane`, whose inputs the caller has written.
    ///
    /// # Panics
    ///
    /// Panics if the lane's previous task has not been joined.
    pub fn submit(&self, lane: usize) {
        let mut schedule = lock(&self.schedule);
        assert_eq!(
            schedule.lanes[lane],
            LaneState::Idle,
            "lane {lane} submitted before its last task was joined"
        );
        schedule.lanes[lane] = LaneState::Queued;
        schedule.queue.push_back(lane);
        drop(schedule);
        if self.home[lane] != 0 {
            self.queued.notify_all();
        }
    }

    /// Returns once the task of `lane` has run (at once if none is pending). Runs it
    /// here if its home thread has not started it, and runs the event loop's own
    /// queued tasks while it waits for a started one.
    ///
    /// # Panics
    ///
    /// Panics if the task panicked.
    pub fn join(&self, lane: usize) {
        let mut schedule = lock(&self.schedule);
        loop {
            let next = match schedule.lanes[lane] {
                LaneState::Idle => return,
                LaneState::Failed => {
                    drop(schedule);
                    panic!("the simulation task on lane {lane} panicked");
                }
                LaneState::Queued => schedule.queue.iter().position(|&l| l == lane),
                LaneState::Running => schedule.queue.iter().position(|&l| self.home[l] == 0),
            };
            match next {
                Some(at) => {
                    let own = schedule.take(at);
                    drop(schedule);
                    self.execute(own);
                    schedule = lock(&self.schedule);
                }
                None => {
                    schedule = self
                        .finished
                        .wait(schedule)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Helper `me`'s loop: run its lanes' tasks in submission order until shutdown.
    fn help(&self, me: usize) {
        let mut schedule = lock(&self.schedule);
        while !schedule.shutdown {
            match schedule.queue.iter().position(|&l| self.home[l] == me) {
                Some(at) => {
                    let lane = schedule.take(at);
                    drop(schedule);
                    self.execute(lane);
                    schedule = lock(&self.schedule);
                }
                None => {
                    schedule = self
                        .queued
                        .wait(schedule)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Runs the task of the running `lane` on this thread.
    fn execute(&self, lane: usize) {
        let _done = Done { pool: self, lane };
        self.tasks.run(lane);
    }
}

/// Marks its lane idle when the task returns, or failed when it unwinds, and wakes
/// the event loop either way.
struct Done<'p, T: Tasks> {
    pool: &'p Pool<T>,
    lane: usize,
}

impl<T: Tasks> Drop for Done<'_, T> {
    fn drop(&mut self) {
        lock(&self.pool.schedule).lanes[self.lane] = if std::thread::panicking() {
            LaneState::Failed
        } else {
            LaneState::Idle
        };
        self.pool.finished.notify_all();
    }
}

/// Shuts the pool's helpers down when dropped (see [`Pool::start`]).
pub(crate) struct Shutdown<'p, T: Tasks>(&'p Pool<T>);

impl<T: Tasks> Drop for Shutdown<'_, T> {
    fn drop(&mut self) {
        lock(&self.0.schedule).shutdown = true;
        self.0.queued.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::{self, ThreadId};

    /// Per lane: the input the event loop wrote, the output the task wrote, and the
    /// thread that ran the task.
    type Lane = Mutex<(u64, u64, Option<ThreadId>)>;

    /// Submits every lane, then joins them in reverse, `rounds` times; each task
    /// squares its input. Returns the threads each lane's tasks ran on.
    fn rounds(lanes: usize, helpers: usize, rounds: u64) -> Vec<Vec<ThreadId>> {
        let state: Vec<Lane> = (0..lanes).map(|_| Mutex::new((0, 0, None))).collect();
        let pool = Pool::new(
            |lane: usize| {
                let mut l = lock(&state[lane]);
                l.1 = l.0 * l.0 + lane as u64;
                l.2 = Some(thread::current().id());
            },
            lanes,
            helpers,
        );
        let mut ran_on = vec![Vec::new(); lanes];
        thread::scope(|scope| {
            let _shutdown = pool.start(scope);
            for round in 0..rounds {
                for (lane, l) in state.iter().enumerate() {
                    lock(l).0 = round * 10 + lane as u64;
                    pool.submit(lane);
                }
                for lane in (0..lanes).rev() {
                    pool.join(lane);
                    pool.join(lane); // a second join of an idle lane returns at once
                    let (input, output, thread) = *lock(&state[lane]);
                    assert_eq!(input, round * 10 + lane as u64);
                    assert_eq!(output, input * input + lane as u64);
                    ran_on[lane].push(thread.expect("the task ran"));
                }
            }
        });
        ran_on
    }

    #[test]
    fn homes_put_the_first_lane_on_a_helper_then_deal_round_robin() {
        let homes = |lanes, helpers| Pool::new(|_: usize| {}, lanes, helpers).home;
        assert_eq!(homes(3, 0), vec![0, 0, 0]);
        assert_eq!(homes(3, 1), vec![1, 1, 0]);
        assert_eq!(homes(5, 1), vec![1, 1, 0, 1, 0]);
        assert_eq!(homes(5, 2), vec![1, 1, 2, 0, 1]);
        assert_eq!(homes(3, 2), vec![1, 1, 2]);
    }

    #[test]
    fn zero_helpers_run_every_task_on_the_event_loop() {
        let me = thread::current().id();
        for threads in rounds(3, 0, 20) {
            assert!(threads.iter().all(|&t| t == me));
        }
    }

    #[test]
    fn one_helper_never_runs_the_event_loops_lanes() {
        let me = thread::current().id();
        let ran_on = rounds(5, 1, 200);
        // Lanes 2 and 4 are homed on the event loop; lanes 0, 1 and 3 on the helper,
        // whose tasks the event loop runs only when the helper has not started them.
        for lane in [2, 4] {
            assert!(ran_on[lane].iter().all(|&t| t == me), "lane {lane}");
        }
        assert_eq!(ran_on.iter().map(Vec::len).sum::<usize>(), 1000);
    }

    #[test]
    fn two_helpers_run_every_task_once_with_its_inputs() {
        let ran_on = rounds(5, 2, 200);
        assert!(ran_on.iter().all(|threads| threads.len() == 200));
    }

    /// The failing task runs on its home thread: a helper's failure must reach the
    /// join, and the event loop's own must still let the scope join the helpers.
    #[test]
    fn a_panicking_task_fails_its_join_on_any_thread() {
        for helpers in 0..3 {
            for lane in 0..3 {
                let pool = Pool::new(
                    move |l: usize| assert_ne!(l, lane, "task on lane {l} fails"),
                    3,
                    helpers,
                );
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    thread::scope(|scope| {
                        let _shutdown = pool.start(scope);
                        for l in 0..3 {
                            pool.submit(l);
                        }
                        if pool.home[lane] != 0 {
                            // Let the helper start it rather than the join take it.
                            while lock(&pool.schedule).lanes[lane] == LaneState::Queued {
                                thread::yield_now();
                            }
                        }
                        for l in 0..3 {
                            pool.join(l);
                        }
                    })
                }));
                assert!(outcome.is_err(), "{helpers} helpers, lane {lane}");
            }
        }
    }
}
