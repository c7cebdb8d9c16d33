//! `WithCrashes` against a reference copy of its earlier implementation,
//! which kept its crash/restart bookkeeping in `BTreeMap`/`BTreeSet`s and
//! rescanned the plan on every decision.
//!
//! The slot-indexed tables must be a pure representation change: every
//! plan below runs through both wrappers, under round-robin, random and
//! block schedules, single-step and quantized, and the two `Execution`s
//! must be equal field for field (`crashed`, `restarted` and
//! `per_proc_steps` included).

use amo_sim::testing::WriterProcess;
use amo_sim::{
    BlockScheduler, CrashPlan, Decision, Engine, EngineLimits, Execution, LifeState,
    RandomScheduler, RoundRobin, SchedView, Scheduler, VecRegisters, WithCrashes,
};

/// The BTree-based `WithCrashes`, kept verbatim as the oracle.
mod oracle {
    use std::collections::{BTreeMap, BTreeSet};

    use amo_sim::{CrashPlan, Decision, LifeState, SchedView, Scheduler};

    #[derive(Debug, Clone)]
    pub struct OracleWithCrashes<S> {
        inner: S,
        plan: CrashPlan,
        /// Pids whose planned crash already fired (so cumulative step counters
        /// cannot re-trigger it after a restart).
        fired: BTreeSet<usize>,
        /// Global step at which each pid last crashed (feeds restart delays).
        crashed_at: BTreeMap<usize, u64>,
        /// Pids already restarted (one restart per pid).
        restarted: BTreeSet<usize>,
    }

    impl<S> OracleWithCrashes<S> {
        /// Wraps `inner`, injecting the crashes and restarts of `plan`.
        pub fn new(inner: S, plan: CrashPlan) -> Self {
            Self {
                inner,
                plan,
                fired: BTreeSet::new(),
                crashed_at: BTreeMap::new(),
                restarted: BTreeSet::new(),
            }
        }

        /// The earliest `(due_step, slot)` among restarts whose pid is
        /// currently crashed and not yet restarted.
        fn earliest_restart<P>(&self, view: &SchedView<'_, P>) -> Option<(u64, usize)> {
            if !self.plan.has_restarts() {
                return None;
            }
            self.plan
                .restarts()
                .filter_map(|(pid, delay)| {
                    let i = pid.checked_sub(1)?;
                    if i >= view.slots.len()
                        || view.slots[i].state != LifeState::Crashed
                        || self.restarted.contains(&pid)
                    {
                        return None;
                    }
                    let at = self.crashed_at.get(&pid)?;
                    Some((at.saturating_add(delay), i))
                })
                .min()
        }
    }

    impl<P, S: Scheduler<P>> Scheduler<P> for OracleWithCrashes<S> {
        fn decide(&mut self, view: &SchedView<'_, P>) -> Decision {
            // The empty plan (the common benchmarking case) must not tax every
            // decision with an O(m) budget scan.
            if self.plan.crash_count() > 0 && view.crashes < view.max_crashes {
                for (i, slot) in view.slots.iter().enumerate() {
                    if slot.state == LifeState::Running
                        && !self.fired.contains(&(i + 1))
                        && self.plan.should_crash(i + 1, slot.steps)
                    {
                        self.fired.insert(i + 1);
                        self.crashed_at.insert(i + 1, view.total_steps);
                        return Decision::Crash(i);
                    }
                }
            }
            if let Some((due, i)) = self.earliest_restart(view) {
                // Fire at the due step — or immediately if the fleet has
                // stalled (nobody left to advance the step clock).
                if view.total_steps >= due || view.running_count() == 0 {
                    self.restarted.insert(i + 1);
                    return Decision::Restart(i);
                }
            }
            let decision = self.inner.decide(view);
            if let Decision::Crash(i) = decision {
                // Adversary-injected crash: record it so a restart entry for
                // this pid has a crash instant to measure its delay from.
                self.crashed_at.insert(i + 1, view.total_steps);
            }
            decision
        }

        // Pass the inner quantum through, but stop it exactly at the chosen
        // process's planned crash threshold — and at the earliest pending
        // restart's due step — so both injections happen at the same global
        // action they would under single-stepping. (Other processes' crash
        // thresholds cannot fire mid-quantum: their step counts do not
        // advance.)
        fn quantum(&self, view: &SchedView<'_, P>, chosen: usize) -> u64 {
            let mut q = self.inner.quantum(view, chosen);
            if self.plan.is_empty() {
                return q;
            }
            if let Some(b) = self.plan.budget(chosen + 1) {
                if view.crashes < view.max_crashes && !self.fired.contains(&(chosen + 1)) {
                    q = q.min(b.saturating_sub(view.slots[chosen].steps).max(1));
                }
            }
            if let Some((due, _)) = self.earliest_restart(view) {
                q = q.min(due.saturating_sub(view.total_steps).max(1));
            }
            q
        }

        fn note_consumed(&mut self, chosen: usize, steps: u64) {
            self.inner.note_consumed(chosen, steps);
        }

        fn pending_restart(&self, view: &SchedView<'_, P>) -> bool {
            self.earliest_restart(view).is_some()
        }
    }
}

use oracle::OracleWithCrashes;

/// An adversary in front of a fair schedule: for each `(at, decision)` in
/// order, issues `decision` at the first decision point at or after global
/// step `at` — a crash if its slot is running and budget is left, a restart
/// (behind the wrapper's back) if its slot is crashed; otherwise it is
/// skipped.
struct Injector<S> {
    inner: S,
    events: Vec<(u64, Decision)>,
    next: usize,
}

impl<P, S: Scheduler<P>> Scheduler<P> for Injector<S> {
    fn decide(&mut self, view: &SchedView<'_, P>) -> Decision {
        while let Some(&(at, decision)) = self.events.get(self.next) {
            if view.total_steps < at {
                break;
            }
            self.next += 1;
            let valid = match decision {
                Decision::Crash(i) => {
                    view.slots[i].state == LifeState::Running && view.crashes < view.max_crashes
                }
                Decision::Restart(i) => view.slots[i].state == LifeState::Crashed,
                Decision::Step(_) => false,
            };
            if valid {
                return decision;
            }
        }
        self.inner.decide(view)
    }

    fn quantum(&self, view: &SchedView<'_, P>, chosen: usize) -> u64 {
        self.inner.quantum(view, chosen)
    }

    fn note_consumed(&mut self, chosen: usize, steps: u64) {
        self.inner.note_consumed(chosen, steps);
    }
}

/// One fleet, plan and adversary, to run under every schedule.
#[derive(Debug, Clone)]
struct Case {
    m: usize,
    k: u64,
    plan: CrashPlan,
    injected: Vec<(u64, Decision)>,
    max_crashes: usize,
    /// Step cap; a cap that cuts the run makes `per_proc_steps` record
    /// exactly when each restart fired.
    max_steps: u64,
}

/// The schedules every case runs under, each single-step and batched.
const SCHEDULES: [&str; 5] = ["rr", "rr q=5", "random", "random q=3", "block 4"];

fn schedule(name: &str, seed: u64) -> Box<dyn Scheduler<WriterProcess>> {
    match name {
        "rr" => Box::new(RoundRobin::new()),
        "rr q=5" => Box::new(RoundRobin::new().with_quantum(5)),
        "random" => Box::new(RandomScheduler::new(seed)),
        "random q=3" => Box::new(RandomScheduler::new(seed).with_quantum(3)),
        "block 4" => Box::new(BlockScheduler::new(seed, 4)),
        other => unreachable!("unknown schedule {other}"),
    }
}

fn run<S: Scheduler<WriterProcess>>(case: &Case, sched: S, single: bool) -> Execution {
    let mem = VecRegisters::new(case.m);
    let fleet = (1..=case.m)
        .map(|p| WriterProcess::new(p, p - 1, case.k))
        .collect();
    let mut engine = Engine::new(mem, fleet, sched).with_max_crashes(case.max_crashes);
    if single {
        engine = engine.single_step();
    }
    engine.run(EngineLimits::with_max_steps(case.max_steps))
}

/// Runs `case` through both wrappers under every schedule, asserts the
/// executions equal, and returns them.
fn check(case: &Case, seed: u64) -> Vec<Execution> {
    let injector = |name| Injector {
        inner: schedule(name, seed),
        events: case.injected.clone(),
        next: 0,
    };
    let mut out = Vec::new();
    for name in SCHEDULES {
        for single in [true, false] {
            let got = run(
                case,
                WithCrashes::new(injector(name), case.plan.clone()),
                single,
            );
            let want = run(
                case,
                OracleWithCrashes::new(injector(name), case.plan.clone()),
                single,
            );
            assert_eq!(got, want, "{name} seed={seed} single={single}: {case:?}");
            out.push(got);
        }
    }
    out
}

#[test]
fn budget_zero_crashes_before_the_first_step() {
    let mut plan = CrashPlan::at_steps([(1usize, 0u64), (3, 0)]);
    plan.restart_after(1, 2);
    let case = Case {
        m: 3,
        k: 4,
        plan,
        injected: Vec::new(),
        max_crashes: 2,
        max_steps: 100_000,
    };
    for exec in check(&case, 1) {
        assert_eq!(exec.crashed, vec![1, 3]);
        assert_eq!(exec.restarted, vec![1]);
        assert_eq!(exec.per_proc_steps[2], 0);
    }
}

#[test]
fn pid_zero_and_pids_beyond_the_fleet_are_ignored() {
    let mut plan = CrashPlan::at_steps([(0usize, 1u64), (2, 3), (5, 0), (9, 2)]);
    plan.restart_after(0, 1)
        .restart_after(2, 4)
        .restart_after(4, 1)
        .restart_after(7, 0);
    let case = Case {
        m: 3,
        k: 5,
        plan,
        injected: Vec::new(),
        max_crashes: 2,
        max_steps: 100_000,
    };
    for exec in check(&case, 2) {
        assert_eq!(exec.crashed, vec![2]);
        assert_eq!(exec.restarted, vec![2]);
        assert!(exec.completed);
    }
}

#[test]
fn restart_only_entries_pair_with_injected_crashes() {
    let mut plan = CrashPlan::none();
    plan.restart_after(2, 3).restart_after(3, 0);
    let case = Case {
        m: 3,
        k: 6,
        plan,
        injected: vec![(2, Decision::Crash(1)), (4, Decision::Crash(2))],
        max_crashes: 2,
        max_steps: 100_000,
    };
    for exec in check(&case, 3) {
        assert_eq!(exec.crashed.len(), 2);
        assert_eq!(exec.restarted.len(), 2);
        assert!(exec.completed);
    }
}

#[test]
fn a_restarted_process_may_crash_again() {
    let mut plan = CrashPlan::at_steps([(1usize, 1u64)]);
    plan.restart_after(1, 2);
    let case = Case {
        m: 3,
        k: 8,
        plan,
        // Slot 0 is crashed by the plan first; the injection waits for its
        // second life (an injection that finds it crashed is skipped).
        injected: vec![(9, Decision::Crash(0))],
        max_crashes: 2,
        max_steps: 100_000,
    };
    for exec in check(&case, 4) {
        assert_eq!(exec.crashed, vec![1, 1], "crashed in both lives");
        assert_eq!(exec.restarted, vec![1], "restarted once");
    }
}

#[test]
fn restarts_issued_by_the_inner_scheduler_are_respected() {
    // The inner adversary restarts slot 0 itself while its planned restart
    // is pending, then crashes it again: the wrapper must not restart a
    // running slot, and the pending restart is re-timed from the new crash
    // (due at step 15, not 10; the cap at 20 makes the difference show in
    // `per_proc_steps`).
    let mut plan = CrashPlan::at_steps([(1usize, 0u64)]);
    plan.restart_after(1, 10);
    let case = Case {
        m: 3,
        k: 12,
        plan,
        injected: vec![(3, Decision::Restart(0)), (5, Decision::Crash(0))],
        max_crashes: 2,
        max_steps: 20,
    };
    for exec in check(&case, 6) {
        assert_eq!(exec.crashed, vec![1, 1]);
        assert_eq!(exec.restarted, vec![1, 1], "inner restart, then planned");
        assert!(!exec.completed, "cut by the step cap");
    }
}

#[test]
fn a_stalled_fleet_restarts_at_once() {
    let mut plan = CrashPlan::at_steps([(1usize, 0u64), (2, 0)]);
    plan.restart_after(2, 1_000_000).restart_after(1, 2_000_000);
    let case = Case {
        m: 3,
        k: 2,
        plan,
        injected: Vec::new(),
        max_crashes: 2,
        max_steps: 100_000,
    };
    for exec in check(&case, 5) {
        assert_eq!(exec.crashed, vec![1, 2]);
        assert_eq!(exec.restarted, vec![2, 1], "earliest due first");
        assert!(exec.completed);
        assert!(exec.total_steps < 1_000_000);
    }
}

/// splitmix64: a tiny deterministic generator for the random plans.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

fn random_case(rng: &mut Mix) -> Case {
    let m = 2 + rng.below(4) as usize;
    let k = 1 + rng.below(10);
    let horizon = m as u64 * (k + 1);
    let mut plan = CrashPlan::none();
    // Pids 0..=m+1: pid 0 and pid m+1 exercise the ignored entries.
    for pid in 0..=m + 1 {
        if rng.below(2) == 0 {
            let budget = if rng.below(4) == 0 {
                0
            } else {
                rng.below(k + 2)
            };
            plan.crash(pid, budget);
        }
        if rng.below(2) == 0 {
            let delay = match rng.below(5) {
                0 => 0,
                1 => 1_000_000, // only a stalled fleet fires it
                _ => rng.below(2 * horizon),
            };
            plan.restart_after(pid, delay);
        }
    }
    let mut injected: Vec<(u64, Decision)> = (0..rng.below(5))
        .map(|_| {
            let at = rng.below(2 * horizon);
            let slot = rng.below(m as u64) as usize;
            let decision = if rng.below(4) == 0 {
                Decision::Restart(slot)
            } else {
                Decision::Crash(slot)
            };
            (at, decision)
        })
        .collect();
    injected.sort_unstable_by_key(|&(at, _)| at);
    Case {
        m,
        k,
        plan,
        injected,
        max_crashes: 1 + rng.below(m as u64 - 1) as usize,
        max_steps: if rng.below(3) == 0 {
            1 + rng.below(2 * horizon)
        } else {
            100_000
        },
    }
}

#[test]
fn random_plans_match_the_oracle() {
    let mut rng = Mix(0xC0FFEE);
    let (mut restarts, mut recrashes) = (0, 0);
    for case_no in 0..300u64 {
        let case = random_case(&mut rng);
        for exec in check(&case, case_no) {
            restarts += exec.restarted.len();
            let mut seen = exec.crashed.clone();
            seen.sort_unstable();
            seen.dedup();
            recrashes += exec.crashed.len() - seen.len();
        }
    }
    // The sweep is only evidence if it reached the restart paths.
    assert!(restarts > 0, "no restart fired");
    assert!(recrashes > 0, "no process crashed twice");
}
