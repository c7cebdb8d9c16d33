use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::crash::CrashPlan;
use crate::engine::{LifeState, Slot};

/// The adversary's move at one step of an execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Let the process in slot `index` (0-based) execute one action.
    Step(usize),
    /// Crash the process in slot `index` (the model's `stop_p` action).
    Crash(usize),
    /// Restart the crashed process in slot `index`: the engine re-enters it
    /// through [`Process::on_restart`](crate::Process::on_restart). Emitted
    /// by [`WithCrashes`] for [`CrashPlan`] restart entries; a restart is
    /// not an action (the step counters do not advance).
    Restart(usize),
}

/// What the adversary can see when deciding.
///
/// The paper's adversary is *omniscient*: it knows the full state of every
/// process and of shared memory. `SchedView` therefore hands the scheduler
/// the process slots themselves (internal state included) plus run counters.
#[derive(Debug)]
pub struct SchedView<'a, P> {
    /// All process slots, in pid order (slot `i` holds pid `i + 1`).
    pub slots: &'a [Slot<P>],
    /// Total actions executed so far.
    pub total_steps: u64,
    /// Crashes injected so far.
    pub crashes: usize,
    /// Crash budget `f ≤ m − 1`; the engine rejects crashes beyond it.
    pub max_crashes: usize,
    /// Number of [`Running`](LifeState::Running) slots — the engine's own
    /// liveness counter, so schedulers need not rescan `slots` for it.
    pub(crate) running: usize,
}

impl<P> SchedView<'_, P> {
    /// Indices of slots that can still take steps.
    pub fn running(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.state == LifeState::Running)
            .map(|(i, _)| i)
    }

    /// Number of running processes, in O(1): the engine keeps the count.
    pub fn running_count(&self) -> usize {
        self.running
    }

    /// Remaining crash budget.
    pub fn crashes_left(&self) -> usize {
        self.max_crashes.saturating_sub(self.crashes)
    }
}

/// An adversary strategy: decides, at every point, which process acts next
/// or which process crashes (§2.1's omniscient on-line adversary).
///
/// Invariants the engine enforces: the chosen slot must be
/// [`Running`](LifeState::Running), and `Crash` must not exceed
/// `max_crashes`. A scheduler returning an invalid decision is a bug in the
/// harness, and the engine panics.
pub trait Scheduler<P> {
    /// Chooses the next move. Called only while at least one process runs.
    fn decide(&mut self, view: &SchedView<'_, P>) -> Decision;

    /// The quantum for the process just chosen by [`decide`](Self::decide):
    /// how many *consecutive* actions the engine may let slot `chosen`
    /// execute before consulting the scheduler again.
    ///
    /// Returning `> 1` opts into the engine's macro-stepping fast path
    /// (batched [`step_many`](crate::Process::step_many) calls). The default
    /// is `1` — single-step granularity — so every scheduler, and in
    /// particular every *adversarial* scheduler, keeps full per-action
    /// control unless it explicitly opts in. Fair schedulers
    /// ([`RoundRobin`], [`BlockScheduler`]) override this.
    ///
    /// The engine reports how many actions actually ran through
    /// [`note_consumed`](Self::note_consumed); a process may use fewer
    /// actions than the quantum (e.g. by terminating).
    fn quantum(&self, view: &SchedView<'_, P>, chosen: usize) -> u64 {
        let _ = (view, chosen);
        1
    }

    /// Feedback after a decision: slot `chosen` executed `steps` actions
    /// (`steps ≥ 1`; also called with `steps == 1` on the single-step
    /// path). Schedulers with per-decision state (e.g. [`BlockScheduler`]
    /// burst accounting) update it here. Default: ignore.
    fn note_consumed(&mut self, chosen: usize, steps: u64) {
        let _ = (chosen, steps);
    }

    /// `true` while this scheduler still intends to restart a crashed
    /// process. The engine keeps the run alive on this signal even when no
    /// process is running (all crashed, restarts pending) — and
    /// [`decide`](Self::decide) may then be called with *zero* running
    /// slots, in which case the scheduler must return a
    /// [`Decision::Restart`]. Default: `false` (no restart support).
    fn pending_restart(&self, view: &SchedView<'_, P>) -> bool {
        let _ = view;
        false
    }
}

impl<P, F: FnMut(&SchedView<'_, P>) -> Decision> Scheduler<P> for F {
    fn decide(&mut self, view: &SchedView<'_, P>) -> Decision {
        self(view)
    }
}

// Boxed schedulers delegate verbatim — this is what lets the scenario
// layer's adversary registry hand out `Box<dyn Scheduler<P>>` factories
// while the engine stays generic.
impl<P> Scheduler<P> for Box<dyn Scheduler<P> + '_> {
    fn decide(&mut self, view: &SchedView<'_, P>) -> Decision {
        (**self).decide(view)
    }

    fn quantum(&self, view: &SchedView<'_, P>, chosen: usize) -> u64 {
        (**self).quantum(view, chosen)
    }

    fn note_consumed(&mut self, chosen: usize, steps: u64) {
        (**self).note_consumed(chosen, steps)
    }

    fn pending_restart(&self, view: &SchedView<'_, P>) -> bool {
        (**self).pending_restart(view)
    }
}

/// Fair round-robin over the running processes.
///
/// This is the "benign" schedule: every process advances in turn, which is a
/// fair execution in the sense of §2.1 (every enabled action eventually
/// runs).
///
/// A quantum may be attached with [`with_quantum`](Self::with_quantum): each
/// turn then grants that many consecutive actions (a *quantized* round-robin
/// — still fair), which lets the engine run the turn as one batched
/// macro-step. [`new`](Self::new) keeps the historical strict alternation
/// (quantum 1); runners that only rely on fairness use
/// [`batched`](Self::batched).
#[derive(Debug, Clone)]
pub struct RoundRobin {
    cursor: usize,
    quantum: u64,
}

impl Default for RoundRobin {
    fn default() -> Self {
        Self {
            cursor: 0,
            quantum: 1,
        }
    }
}

impl RoundRobin {
    /// The quantum used by [`batched`](Self::batched) — large enough that a
    /// turn covers several complete `gatherTry`/`gatherDone` cycles even at
    /// `m = 64` (a cycle costs `≳ 2m + 5` actions), which is what lets the
    /// announcement-epoch caches collapse the repeat sweeps of a turn into
    /// their accounting; small enough to stay fair at tiny instance sizes.
    pub const BATCH_QUANTUM: u64 = 4096;

    /// Creates a strictly alternating round-robin scheduler (quantum 1).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a fair quantized round-robin with
    /// [`BATCH_QUANTUM`](Self::BATCH_QUANTUM) actions per turn — the
    /// macro-stepping fast path.
    pub fn batched() -> Self {
        Self::default().with_quantum(Self::BATCH_QUANTUM)
    }

    /// Sets the actions granted per turn.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn with_quantum(mut self, quantum: u64) -> Self {
        assert!(quantum > 0, "quantum must be positive");
        self.quantum = quantum;
        self
    }
}

impl<P> Scheduler<P> for RoundRobin {
    fn decide(&mut self, view: &SchedView<'_, P>) -> Decision {
        let n = view.slots.len();
        for off in 0..n {
            let i = (self.cursor + off) % n;
            if view.slots[i].state == LifeState::Running {
                self.cursor = (i + 1) % n;
                return Decision::Step(i);
            }
        }
        unreachable!("decide called with no running process")
    }

    fn quantum(&self, _view: &SchedView<'_, P>, _chosen: usize) -> u64 {
        self.quantum
    }
}

/// Uniform random choice among running processes (seeded, reproducible).
///
/// Random schedules are fair with probability 1 and are the workhorse of the
/// randomized safety experiments (Table 2 / experiment E2).
///
/// A quantum may be attached with [`with_quantum`](Self::with_quantum):
/// each decision then grants the chosen process that many consecutive
/// actions — a *quantized* random schedule (still fair with probability 1),
/// eligible for the engine's macro-stepping fast path exactly like the
/// quantized round-robin. [`new`](Self::new) keeps the historical
/// action-per-decision granularity (quantum 1), bit-for-bit.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    rng: StdRng,
    quantum: u64,
}

impl RandomScheduler {
    /// Creates a random scheduler from a seed (quantum 1).
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            quantum: 1,
        }
    }

    /// Sets the actions granted per decision.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn with_quantum(mut self, quantum: u64) -> Self {
        assert!(quantum > 0, "quantum must be positive");
        self.quantum = quantum;
        self
    }
}

/// Draws one running slot uniformly: `gen_range(0..running)`, then the
/// k-th running slot in pid order, found in place.
fn draw_running<P>(rng: &mut StdRng, view: &SchedView<'_, P>) -> usize {
    let k = rng.gen_range(0..view.running_count());
    view.running()
        .nth(k)
        .expect("running count matches the running slots")
}

impl<P> Scheduler<P> for RandomScheduler {
    fn decide(&mut self, view: &SchedView<'_, P>) -> Decision {
        Decision::Step(draw_running(&mut self.rng, view))
    }

    fn quantum(&self, _view: &SchedView<'_, P>, _chosen: usize) -> u64 {
        self.quantum
    }
}

/// Adversarial "bursty" schedule: runs a randomly chosen process for a burst
/// of consecutive actions before switching.
///
/// Long bursts maximise the staleness of other processes' views of shared
/// memory, which is what drives collisions in KKβ (§5).
#[derive(Debug, Clone)]
pub struct BlockScheduler {
    rng: StdRng,
    burst: u64,
    current: Option<usize>,
    left: u64,
}

impl BlockScheduler {
    /// Creates a bursty scheduler with bursts of `burst` actions.
    ///
    /// # Panics
    ///
    /// Panics if `burst` is zero.
    pub fn new(seed: u64, burst: u64) -> Self {
        assert!(burst > 0, "burst must be positive");
        Self {
            rng: StdRng::seed_from_u64(seed),
            burst,
            current: None,
            left: 0,
        }
    }
}

impl<P> Scheduler<P> for BlockScheduler {
    fn decide(&mut self, view: &SchedView<'_, P>) -> Decision {
        if let Some(i) = self.current {
            if self.left > 0 && view.slots[i].state == LifeState::Running {
                return Decision::Step(i);
            }
        }
        let i = draw_running(&mut self.rng, view);
        self.current = Some(i);
        self.left = self.burst;
        Decision::Step(i)
    }

    // A burst is by definition a contiguous quantum, so the fast path is
    // observationally identical to single-stepping the same schedule.
    fn quantum(&self, _view: &SchedView<'_, P>, chosen: usize) -> u64 {
        if self.current == Some(chosen) {
            self.left.max(1)
        } else {
            1
        }
    }

    fn note_consumed(&mut self, chosen: usize, steps: u64) {
        if self.current == Some(chosen) {
            self.left = self.left.saturating_sub(steps);
        }
    }
}

/// Replays a fixed decision script, then falls back to round-robin.
///
/// Used to reproduce specific interleavings (e.g. counter-example traces
/// from the explorer) and in unit tests of the engine itself.
#[derive(Debug, Clone)]
pub struct ScriptedScheduler {
    script: std::vec::IntoIter<Decision>,
    fallback: RoundRobin,
}

impl ScriptedScheduler {
    /// Creates a scheduler that replays `script` decision by decision.
    pub fn new(script: Vec<Decision>) -> Self {
        Self {
            script: script.into_iter(),
            fallback: RoundRobin::new(),
        }
    }
}

impl<P> Scheduler<P> for ScriptedScheduler {
    fn decide(&mut self, view: &SchedView<'_, P>) -> Decision {
        match self.script.next() {
            Some(d) => d,
            None => self.fallback.decide(view),
        }
    }
}

/// Wraps a scheduler with a [`CrashPlan`]: processes crash as soon as they
/// reach their planned step count, regardless of what the inner strategy
/// would do, and crashed processes with a restart entry re-enter the fleet
/// once their delay has elapsed.
///
/// This is how deterministic failure injection composes with any schedule.
///
/// # Restart semantics
///
/// * A planned crash fires **once** per pid: after a restart, the step
///   counter (which is cumulative across lives) does not re-trigger it.
/// * The restart delay is measured in *global* steps from the crash —
///   planned or adversary-injected; the wrapper observes every crash
///   decision that passes through it. Quanta are clamped so the fleet is
///   consulted exactly when the earliest restart falls due, keeping
///   batched and single-step schedules aligned on the restart instant.
/// * If every process is crashed or terminated while restarts are still
///   pending, the earliest-due restart fires immediately (no step could
///   ever advance the clock otherwise).
/// * Each pid restarts at most once; a restarted process may crash again
///   (by an adversary), consuming crash budget each time.
/// * Plan entries for pid 0 or for pids beyond the fleet are ignored.
///
/// # Cost
///
/// The plan is unpacked once, at construction, into tables indexed by
/// slot. A decision then costs O(armed crashes + pending restarts) on top of
/// the inner scheduler and allocates nothing; an empty plan adds two
/// emptiness checks.
#[derive(Debug, Clone)]
pub struct WithCrashes<S> {
    inner: S,
    /// Planned crashes that have not fired, as `(slot, step budget)` in
    /// pid order. A fired crash leaves the table, so the step counter
    /// (cumulative across lives) cannot re-trigger it after a restart.
    armed: Vec<(usize, u64)>,
    /// Restart delay per slot; `None` when none is planned or the pid has
    /// already restarted (one restart per pid).
    delays: Vec<Option<u64>>,
    /// `(slot, due step)` for every crashed slot whose restart is pending.
    pending: Vec<(usize, u64)>,
}

impl<S> WithCrashes<S> {
    /// Wraps `inner`, injecting the crashes and restarts of `plan`.
    pub fn new(inner: S, plan: CrashPlan) -> Self {
        let armed = plan
            .iter()
            .filter_map(|(pid, budget)| Some((pid.checked_sub(1)?, budget)))
            .collect();
        let slots = plan.restarts().map(|(pid, _)| pid).max().unwrap_or(0);
        let mut delays = vec![None; slots];
        for (pid, delay) in plan.restarts() {
            if let Some(i) = pid.checked_sub(1) {
                delays[i] = Some(delay);
            }
        }
        Self {
            inner,
            armed,
            delays,
            pending: Vec::new(),
        }
    }

    /// Records a crash of slot `i` at global step `at`: if `i` still has a
    /// restart to spend, it falls due `delay` steps later (a re-crash
    /// before the restart moves the due step).
    fn note_crash(&mut self, i: usize, at: u64) {
        let Some(delay) = self.delays.get(i).copied().flatten() else {
            return;
        };
        let due = at.saturating_add(delay);
        match self.pending.iter_mut().find(|(slot, _)| *slot == i) {
            Some(entry) => entry.1 = due,
            None => self.pending.push((i, due)),
        }
    }

    /// The earliest `(due_step, slot)` among pending restarts whose slot is
    /// still crashed.
    fn earliest_restart<P>(&self, view: &SchedView<'_, P>) -> Option<(u64, usize)> {
        self.pending
            .iter()
            .filter(|&&(i, _)| view.slots[i].state == LifeState::Crashed)
            .map(|&(i, due)| (due, i))
            .min()
    }
}

impl<P, S: Scheduler<P>> Scheduler<P> for WithCrashes<S> {
    fn decide(&mut self, view: &SchedView<'_, P>) -> Decision {
        if !self.armed.is_empty() && view.crashes < view.max_crashes {
            let fire = self.armed.iter().position(|&(i, budget)| {
                view.slots
                    .get(i)
                    .is_some_and(|s| s.state == LifeState::Running && s.steps >= budget)
            });
            if let Some(k) = fire {
                let (i, _) = self.armed.remove(k);
                self.note_crash(i, view.total_steps);
                return Decision::Crash(i);
            }
        }
        if let Some((due, i)) = self.earliest_restart(view) {
            // Fire at the due step — or immediately if the fleet has
            // stalled (nobody left to advance the step clock).
            if view.total_steps >= due || view.running_count() == 0 {
                self.pending.retain(|&(slot, _)| slot != i);
                self.delays[i] = None;
                return Decision::Restart(i);
            }
        }
        let decision = self.inner.decide(view);
        if let Decision::Crash(i) = decision {
            // Adversary-injected crash: record it so a restart entry for
            // this pid has a crash instant to measure its delay from.
            self.note_crash(i, view.total_steps);
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
        // Every clamp below is at least 1, so it cannot shorten a quantum
        // of 1: the single-step path skips the tables.
        if q <= 1 {
            return q;
        }
        if view.crashes < view.max_crashes {
            if let Some(&(_, b)) = self.armed.iter().find(|&&(i, _)| i == chosen) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineLimits};
    use crate::registers::VecRegisters;
    use crate::testing::WriterProcess;

    fn fleet(k: u64) -> (VecRegisters, Vec<WriterProcess>) {
        let mem = VecRegisters::new(3);
        let procs = vec![
            WriterProcess::new(1, 0, k),
            WriterProcess::new(2, 1, k),
            WriterProcess::new(3, 2, k),
        ];
        (mem, procs)
    }

    #[test]
    fn round_robin_alternates() {
        let (mem, procs) = fleet(2);
        let exec = Engine::new(mem, procs, RoundRobin::new()).run(EngineLimits::default());
        assert!(exec.completed);
        // 3 procs * (2 writes + 1 terminate step each)
        assert_eq!(exec.total_steps, 9);
    }

    #[test]
    fn random_scheduler_is_reproducible() {
        let run = |seed| {
            let (mem, procs) = fleet(5);
            Engine::new(mem, procs, RandomScheduler::new(seed))
                .run(EngineLimits::default())
                .per_proc_steps
        };
        assert_eq!(run(11), run(11));
    }

    /// Slot picks of `decide` over a 5-slot fleet whose slots 2 and 4 are
    /// crashed, feeding back one consumed action per decision.
    fn picks<S: Scheduler<()>>(mut sched: S) -> Vec<usize> {
        use LifeState::{Crashed, Running};
        let slots: Vec<Slot<()>> = [Running, Running, Crashed, Running, Crashed]
            .into_iter()
            .map(|state| Slot {
                process: (),
                state,
                steps: 0,
            })
            .collect();
        let view = SchedView {
            slots: &slots,
            total_steps: 0,
            crashes: 2,
            max_crashes: 4,
            running: 3,
        };
        (0..24)
            .map(|_| match sched.decide(&view) {
                Decision::Step(i) => {
                    sched.note_consumed(i, 1);
                    i
                }
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    #[test]
    fn random_draws_are_pinned() {
        // Captured from the Vec-collecting draw this scheduler used before
        // it picked the k-th running slot in place: a draw rewrite must
        // consume the same RNG stream and land on the same slots.
        assert_eq!(
            picks(RandomScheduler::new(0x5EED)),
            [1, 1, 1, 1, 1, 1, 3, 3, 0, 1, 3, 0, 3, 1, 3, 3, 0, 1, 1, 1, 3, 3, 3, 3]
        );
        assert_eq!(
            picks(BlockScheduler::new(0x5EED, 3)),
            [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 3, 3, 3, 3, 3]
        );
    }

    #[test]
    fn block_scheduler_runs_bursts() {
        let (mem, procs) = fleet(10);
        let exec = Engine::new(mem, procs, BlockScheduler::new(3, 4)).run(EngineLimits::default());
        assert!(exec.completed);
    }

    #[test]
    #[should_panic(expected = "burst must be positive")]
    fn zero_burst_rejected() {
        BlockScheduler::new(0, 0);
    }

    #[test]
    fn scripted_then_fallback() {
        let (mem, procs) = fleet(2);
        let script = vec![Decision::Step(2), Decision::Step(2), Decision::Step(2)];
        let exec =
            Engine::new(mem, procs, ScriptedScheduler::new(script)).run(EngineLimits::default());
        assert!(exec.completed);
        assert_eq!(exec.per_proc_steps[2], 3, "pid 3 moved first per script");
    }

    #[test]
    fn with_crashes_injects_at_step() {
        let (mem, procs) = fleet(10);
        let plan = CrashPlan::at_steps([(2usize, 1u64)]);
        let sched = WithCrashes::new(RoundRobin::new(), plan);
        let exec = Engine::new(mem, procs, sched)
            .with_max_crashes(2)
            .run(EngineLimits::default());
        assert_eq!(exec.crashed, vec![2]);
        assert_eq!(exec.per_proc_steps[1], 1, "pid 2 took exactly one step");
        assert!(exec.completed);
    }

    #[test]
    fn closure_scheduler_works() {
        let (mem, procs) = fleet(1);
        let sched = |view: &SchedView<'_, WriterProcess>| {
            Decision::Step(view.running().next().expect("someone runs"))
        };
        let exec = Engine::new(mem, procs, sched).run(EngineLimits::default());
        assert!(exec.completed);
    }

    #[test]
    fn restart_fires_at_the_due_global_step() {
        // pid 2 crashes after 1 of its own steps and restarts 4 global
        // steps later; it then redoes all its writes and terminates.
        let (mem, procs) = fleet(3);
        let mut plan = CrashPlan::at_steps([(2usize, 1u64)]);
        plan.restart_after(2, 4);
        let sched = WithCrashes::new(RoundRobin::new(), plan);
        let exec = Engine::new(mem, procs, sched)
            .single_step()
            .run(EngineLimits::default());
        assert_eq!(exec.crashed, vec![2]);
        assert_eq!(exec.restarted, vec![2]);
        assert!(exec.completed);
        // One write from the first life, plus a full k + terminate second
        // life: the cumulative counter covers both lives.
        assert_eq!(exec.per_proc_steps[1], 1 + 3 + 1);
    }

    #[test]
    fn restart_runs_are_deterministic_across_batching() {
        let run = |single: bool| {
            let (mem, procs) = fleet(6);
            let mut plan = CrashPlan::at_steps([(1usize, 2u64), (3, 5)]);
            plan.restart_after(1, 7).restart_after(3, 11);
            let sched = WithCrashes::new(RoundRobin::new(), plan);
            let eng = Engine::new(mem, procs, sched).with_max_crashes(2);
            let eng = if single { eng.single_step() } else { eng };
            eng.run(EngineLimits::default())
        };
        let a = run(true);
        let b = run(false);
        assert_eq!(a, b, "quantum clamps align batched restarts");
        assert_eq!(a.restarted, vec![1, 3]);
        assert!(a.completed);
    }

    #[test]
    fn stalled_fleet_fires_earliest_restart_immediately() {
        // Pids 1 and 2 crash immediately (f = 2 < m = 3) and pid 3 runs to
        // termination; only pid 2 restarts, with a delay far past the step
        // limit. With nobody left running the step clock cannot advance, so
        // the restart fires at once instead of deadlocking (or spinning to
        // the step limit).
        let (mem, procs) = fleet(2);
        let mut plan = CrashPlan::at_steps([(1usize, 0u64), (2, 0)]);
        plan.restart_after(2, 1_000_000);
        let sched = WithCrashes::new(RoundRobin::new(), plan);
        let exec = Engine::new(mem, procs, sched)
            .with_max_crashes(2)
            .run(EngineLimits::with_max_steps(1_000));
        assert_eq!(exec.crashed, vec![1, 2]);
        assert_eq!(exec.restarted, vec![2]);
        assert!(exec.completed, "pid 2 finishes after its early restart");
        assert!(exec.total_steps < 1_000);
    }

    #[test]
    fn planned_crash_fires_once_despite_cumulative_steps() {
        // After its restart, pid 1's cumulative step counter stays past the
        // crash budget forever; the fired-set keeps the planned crash from
        // re-triggering every decision.
        let (mem, procs) = fleet(4);
        let mut plan = CrashPlan::at_steps([(1usize, 2u64)]);
        plan.restart_after(1, 3);
        let sched = WithCrashes::new(RoundRobin::new(), plan);
        let exec = Engine::new(mem, procs, sched).run(EngineLimits::default());
        assert_eq!(exec.crashed, vec![1]);
        assert_eq!(exec.restarted, vec![1]);
        assert!(exec.completed);
    }

    #[test]
    fn restart_pairs_with_adversary_injected_crash() {
        // The plan has no planned crash for pid 2 — the inner scheduler
        // injects one — yet the restart entry still fires, measured from
        // the observed crash instant.
        let mem = VecRegisters::new(2);
        let procs = vec![WriterProcess::new(1, 0, 3), WriterProcess::new(2, 1, 3)];
        let mut plan = CrashPlan::none();
        plan.restart_after(2, 2);
        let mut injected = false;
        let inner = move |view: &SchedView<'_, WriterProcess>| {
            if !injected && view.slots[1].state == LifeState::Running {
                injected = true;
                return Decision::Crash(1);
            }
            Decision::Step(view.running().next().expect("someone runs"))
        };
        let sched = WithCrashes::new(inner, plan);
        let exec = Engine::new(mem, procs, sched).run(EngineLimits::default());
        assert_eq!(exec.crashed, vec![2]);
        assert_eq!(exec.restarted, vec![2]);
        assert!(exec.completed);
    }

    #[test]
    fn each_pid_restarts_at_most_once() {
        // pid 1 crashes (planned), restarts, and is crashed again by the
        // inner scheduler (f = 2 < m = 3): the single restart entry is
        // spent, so it stays crashed and the run completes via the others.
        let (mem, procs) = fleet(3);
        let mut plan = CrashPlan::at_steps([(1usize, 1u64)]);
        plan.restart_after(1, 1);
        let mut second_crash_done = false;
        let inner = move |view: &SchedView<'_, WriterProcess>| {
            // After pid 1 is running again with > 1 steps (post-restart),
            // crash it a second time.
            if !second_crash_done
                && view.slots[0].state == LifeState::Running
                && view.slots[0].steps > 1
            {
                second_crash_done = true;
                return Decision::Crash(0);
            }
            Decision::Step(view.running().next().expect("someone runs"))
        };
        let sched = WithCrashes::new(inner, plan);
        let exec = Engine::new(mem, procs, sched)
            .with_max_crashes(2)
            .run(EngineLimits::default());
        assert_eq!(exec.crashed, vec![1, 1], "crashed in both lives");
        assert_eq!(exec.restarted, vec![1], "but restarted only once");
        assert!(exec.completed);
    }
}
