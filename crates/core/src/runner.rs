//! Convenience runners: build a KKβ fleet, execute it (simulated or on
//! threads), and summarise the outcome as an [`AmoReport`].
//!
//! A simulated run is described by a [`ScenarioSpec`] and driven by
//! [`run_scenario_simulated`] through the unified scenario layer
//! ([`amo_sim::run_scenario`]); a threaded run is described by a
//! [`ThreadSpec`] and driven by [`run_threads`].

use amo_sim::thread::{ThreadExecution, ThreadSpec};
use amo_sim::{
    run_scenario, Execution, JobSpan, MemWork, ScenarioSpec, Slot, VecRegisters, Violation,
};

use crate::config::KkConfig;
use crate::kk::KkProcess;
use crate::layout::KkLayout;
use crate::stats::CollisionMatrix;

/// Summary of one at-most-once execution, simulated or threaded.
///
/// Equality is field-for-field (deterministic counters, `local_work` and
/// the collision matrix included) — what the equivalence suites assert
/// between two runs of the same [`ScenarioSpec`] on different paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AmoReport {
    /// `Do(α)`: distinct jobs performed (Definition 2.1).
    pub effectiveness: u64,
    /// At-most-once violations (empty iff Definition 2.2 holds).
    pub violations: Vec<Violation>,
    /// Every `do` as `(pid, span)`.
    pub performed: Vec<(usize, JobSpan)>,
    /// Crashed pids.
    pub crashed: Vec<usize>,
    /// Pids restarted after a crash (empty without a restart plan; always
    /// empty for threaded runs).
    pub restarted: Vec<usize>,
    /// `true` when every surviving process terminated within limits
    /// (wait-freedom observed).
    pub completed: bool,
    /// Shared-memory traffic.
    pub mem_work: MemWork,
    /// Local basic operations (set-structure iterations etc.).
    pub local_work: u64,
    /// Total actions (simulated runs) or summed per-thread actions.
    pub total_steps: u64,
    /// Peak bytes of tracked-prefix epoch storage the register file ever
    /// held (see [`amo_sim::VecRegisters::epoch_mem_bytes`]); `0` for
    /// threaded runs and for runs with epoch tracking off.
    pub epoch_mem_bytes: u64,
    /// Pairwise collision counts, when tracking was enabled.
    pub collisions: Option<CollisionMatrix>,
    /// Which scheduler produced this run (for table labelling).
    pub scheduler_label: &'static str,
}

impl AmoReport {
    /// The report of a simulated run: `label` names the schedule and
    /// `epoch_mem_bytes` is the register file's tracked-prefix high-water
    /// ([`VecRegisters::epoch_mem_bytes`]). No collision matrix; runners
    /// that track collisions fill [`collisions`](Self::collisions) in.
    pub fn from_execution(exec: Execution, label: &'static str, epoch_mem_bytes: u64) -> Self {
        let (effectiveness, violations) = exec.summary();
        Self {
            effectiveness,
            violations,
            performed: exec.performed.iter().map(|r| (r.pid, r.span)).collect(),
            crashed: exec.crashed,
            restarted: exec.restarted,
            completed: exec.completed,
            mem_work: exec.mem_work,
            local_work: exec.local_work,
            total_steps: exec.total_steps,
            epoch_mem_bytes,
            collisions: None,
            scheduler_label: label,
        }
    }

    /// The report of a KKβ fleet's run under `spec`: [`from_execution`]
    /// over the final register file `mem`, plus the collision matrix read
    /// from the terminal `slots` when the spec tracked collisions.
    ///
    /// [`from_execution`]: Self::from_execution
    pub fn from_kk_run(
        n: usize,
        spec: &ScenarioSpec,
        exec: Execution,
        slots: &[Slot<KkProcess>],
        mem: &VecRegisters,
    ) -> Self {
        let collisions = spec.collisions.then(|| {
            let rows = slots
                .iter()
                .map(|s| s.process.collisions_with().to_vec())
                .collect();
            CollisionMatrix::new(rows, n)
        });
        Self {
            collisions,
            ..Self::from_execution(exec, spec.label(), mem.epoch_mem_bytes())
        }
    }

    /// The report of a threaded run, labelled `"threads"`: steps are summed
    /// over the threads, and restarts, epoch storage and collisions do not
    /// exist on the thread runtime.
    pub fn from_threads(exec: ThreadExecution) -> Self {
        let (effectiveness, violations) =
            amo_sim::perform_summary(exec.performed.iter().map(|r| r.span));
        Self {
            effectiveness,
            violations,
            performed: exec.performed.iter().map(|r| (r.pid, r.span)).collect(),
            crashed: exec.crashed,
            restarted: Vec::new(),
            completed: exec.completed,
            mem_work: exec.mem_work,
            local_work: exec.local_work,
            total_steps: exec.per_proc_steps.iter().sum(),
            epoch_mem_bytes: 0,
            collisions: None,
            scheduler_label: "threads",
        }
    }

    /// Total work: shared traffic plus local basic operations
    /// (Definition 2.5).
    pub fn work(&self) -> u64 {
        self.mem_work.total() + self.local_work
    }
}

impl std::fmt::Display for AmoReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "at-most-once report ({} schedule)", self.scheduler_label)?;
        writeln!(f, "  effectiveness : {} distinct jobs", self.effectiveness)?;
        writeln!(
            f,
            "  safety        : {} violation(s)",
            self.violations.len()
        )?;
        writeln!(
            f,
            "  crashes       : {:?} ({} of the fleet)",
            self.crashed,
            self.crashed.len()
        )?;
        writeln!(
            f,
            "  work          : {} shared + {} local = {}",
            self.mem_work.total(),
            self.local_work,
            self.work()
        )?;
        write!(
            f,
            "  termination   : {}",
            if self.completed {
                "all survivors terminated"
            } else {
                "step cap hit"
            }
        )
    }
}

/// Builds the layout and the `m` KKβ automatons for a config.
/// `interleaved_done` selects the position-major (struct-of-arrays) `done`
/// log order of [`KkLayout::with_interleaved_done`]; `false` keeps the
/// row-major order. Collision tracking and the epoch cache are switched on
/// by the scenario driver's hooks, not here.
pub fn kk_fleet(config: &KkConfig, interleaved_done: bool) -> (KkLayout, Vec<KkProcess>) {
    let mut layout = KkLayout::contiguous(config.m(), config.n(), false);
    if interleaved_done {
        layout = layout.with_interleaved_done();
    }
    let fleet = (1..=config.m())
        .map(|pid| KkProcess::from_config(pid, config, layout))
        .collect();
    (layout, fleet)
}

/// Runs KKβ in the deterministic simulator under `spec`.
///
/// The fleet uses the interleaved (struct-of-arrays) `done` layout exactly
/// when the spec grants quanta — the fast-path configuration — and the
/// row-major layout otherwise. The collision matrix is harvested when the
/// spec tracks collisions.
///
/// # Examples
///
/// ```
/// use amo_core::{run_scenario_simulated, KkConfig};
/// use amo_sim::ScenarioSpec;
///
/// let config = KkConfig::new(64, 4)?;
/// let report = run_scenario_simulated(&config, &ScenarioSpec::random(7).with_quantum(64));
/// assert!(report.violations.is_empty());
/// assert!(report.effectiveness >= config.effectiveness_bound());
/// # Ok::<(), amo_core::ConfigError>(())
/// ```
pub fn run_scenario_simulated(config: &KkConfig, spec: &ScenarioSpec) -> AmoReport {
    let (layout, fleet) = kk_fleet(config, spec.grants_quanta());
    let (exec, slots, mem) = run_scenario(VecRegisters::new(layout.cells()), fleet, spec);
    AmoReport::from_kk_run(config.n(), spec, exec, &slots, &mem)
}

/// Runs KKβ on OS threads over hardware atomics, allocated under the
/// spec's memory-ordering regime.
///
/// # Examples
///
/// ```
/// use amo_core::{run_threads, KkConfig};
/// use amo_sim::thread::ThreadSpec;
///
/// let config = KkConfig::new(128, 4)?;
/// let report = run_threads(&config, &ThreadSpec::new());
/// assert!(report.violations.is_empty());
/// assert!(report.effectiveness >= config.effectiveness_bound());
/// # Ok::<(), amo_core::ConfigError>(())
/// ```
///
/// # Panics
///
/// Panics if the crash plan schedules restarts — real threads are
/// crash-stop only (see [`amo_sim::thread`]).
pub fn run_threads(config: &KkConfig, spec: &ThreadSpec) -> AmoReport {
    let (layout, fleet) = kk_fleet(config, false);
    let mem = spec.alloc(layout.cells());
    AmoReport::from_threads(spec.run(&mem, fleet))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amo_sim::CrashPlan;

    #[test]
    fn round_robin_no_crash_performs_nearly_everything() {
        let config = KkConfig::new(60, 3).unwrap();
        let report = run_scenario_simulated(&config, &ScenarioSpec::round_robin());
        assert!(report.violations.is_empty());
        assert!(report.completed);
        assert!(report.effectiveness >= config.effectiveness_bound());
        assert!(report.effectiveness <= 60);
    }

    #[test]
    fn crash_plan_is_respected() {
        let config = KkConfig::new(40, 4).unwrap();
        let spec = ScenarioSpec::round_robin()
            .with_crash_plan(CrashPlan::at_steps([(1usize, 5u64), (2, 9)]));
        let report = run_scenario_simulated(&config, &spec);
        assert_eq!(report.crashed, vec![1, 2]);
        assert!(report.violations.is_empty());
        assert!(report.effectiveness >= config.effectiveness_bound());
    }

    #[test]
    fn collision_tracking_produces_matrix() {
        let config = KkConfig::new(50, 4).unwrap();
        let spec = ScenarioSpec::adversary("lockstep").with_collision_tracking();
        let report = run_scenario_simulated(&config, &spec);
        let m = report.collisions.expect("matrix present");
        assert_eq!(m.m(), 4);
    }

    #[test]
    fn threads_respect_effectiveness_bound() {
        let config = KkConfig::new(120, 4).unwrap();
        let report = run_threads(&config, &ThreadSpec::new());
        assert!(report.violations.is_empty());
        assert!(report.completed);
        assert!(report.effectiveness >= config.effectiveness_bound());
    }

    #[test]
    fn threads_with_crashes_stay_safe() {
        let config = KkConfig::new(80, 4).unwrap();
        let spec =
            ThreadSpec::new().with_crash_plan(CrashPlan::at_steps([(1usize, 30u64), (2, 60)]));
        let report = run_threads(&config, &spec);
        assert!(report.violations.is_empty());
        assert_eq!(report.crashed, vec![1, 2]);
    }

    #[test]
    fn report_display_is_informative() {
        let config = KkConfig::new(20, 2).unwrap();
        let report = run_scenario_simulated(&config, &ScenarioSpec::round_robin());
        let text = report.to_string();
        assert!(text.contains("effectiveness"));
        assert!(text.contains("0 violation(s)"));
        assert!(text.contains("round-robin"));
        assert!(text.contains("all survivors terminated"));
    }

    #[test]
    fn work_is_mem_plus_local() {
        let config = KkConfig::new(30, 2).unwrap();
        let report = run_scenario_simulated(&config, &ScenarioSpec::round_robin());
        assert_eq!(report.work(), report.mem_work.total() + report.local_work);
        assert!(report.local_work > 0, "set structures counted");
    }
}
