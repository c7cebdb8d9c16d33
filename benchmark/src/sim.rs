//! The three simulator workloads: `kk_batched`, `wa_recovery`, `kk_quorum`.
//!
//! Every instance is built and run through the public scenario API
//! (`ScenarioSpec` + `run_scenario_on` over a register file made with the
//! public constructors). A traced instance runs the same input through
//! `Engine` with the timing wrappers of [`crate::trace`] around the
//! register file, every automaton and the scheduler, and must produce an
//! `Execution` equal to the untraced one.

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use amo_core::{KkConfig, KkLayout, KkProcess};
use amo_ostree::kernels::{self, KernelTier};
use amo_sim::{
    run_scenario_on, run_scenario_sharded, BackendSpec, CrashPlan, DurableRegisters, Engine,
    Execution, LatencyDist, NetworkSpec, Process, QuorumRegisters, RandomScheduler, Registers,
    RoundRobin, ScenarioHooks, ScenarioSpec, Scheduler, SchedulerSpec, ShardSpec, Slot,
    StorageFault, VecRegisters, WithCrashes,
};
use amo_write_all::{WaConfig, WaIterativeProcess, WaLayout};

use crate::check::{self, Checked};
use crate::report::{median, nearest_rank, Outcome};
use crate::trace::{
    Clock, ProcessTime, RegisterTime, SchedulerTime, TimedProcess, TimedRegisters, TimedScheduler,
};
use crate::{mix, Args};

/// Fewest instances a timed run measures, however short `--seconds` is.
const MIN_INSTANCES: usize = 3;

/// One simulator workload: its input, how to build an instance of it, and
/// how to check and count what the instance did.
trait SimWorkload {
    type Mem: Registers;
    type Proc: ScenarioHooks + Process<Self::Mem> + Process<TimedRegisters<Self::Mem>>;

    const NAME: &'static str;
    /// Self-time metric of the automaton layer.
    const PROCESS_SELF: &'static str;
    /// Self-time metric of the register backend.
    const BACKEND_SELF: &'static str;
    /// Whether the backend's queries cost enough to time (see
    /// `TimedRegisters::new`).
    const TIME_QUERIES: bool;

    fn spec(&self) -> &ScenarioSpec;

    /// Jobs (or Write-All cells) in one instance.
    fn n(&self) -> u64;

    /// A fresh register file and fleet (the timed set-up).
    fn build(&self) -> (Self::Mem, Vec<Self::Proc>);

    /// Checks one finished instance; returns the jobs it completed
    /// (distinct jobs performed, or cells written).
    fn check(&self, exec: &Execution, mem: &Self::Mem) -> Checked<u64>;

    /// Deterministic counters of the workload's own layers.
    fn layer_counts(&self, exec: &Execution, mem: &Self::Mem, out: &mut Outcome);
}

/// KKβ, n ≈ 10⁶, m = 64, β = 3m², quantized round-robin, Vec backend.
struct KkBatched {
    config: KkConfig,
    spec: ScenarioSpec,
}

impl KkBatched {
    fn new(seed: u64) -> Self {
        let m = 64;
        // Round-robin has no random choice to seed, so the seed draws the
        // instance size from a narrow band instead.
        let n = 1_000_000 + (mix(seed) % 1024) as usize;
        Self {
            config: KkConfig::with_beta(n, m, KkConfig::work_optimal_beta(m))
                .expect("valid KK config"),
            spec: ScenarioSpec::round_robin_batched().with_max_steps(2_000_000_000),
        }
    }
}

/// A fresh Vec file and KKβ fleet, laid out as `run_scenario` would for
/// `spec`: the interleaved `done` layout and epoch tracking when the
/// scheduler grants quanta.
fn kk_fleet(config: &KkConfig, spec: &ScenarioSpec) -> (VecRegisters, Vec<KkProcess>) {
    let mut layout = KkLayout::contiguous(config.m(), config.n(), false);
    if spec.grants_quanta() {
        layout = layout.with_interleaved_done();
    }
    let mem = VecRegisters::new(layout.cells());
    mem.set_epoch_tracking(spec.epoch_cache && spec.grants_quanta());
    let fleet = (1..=config.m())
        .map(|pid| KkProcess::from_config(pid, config, layout))
        .collect();
    (mem, fleet)
}

fn check_kk(name: &'static str, config: &KkConfig, exec: &Execution) -> Checked<u64> {
    check::kk_execution(
        name,
        exec,
        config.n() as u64,
        config.m() as u64,
        config.beta(),
    )
}

impl SimWorkload for KkBatched {
    type Mem = VecRegisters;
    type Proc = KkProcess;
    const NAME: &'static str = "kk_batched";
    const PROCESS_SELF: &'static str = "core.kk.self_s";
    const BACKEND_SELF: &'static str = "sim.registers.self_s";
    const TIME_QUERIES: bool = false;

    fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    fn n(&self) -> u64 {
        self.config.n() as u64
    }

    fn build(&self) -> (VecRegisters, Vec<KkProcess>) {
        kk_fleet(&self.config, &self.spec)
    }

    fn check(&self, exec: &Execution, _mem: &VecRegisters) -> Checked<u64> {
        check_kk(Self::NAME, &self.config, exec)
    }

    fn layer_counts(&self, _: &Execution, _: &VecRegisters, _: &mut Outcome) {}
}

/// WA_IterativeKK(ε = 1), n = 2.5·10⁵, m = 8, seeded single-step random
/// schedule, pids 1..m−1 crash and restart, durable backend with torn
/// writes.
struct WaRecovery {
    config: WaConfig,
    layout: WaLayout,
    fault_seed: u64,
    spec: ScenarioSpec,
}

impl WaRecovery {
    fn new(seed: u64) -> Self {
        let (n, m) = (250_000, 8);
        let config = WaConfig::new(n, m, 1).expect("valid WA config");
        let layout = config.layout();
        // Crash points are staggered but not seeded: how much work a
        // restart redoes swings by half with the crash step, so seeded
        // crash steps would make seeds incomparable. The seed drives the
        // schedule and the torn-write cut points.
        let unit = n as u64 / 25;
        let mut plan = CrashPlan::none();
        for pid in 1..m {
            plan.crash(pid, unit * pid as u64)
                .restart_after(pid, unit / 2);
        }
        let fault_seed = mix(seed ^ 0xFA17);
        let spec = ScenarioSpec::random(mix(seed ^ 0x5C4E))
            .with_crash_plan(plan)
            .with_backend(BackendSpec::durable(StorageFault::TornWrite, fault_seed));
        Self {
            config,
            layout,
            fault_seed,
            spec,
        }
    }
}

impl SimWorkload for WaRecovery {
    type Mem = DurableRegisters;
    type Proc = WaIterativeProcess;
    const NAME: &'static str = "wa_recovery";
    const PROCESS_SELF: &'static str = "write_all.self_s";
    const BACKEND_SELF: &'static str = "sim.durable.self_s";
    // Durable reads go straight to the Vec file underneath.
    const TIME_QUERIES: bool = false;

    fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    fn n(&self) -> u64 {
        self.config.n() as u64
    }

    fn build(&self) -> (DurableRegisters, Vec<WaIterativeProcess>) {
        let mem = VecRegisters::new(self.layout.cells());
        mem.set_epoch_tracking(self.spec.epoch_cache && self.spec.grants_quanta());
        let mem = DurableRegisters::new(mem, StorageFault::TornWrite, self.fault_seed);
        let fleet = (1..=self.config.m())
            .map(|pid| WaIterativeProcess::new(pid, self.config.iter(), self.layout.clone()))
            .collect();
        (mem, fleet)
    }

    fn check(&self, exec: &Execution, mem: &DurableRegisters) -> Checked<u64> {
        check::ensure(Self::NAME, "termination", exec.completed, || {
            format!("run stopped after {} actions", exec.total_steps)
        })?;
        let planned = self.spec.crash_plan.restart_count();
        check::ensure(
            Self::NAME,
            "every-crasher-restarts",
            exec.crashed.len() == planned && exec.restarted.len() == planned,
            || {
                format!(
                    "{} crashes and {} restarts, {planned} planned",
                    exec.crashed.len(),
                    exec.restarted.len()
                )
            },
        )?;
        let cells = mem.snapshot();
        let base = self.layout.wa_base();
        check::write_all_cells(Self::NAME, &cells[base..base + self.config.n()])?;
        Ok(self.n())
    }

    fn layer_counts(&self, exec: &Execution, mem: &DurableRegisters, out: &mut Outcome) {
        let stats = mem.stats();
        out.set("sim.durable.journaled", stats.journaled as f64);
        out.set("sim.durable.flushed", stats.flushed as f64);
        out.set("sim.durable.barriers", stats.barriers as f64);
        out.set("sim.durable.dropped_records", stats.dropped_records as f64);
        out.set(
            "write_all.writes_per_cell",
            exec.mem_work.writes as f64 / self.n() as f64,
        );
        out.set("write_all.local_work", exec.local_work as f64);
        out.set("write_all.restarted", exec.restarted.len() as f64);
    }
}

/// KKβ, n = 5·10⁴, m = 8, β = m, batched round-robin over 5 quorum
/// replicas on a seeded lossy network.
struct KkQuorum {
    config: KkConfig,
    net: NetworkSpec,
    spec: ScenarioSpec,
}

impl KkQuorum {
    fn new(seed: u64) -> Self {
        let net = NetworkSpec::lossless(5)
            .with_seed(mix(seed ^ 0x0E7))
            .with_latency(LatencyDist::Uniform { lo: 1, hi: 4 })
            .with_drop(150)
            .with_reorder(200)
            .with_replica_crashes(2);
        Self {
            config: KkConfig::new(50_000, 8).expect("valid KK config"),
            net,
            spec: ScenarioSpec::round_robin_batched().quorum(net),
        }
    }
}

impl SimWorkload for KkQuorum {
    type Mem = QuorumRegisters;
    type Proc = KkProcess;
    const NAME: &'static str = "kk_quorum";
    const PROCESS_SELF: &'static str = "core.kk.self_s";
    const BACKEND_SELF: &'static str = "sim.net.self_s";
    // Every quorum read is a protocol round over the simulated network.
    const TIME_QUERIES: bool = true;

    fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    fn n(&self) -> u64 {
        self.config.n() as u64
    }

    fn build(&self) -> (QuorumRegisters, Vec<KkProcess>) {
        let (mem, fleet) = kk_fleet(&self.config, &self.spec);
        (QuorumRegisters::new(mem, self.net), fleet)
    }

    fn check(&self, exec: &Execution, _mem: &QuorumRegisters) -> Checked<u64> {
        check_kk(Self::NAME, &self.config, exec)
    }

    fn layer_counts(&self, exec: &Execution, mem: &QuorumRegisters, out: &mut Outcome) {
        let s = mem.net_stats();
        let sent = s.messages_sent.max(1) as f64;
        let reads = (s.reads_one_round + s.read_writebacks).max(1) as f64;
        out.set(
            "sim.net.messages_per_op",
            s.messages_sent as f64 / exec.mem_work.total().max(1) as f64,
        );
        out.set("sim.net.retransmit_frac", s.retransmissions as f64 / sent);
        out.set("sim.net.drop_frac", s.messages_dropped as f64 / sent);
        out.set(
            "sim.net.one_round_read_frac",
            s.reads_one_round as f64 / reads,
        );
    }
}

/// Runs the named simulator workload; `None` for a name it does not know.
pub fn run(args: &Args) -> Option<Checked<Outcome>> {
    Some(match args.workload.as_str() {
        "kk_batched" => {
            let w = KkBatched::new(args.seed);
            if args.trace {
                traced_run(&w, args).and_then(|(mut out, fast_s)| {
                    kernel_layer(&mut out);
                    shard_layer(&w, fast_s, &mut out)?;
                    Ok(out)
                })
            } else {
                timed_run(&w, args)
            }
        }
        "wa_recovery" => measure(&WaRecovery::new(args.seed), args),
        "kk_quorum" => measure(&KkQuorum::new(args.seed), args),
        _ => return None,
    })
}

fn measure<W: SimWorkload>(w: &W, args: &Args) -> Checked<Outcome> {
    if args.trace {
        traced_run(w, args).map(|(out, _)| out)
    } else {
        timed_run(w, args)
    }
}

/// One untraced instance: set-up time, run time, and its outputs.
struct Instance<M> {
    setup_s: f64,
    run_s: f64,
    exec: Execution,
    mem: M,
}

fn untraced<W: SimWorkload>(w: &W) -> Instance<W::Mem> {
    let t = Instant::now();
    let (mem, fleet) = w.build();
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (exec, slots, mem) = run_scenario_on(mem, fleet, w.spec());
    let run_s = t.elapsed().as_secs_f64();
    drop(slots);
    Instance {
        setup_s,
        run_s,
        exec,
        mem,
    }
}

/// Every instance of one run solves the same input, so each must repeat
/// the first instance's execution exactly.
fn same_as_first(name: &'static str, first: &Option<Execution>, exec: &Execution) -> Checked<()> {
    match first {
        Some(first) => check::ensure(name, "deterministic", first == exec, || {
            "an instance of the same input produced a different execution".into()
        }),
        None => Ok(()),
    }
}

/// The end-to-end run: instances back to back for `--seconds`.
fn timed_run<W: SimWorkload>(w: &W, args: &Args) -> Checked<Outcome> {
    let start = Instant::now();
    let (mut setups, mut runs) = (vec![], vec![]);
    let mut first = None;
    let mut jobs = 0;
    let mut peak_rss_mb = 0.0;
    while runs.len() < MIN_INSTANCES || start.elapsed().as_secs_f64() < args.seconds {
        let inst = untraced(w);
        jobs = w.check(&inst.exec, &inst.mem)?;
        same_as_first(W::NAME, &first, &inst.exec)?;
        setups.push(inst.setup_s);
        runs.push(inst.run_s);
        if first.is_none() {
            // One instance's peak: later instances reuse what the allocator
            // kept, and by how much varies from run to run.
            peak_rss_mb = crate::report::peak_rss_mb(W::NAME)?;
            first = Some(inst.exec);
        }
    }
    let exec = first.expect("at least one instance");
    // On a shared host, neighbours slow an instance down but never speed it
    // up, so the times come from the fastest instance: the code's own speed
    // with the least interference.
    let fastest = runs.iter().copied().fold(f64::INFINITY, f64::min);
    let firsts = first_perform_steps(&exec, w.n());
    let latency_us = |q: f64| {
        let step = firsts[nearest_rank(firsts.len(), q)];
        fastest * step as f64 / exec.total_steps as f64 * 1e6
    };
    let mut out = Outcome::new(runs.len() as u64, 0);
    out.note(format!(
        "{}: {} instances of n={} ({} actions each) in {:.2} s, fastest {:.3} s; job \
         latency is instance start to the job's first perform, over {} jobs",
        W::NAME,
        runs.len(),
        w.n(),
        exec.total_steps,
        start.elapsed().as_secs_f64(),
        fastest,
        firsts.len()
    ));
    out.set("jobs_per_s", jobs as f64 / fastest);
    out.set("setup_s", median(&mut setups));
    out.set("effectiveness", jobs as f64 / w.n() as f64);
    out.set("latency_p50_us", latency_us(0.50));
    out.set("latency_p99_us", latency_us(0.99));
    out.set("peak_rss_mb", peak_rss_mb);
    Ok(out)
}

/// The action index of each job's first perform, in execution order. An
/// instance submits all its jobs at its start, so this index, placed in
/// time at the instance's mean speed, is the job's latency.
fn first_perform_steps(exec: &Execution, n: u64) -> Vec<u64> {
    let mut seen = vec![false; n as usize + 1];
    let mut firsts = Vec::new();
    for record in &exec.performed {
        for job in record.span.jobs() {
            if !std::mem::replace(&mut seen[job as usize], true) {
                firsts.push(record.step);
            }
        }
    }
    firsts
}

/// One traced instance and the raw totals of its spans.
struct Traced {
    wall_s: f64,
    regs: RegisterTime,
    procs: ProcessTime,
    sched_ns: u64,
    sched_spans: u64,
    decisions: u64,
}

/// Runs one instance through `Engine` with every layer wrapped — the same
/// assembly `run_scenario_on` performs, with a timed scheduler.
fn traced<W: SimWorkload>(w: &W) -> (Traced, Execution, W::Mem) {
    fn go<R: Registers, P: Process<R>, S: Scheduler<P>>(
        mem: R,
        fleet: Vec<P>,
        sched: S,
        spec: &ScenarioSpec,
        time: &Rc<SchedulerTime>,
    ) -> (Execution, Vec<Slot<P>>, R) {
        let sched = TimedScheduler::new(
            WithCrashes::new(sched, spec.crash_plan.clone()),
            Rc::clone(time),
        );
        let mut engine = Engine::new(mem, fleet, sched);
        if spec.reference_single_step {
            engine = engine.single_step();
        }
        engine.run_full(spec.limits)
    }

    let spec = w.spec();
    let (mem, fleet) = w.build();
    let mut fleet: Vec<_> = fleet.into_iter().map(TimedProcess::new).collect();
    if spec.epoch_cache && spec.grants_quanta() {
        for p in &mut fleet {
            p.set_epoch_cache(true);
        }
    }
    let mem = TimedRegisters::new(mem, W::TIME_QUERIES);
    let time = Rc::new(SchedulerTime::default());
    let quantum = spec.quantum.max(1);
    let t = Instant::now();
    let (exec, slots, mem) = match spec.scheduler {
        SchedulerSpec::RoundRobin => go(
            mem,
            fleet,
            RoundRobin::new().with_quantum(quantum),
            spec,
            &time,
        ),
        SchedulerSpec::Random(seed) => go(
            mem,
            fleet,
            RandomScheduler::new(seed).with_quantum(quantum),
            spec,
            &time,
        ),
        other => panic!("no traced driver for scheduler {other:?}"),
    };
    let wall_s = t.elapsed().as_secs_f64();
    let mut procs = ProcessTime::default();
    for slot in &slots {
        let p = slot.process.time();
        procs.ns += p.ns;
        procs.spans += p.spans;
        procs.actions += p.actions;
    }
    let regs = mem.time();
    let traced = Traced {
        wall_s,
        regs,
        procs,
        sched_ns: time.ns(),
        sched_spans: time.spans(),
        decisions: time.decisions(),
    };
    (traced, exec, mem.into_inner())
}

/// Largest share of the traced run time by which a layer's self time may
/// read below zero before the profile is rejected as inconsistent.
const PROFILE_TOLERANCE: f64 = 0.05;

/// The traced run: untraced and traced instances alternate for
/// `--seconds`; per-layer times are means over the traced instances.
/// Also returns the untraced instances' median run time.
fn traced_run<W: SimWorkload>(w: &W, args: &Args) -> Checked<(Outcome, f64)> {
    let clock = Clock::calibrate();
    let start = Instant::now();
    let mut out = Outcome::new(0, 0);
    let mut untraced_s = vec![];
    let mut traced_runs: Vec<Traced> = vec![];
    let mut first: Option<Execution> = None;
    while traced_runs.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let inst = untraced(w);
        w.check(&inst.exec, &inst.mem)?;
        same_as_first(W::NAME, &first, &inst.exec)?;
        first.get_or_insert(inst.exec);
        untraced_s.push(inst.run_s);
        drop(inst.mem);

        let (t, exec, mem) = traced(w);
        w.check(&exec, &mem)?;
        check::same_execution(W::NAME, first.as_ref().expect("set above"), &exec)?;
        // Deterministic counts must repeat exactly across instances.
        let mut counts = Outcome::new(0, 0);
        w.layer_counts(&exec, &mem, &mut counts);
        if let Some(prev) = traced_runs.last() {
            check::ensure(
                W::NAME,
                "counts-repeat",
                t.procs.actions == prev.procs.actions
                    && t.decisions == prev.decisions
                    && counts.values == out.values,
                || "traced instances of one input counted different work".into(),
            )?;
        } else {
            out.values = counts.values;
        }
        traced_runs.push(t);
    }
    let exec = first.as_ref().expect("at least one instance");
    let last = traced_runs.last().expect("at least one traced instance");
    let k = traced_runs.len() as f64;
    let mean = |f: &dyn Fn(&Traced) -> f64| traced_runs.iter().map(f).sum::<f64>() / k;

    // Self times (mean per instance). The identity
    // wall = engine + sched + process + backend + clock holds by
    // construction; the check below is that no layer reads negative.
    let span_ns = clock.span_ns * 1e-9;
    let sample_ns = clock.sample_ns() * 1e-9;
    let wall = mean(&|t| t.wall_s);
    let proc_raw = mean(&|t| t.procs.ns as f64 * 1e-9);
    let sched_raw = mean(&|t| t.sched_ns as f64 * 1e-9);
    let spans = mean(&|t| (t.procs.spans + t.sched_spans) as f64);
    let proc_spans = mean(&|t| t.procs.spans as f64);
    let sched_spans = mean(&|t| t.sched_spans as f64);
    let reg_proc = mean(&|t| t.regs.process_s);
    let reg_engine = mean(&|t| t.regs.engine_s);
    let sampled_proc = mean(&|t| t.regs.process_sampled as f64);
    let sampled_engine = mean(&|t| t.regs.engine_sampled as f64);
    let inside = clock.inside_ns * 1e-9;
    let engine_self = wall
        - proc_raw
        - sched_raw
        - (span_ns - inside) * spans
        - reg_engine
        - sampled_engine * sample_ns;
    let proc_self = proc_raw - inside * proc_spans - reg_proc - sampled_proc * sample_ns;
    let sched_self = sched_raw - inside * sched_spans;
    let backend_self = reg_proc + reg_engine;
    let clock_s = spans * span_ns + (sampled_proc + sampled_engine) * sample_ns;
    for (metric, v) in [
        ("sim.engine.self_s", engine_self),
        ("sim.sched.self_s", sched_self),
        (W::PROCESS_SELF, proc_self),
        (W::BACKEND_SELF, backend_self),
    ] {
        check::ensure(
            W::NAME,
            "profile-consistent",
            v >= -PROFILE_TOLERANCE * wall,
            || format!("{metric} = {v:.4} s, below -{PROFILE_TOLERANCE} of the {wall:.4} s run"),
        )?;
    }

    let decisions = last.decisions as f64;
    let steps = exec.total_steps as f64;
    out.attempted = (untraced_s.len() + traced_runs.len()) as u64;
    out.note(format!(
        "{}: {} traced and {} untraced instances; clock span {:.1} ns ({:.1} ns inside); \
         {} of {} register calls timed; layer self times sum to the traced run time, \
         none below -{:.0}% of it",
        W::NAME,
        traced_runs.len(),
        untraced_s.len(),
        clock.span_ns,
        clock.inside_ns,
        last.regs.process_sampled + last.regs.engine_sampled,
        last.regs.process_calls + last.regs.engine_calls,
        PROFILE_TOLERANCE * 100.0
    ));
    out.set("sim.engine.self_s", engine_self);
    out.set("sim.engine.decisions", decisions);
    out.set("sim.engine.actions_per_decision", steps / decisions);
    out.set("sim.sched.self_s", sched_self);
    out.set("sim.sched.ns_per_decision", sched_self * 1e9 / decisions);
    out.set(W::PROCESS_SELF, proc_self);
    out.set(W::BACKEND_SELF, backend_self);
    if W::PROCESS_SELF == "core.kk.self_s" {
        out.set("core.kk.ns_per_action", proc_self * 1e9 / steps);
        out.set("core.kk.local_work", exec.local_work as f64);
        out.set("core.kk.shared_ops", exec.mem_work.total() as f64);
    }
    out.set("sim.registers.reads", exec.mem_work.reads as f64);
    out.set("sim.registers.writes", exec.mem_work.writes as f64);
    let untraced_median = median(&mut untraced_s.clone());
    out.set("trace.run_s", wall);
    out.set("trace.clock_s", clock_s);
    out.set(
        "trace.overhead_frac",
        median(&mut traced_runs.iter().map(|t| t.wall_s).collect::<Vec<_>>()) / untraced_median
            - 1.0,
    );
    Ok((out, untraced_median))
}

/// The bitmap kernels at `kk_batched`'s sizes: one popcount sweep over an
/// n-bit job set, and `find_nth_set_in` over the 8-word blocks a rank
/// query ends in.
fn kernel_layer(out: &mut Outcome) {
    const BITS: usize = 1_000_000;
    const BLOCK_WORDS: usize = 8;
    let words: Vec<u64> = (0..BITS.div_ceil(64) as u64)
        .map(|i| mix(i ^ 0xB175))
        .collect();
    let budget = std::time::Duration::from_millis(300);

    let t = Instant::now();
    let mut sweeps = 0u64;
    let mut acc = 0u64;
    while t.elapsed() < budget {
        for _ in 0..64 {
            acc = acc.wrapping_add(kernels::popcount(black_box(&words)));
        }
        sweeps += 64;
    }
    let secs = t.elapsed().as_secs_f64();
    black_box(acc);
    let gbps = (sweeps * words.len() as u64 * 8) as f64 / secs / 1e9;

    let queries: Vec<(usize, u32)> = words
        .chunks_exact(BLOCK_WORDS)
        .enumerate()
        .map(|(i, block)| {
            let set = kernels::popcount(block) as u32;
            (
                i * BLOCK_WORDS,
                1 + (mix(i as u64) % u64::from(set.max(1))) as u32,
            )
        })
        .collect();
    let t = Instant::now();
    let mut calls = 0u64;
    while t.elapsed() < budget {
        for &(at, nth) in &queries {
            let pos = kernels::find_nth_set_in(black_box(&words[at..at + BLOCK_WORDS]), nth);
            acc = acc.wrapping_add(pos.unwrap_or(0) as u64);
        }
        calls += queries.len() as u64;
    }
    let ns = t.elapsed().as_secs_f64() * 1e9 / calls as f64;
    black_box(acc);

    let tier = kernels::tier();
    out.note(format!("ostree.kernels: dispatched tier {}", tier.name()));
    out.set("ostree.kernels.popcount_gbps", gbps);
    out.set("ostree.kernels.find_nth_ns", ns);
    out.set(
        "ostree.kernels.tier",
        match tier {
            KernelTier::Scalar => 0.0,
            KernelTier::Avx2 => 1.0,
            KernelTier::Avx512 => 2.0,
        },
    );
}

/// `kk_batched` through the sharded driver at S = T = 2 against the
/// unsharded fast path. Barrier time is wall time minus the busiest
/// shard's `step_turn` time.
fn shard_layer(w: &KkBatched, fast: f64, out: &mut Outcome) -> Checked<()> {
    const SHARDS: usize = 2;
    let spec = w
        .spec
        .clone()
        .with_shard_spec(ShardSpec::new(SHARDS, SHARDS));
    let (mem, fleet) = kk_fleet(&w.config, &spec);
    let fleet: Vec<_> = fleet.into_iter().map(TimedProcess::new).collect();
    let t = Instant::now();
    let (exec, slots, mem) = run_scenario_sharded(mem, fleet, &spec);
    let wall = t.elapsed().as_secs_f64();
    drop(mem);
    check_kk(KkBatched::NAME, &w.config, &exec)?;
    let m = slots.len();
    let busiest = (0..SHARDS)
        .map(|s| {
            slots[s * m / SHARDS..(s + 1) * m / SHARDS]
                .iter()
                .map(|slot| slot.process.time().ns)
                .sum::<u64>()
        })
        .max()
        .expect("at least one shard") as f64
        * 1e-9;
    out.note(format!(
        "sim.shard: S=T={SHARDS} run {wall:.3} s vs unsharded fast path {fast:.3} s"
    ));
    out.set("sim.shard.ratio_vs_fast", fast / wall);
    out.set("sim.shard.barrier_s", wall - busiest);
    Ok(())
}
