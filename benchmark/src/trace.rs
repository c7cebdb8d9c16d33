//! Benchmark-side timing wrappers around the library's public layer traits.
//!
//! Each wrapper forwards every trait method verbatim, so a traced run takes
//! the same path as an untraced one (the simulator workloads assert their
//! `Execution`s are equal), and records how long the calls across its
//! boundary took. Nothing inside the library is instrumented: every span is
//! taken from outside, at a public trait boundary.
//!
//! Layer self time is span time minus the spans of the layers it calls:
//! automaton = process spans − register spans; engine = run wall time − every
//! span it called. Every timed span also pays for its own two clock reads;
//! [`Clock`] measures that cost once per run so it can be taken out of the
//! layer it would otherwise inflate.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use amo_serve::FleetBlueprint;
use amo_sim::scenario::{boxed, BoxProcess};
use amo_sim::{
    BatchOutcome, Decision, MemWork, Process, Registers, ScenarioHooks, SchedView, Scheduler,
    StepEvent,
};

use crate::report::median;

fn nanos_since(t: Instant) -> u64 {
    nanos_between(t, Instant::now())
}

fn nanos_between(from: Instant, to: Instant) -> u64 {
    u64::try_from((to - from).as_nanos()).unwrap_or(u64::MAX)
}

/// The measured cost of one timed span's clock reads on this machine.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    /// Nanoseconds an empty span reports: the clock cost that lands inside
    /// the span it measures.
    pub inside_ns: f64,
    /// Nanoseconds a whole empty span costs its caller, both clock reads
    /// included.
    pub span_ns: f64,
}

impl Clock {
    /// Times empty spans; the median of several batches resists a
    /// preempted batch.
    pub fn calibrate() -> Self {
        const SPANS: u64 = 200_000;
        let mut inside = Vec::new();
        let mut total = Vec::new();
        for _ in 0..7 {
            let start = Instant::now();
            let mut acc = 0u64;
            for _ in 0..SPANS {
                let t = Instant::now();
                std::hint::black_box(&mut acc);
                acc += nanos_since(t);
            }
            total.push(nanos_since(start) as f64 / SPANS as f64);
            inside.push(acc as f64 / SPANS as f64);
        }
        Self {
            inside_ns: median(&mut inside),
            span_ns: median(&mut total),
        }
    }

    /// Nanoseconds one register sample costs its caller: three clock
    /// reads, one more than a span.
    pub fn sample_ns(&self) -> f64 {
        self.span_ns + self.inside_ns
    }

    /// `raw_ns` of `spans` spans with their inside clock cost taken out.
    pub fn net_s(&self, raw_ns: u64, spans: u64) -> f64 {
        (raw_ns as f64 - self.inside_ns * spans as f64) * 1e-9
    }
}

/// Mean gap between timed register queries, where queries are timed at
/// all (see [`TimedRegisters::new`]).
const QUERY_SAMPLE_PERIOD: u32 = 64;

/// Times a share of the calls through one boundary and scales the sampled
/// time up to all calls. Gaps between samples are pseudo-random with mean
/// `period`, so they cannot alias with an automaton's periodic access
/// pattern; period 1 times every call, period 0 only counts calls.
///
/// Each sample also times an empty span right before the call and
/// subtracts it, so the clock's own cost is measured where it is paid.
struct Sampler {
    period: u32,
    calls: Cell<u64>,
    countdown: Cell<u32>,
    rng: Cell<u64>,
    sampled: Cell<u64>,
    sampled_ns: Cell<u64>,
    empty_ns: Cell<u64>,
}

impl Sampler {
    fn new(period: u32, seed: u64) -> Self {
        Self {
            period,
            calls: Cell::new(0),
            countdown: Cell::new(1),
            rng: Cell::new(seed | 1),
            sampled: Cell::new(0),
            sampled_ns: Cell::new(0),
            empty_ns: Cell::new(0),
        }
    }

    #[inline]
    fn call<T>(&self, f: impl FnOnce() -> T) -> T {
        self.calls.set(self.calls.get() + 1);
        if self.period == 0 {
            return f();
        }
        let left = self.countdown.get() - 1;
        if left != 0 {
            self.countdown.set(left);
            return f();
        }
        let mut x = self.rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.set(x);
        self.countdown
            .set(1 + (x % u64::from(2 * self.period - 1)) as u32);
        let t0 = Instant::now();
        let t1 = Instant::now();
        let out = f();
        let t2 = Instant::now();
        self.empty_ns
            .set(self.empty_ns.get() + nanos_between(t0, t1));
        self.sampled_ns
            .set(self.sampled_ns.get() + nanos_between(t1, t2));
        self.sampled.set(self.sampled.get() + 1);
        out
    }

    /// Estimated seconds spent in all calls, from the sampled ones.
    fn estimate_s(&self) -> f64 {
        let sampled = self.sampled.get();
        if sampled == 0 {
            return 0.0;
        }
        let per_call_ns =
            (self.sampled_ns.get() as f64 - self.empty_ns.get() as f64) / sampled as f64;
        per_call_ns * self.calls.get() as f64 * 1e-9
    }
}

/// A register file whose calls are timed from outside.
///
/// Mutations, flush barriers and crash blackouts are timed on every call:
/// their cost has a long tail (a journal append, an epoch-prefix resize, a
/// blackout that restores the whole file) that a sample would misjudge.
/// Queries (reads, epochs) cost about the same every time, so where they
/// are timed at all they are sampled. The engine's own bookkeeping calls
/// (`note_actor`, `work`) only store or load a counter and are counted, not
/// timed. Calls the engine makes are kept apart from the automaton's,
/// because they sit outside every process span.
pub struct TimedRegisters<R> {
    inner: R,
    queries: Sampler,
    mutations: Sampler,
    engine_queries: Sampler,
    engine_commits: Sampler,
}

/// Where a traced register file's time went.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegisterTime {
    /// Estimated seconds inside calls made by automatons.
    pub process_s: f64,
    /// Estimated seconds inside calls made by the engine.
    pub engine_s: f64,
    /// Calls made by automatons.
    pub process_calls: u64,
    /// Calls made by the engine.
    pub engine_calls: u64,
    /// Automaton calls that were timed.
    pub process_sampled: u64,
    /// Engine calls that were timed.
    pub engine_sampled: u64,
}

impl<R: Registers> TimedRegisters<R> {
    /// Wraps `inner`. `time_queries` is for files whose queries cost more
    /// than a clock read: a Vec query costs about a nanosecond, below what
    /// a ~35 ns clock read can resolve, so it is left in the caller's self
    /// time instead of being estimated from noise.
    pub fn new(inner: R, time_queries: bool) -> Self {
        let query_period = if time_queries { QUERY_SAMPLE_PERIOD } else { 0 };
        Self {
            inner,
            queries: Sampler::new(query_period, 0x9E37_79B9_7F4A_7C15),
            mutations: Sampler::new(1, 1),
            engine_queries: Sampler::new(0, 1),
            engine_commits: Sampler::new(1, 1),
        }
    }

    /// The wrapped register file.
    pub fn into_inner(self) -> R {
        self.inner
    }

    /// Time spent inside the wrapped file, estimated from the samples.
    pub fn time(&self) -> RegisterTime {
        let (p, e) = (
            [&self.queries, &self.mutations],
            [&self.engine_queries, &self.engine_commits],
        );
        let sum = |xs: [&Sampler; 2], f: &dyn Fn(&Sampler) -> u64| f(xs[0]) + f(xs[1]);
        RegisterTime {
            process_s: p.iter().map(|s| s.estimate_s()).sum(),
            engine_s: e.iter().map(|s| s.estimate_s()).sum(),
            process_calls: sum(p, &|s| s.calls.get()),
            engine_calls: sum(e, &|s| s.calls.get()),
            process_sampled: sum(p, &|s| s.sampled.get()),
            engine_sampled: sum(e, &|s| s.sampled.get()),
        }
    }
}

impl<R: Registers> Registers for TimedRegisters<R> {
    #[inline]
    fn read(&self, cell: usize) -> u64 {
        self.queries.call(|| self.inner.read(cell))
    }

    #[inline]
    fn peek(&self, cell: usize) -> u64 {
        self.queries.call(|| self.inner.peek(cell))
    }

    #[inline]
    fn note_reads(&self, reads: u64) {
        self.queries.call(|| self.inner.note_reads(reads))
    }

    fn epochs_enabled(&self) -> bool {
        self.queries.call(|| self.inner.epochs_enabled())
    }

    #[inline]
    fn epoch(&self, cell: usize) -> u64 {
        self.queries.call(|| self.inner.epoch(cell))
    }

    #[inline]
    fn global_epoch(&self) -> u64 {
        self.queries.call(|| self.inner.global_epoch())
    }

    #[inline]
    fn write(&self, cell: usize, value: u64) {
        self.mutations.call(|| self.inner.write(cell, value))
    }

    #[inline]
    fn swap(&self, cell: usize, value: u64) -> u64 {
        self.mutations.call(|| self.inner.swap(cell, value))
    }

    fn len(&self) -> usize {
        self.queries.call(|| self.inner.len())
    }

    fn is_empty(&self) -> bool {
        self.queries.call(|| self.inner.is_empty())
    }

    fn work(&self) -> MemWork {
        self.engine_queries.call(|| self.inner.work())
    }

    #[inline]
    fn note_actor(&self, pid: usize) {
        self.engine_queries.call(|| self.inner.note_actor(pid))
    }

    #[inline]
    fn perform_barrier(&self) {
        self.engine_commits.call(|| self.inner.perform_barrier())
    }

    #[inline]
    fn crash_blackout(&self, pid: usize) {
        self.engine_commits.call(|| self.inner.crash_blackout(pid))
    }
}

/// Totals of [`TimedProcess`] spans, shared by automatons that live on
/// other threads or are dropped before the run ends (the claim service
/// replaces its automatons every generation).
#[derive(Debug, Default)]
pub struct ProcessSink {
    ns: AtomicU64,
    spans: AtomicU64,
    actions: AtomicU64,
    shared_ops: AtomicU64,
    local_work: AtomicU64,
}

/// A snapshot of a [`ProcessSink`] or of one [`TimedProcess`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessTime {
    /// Nanoseconds inside the automaton's methods.
    pub ns: u64,
    /// Timed calls.
    pub spans: u64,
    /// Actions the automaton reported taking.
    pub actions: u64,
    /// Shared-memory operations, counted from single-step events (batched
    /// calls report no events; the engine's `MemWork` covers those).
    pub shared_ops: u64,
    /// The automaton's local work when it was dropped.
    pub local_work: u64,
}

impl ProcessSink {
    /// The totals so far.
    pub fn totals(&self) -> ProcessTime {
        ProcessTime {
            ns: self.ns.load(Ordering::Relaxed),
            spans: self.spans.load(Ordering::Relaxed),
            actions: self.actions.load(Ordering::Relaxed),
            shared_ops: self.shared_ops.load(Ordering::Relaxed),
            local_work: self.local_work.load(Ordering::Relaxed),
        }
    }
}

/// An automaton whose methods are timed from outside.
///
/// Totals live in the wrapper (read them from the run's final slots); when
/// built with a sink they are also added to it on drop.
pub struct TimedProcess<P> {
    inner: P,
    time: ProcessTime,
    sink: Option<Arc<ProcessSink>>,
}

impl<P> TimedProcess<P> {
    /// Wraps `inner`, keeping totals in the wrapper only.
    pub fn new(inner: P) -> Self {
        Self {
            inner,
            time: ProcessTime::default(),
            sink: None,
        }
    }

    /// Wraps `inner`, adding its totals to `sink` when dropped.
    pub fn with_sink(inner: P, sink: Arc<ProcessSink>) -> Self {
        Self {
            inner,
            time: ProcessTime::default(),
            sink: Some(sink),
        }
    }

    /// Totals of this automaton's spans.
    pub fn time(&self) -> ProcessTime {
        self.time
    }

    #[inline]
    fn timed<T>(&mut self, f: impl FnOnce(&mut P) -> T) -> T {
        let t = Instant::now();
        let out = f(&mut self.inner);
        self.time.ns += nanos_since(t);
        self.time.spans += 1;
        out
    }

    fn count_event(&mut self, event: StepEvent) {
        self.time.actions += 1;
        if matches!(
            event,
            StepEvent::Read { .. } | StepEvent::Write { .. } | StepEvent::Rmw { .. }
        ) {
            self.time.shared_ops += 1;
        }
    }
}

impl<P> Drop for TimedProcess<P> {
    fn drop(&mut self) {
        if let Some(sink) = &self.sink {
            sink.ns.fetch_add(self.time.ns, Ordering::Relaxed);
            sink.spans.fetch_add(self.time.spans, Ordering::Relaxed);
            sink.actions.fetch_add(self.time.actions, Ordering::Relaxed);
            sink.shared_ops
                .fetch_add(self.time.shared_ops, Ordering::Relaxed);
            sink.local_work
                .fetch_add(self.time.local_work, Ordering::Relaxed);
        }
    }
}

impl<R: Registers + ?Sized, P: Process<R>> Process<R> for TimedProcess<P> {
    fn step(&mut self, mem: &R) -> StepEvent {
        let event = self.timed(|p| p.step(mem));
        self.count_event(event);
        self.time.local_work = self.inner.local_work();
        event
    }

    fn pid(&self) -> usize {
        self.inner.pid()
    }

    fn is_terminated(&self) -> bool {
        self.inner.is_terminated()
    }

    fn local_work(&self) -> u64 {
        self.inner.local_work()
    }

    fn step_many(&mut self, mem: &R, budget: u64) -> BatchOutcome {
        let out = self.timed(|p| p.step_many(mem, budget));
        self.time.actions += out.steps;
        self.time.local_work = self.inner.local_work();
        out
    }

    fn step_turn(&mut self, mem: &R, budget: u64) -> BatchOutcome {
        let out = self.timed(|p| p.step_turn(mem, budget));
        self.time.actions += out.steps;
        self.time.local_work = self.inner.local_work();
        out
    }

    fn at_comm_boundary(&self) -> bool {
        self.inner.at_comm_boundary()
    }

    fn supports_restart(&self) -> bool {
        self.inner.supports_restart()
    }

    fn on_restart(&mut self, mem: &R) {
        self.timed(|p| p.on_restart(mem))
    }
}

impl<P: ScenarioHooks> ScenarioHooks for TimedProcess<P> {
    fn set_epoch_cache(&mut self, enabled: bool) {
        self.inner.set_epoch_cache(enabled)
    }

    fn set_collision_tracking(&mut self, enabled: bool) {
        self.inner.set_collision_tracking(enabled)
    }
}

/// Totals of a [`TimedScheduler`]'s spans.
#[derive(Debug, Default)]
pub struct SchedulerTime {
    ns: Cell<u64>,
    spans: Cell<u64>,
    decisions: Cell<u64>,
}

impl SchedulerTime {
    /// Nanoseconds inside the scheduler.
    pub fn ns(&self) -> u64 {
        self.ns.get()
    }

    /// Timed calls.
    pub fn spans(&self) -> u64 {
        self.spans.get()
    }

    /// `decide` calls.
    pub fn decisions(&self) -> u64 {
        self.decisions.get()
    }

    #[inline]
    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.ns.set(self.ns.get() + nanos_since(t));
        self.spans.set(self.spans.get() + 1);
        out
    }
}

/// A scheduler whose calls are timed from outside. The engine consumes its
/// scheduler, so the totals live behind a shared handle.
pub struct TimedScheduler<S> {
    inner: S,
    time: Rc<SchedulerTime>,
}

impl<S> TimedScheduler<S> {
    /// Wraps `inner`; its totals accumulate in `time`.
    pub fn new(inner: S, time: Rc<SchedulerTime>) -> Self {
        Self { inner, time }
    }
}

impl<P, S: Scheduler<P>> Scheduler<P> for TimedScheduler<S> {
    fn decide(&mut self, view: &SchedView<'_, P>) -> Decision {
        self.time.decisions.set(self.time.decisions.get() + 1);
        self.time.timed(|| self.inner.decide(view))
    }

    fn quantum(&self, view: &SchedView<'_, P>, chosen: usize) -> u64 {
        self.time.timed(|| self.inner.quantum(view, chosen))
    }

    fn note_consumed(&mut self, chosen: usize, steps: u64) {
        self.time.timed(|| self.inner.note_consumed(chosen, steps))
    }

    fn pending_restart(&self, view: &SchedView<'_, P>) -> bool {
        self.time.timed(|| self.inner.pending_restart(view))
    }
}

/// A claim-service blueprint whose automatons are [`TimedProcess`]es
/// reporting into one shared sink.
pub struct TimedBlueprint<B> {
    inner: B,
    sink: Arc<ProcessSink>,
}

impl<B> TimedBlueprint<B> {
    /// Wraps `inner`; automaton totals accumulate in `sink`.
    pub fn new(inner: B, sink: Arc<ProcessSink>) -> Self {
        Self { inner, sink }
    }
}

impl<B: FleetBlueprint> FleetBlueprint for TimedBlueprint<B> {
    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn jobs_per_generation(&self) -> u64 {
        self.inner.jobs_per_generation()
    }

    fn cells(&self) -> usize {
        self.inner.cells()
    }

    fn build(&self, pid: usize) -> BoxProcess {
        boxed(TimedProcess::with_sink(
            self.inner.build(pid),
            Arc::clone(&self.sink),
        ))
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }
}
