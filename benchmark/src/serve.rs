//! `serve_claims`: the claim service under a closed-loop client.
//!
//! One client thread drives two phases against one running service. With
//! one claim outstanding (W = 1) every claim is timed submit → grant; with
//! 64 outstanding (W = 64) the client keeps the workers busy and grants are
//! counted per slice of time.

use std::sync::Arc;
use std::time::{Duration, Instant};

use amo_serve::{ClaimClient, ClaimService, FleetBlueprint, KkBlueprint, ServiceReport};

use crate::check::{self, Checked, GrantLedger};
use crate::report::{median, percentile, Outcome};
use crate::trace::{Clock, ProcessSink, TimedBlueprint};
use crate::{mix, Args};

const NAME: &str = "serve_claims";
/// Worker threads, the algorithm's m.
const WORKERS: usize = 2;
/// Outstanding claims in the throughput phase.
const WINDOW: u64 = 64;
/// Ingest queue capacity: above the window, so no claim is refused.
const QUEUE: usize = 256;
/// Throughput and latency are taken per slice of time; the reported
/// figures come from the best slice (see the crate README). Short phases
/// use a tenth of the phase instead.
const SLICE: Duration = Duration::from_millis(250);
/// Service starts timed for `setup_s`.
const SETUPS: usize = 101;
/// Claims served before memory is read.
const MEMORY_CLAIMS: u64 = 1 << 20;

/// Jobs per generation: 4096 plus a seed-drawn offset below 64, so that
/// seeds give distinct generation boundaries.
fn jobs_per_generation(seed: u64) -> u64 {
    4096 + mix(seed) % 64
}

fn blueprint(seed: u64) -> KkBlueprint {
    KkBlueprint::new(jobs_per_generation(seed), WORKERS).expect("valid blueprint")
}

/// Runs `serve_claims`; `None` for another workload name.
pub fn run(args: &Args) -> Option<Checked<Outcome>> {
    (args.workload == NAME).then(|| {
        if args.trace {
            traced_run(args)
        } else {
            timed_run(args)
        }
    })
}

/// What the client saw in both phases.
#[derive(Default)]
struct ClientLog {
    attempted: u64,
    refused: u64,
    accepted: u64,
    granted: u64,
    /// W = 1: submit → grant, in µs.
    latency_us: Vec<f64>,
    /// W = 1: where each full slice of `latency_us` ends.
    latency_slices: Vec<usize>,
    /// W = 1: time inside `try_submit`, in µs.
    submit_us: Vec<f64>,
    /// W = 1: the service's own `Grant::wait`, in µs.
    wait_us: Vec<f64>,
    /// W = 64: grants per second in each full slice.
    slice_rates: Vec<f64>,
    /// Slice length of both phases.
    slice: Duration,
}

impl ClientLog {
    fn submit(&mut self, client: &ClaimClient) -> bool {
        self.attempted += 1;
        if client.try_submit().is_ok() {
            self.accepted += 1;
            true
        } else {
            self.refused += 1;
            false
        }
    }

    /// Claims refused or never granted.
    fn failed(&self) -> u64 {
        self.refused + (self.accepted - self.granted)
    }

    fn receive(
        &mut self,
        client: &ClaimClient,
        ledger: &mut GrantLedger,
    ) -> Checked<amo_serve::Grant> {
        let grant = client.recv().map_err(|e| check::CheckFailure {
            workload: NAME,
            check: "accepted-granted",
            detail: format!("an accepted claim was not granted: {e}"),
        })?;
        ledger.record(NAME, grant.job)?;
        self.granted += 1;
        Ok(grant)
    }
}

/// W = 1 for `w1`, then W = 64 until `w64` has passed or `cap` claims were
/// granted in it, then a drained shutdown.
fn drive(
    svc: ClaimService,
    w1: Duration,
    w64: Duration,
    cap: u64,
) -> Checked<(ClientLog, ServiceReport)> {
    let client = svc.client();
    let mut ledger = GrantLedger::default();
    let mut log = ClientLog {
        slice: SLICE.min(w1.max(w64) / 10),
        ..ClientLog::default()
    };

    let start = Instant::now();
    let mut slice_start = start;
    while start.elapsed() < w1 {
        let t0 = Instant::now();
        if !log.submit(&client) {
            continue;
        }
        let t1 = Instant::now();
        let grant = log.receive(&client, &mut ledger)?;
        let t2 = Instant::now();
        log.latency_us.push((t2 - t0).as_secs_f64() * 1e6);
        log.submit_us.push((t1 - t0).as_secs_f64() * 1e6);
        log.wait_us.push(grant.wait.as_secs_f64() * 1e6);
        if t2 - slice_start >= log.slice {
            log.latency_slices.push(log.latency_us.len());
            slice_start = t2;
        }
    }

    for _ in 0..WINDOW {
        log.submit(&client);
    }
    let start = Instant::now();
    let mut slice_start = start;
    let (mut in_phase, mut in_slice) = (0u64, 0u64);
    while start.elapsed() < w64 && in_phase < cap {
        log.receive(&client, &mut ledger)?;
        in_phase += 1;
        in_slice += 1;
        log.submit(&client);
        let elapsed = slice_start.elapsed();
        if elapsed >= log.slice {
            log.slice_rates
                .push(in_slice as f64 / elapsed.as_secs_f64());
            in_slice = 0;
            slice_start = Instant::now();
        }
    }
    while client.outstanding() > 0 {
        log.receive(&client, &mut ledger)?;
    }
    drop(client);
    let report = svc.shutdown();

    check::ensure(
        NAME,
        "accepted-granted",
        log.granted == log.accepted,
        || format!("{} claims accepted, {} granted", log.accepted, log.granted),
    )?;
    check::ensure(
        NAME,
        "service-agrees",
        report.granted == ledger.len() && report.queue.accepted == log.accepted,
        || {
            format!(
                "service counted {} grants and {} admissions; client saw {} and {}",
                report.granted,
                report.queue.accepted,
                ledger.len(),
                log.accepted
            )
        },
    )?;
    // KkBlueprint::new builds each generation with β = m, so Theorem 4.4
    // promises n − (2m − 2) jobs per completed generation.
    let n = report.jobs_per_generation;
    let floor = report.completed_generations * (n - (2 * WORKERS as u64 - 2));
    check::ensure(
        NAME,
        "effectiveness-bound",
        report.completed_generations > 0 && report.performed_in_completed >= floor,
        || {
            format!(
                "{} jobs in {} completed generations, below the floor {floor}",
                report.performed_in_completed, report.completed_generations
            )
        },
    )?;
    Ok((log, report))
}

/// Both timed phases, `phase` long each.
fn measure(svc: ClaimService, phase: Duration) -> Checked<(ClientLog, ServiceReport)> {
    let (log, report) = drive(svc, phase, phase, u64::MAX)?;
    check::ensure(
        NAME,
        "enough-slices",
        !log.slice_rates.is_empty() && !log.latency_slices.is_empty(),
        || {
            format!(
                "{} throughput and {} latency slices",
                log.slice_rates.len(),
                log.latency_slices.len()
            )
        },
    )?;
    Ok((log, report))
}

/// The lowest per-slice nearest-rank `q` latency of the W = 1 phase.
fn best_slice_latency(log: &ClientLog, q: f64) -> f64 {
    let mut from = 0;
    let mut best = f64::INFINITY;
    for &to in &log.latency_slices {
        best = best.min(percentile(&mut log.latency_us[from..to].to_vec(), q));
        from = to;
    }
    best
}

fn effectiveness(report: &ServiceReport) -> f64 {
    report.performed_in_completed as f64
        / (report.completed_generations * report.jobs_per_generation) as f64
}

fn timed_run(args: &Args) -> Checked<Outcome> {
    let mut setups: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let t = Instant::now();
            let svc = ClaimService::start(blueprint(args.seed), QUEUE);
            let s = t.elapsed().as_secs_f64();
            svc.shutdown();
            s
        })
        .collect();
    // Memory is read after a fixed number of claims: the service's audit
    // set grows with every claim and doubles its table at thresholds, so
    // a timed phase would put it on either side of one by throughput alone.
    let svc = ClaimService::start(blueprint(args.seed), QUEUE);
    let (fill, _) = drive(svc, Duration::ZERO, Duration::from_secs(60), MEMORY_CLAIMS)?;
    let peak_rss_mb = crate::report::peak_rss_mb(NAME)?;

    let svc = ClaimService::start(blueprint(args.seed), QUEUE);
    let (log, report) = measure(svc, Duration::from_secs_f64(args.seconds / 2.0))?;

    let mut out = Outcome::new(fill.attempted + log.attempted, fill.failed() + log.failed());
    out.note(format!(
        "{NAME}: {} jobs/generation, {WORKERS} workers; W=1 phase {} claims in {} slices, \
         W=64 phase {} slices of {} ms; {} generations completed; memory read after \
         {MEMORY_CLAIMS} claims",
        report.jobs_per_generation,
        log.latency_us.len(),
        log.latency_slices.len(),
        log.slice_rates.len(),
        log.slice.as_millis(),
        report.completed_generations
    ));
    let fastest = log.slice_rates.iter().copied().fold(0.0, f64::max);
    out.set("jobs_per_s", fastest);
    out.set("setup_s", median(&mut setups));
    out.set("effectiveness", effectiveness(&report));
    out.set("latency_p50_us", best_slice_latency(&log, 0.50));
    out.set("latency_p99_us", best_slice_latency(&log, 0.99));
    out.set("peak_rss_mb", peak_rss_mb);
    Ok(out)
}

fn traced_run(args: &Args) -> Checked<Outcome> {
    let clock = Clock::calibrate();
    let phase = Duration::from_secs_f64(args.seconds / 4.0);
    let svc = ClaimService::start(blueprint(args.seed), QUEUE);
    let (mut plain, _) = measure(svc, phase)?;

    let sink = Arc::new(ProcessSink::default());
    let traced_bp = TimedBlueprint::new(blueprint(args.seed), Arc::clone(&sink));
    let jobs = traced_bp.jobs_per_generation();
    let svc = ClaimService::start(traced_bp, QUEUE);
    let (mut log, report) = measure(svc, phase)?;
    let steps = sink.totals();

    let mut delivery: Vec<f64> = log
        .latency_us
        .iter()
        .zip(&log.wait_us)
        .map(|(total, wait)| total - wait)
        .collect();
    let kk_self = clock.net_s(steps.ns, steps.spans);
    let run_s = report.elapsed.as_secs_f64();
    let mut out = Outcome::new(
        plain.attempted + log.attempted,
        plain.failed() + log.failed(),
    );
    out.note(format!(
        "{NAME}: untraced then traced service, each W=1 and W=64 for {:.2} s; \
         {jobs} jobs/generation; core.kk times every automaton step on the worker threads",
        phase.as_secs_f64()
    ));
    out.set("core.kk.self_s", kk_self);
    out.set(
        "core.kk.ns_per_action",
        kk_self * 1e9 / steps.actions.max(1) as f64,
    );
    out.set("core.kk.local_work", steps.local_work as f64);
    out.set("core.kk.shared_ops", steps.shared_ops as f64);
    out.set(
        "serve.queue.submit_us_p50",
        percentile(&mut log.submit_us, 0.50),
    );
    out.set("serve.queue.peak_depth", report.queue.peak_depth as f64);
    out.set(
        "serve.queue.rejected_full",
        report.queue.rejected_full as f64,
    );
    out.set(
        "serve.worker.grant_wait_us_p50",
        percentile(&mut log.wait_us.clone(), 0.50),
    );
    out.set(
        "serve.worker.grant_wait_us_p99",
        percentile(&mut log.wait_us, 0.99),
    );
    out.set(
        "serve.worker.generations_per_s",
        report.completed_generations as f64 / run_s,
    );
    out.set(
        "serve.worker.stranded_frac",
        report.stranded as f64 / (report.granted + report.stranded) as f64,
    );
    out.set("serve.delivery.us_p50", percentile(&mut delivery, 0.50));
    out.set("trace.run_s", run_s);
    out.set("trace.clock_s", steps.spans as f64 * clock.span_ns * 1e-9);
    out.set(
        "trace.overhead_frac",
        median(&mut plain.slice_rates) / median(&mut log.slice_rates) - 1.0,
    );
    Ok(out)
}
