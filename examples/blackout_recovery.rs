//! Blackout and recovery: the durable register backend under storage
//! faults, with crashed workers restarting mid-run.
//!
//! A checkpoint bitmap must be initialised by a fleet of crash-prone
//! workers (the Write-All problem), but this time the register file is a
//! WAL-backed durable store: every write is journaled, each `do` action is
//! a flush barrier, and a crash triggers a *blackout* — the crasher's
//! unflushed records hit the configured storage fault (here a torn write,
//! detected by checksum and truncated) before the survivors carry on.
//! Crashed workers then re-enter through the restart protocol and re-drive
//! the algorithm against the recovered shared state.
//!
//! ```bash
//! cargo run --release --example blackout_recovery
//! ```

use at_most_once::core::{run_scenario_simulated, KkConfig};
use at_most_once::sim::{CrashPlan, ScenarioSpec, StorageFault};
use at_most_once::write_all::{run_wa_scenario, WaConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let slots = 2048;
    let workers = 4;
    let config = WaConfig::new(slots, workers, 1)?;

    // Workers 1 and 2 crash mid-shift and come back: pid 1 after a short
    // outage, pid 2 after a long one.
    let mut plan = CrashPlan::at_steps([(1usize, 400u64), (2, 1_500)]);
    plan.restart_after(1, 300).restart_after(2, 2_000);

    let base = ScenarioSpec::random(7)
        .with_quantum(8)
        .with_crash_plan(plan);

    // Reference run: the plain volatile backend (crashes, no storage).
    let volatile = run_wa_scenario(&config, &base);

    // Same schedule, same crashes — but the register file journals through
    // the WAL and the blackout tears one of the crasher's unflushed writes.
    let mut rows = Vec::new();
    for fault in StorageFault::ALL {
        let spec = base.clone().durable(fault, 0xB1AC_0007);
        rows.push((fault, run_wa_scenario(&config, &spec)));
    }

    println!("checkpoint bitmap: {slots} slots, {workers} workers, 2 crashes + 2 restarts\n");
    println!("backend / fault      complete  work      crashed  restarted");
    let volatile_work = volatile.work();
    println!(
        "{:<20} {:<9} {:<9} {:<8} {:?}",
        "vec (volatile)",
        volatile.complete,
        volatile_work,
        format!("{:?}", volatile.crashed),
        volatile.restarted,
    );
    for (fault, r) in &rows {
        println!(
            "{:<20} {:<9} {:<9} {:<8} {:?}",
            format!("durable/{}", fault.label()),
            r.complete,
            r.work(),
            format!("{:?}", r.crashed),
            r.restarted,
        );
    }

    // The fault-free durable run is not merely "close": it is bit-identical
    // to the volatile run, deterministic counters included.
    let fault_free = &rows[0].1;
    assert_eq!(
        fault_free, &volatile,
        "StorageFault::None must be bit-identical to the vec backend"
    );

    // Every fault regime still certifies the bitmap complete: blackouts
    // only roll back the crasher's unflushed suffix, and the restarted
    // workers re-drive whatever was lost.
    for (fault, r) in &rows {
        assert!(
            r.complete,
            "{}: bitmap must certify complete",
            fault.label()
        );
        assert!(r.completed, "{}: survivors must terminate", fault.label());
        assert_eq!(
            r.restarted,
            vec![1, 2],
            "{}: both workers re-enter",
            fault.label()
        );
    }

    // The at-most-once side of the same story: KKβ under a permanent crash
    // with a torn-write blackout. Effectiveness may degrade (the crasher's
    // unflushed announcement is lost), but safety must not: at-most-once
    // holds in every fault cell.
    let kk = KkConfig::new(300, 4)?;
    println!("\nKKβ, n = 300, m = 4, pid 1 crashes for good (no restart):");
    println!("fault            effectiveness  violations");
    for fault in StorageFault::ALL {
        let spec = ScenarioSpec::random(7)
            .with_quantum(8)
            .with_crash_plan(CrashPlan::at_steps([(1usize, 250u64)]))
            .durable(fault, 0xD15C);
        let r = run_scenario_simulated(&kk, &spec);
        println!(
            "{:<16} {:<14} {}",
            fault.label(),
            r.effectiveness,
            r.violations.len()
        );
        assert!(
            r.violations.is_empty(),
            "{}: at-most-once must hold under every storage fault",
            fault.label()
        );
    }

    println!(
        "\nEvery fault cell stayed safe: a blackout can lose unflushed work, \
         never un-perform flushed work."
    );
    Ok(())
}
