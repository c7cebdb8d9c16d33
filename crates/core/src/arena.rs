//! Re-export of the simulation arena, which moved to `amo-sim` with the
//! unified scenario layer (the generic `run_scenario` driver leases from it
//! for every algorithm stack, so the pool lives next to the engine).
//!
//! [`FleetArena`] is re-exported here unchanged, so existing
//! `amo_core::FleetArena` / `amo_core::arena::FleetArena` callers keep
//! compiling.
//!
//! # Examples
//!
//! ```
//! use amo_core::{kk_fleet, FleetArena, KkConfig};
//! use amo_sim::{run_scenario_in, ScenarioSpec};
//!
//! let mut arena = FleetArena::new();
//! let spec = ScenarioSpec::round_robin_batched();
//! for n in [64usize, 128, 256] {
//!     let config = KkConfig::new(n, 4)?;
//!     let (layout, fleet) = kk_fleet(&config, spec.grants_quanta());
//!     let (exec, _slots) = run_scenario_in(&mut arena, layout.cells(), fleet, &spec);
//!     assert!(exec.violations().is_empty());
//! }
//! assert_eq!(arena.leases(), 3);
//! assert!(arena.reuses() >= 2, "buffers were recycled, not reallocated");
//! # Ok::<(), amo_core::ConfigError>(())
//! ```

pub use amo_sim::arena::FleetArena;
