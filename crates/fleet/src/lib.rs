//! Shard-parallel multi-match orchestration for the Watchmen
//! reproduction.
//!
//! The paper evaluates Watchmen one match at a time, but its pitch is
//! population scale: cheat-resistant support for "distributed
//! multi-player online games" where a deployment hosts thousands of
//! simultaneous matches, not one. This crate is that hosting layer —
//! everything above a single match and below the process boundary:
//!
//! * [`pool`] — a std-only, hand-rolled work-stealing thread pool
//!   (per-worker deques, a global injector, parked idle workers) that
//!   schedules resumable tasks in bounded tick quanta, so long matches
//!   interleave with short ones instead of starving them, and isolates
//!   task panics with `catch_unwind`;
//! * [`cell`] — [`cell::MatchCell`], one complete shared-nothing match:
//!   its own simnet, lobby, secured node set and seed, with scripted
//!   cheat injection and a deterministic per-match report;
//! * [`fleet`] — lifecycle: expand a [`fleet::FleetConfig`] into seeded
//!   specs, run them, and fold the outcomes into a fleet report whose
//!   per-match lines are byte-identical across worker counts;
//! * [`rollup`] — fold the shard-private telemetry registries into
//!   per-shard and fleet-wide snapshots (bucket-level histogram merges,
//!   never averaged percentiles);
//! * [`population`] — the long-horizon reputation soak: thousands of
//!   real [`cell::MatchCell`] matches over one persistent identity
//!   population, with every match's outcomes folded into the durable
//!   reputation store (`watchmen-store`) so bans earned in one match
//!   block matchmaking in the next — measured as time-to-ban and false
//!   bans.
//!
//! The `fleet_soak` example drives all of it and exits non-zero unless
//! both reports of [`FleetResult::report`] pass.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod fleet;
pub mod pool;
pub mod population;
pub mod rollup;

pub use cell::{MatchCell, MatchReport, MatchSpec};
pub use fleet::{
    run_fleet, run_fleet_on, run_fleet_specs, run_fleet_specs_on, FleetConfig, FleetResult,
    FleetView, TTD_BUDGET_FRAMES,
};
pub use pool::{
    default_workers, run_tasks, run_tasks_on, PoolConfig, Quantum, ShardContext, Task, TaskOutcome,
};
pub use population::{run_population, PopulationConfig, PopulationResult};
pub use rollup::{roll_up, FleetRollup, TickStats};
