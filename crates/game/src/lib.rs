//! Game-logic substrate: a from-scratch, deterministic FPS core standing
//! in for Quake III.
//!
//! The paper's evaluation runs on traces collected from an instrumented
//! Quake III: "a tracing module has been added to the game that records in
//! a trace file all important game information, e.g., different sets,
//! players position, aim, weapons, ammo, health, and speed, as well as
//! items location, item pickups, shootings, and killing of players". This
//! crate provides the equivalent pipeline:
//!
//! * [`GameSession`] — a 20 Hz (50 ms frame) deathmatch loop with avatars,
//!   weapons, damage, item pickups and respawns.
//! * [`bot`] — waypoint/item-seeking bot AI that *generates* the synthetic
//!   traces (the substitution for human play; bots chase high-value items,
//!   reproducing Figure 1's presence hotspots).
//! * [`trace`] — the trace recorder: a [`trace::GameTrace`] is re-derived
//!   from its seed, never stored.
//! * [`heatmap`] — presence heatmaps over the map grid (Figure 1).
//!
//! # Examples
//!
//! ```
//! use watchmen_game::{GameConfig, GameSession};
//!
//! let mut session = GameSession::deathmatch(GameConfig::default(), 8, 42);
//! for _ in 0..100 {
//!     session.step();
//! }
//! assert_eq!(session.frame(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod avatar;
pub mod bot;
mod events;
pub mod heatmap;
mod session;
pub mod trace;
mod weapon;

pub use avatar::{AvatarState, PlayerId};
pub use events::GameEvent;
pub use session::{GameConfig, GameSession, FRAME_MILLIS, FRAME_SECONDS};
pub use weapon::WeaponKind;
