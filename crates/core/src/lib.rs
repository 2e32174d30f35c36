//! The Watchmen architecture: a distributed, scalable, cheat-resistant
//! overlay for fast-paced multi-player games.
//!
//! This crate is the paper's primary contribution, built on the substrates
//! in `watchmen-math`, `watchmen-crypto`, `watchmen-world`, `watchmen-game`
//! and `watchmen-net`. It implements the three pillars of Section III:
//!
//! 1. **Vision-based information filtering** ([`subscription`],
//!    [`attention`], [`dead_reckoning`]) — each player partitions everyone
//!    else into an *interest set* (top-5 by attention; frequent state
//!    updates every frame), a *vision set* (occlusion-aware spherical cone;
//!    1 Hz dead-reckoning guidance) and *others* (1 Hz position-only
//!    updates).
//! 2. **Proxy-based indirect communication** ([`proxy`], [`msg`],
//!    [`node`]) — every frame each player has a single designated proxy
//!    derived from a shared seeded PRNG, verifiable by every node without
//!    communication, renewed every few seconds with a two-generation
//!    handoff; all traffic flows player → proxy → subscribers, and
//!    subscriptions flow subscriber → subscriber's proxy → target's proxy.
//! 3. **Mutual verification** ([`verify`], [`rating`], [`reputation`]) —
//!    proxies and witnesses run sanity checks on positions, aim rates,
//!    kills, subscriptions and dissemination rates; each check produces a
//!    1–10 cheat rating modulated by a confidence factor
//!    (`c_P > c_IS > c_VS > c_O`) and feeds a pluggable reputation system.
//!
//! [`cheat`] holds the Table I taxonomy.
//! The replay drivers that put these nodes (and the Donnybrook and
//! Client/Server baselines) on a simulated network live in
//! `watchmen-sim::overlay`.
//!
//! # Examples
//!
//! ```
//! use watchmen_core::proxy::ProxySchedule;
//! use watchmen_game::PlayerId;
//!
//! // Every node computes the same proxy for every player, every frame,
//! // without communication.
//! let schedule = ProxySchedule::new(0xfeed, 16, 40);
//! let p = schedule.proxy_of(PlayerId(3), 1000);
//! assert_eq!(p, ProxySchedule::new(0xfeed, 16, 40).proxy_of(PlayerId(3), 1000));
//! assert_ne!(p, PlayerId(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attention;
pub mod audit;
pub mod cheat;
mod config;
pub mod dead_reckoning;
pub mod lobby;
pub mod msg;
pub mod node;
pub mod proxy;
pub mod rating;
pub mod reputation;
pub mod roster;
pub mod sans_io;
pub mod subscription;
pub mod verify;

pub use config::WatchmenConfig;
