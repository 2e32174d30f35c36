//! Experiment harness: one module per table/figure of the paper's
//! evaluation (Section VII).
//!
//! Every module exposes a `run…` function returning a typed report and a
//! `format…` function rendering the same rows/series the paper plots:
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Figure 1 (presence heatmap) | [`heat`] |
//! | Table I (cheat catalog & responses, on the node replay) | [`cheat_matrix`] |
//! | Figure 4 (information disclosure under collusion) | [`disclosure`] |
//! | Figure 5 (witness availability) | [`overlay::run_witnesses`] |
//! | Figure 6 (verification success rates, on the node replay) | [`detection`] |
//! | Figure 7 (update-age PDF) | [`age`] |
//! | §VI scalability / bandwidth claims | [`bandwidth_exp`] |
//! | §VI subscriber-retention statistics | [`is_churn`] |
//!
//! [`workload`] builds the shared trace inputs (the 48-player
//! q3dm17-like deathmatch standing in for the paper's Quake III traces),
//! and [`quality`] joins the verdict audit stream against injected
//! ground truth into detection-quality metrics (time-to-detect,
//! per-check confusion matrices) for the fleet's SLO gate.
//!
//! [`cluster`] is the one simnet match driver — N secured protocol cores
//! advanced deliver-then-tick — [`scenario`] holds the scripted soaks
//! (control plane under faults, churn) that run on it, and [`overlay`]
//! replays a recorded game on it (and under the Donnybrook and
//! Client/Server baselines) for [`age`], [`bandwidth_exp`], Figure 5 and,
//! with a cheater scripted, Figure 6 and Table I's detection rows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod age;
pub mod bandwidth_exp;
pub mod cheat_matrix;
pub mod cluster;
pub mod detection;
pub mod disclosure;
pub mod heat;
pub mod is_churn;
pub mod overlay;
pub mod quality;
pub mod report;
pub mod scenario;
pub mod workload;
