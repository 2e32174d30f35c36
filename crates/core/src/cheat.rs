//! The cheat taxonomy of Table I.
//!
//! Table I catalogs fourteen "popular cheating mechanisms in distributed
//! multi-player games" in three categories — disruption of information
//! flow, invalid updates, and unauthorized access — and states how
//! Watchmen handles each. [`CheatKind`] encodes the catalog; every row is
//! graded on the shipped node (`watchmen-sim`'s `cheat_matrix`).
//!
//! Beyond the paper's single-cheater rows, [`CheatKind::CAMPAIGNS`]
//! extends the taxonomy with the coordinated multi-actor campaign the
//! lobby answers: a Sybil flood through the mid-game join path (DESIGN.md
//! §13).

use std::fmt;

/// The three cheat categories of Section III, plus the coordinated
/// multi-actor category the Sybil flood adds on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CheatCategory {
    /// "Actions that stop or change the normal pace of information flow."
    DisruptionOfInformationFlow,
    /// "Actions that are invalid according to game rules … repetitions, or
    /// spoofing."
    InvalidUpdates,
    /// "Any action that enables access to unauthorized information."
    UnauthorizedAccess,
    /// Multi-actor campaigns: several identities acting in concert, where
    /// no single message is invalid but the joint behaviour subverts the
    /// architecture.
    CoordinatedAdversary,
}

impl fmt::Display for CheatCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CheatCategory::DisruptionOfInformationFlow => "disruption of information flow",
            CheatCategory::InvalidUpdates => "invalid updates",
            CheatCategory::UnauthorizedAccess => "unauthorized access",
            CheatCategory::CoordinatedAdversary => "coordinated adversary",
        })
    }
}

/// How Watchmen answers a cheat (the last column of Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WatchmenResponse {
    /// The architecture detects it during play (proxy and/or witnesses).
    Detected,
    /// The architecture makes it impossible or useless by construction.
    Prevented,
    /// Both: prevented in the common case, detected otherwise.
    PreventedOrDetected,
}

impl fmt::Display for WatchmenResponse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WatchmenResponse::Detected => "detected",
            WatchmenResponse::Prevented => "prevented",
            WatchmenResponse::PreventedOrDetected => "prevented/detected",
        })
    }
}

/// The fourteen cheats of Table I, plus the coordinated campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CheatKind {
    /// Terminating the connection to escape imminent loss.
    Escaping,
    /// Delaying updates to act on others' moves first (look-ahead).
    TimeCheat,
    /// Overflowing the game server / peers to create lag.
    NetworkFlooding,
    /// Generating game events faster than the real rate.
    FastRate,
    /// Dropping consecutive updates, then sending an invalid one.
    SuppressCorrect,
    /// Re-sending signed & encrypted updates of a different player.
    ReplayCheat,
    /// Dropping updates to opponents, blinding them.
    BlindOpponent,
    /// Modifying the client-side code for unfair advantage.
    ClientCodeTampering,
    /// Automated weapon aiming.
    Aimbot,
    /// Sending messages pretending to be a different player.
    Spoofing,
    /// Sending different updates to different players.
    ConsistencyCheat,
    /// Logging/accessing information sent across the network.
    Sniffing,
    /// Seeing through walls and obstacles.
    Maphack,
    /// Analyzing update rates to detect players' attention.
    RateAnalysis,
    /// A burst of fresh identities hammering mid-game admission to pack
    /// the roster and proxy pool.
    SybilFlood,
}

impl CheatKind {
    /// The fourteen cheats of Table I, in table order.
    pub const TABLE_ONE: [CheatKind; 14] = [
        CheatKind::Escaping,
        CheatKind::TimeCheat,
        CheatKind::NetworkFlooding,
        CheatKind::FastRate,
        CheatKind::SuppressCorrect,
        CheatKind::ReplayCheat,
        CheatKind::BlindOpponent,
        CheatKind::ClientCodeTampering,
        CheatKind::Aimbot,
        CheatKind::Spoofing,
        CheatKind::ConsistencyCheat,
        CheatKind::Sniffing,
        CheatKind::Maphack,
        CheatKind::RateAnalysis,
    ];

    /// The coordinated multi-actor campaigns beyond Table I.
    pub const CAMPAIGNS: [CheatKind; 1] = [CheatKind::SybilFlood];

    /// Every catalogued cheat: Table I followed by the campaigns.
    pub const ALL: [CheatKind; 15] = [
        CheatKind::Escaping,
        CheatKind::TimeCheat,
        CheatKind::NetworkFlooding,
        CheatKind::FastRate,
        CheatKind::SuppressCorrect,
        CheatKind::ReplayCheat,
        CheatKind::BlindOpponent,
        CheatKind::ClientCodeTampering,
        CheatKind::Aimbot,
        CheatKind::Spoofing,
        CheatKind::ConsistencyCheat,
        CheatKind::Sniffing,
        CheatKind::Maphack,
        CheatKind::RateAnalysis,
        CheatKind::SybilFlood,
    ];

    /// The cheat's category (first column of Table I).
    #[must_use]
    pub fn category(&self) -> CheatCategory {
        match self {
            CheatKind::Escaping | CheatKind::TimeCheat | CheatKind::NetworkFlooding => {
                CheatCategory::DisruptionOfInformationFlow
            }
            CheatKind::FastRate
            | CheatKind::SuppressCorrect
            | CheatKind::ReplayCheat
            | CheatKind::BlindOpponent
            | CheatKind::ClientCodeTampering
            | CheatKind::Aimbot
            | CheatKind::Spoofing
            | CheatKind::ConsistencyCheat => CheatCategory::InvalidUpdates,
            CheatKind::Sniffing | CheatKind::Maphack | CheatKind::RateAnalysis => {
                CheatCategory::UnauthorizedAccess
            }
            CheatKind::SybilFlood => CheatCategory::CoordinatedAdversary,
        }
    }

    /// Watchmen's response (last column of Table I).
    #[must_use]
    pub fn watchmen_response(&self) -> WatchmenResponse {
        match self {
            // "Detected by proxy and others".
            CheatKind::Escaping
            | CheatKind::TimeCheat
            | CheatKind::FastRate
            | CheatKind::SuppressCorrect
            | CheatKind::BlindOpponent => WatchmenResponse::Detected,
            // "Prevented/Detected by proxy and others".
            CheatKind::ReplayCheat => WatchmenResponse::PreventedOrDetected,
            // "Prevented through distribution".
            CheatKind::NetworkFlooding => WatchmenResponse::Prevented,
            // "Detected by sanity checks & action repetition".
            CheatKind::ClientCodeTampering => WatchmenResponse::Detected,
            // "Detection by proxy (statistical analysis)".
            CheatKind::Aimbot => WatchmenResponse::Detected,
            // "Detected by players" (signatures).
            CheatKind::Spoofing => WatchmenResponse::Detected,
            // "Prevented by proxy and others" (single path through proxy).
            CheatKind::ConsistencyCheat => WatchmenResponse::Prevented,
            // "Prevented by minimizing information exposure".
            CheatKind::Sniffing | CheatKind::Maphack => WatchmenResponse::Prevented,
            // "Prevented by proxy and subscription model".
            CheatKind::RateAnalysis => WatchmenResponse::Prevented,
            // The admission throttle refuses over-rate joins outright;
            // every refused burst is also flagged in the audit stream.
            CheatKind::SybilFlood => WatchmenResponse::PreventedOrDetected,
        }
    }

    /// The Table I row description.
    #[must_use]
    pub fn description(&self) -> &'static str {
        match self {
            CheatKind::Escaping => "terminating the connection to escape imminent loss",
            CheatKind::TimeCheat => "delaying updates to base one's actions on others'",
            CheatKind::NetworkFlooding => "overflowing the game server to create lags",
            CheatKind::FastRate => "mimicking a faster event-generation rate",
            CheatKind::SuppressCorrect => "dropping updates, then sending an invalid one",
            CheatKind::ReplayCheat => "resending signed updates of a different player",
            CheatKind::BlindOpponent => "dropping updates to opponents to blind them",
            CheatKind::ClientCodeTampering => "modifying client-side code",
            CheatKind::Aimbot => "automated weapon aiming",
            CheatKind::Spoofing => "sending messages as a different player",
            CheatKind::ConsistencyCheat => "sending different updates to different players",
            CheatKind::Sniffing => "logging information sent across the network",
            CheatKind::Maphack => "seeing through walls and obstacles",
            CheatKind::RateAnalysis => "analyzing update rates to infer attention",
            CheatKind::SybilFlood => "flooding mid-game admission with fresh identities",
        }
    }
}

impl fmt::Display for CheatKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CheatKind::Escaping => "escaping",
            CheatKind::TimeCheat => "time cheating (look ahead)",
            CheatKind::NetworkFlooding => "network flooding",
            CheatKind::FastRate => "fast rate cheat",
            CheatKind::SuppressCorrect => "suppress-correct cheat",
            CheatKind::ReplayCheat => "replay cheat",
            CheatKind::BlindOpponent => "blind opponent",
            CheatKind::ClientCodeTampering => "client-side code tampering",
            CheatKind::Aimbot => "aimbot",
            CheatKind::Spoofing => "spoofing",
            CheatKind::ConsistencyCheat => "consistency cheat",
            CheatKind::Sniffing => "sniffing",
            CheatKind::Maphack => "maphack",
            CheatKind::RateAnalysis => "rate analysis",
            CheatKind::SybilFlood => "sybil flood",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_is_complete() {
        assert_eq!(CheatKind::TABLE_ONE.len(), 14);
        // Category counts match Table I: 3 flow, 8 invalid, 3 access.
        let flow = CheatKind::TABLE_ONE
            .iter()
            .filter(|c| c.category() == CheatCategory::DisruptionOfInformationFlow)
            .count();
        let invalid = CheatKind::TABLE_ONE
            .iter()
            .filter(|c| c.category() == CheatCategory::InvalidUpdates)
            .count();
        let access = CheatKind::TABLE_ONE
            .iter()
            .filter(|c| c.category() == CheatCategory::UnauthorizedAccess)
            .count();
        assert_eq!((flow, invalid, access), (3, 8, 3));
        // Table I rows never land in the campaign category.
        assert!(CheatKind::TABLE_ONE
            .iter()
            .all(|c| c.category() != CheatCategory::CoordinatedAdversary));
    }

    #[test]
    fn catalog_is_table_one_plus_campaigns() {
        assert_eq!(CheatKind::ALL.len(), 15);
        let rebuilt: Vec<CheatKind> =
            CheatKind::TABLE_ONE.iter().chain(CheatKind::CAMPAIGNS.iter()).copied().collect();
        assert_eq!(CheatKind::ALL.to_vec(), rebuilt);
        for kind in CheatKind::CAMPAIGNS {
            assert_eq!(kind.category(), CheatCategory::CoordinatedAdversary);
        }
    }

    #[test]
    fn every_cheat_has_a_response_and_description() {
        for kind in CheatKind::ALL {
            assert!(!kind.description().is_empty());
            assert!(!kind.to_string().is_empty());
            assert!(!kind.watchmen_response().to_string().is_empty());
            assert!(!kind.category().to_string().is_empty());
        }
    }

    #[test]
    fn access_cheats_are_prevented_not_detected() {
        for kind in [CheatKind::Sniffing, CheatKind::Maphack, CheatKind::RateAnalysis] {
            assert_eq!(kind.watchmen_response(), WatchmenResponse::Prevented);
        }
    }
}
