//! Presence heatmaps over the map grid (Figure 1).
//!
//! The paper's Figure 1 plots "heatmap\[s\] of player positions in a Quake
//! III deathmatch game in the q3dm17 map. Darker colors show higher
//! presence in a region", normalized as "logarithmic values of presence in
//! each region", and observes that "players show an exponential presence
//! in some area of the game" — the argument against fixed-radius AOI
//! filtering.

use watchmen_math::grid;
use watchmen_world::GameMap;

use crate::trace::GameTrace;

/// A presence heatmap: per-cell visit counts accumulated from a trace.
///
/// # Examples
///
/// ```
/// use watchmen_game::heatmap::Heatmap;
/// use watchmen_game::trace::standard_trace;
/// use watchmen_world::maps;
///
/// let map = maps::q3dm17_like();
/// let trace = standard_trace(8, 1, 100);
/// let heat = Heatmap::from_trace(&map, &trace);
/// assert!(heat.total() > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Heatmap {
    width: usize,
    height: usize,
    counts: Vec<u64>,
}

impl Heatmap {
    /// Accumulates every living player's per-frame cell into a heatmap on
    /// the map's grid.
    #[must_use]
    pub fn from_trace(map: &GameMap, trace: &GameTrace) -> Self {
        let mut heat = Heatmap {
            width: map.width(),
            height: map.height(),
            counts: vec![0; map.width() * map.height()],
        };
        for frame in &trace.frames {
            for s in &frame.states {
                if !s.is_alive() {
                    continue;
                }
                let c = grid::cell_of(s.position, map.cell_size());
                if c.x >= 0
                    && c.y >= 0
                    && (c.x as usize) < heat.width
                    && (c.y as usize) < heat.height
                {
                    heat.counts[c.y as usize * heat.width + c.x as usize] += 1;
                }
            }
        }
        heat
    }

    /// Grid width in cells.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height in cells.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// The raw count at a cell.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    #[must_use]
    pub fn count(&self, x: usize, y: usize) -> u64 {
        assert!(x < self.width && y < self.height);
        self.counts[y * self.width + x]
    }

    /// Total presence samples accumulated.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Log-normalized intensity in `[0, 1]` per cell — Figure 1's color
    /// scale ("normalized logarithmic values of presence in each region").
    #[must_use]
    pub fn log_normalized(&self) -> Vec<f64> {
        let max = self.counts.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return vec![0.0; self.counts.len()];
        }
        let denom = ((max + 1) as f64).ln();
        self.counts.iter().map(|&c| ((c + 1) as f64).ln() / denom).collect()
    }

    /// The fraction of all presence concentrated in the busiest
    /// `top_fraction` of nonempty cells — the "exponential presence"
    /// statistic. E.g. `top_share(0.1)` near `0.5` means the top decile of
    /// cells holds half of all presence.
    ///
    /// Returns `0.0` for an empty heatmap.
    #[must_use]
    pub fn top_share(&self, top_fraction: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let mut nonzero: Vec<u64> = self.counts.iter().copied().filter(|&c| c > 0).collect();
        nonzero.sort_unstable_by(|a, b| b.cmp(a));
        let k = ((nonzero.len() as f64 * top_fraction).ceil() as usize).max(1);
        let top: u64 = nonzero.iter().take(k).sum();
        top as f64 / total as f64
    }

    /// The Gini coefficient of the per-cell presence distribution over
    /// nonempty cells: `0` = uniform, `→1` = fully concentrated.
    #[must_use]
    pub fn gini(&self) -> f64 {
        let mut v: Vec<f64> =
            self.counts.iter().copied().filter(|&c| c > 0).map(|c| c as f64).collect();
        if v.len() < 2 {
            return 0.0;
        }
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite counts"));
        let n = v.len() as f64;
        let sum: f64 = v.iter().sum();
        let weighted: f64 = v.iter().enumerate().map(|(i, x)| (i as f64 + 1.0) * x).sum();
        (2.0 * weighted) / (n * sum) - (n + 1.0) / n
    }

    /// ASCII rendering: ten intensity levels from `' '` (empty) to `'9'`.
    #[must_use]
    pub fn to_ascii(&self) -> String {
        let norm = self.log_normalized();
        (0..self.height)
            .rev()
            .map(|y| {
                (0..self.width)
                    .map(|x| {
                        let v = norm[y * self.width + x];
                        if v <= 0.0 {
                            ' '
                        } else {
                            char::from_digit(((v * 9.0).ceil() as u32).min(9), 10)
                                .expect("digit in range")
                        }
                    })
                    .collect::<String>()
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::standard_trace;
    use watchmen_world::maps;

    fn q3_heat(frames: u64) -> Heatmap {
        let map = maps::q3dm17_like();
        let trace = standard_trace(16, 4, frames);
        Heatmap::from_trace(&map, &trace)
    }

    #[test]
    fn counts_accumulate() {
        let heat = q3_heat(200);
        // 16 players x 200 frames, minus dead frames / off-grid.
        assert!(heat.total() > 1000);
        assert!(heat.total() <= 16 * 200);
    }

    #[test]
    fn log_normalized_in_unit_range() {
        let heat = q3_heat(100);
        let norm = heat.log_normalized();
        assert!(norm.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(norm.iter().any(|&v| v > 0.9), "max cell should normalize to ~1");
    }

    #[test]
    fn presence_is_concentrated() {
        // The paper's core observation: presence is strongly non-uniform.
        let heat = q3_heat(1500);
        let share = heat.top_share(0.1);
        assert!(share > 0.2, "top decile share {share} too uniform");
        assert!(heat.gini() > 0.3, "gini {} too uniform", heat.gini());
    }

    #[test]
    fn empty_heatmap_degenerate_stats() {
        let map = maps::arena(8, 10.0);
        let trace = crate::trace::GameTrace { players: 0, frames: vec![] };
        let heat = Heatmap::from_trace(&map, &trace);
        assert_eq!(heat.total(), 0);
        assert_eq!(heat.top_share(0.1), 0.0);
        assert_eq!(heat.gini(), 0.0);
        assert!(heat.log_normalized().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn ascii_has_correct_shape() {
        let heat = q3_heat(50);
        let art = heat.to_ascii();
        assert_eq!(art.lines().count(), heat.height());
        assert!(art.lines().all(|l| l.chars().count() == heat.width()));
    }

    #[test]
    fn count_accessor_matches_total() {
        let heat = q3_heat(50);
        let sum: u64 = (0..heat.height())
            .flat_map(|y| (0..heat.width()).map(move |x| (x, y)))
            .map(|(x, y)| heat.count(x, y))
            .sum();
        assert_eq!(sum, heat.total());
    }
}
