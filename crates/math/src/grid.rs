//! 2-D cell indexing and DDA grid traversal.
//!
//! The world substrate stores maps as uniform grids of tiles; occlusion
//! queries ("is q behind a wall from p?") walk the grid cells crossed by the
//! sight line using the classic Amanatides–Woo DDA traversal implemented
//! here.

use crate::Vec3;

/// A cell coordinate in a 2-D grid.
///
/// # Examples
///
/// ```
/// use watchmen_math::grid::Cell;
/// let c = Cell::new(3, 4);
/// assert_eq!(c.x, 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Cell {
    /// Column index.
    pub x: i32,
    /// Row index.
    pub y: i32,
}

impl Cell {
    /// Creates a cell coordinate.
    #[must_use]
    pub const fn new(x: i32, y: i32) -> Self {
        Cell { x, y }
    }

    /// Manhattan distance to another cell.
    #[must_use]
    pub fn manhattan(self, other: Cell) -> u32 {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// Maps a world-space position to the cell containing it, for square cells
/// of side `cell_size` anchored at the origin.
///
/// # Panics
///
/// Panics in debug builds if `cell_size` is not positive.
#[must_use]
pub fn cell_of(p: Vec3, cell_size: f64) -> Cell {
    debug_assert!(cell_size > 0.0);
    Cell::new((p.x / cell_size).floor() as i32, (p.y / cell_size).floor() as i32)
}

/// Walks every grid cell crossed by the 2-D projection of the segment
/// `from → to` (Amanatides–Woo DDA), including the start and end cells, in
/// order.
///
/// The vertical (`z`) component is ignored; occlusion against floor/wall
/// heights is layered on top by the world crate.
///
/// # Examples
///
/// ```
/// use watchmen_math::grid::{traverse, Cell};
/// use watchmen_math::Vec3;
///
/// let cells = traverse(Vec3::new(0.5, 0.5, 0.0), Vec3::new(2.5, 0.5, 0.0), 1.0);
/// assert_eq!(cells, vec![Cell::new(0, 0), Cell::new(1, 0), Cell::new(2, 0)]);
/// ```
///
/// # Panics
///
/// Panics in debug builds if `cell_size` is not positive.
#[must_use]
pub fn traverse(from: Vec3, to: Vec3, cell_size: f64) -> Vec<Cell> {
    let mut cells = Vec::new();
    traverse_with(from, to, cell_size, |c| {
        cells.push(c);
        true
    });
    cells
}

/// Walks the same cells as [`traverse`] without allocating, invoking
/// `visit` for each cell in order; the walk stops early when `visit`
/// returns `false`. Returns `true` if the walk reached the end cell.
///
/// This is the hot path behind occlusion queries (`O(players²)` line-of-
/// sight tests per frame in the overlay simulations).
///
/// # Panics
///
/// Panics in debug builds if `cell_size` is not positive.
pub fn traverse_with(
    from: Vec3,
    to: Vec3,
    cell_size: f64,
    mut visit: impl FnMut(Cell) -> bool,
) -> bool {
    debug_assert!(cell_size > 0.0);
    let start = cell_of(from, cell_size);
    let end = cell_of(to, cell_size);
    if !visit(start) {
        return false;
    }
    if start == end {
        return true;
    }

    let dx = to.x - from.x;
    let dy = to.y - from.y;
    let step_x: i32 = if dx > 0.0 { 1 } else { -1 };
    let step_y: i32 = if dy > 0.0 { 1 } else { -1 };

    // Parametric distance (as fraction of the segment) to the first vertical
    // / horizontal cell boundary, and per-cell increments.
    let next_boundary = |coord: f64, cell: i32, step: i32| -> f64 {
        let edge = if step > 0 { (cell + 1) as f64 * cell_size } else { cell as f64 * cell_size };
        edge - coord
    };

    let mut t_max_x = if dx.abs() < crate::EPSILON {
        f64::INFINITY
    } else {
        next_boundary(from.x, start.x, step_x) / dx
    };
    let mut t_max_y = if dy.abs() < crate::EPSILON {
        f64::INFINITY
    } else {
        next_boundary(from.y, start.y, step_y) / dy
    };
    let t_delta_x = if dx.abs() < crate::EPSILON { f64::INFINITY } else { cell_size / dx.abs() };
    let t_delta_y = if dy.abs() < crate::EPSILON { f64::INFINITY } else { cell_size / dy.abs() };

    let mut cur = start;
    // Upper bound on steps guards against float pathologies.
    let max_steps = (start.manhattan(end) + 2) as usize;
    for _ in 0..max_steps {
        if t_max_x < t_max_y {
            t_max_x += t_delta_x;
            cur.x += step_x;
        } else {
            t_max_y += t_delta_y;
            cur.y += step_y;
        }
        if !visit(cur) {
            return false;
        }
        if cur == end {
            return true;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_of_floors() {
        assert_eq!(cell_of(Vec3::new(0.1, 0.9, 5.0), 1.0), Cell::new(0, 0));
        assert_eq!(cell_of(Vec3::new(-0.1, 2.0, 0.0), 1.0), Cell::new(-1, 2));
        assert_eq!(cell_of(Vec3::new(7.9, 3.2, 0.0), 4.0), Cell::new(1, 0));
    }

    #[test]
    fn traverse_horizontal() {
        let cells = traverse(Vec3::new(0.5, 0.5, 0.0), Vec3::new(3.5, 0.5, 0.0), 1.0);
        assert_eq!(cells, vec![Cell::new(0, 0), Cell::new(1, 0), Cell::new(2, 0), Cell::new(3, 0)]);
    }

    #[test]
    fn traverse_vertical_negative() {
        let cells = traverse(Vec3::new(0.5, 0.5, 0.0), Vec3::new(0.5, -1.5, 0.0), 1.0);
        assert_eq!(cells, vec![Cell::new(0, 0), Cell::new(0, -1), Cell::new(0, -2)]);
    }

    #[test]
    fn traverse_diagonal_connects() {
        let cells = traverse(Vec3::new(0.2, 0.2, 0.0), Vec3::new(2.8, 2.8, 0.0), 1.0);
        assert_eq!(cells.first(), Some(&Cell::new(0, 0)));
        assert_eq!(cells.last(), Some(&Cell::new(2, 2)));
        // Consecutive cells are 4-adjacent (DDA never jumps corners).
        for w in cells.windows(2) {
            assert_eq!(w[0].manhattan(w[1]), 1, "{:?}", cells);
        }
    }

    #[test]
    fn traverse_same_cell() {
        let cells = traverse(Vec3::new(0.1, 0.1, 0.0), Vec3::new(0.9, 0.9, 0.0), 1.0);
        assert_eq!(cells, vec![Cell::new(0, 0)]);
    }

    #[test]
    fn traverse_ignores_z() {
        let cells = traverse(Vec3::new(0.5, 0.5, 0.0), Vec3::new(1.5, 0.5, 99.0), 1.0);
        assert_eq!(cells, vec![Cell::new(0, 0), Cell::new(1, 0)]);
    }

    #[test]
    fn manhattan_and_display() {
        let c = Cell::new(0, 0);
        assert_eq!(c.manhattan(Cell::new(3, -4)), 7);
        assert!(!format!("{c}").is_empty());
    }

    #[test]
    fn traverse_end_reached_from_any_direction() {
        for &(fx, fy, tx, ty) in
            &[(0.5, 0.5, -2.5, -1.5), (0.5, 0.5, -2.5, 1.5), (0.5, 0.5, 2.5, -3.5)]
        {
            let cells = traverse(Vec3::new(fx, fy, 0.0), Vec3::new(tx, ty, 0.0), 1.0);
            assert_eq!(*cells.last().unwrap(), cell_of(Vec3::new(tx, ty, 0.0), 1.0));
        }
    }
}
