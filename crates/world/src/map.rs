//! The tile map and its spatial queries.

use std::fmt;
use std::sync::Arc;

use watchmen_math::grid;
use watchmen_math::{Aabb, Vec3};

use crate::{ItemSpawner, Tile};

/// A 2.5-D game map: a uniform grid of [`Tile`]s plus spawn points and
/// item spawners.
///
/// Cell `(0, 0)` spans world coordinates `[0, cell_size)²`; the map covers
/// `[0, width·cell_size) × [0, height·cell_size)`. Everything outside the
/// grid is treated as wall.
///
/// # Examples
///
/// ```
/// use watchmen_world::{GameMap, Tile};
/// use watchmen_math::Vec3;
///
/// let mut map = GameMap::filled("empty", 8, 8, 10.0, Tile::default());
/// map.set_tile(4, 4, Tile::Wall);
/// // Wall blocks sight between opposite sides.
/// let a = Vec3::new(25.0, 45.0, 1.0);
/// let b = Vec3::new(65.0, 45.0, 1.0);
/// assert!(!map.line_of_sight(a, b));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GameMap {
    name: String,
    width: usize,
    height: usize,
    cell_size: f64,
    /// Shared between clones until one of them is edited: every node of
    /// a match holds its own `GameMap` of the same arena.
    tiles: Arc<[Tile]>,
    spawn_points: Vec<Vec3>,
    item_spawners: Vec<ItemSpawner>,
}

impl GameMap {
    /// Creates a map filled with a single tile.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero, or `cell_size` is not
    /// positive.
    #[must_use]
    pub fn filled(name: &str, width: usize, height: usize, cell_size: f64, tile: Tile) -> Self {
        assert!(width > 0 && height > 0, "map must be non-empty");
        assert!(cell_size > 0.0, "cell size must be positive");
        GameMap {
            name: name.to_owned(),
            width,
            height,
            cell_size,
            tiles: vec![tile; width * height].into(),
            spawn_points: Vec::new(),
            item_spawners: Vec::new(),
        }
    }

    /// The map's name (e.g. `"q3dm17-like"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
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

    /// Side length of each (square) cell in world units.
    #[must_use]
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// The world-space bounding box of the walkable volume.
    #[must_use]
    pub fn bounds(&self) -> Aabb {
        Aabb::new(
            Vec3::ZERO,
            Vec3::new(
                self.width as f64 * self.cell_size,
                self.height as f64 * self.cell_size,
                200.0,
            ),
        )
    }

    /// The tile at grid coordinates, or [`Tile::Wall`] outside the grid.
    #[must_use]
    pub fn tile(&self, x: i32, y: i32) -> Tile {
        if x < 0 || y < 0 || x as usize >= self.width || y as usize >= self.height {
            Tile::Wall
        } else {
            self.tiles[y as usize * self.width + x as usize]
        }
    }

    /// The tile under a world-space position.
    #[must_use]
    pub fn tile_at(&self, pos: Vec3) -> Tile {
        let c = grid::cell_of(pos, self.cell_size);
        self.tile(c.x, c.y)
    }

    /// Sets a tile.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the grid.
    pub fn set_tile(&mut self, x: usize, y: usize, tile: Tile) {
        assert!(x < self.width && y < self.height, "tile ({x}, {y}) out of range");
        Arc::make_mut(&mut self.tiles)[y * self.width + x] = tile;
    }

    /// Fills the axis-aligned cell rectangle `[x0, x1] × [y0, y1]`
    /// (inclusive) with a tile, clamped to the grid.
    pub fn fill_rect(&mut self, x0: usize, y0: usize, x1: usize, y1: usize, tile: Tile) {
        let tiles = Arc::make_mut(&mut self.tiles);
        for y in y0..=y1.min(self.height - 1) {
            for x in x0..=x1.min(self.width - 1) {
                tiles[y * self.width + x] = tile;
            }
        }
    }

    /// Registers a player spawn point.
    ///
    /// # Panics
    ///
    /// Panics if the point is not on a walkable tile.
    pub fn add_spawn_point(&mut self, pos: Vec3) {
        assert!(self.tile_at(pos).is_walkable(), "spawn point {pos} not walkable");
        self.spawn_points.push(pos);
    }

    /// Registers an item spawner.
    ///
    /// # Panics
    ///
    /// Panics if the spawner's position is not on a walkable tile.
    pub fn add_item_spawner(&mut self, spawner: ItemSpawner) {
        assert!(
            self.tile_at(spawner.position).is_walkable(),
            "item spawner at {} not walkable",
            spawner.position
        );
        self.item_spawners.push(spawner);
    }

    /// The registered spawn points.
    #[must_use]
    pub fn spawn_points(&self) -> &[Vec3] {
        &self.spawn_points
    }

    /// The registered item spawners.
    #[must_use]
    pub fn item_spawners(&self) -> &[ItemSpawner] {
        &self.item_spawners
    }

    /// Returns `true` if the world position is over a walkable tile.
    #[must_use]
    pub fn is_walkable_pos(&self, pos: Vec3) -> bool {
        self.tile_at(pos).is_walkable()
    }

    /// Returns `true` if there is an unobstructed sight line between two
    /// points: no wall tile intersects the 2-D projection of the segment.
    ///
    /// This is the occlusion test behind the paper's vision set: "the
    /// avatars that are in a player's vision range, but behind a wall do
    /// not appear in his vision set".
    #[must_use]
    pub fn line_of_sight(&self, from: Vec3, to: Vec3) -> bool {
        // Allocation-free DDA walk: this runs O(players²) times per frame
        // in the overlay simulations.
        grid::traverse_with(from, to, self.cell_size, |c| !self.tile(c.x, c.y).blocks_sight())
    }

    /// Renders the map as ASCII art (one character per tile, row 0 at the
    /// bottom); spawn points are drawn as `s`, item spawners as `i`.
    #[must_use]
    pub fn to_ascii(&self) -> String {
        let mut rows: Vec<Vec<char>> = (0..self.height)
            .map(|y| {
                (0..self.width)
                    .map(|x| {
                        self.tile(x as i32, y as i32).to_string().chars().next().unwrap_or('?')
                    })
                    .collect()
            })
            .collect();
        for p in &self.spawn_points {
            let c = grid::cell_of(*p, self.cell_size);
            if let Some(ch) = rows.get_mut(c.y as usize).and_then(|row| row.get_mut(c.x as usize)) {
                *ch = 's';
            }
        }
        for s in &self.item_spawners {
            let c = grid::cell_of(s.position, self.cell_size);
            if let Some(ch) = rows.get_mut(c.y as usize).and_then(|row| row.get_mut(c.x as usize)) {
                *ch = 'i';
            }
        }
        rows.into_iter()
            .rev()
            .map(|row| row.into_iter().collect::<String>())
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// The world-space center of the cell containing `pos`, at the cell's
    /// floor height (or unchanged height for non-floor tiles).
    #[must_use]
    pub fn snap_to_floor(&self, pos: Vec3) -> Vec3 {
        let h = self.tile_at(pos).floor_height().unwrap_or(pos.z);
        Vec3::new(pos.x, pos.y, h)
    }
}

impl fmt::Display for GameMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}x{} cells of {:.1} units, {} spawns, {} items)",
            self.name,
            self.width,
            self.height,
            self.cell_size,
            self.spawn_points.len(),
            self.item_spawners.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ItemKind;

    fn open_map() -> GameMap {
        GameMap::filled("test", 10, 10, 10.0, Tile::default())
    }

    #[test]
    fn outside_grid_is_wall() {
        let map = open_map();
        assert_eq!(map.tile(-1, 0), Tile::Wall);
        assert_eq!(map.tile(0, 10), Tile::Wall);
        assert_eq!(map.tile(5, 5), Tile::default());
    }

    #[test]
    fn editing_a_clone_leaves_the_original_alone() {
        let original = open_map();
        let mut edited = original.clone();
        edited.set_tile(2, 3, Tile::Wall);
        edited.fill_rect(6, 6, 7, 7, Tile::Pit);
        assert_eq!(original, open_map());
        assert_eq!(edited.tile(2, 3), Tile::Wall);
        assert_eq!(edited.tile(7, 6), Tile::Pit);
        assert_ne!(edited, original);
    }

    #[test]
    fn tile_at_world_coordinates() {
        let mut map = open_map();
        map.set_tile(2, 3, Tile::Wall);
        assert_eq!(map.tile_at(Vec3::new(25.0, 35.0, 0.0)), Tile::Wall);
        assert_eq!(map.tile_at(Vec3::new(15.0, 35.0, 0.0)), Tile::default());
    }

    #[test]
    fn line_of_sight_open_and_blocked() {
        let mut map = open_map();
        let a = Vec3::new(5.0, 55.0, 1.0);
        let b = Vec3::new(95.0, 55.0, 1.0);
        assert!(map.line_of_sight(a, b));
        map.set_tile(5, 5, Tile::Wall);
        assert!(!map.line_of_sight(a, b));
    }

    #[test]
    fn line_of_sight_crosses_pits() {
        let mut map = open_map();
        map.fill_rect(4, 0, 5, 9, Tile::Pit);
        assert!(map.line_of_sight(Vec3::new(5.0, 55.0, 1.0), Vec3::new(95.0, 55.0, 1.0)));
    }

    #[test]
    fn line_of_sight_outside_map_blocked() {
        let map = open_map();
        assert!(!map.line_of_sight(Vec3::new(5.0, 5.0, 0.0), Vec3::new(-50.0, 5.0, 0.0)));
    }

    #[test]
    fn fill_rect_clamps() {
        let mut map = open_map();
        map.fill_rect(8, 8, 99, 99, Tile::Wall);
        assert_eq!(map.tile(9, 9), Tile::Wall);
        assert_eq!(map.tile(7, 8), Tile::default());
    }

    #[test]
    fn spawn_and_item_registration() {
        let mut map = open_map();
        map.add_spawn_point(Vec3::new(15.0, 15.0, 0.0));
        map.add_item_spawner(ItemSpawner::new(ItemKind::Armor, Vec3::new(55.0, 55.0, 0.0), 60));
        assert_eq!(map.spawn_points().len(), 1);
        assert_eq!(map.item_spawners().len(), 1);
    }

    #[test]
    #[should_panic(expected = "not walkable")]
    fn spawn_on_wall_panics() {
        let mut map = open_map();
        map.set_tile(1, 1, Tile::Wall);
        map.add_spawn_point(Vec3::new(15.0, 15.0, 0.0));
    }

    #[test]
    fn ascii_rendering_marks_features() {
        let mut map = open_map();
        map.set_tile(0, 0, Tile::Wall);
        map.add_spawn_point(Vec3::new(15.0, 15.0, 0.0));
        let art = map.to_ascii();
        assert!(art.contains('#'));
        assert!(art.contains('s'));
        assert_eq!(art.lines().count(), 10);
    }

    #[test]
    fn snap_to_floor_uses_tile_height() {
        let mut map = open_map();
        map.set_tile(1, 1, Tile::Floor { height: 30.0 });
        let p = map.snap_to_floor(Vec3::new(15.0, 15.0, 99.0));
        assert_eq!(p.z, 30.0);
    }

    #[test]
    fn bounds_cover_grid() {
        let map = open_map();
        assert!(map.bounds().contains(Vec3::new(50.0, 50.0, 10.0)));
        assert!(!map.bounds().contains(Vec3::new(150.0, 50.0, 10.0)));
    }

    #[test]
    fn display_mentions_name() {
        assert!(open_map().to_string().contains("test"));
    }
}
