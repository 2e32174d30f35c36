//! Built-in maps.
//!
//! [`q3dm17_like`] reproduces the *structure* of Quake III's q3dm17 ("The
//! Longest Yard", the map used throughout the paper's evaluation): a
//! floating arena over a void, with raised platforms reached by jump pads
//! and items concentrated at strategic locations — the ingredients behind
//! Figure 1's presence hotspots.

use watchmen_math::Vec3;

use crate::{GameMap, ItemKind, ItemSpawner, Tile};

/// Standard respawn delay for ordinary items (frames at 20 Hz: 25 s).
const ITEM_RESPAWN: u64 = 500;
/// Respawn delay for the mega health (longer, like Quake III's 35 s).
const MEGA_RESPAWN: u64 = 700;

/// A flat, open square arena of `n × n` cells with walls on the border and
/// four spawn points; useful for tests.
///
/// # Examples
///
/// ```
/// let map = watchmen_world::maps::arena(16, 10.0);
/// assert_eq!(map.width(), 16);
/// assert_eq!(map.spawn_points().len(), 4);
/// ```
///
/// # Panics
///
/// Panics if `n < 4`.
#[must_use]
pub fn arena(n: usize, cell_size: f64) -> GameMap {
    assert!(n >= 4, "arena needs at least 4x4 cells");
    let mut map = GameMap::filled("arena", n, n, cell_size, Tile::default());
    map.fill_rect(0, 0, n - 1, 0, Tile::Wall);
    map.fill_rect(0, n - 1, n - 1, n - 1, Tile::Wall);
    map.fill_rect(0, 0, 0, n - 1, Tile::Wall);
    map.fill_rect(n - 1, 0, n - 1, n - 1, Tile::Wall);
    let c = cell_size;
    let lo = 1.5 * c;
    let hi = (n as f64 - 1.5) * c;
    for pos in [
        Vec3::new(lo, lo, 0.0),
        Vec3::new(hi, lo, 0.0),
        Vec3::new(lo, hi, 0.0),
        Vec3::new(hi, hi, 0.0),
    ] {
        map.add_spawn_point(pos);
    }
    map
}

/// A q3dm17-style floating arena: a 32×24 grid over a void, with a central
/// mega-health platform, two raised side platforms with the best weapons,
/// jump pads linking them, and health/ammo scattered at strategic spots.
///
/// Eight respawn spots sit along the long axis. Items use Quake III-like
/// respawn delays, so bots repeatedly converge on the same places —
/// producing the presence heatmap of Figure 1.
///
/// # Examples
///
/// ```
/// let map = watchmen_world::maps::q3dm17_like();
/// assert!(map.spawn_points().len() >= 8);
/// assert!(map.item_spawners().len() >= 10);
/// ```
#[must_use]
pub fn q3dm17_like() -> GameMap {
    let cell = 10.0;
    let (w, h) = (32usize, 24usize);
    let mut map = GameMap::filled("q3dm17-like", w, h, cell, Tile::Pit);

    // Main deck: a long central platform.
    map.fill_rect(4, 8, 27, 15, Tile::Floor { height: 0.0 });
    // Two side decks (raised).
    map.fill_rect(8, 2, 14, 5, Tile::Floor { height: 20.0 });
    map.fill_rect(17, 18, 23, 21, Tile::Floor { height: 20.0 });
    // Narrow bridges connecting decks to the main platform.
    map.fill_rect(11, 6, 11, 7, Tile::Floor { height: 10.0 });
    map.fill_rect(20, 16, 20, 17, Tile::Floor { height: 10.0 });
    // A handful of wall pillars on the main deck for occlusion.
    map.fill_rect(9, 11, 9, 12, Tile::Wall);
    map.fill_rect(22, 11, 22, 12, Tile::Wall);
    map.fill_rect(15, 9, 16, 9, Tile::Wall);
    map.fill_rect(15, 14, 16, 14, Tile::Wall);
    // Jump pads launching from the main deck toward the side decks.
    map.set_tile(11, 8, Tile::JumpPad { height: 0.0, boost: 45.0 });
    map.set_tile(20, 15, Tile::JumpPad { height: 0.0, boost: 45.0 });
    map.set_tile(6, 12, Tile::JumpPad { height: 0.0, boost: 45.0 });
    map.set_tile(25, 11, Tile::JumpPad { height: 0.0, boost: 45.0 });

    // Respawn spots along the main deck.
    for k in 0..8 {
        let x = (5.5 + k as f64 * 3.0) * cell;
        let y = if k % 2 == 0 { 9.5 } else { 14.5 } * cell;
        map.add_spawn_point(Vec3::new(x, y, 0.0));
    }

    // Items. The center hosts the mega health (the map's main hotspot).
    let items = [
        (ItemKind::MegaHealth, 15.5, 11.5, 0.0, MEGA_RESPAWN),
        (ItemKind::Weapon, 11.5, 3.5, 20.0, ITEM_RESPAWN), // railgun deck
        (ItemKind::Weapon, 20.5, 19.5, 20.0, ITEM_RESPAWN), // rocket deck
        (ItemKind::Armor, 5.5, 11.5, 0.0, ITEM_RESPAWN),
        (ItemKind::Armor, 26.5, 11.5, 0.0, ITEM_RESPAWN),
        (ItemKind::HealthPack, 8.5, 9.5, 0.0, ITEM_RESPAWN / 2),
        (ItemKind::HealthPack, 23.5, 14.5, 0.0, ITEM_RESPAWN / 2),
        (ItemKind::HealthPack, 12.5, 14.5, 0.0, ITEM_RESPAWN / 2),
        (ItemKind::Ammo, 18.5, 9.5, 0.0, ITEM_RESPAWN / 2),
        (ItemKind::Ammo, 13.5, 11.5, 0.0, ITEM_RESPAWN / 2),
        (ItemKind::Ammo, 10.5, 2.5, 20.0, ITEM_RESPAWN / 2),
        (ItemKind::Ammo, 21.5, 20.5, 20.0, ITEM_RESPAWN / 2),
    ];
    for (kind, x, y, z, respawn) in items {
        map.add_item_spawner(ItemSpawner::new(kind, Vec3::new(x * cell, y * cell, z), respawn));
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_is_enclosed() {
        let map = arena(8, 10.0);
        for x in 0..8 {
            assert_eq!(map.tile(x, 0), Tile::Wall);
            assert_eq!(map.tile(x, 7), Tile::Wall);
        }
        assert!(map.tile(4, 4).is_walkable());
    }

    #[test]
    fn q3dm17_spawns_and_items_walkable() {
        let map = q3dm17_like();
        for p in map.spawn_points() {
            assert!(map.is_walkable_pos(*p), "spawn {p} not walkable");
        }
        for s in map.item_spawners() {
            assert!(map.is_walkable_pos(s.position), "item at {} not walkable", s.position);
        }
    }

    #[test]
    fn q3dm17_has_void_and_pads() {
        let map = q3dm17_like();
        assert_eq!(map.tile(0, 0), Tile::Pit);
        let pads = (0..map.width() as i32)
            .flat_map(|x| (0..map.height() as i32).map(move |y| (x, y)))
            .filter(|&(x, y)| matches!(map.tile(x, y), Tile::JumpPad { .. }))
            .count();
        assert!(pads >= 4);
    }

    #[test]
    fn q3dm17_pillars_occlude() {
        let map = q3dm17_like();
        // Points on either side of the pillar at cell (9, 11..12).
        let a = Vec3::new(75.0, 115.0, 1.0);
        let b = Vec3::new(115.0, 115.0, 1.0);
        assert!(!map.line_of_sight(a, b));
        // An unobstructed pair on the main deck.
        let c = Vec3::new(125.0, 125.0, 1.0);
        let d = Vec3::new(185.0, 125.0, 1.0);
        assert!(map.line_of_sight(c, d));
    }

    #[test]
    fn q3dm17_mega_health_is_central() {
        let map = q3dm17_like();
        let mega = map
            .item_spawners()
            .iter()
            .find(|s| s.kind == ItemKind::MegaHealth)
            .expect("mega health present");
        let center = map.bounds().center().horizontal();
        assert!(mega.position.horizontal_distance(center) < 60.0);
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn tiny_arena_panics() {
        let _ = arena(2, 10.0);
    }
}
