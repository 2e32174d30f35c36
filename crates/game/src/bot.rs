//! Bot AI: the synthetic workload generator.
//!
//! The paper's traces come from Quake III sessions with human players and
//! NPCs; Figure 1 shows both "exhibit exponential presence in some areas of
//! the game, due to their strategic location or presence of important game
//! items", with NPCs "tend\[ing\] to use predetermined paths and locations".
//! These bots reproduce that statistical structure: they chase high-value
//! items (weighted by [`watchmen_world::ItemKind::attraction`]), engage
//! visible enemies, and avoid walls and pits with simple steering.

use std::sync::LazyLock;

use watchmen_crypto::rng::Xoshiro256;
use watchmen_math::{Aim, Vec3};
use watchmen_world::{GameMap, ItemInstance, PhysicsConfig};

use crate::{AvatarState, PlayerId};

/// Engagement range: enemies farther than this are ignored.
const ENGAGE_RANGE: f64 = 140.0;
/// Preferred combat distance.
const PREFERRED_RANGE: f64 = 50.0;
/// How close counts as "reached" for a navigation goal.
const GOAL_RADIUS: f64 = 5.0;
/// `sin_cos` of the turns steering tries, in order, when the way ahead is
/// blocked.
static DETOURS: LazyLock<[(f64, f64); 8]> =
    LazyLock::new(|| [0.5f64, -0.5, 1.0, -1.0, 1.6, -1.6, 2.4, -2.4].map(f64::sin_cos));

/// A read-only snapshot handed to bots each frame.
#[derive(Debug, Clone, Copy)]
pub struct BotView<'a> {
    /// The map.
    pub map: &'a GameMap,
    /// Movement limits (bots plan within them; the session enforces them).
    pub physics: &'a PhysicsConfig,
    /// All avatar states, indexed by player id.
    pub avatars: &'a [AvatarState],
    /// Live item instances, parallel to the map's spawners.
    pub items: &'a [ItemInstance],
    /// The current frame.
    pub frame: u64,
}

/// What a bot wants to do this frame; the session clamps it to the game
/// rules before applying.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BotCommand {
    /// Desired horizontal velocity (will be speed-clamped).
    pub desired_velocity: Vec3,
    /// Desired aim (rotation-rate-clamped).
    pub aim: Aim,
    /// Fire the current weapon if legal.
    pub fire: bool,
    /// Jump if grounded.
    pub jump: bool,
}

impl Default for BotCommand {
    fn default() -> Self {
        BotCommand { desired_velocity: Vec3::ZERO, aim: Aim::default(), fire: false, jump: false }
    }
}

/// Per-bot navigation and combat state.
#[derive(Debug, Clone)]
pub struct BotController {
    id: PlayerId,
    rng: Xoshiro256,
    /// Index of the item spawner currently navigated to.
    goal_item: Option<usize>,
    /// Fallback wander target when no item appeals.
    wander_target: Option<Vec3>,
    /// Aggression in `[0.5, 1.5]`: scales engagement eagerness.
    aggression: f64,
    /// Current strafe direction (+1/−1); persists across frames so combat
    /// movement forms human-like runs rather than per-frame jitter.
    strafe_sign: f64,
    /// Current cruising speed factor; persists until the goal changes.
    speed_factor: f64,
}

impl BotController {
    /// Creates a bot for `id` with personality derived from `seed`.
    #[must_use]
    pub fn new(id: PlayerId, seed: u64) -> Self {
        let mut rng = Xoshiro256::seed_from(seed, 0xb07 ^ u64::from(id.0));
        let aggression = 0.5 + rng.next_f64();
        let strafe_sign = if rng.next_bool(0.5) { 1.0 } else { -1.0 };
        let speed_factor = 0.7 + 0.3 * rng.next_f64();
        BotController {
            id,
            rng,
            goal_item: None,
            wander_target: None,
            aggression,
            strafe_sign,
            speed_factor,
        }
    }

    /// The player this bot controls.
    #[must_use]
    pub fn id(&self) -> PlayerId {
        self.id
    }

    /// Decides this frame's command.
    pub fn decide(&mut self, view: &BotView<'_>) -> BotCommand {
        let me = &view.avatars[self.id.index()];
        if !me.is_alive() {
            return BotCommand::default();
        }

        // Combat: engage the nearest visible living enemy.
        if let Some((enemy_idx, dist)) = self.nearest_visible_enemy(view, me) {
            let enemy = &view.avatars[enemy_idx];
            return self.engage(view, me, enemy, dist);
        }

        // Navigation: head to the current goal, picking a new one if needed.
        let goal = self.current_goal(view, me);
        let to_goal = (goal - me.position).horizontal();
        if to_goal.length() <= GOAL_RADIUS {
            // Arrived; clear so a fresh goal is chosen next frame.
            self.goal_item = None;
            self.wander_target = None;
            self.speed_factor = 0.7 + 0.3 * self.rng.next_f64();
        }
        let dir = self.steer(view, me.position, to_goal);
        let speed = view.physics.max_speed * self.speed_factor;
        BotCommand {
            desired_velocity: dir * speed,
            aim: Aim::from_direction(if dir.length() > 0.1 { dir } else { me.aim.direction() }),
            fire: false,
            jump: false,
        }
    }

    /// The nearest living enemy within `ENGAGE_RANGE × aggression` that is
    /// in line of sight, with its distance. Of enemies at exactly equal
    /// distance the lower id wins.
    ///
    /// One pass in id order keeps the best visible enemy so far and traces
    /// a sight line only for an in-range enemy strictly nearer than it, so
    /// a decision costs O(players) distances plus, in expectation, a few
    /// sight lines (the running minima of the distances). A squared
    /// distance at or above the best's cannot win — `sqrt` is monotone —
    /// so its square root is skipped.
    fn nearest_visible_enemy(&self, view: &BotView<'_>, me: &AvatarState) -> Option<(usize, f64)> {
        let eye = me.position + Vec3::Z * 1.5;
        let range = ENGAGE_RANGE * self.aggression;
        let mut best: Option<(usize, f64)> = None;
        let mut best_squared = f64::INFINITY;
        for (j, a) in view.avatars.iter().enumerate() {
            if j == self.id.index() || !a.is_alive() {
                continue;
            }
            let squared = me.position.distance_squared(a.position);
            if squared >= best_squared {
                continue;
            }
            let d = squared.sqrt();
            if d <= range
                && best.is_none_or(|(_, b)| d < b)
                && view.map.line_of_sight(eye, a.position + Vec3::Z * 1.5)
            {
                best = Some((j, d));
                best_squared = squared;
            }
        }
        best
    }

    /// Combat behaviour: face the enemy (with aim noise), strafe, keep the
    /// preferred range, and fire when roughly on target.
    fn engage(
        &mut self,
        view: &BotView<'_>,
        me: &AvatarState,
        enemy: &AvatarState,
        dist: f64,
    ) -> BotCommand {
        let to_enemy = enemy.position - me.position;
        // Lead moving targets slightly.
        let lead = enemy.velocity * (dist / 400.0);
        let noise_yaw = (self.rng.next_f64() - 0.5) * 0.12;
        let aim = Aim::from_direction(to_enemy + lead).rotated(noise_yaw, 0.0);

        // Strafe perpendicular to the enemy; approach or back off toward
        // the preferred range.
        let forward = to_enemy.horizontal().normalized_or(Vec3::X);
        let side = Vec3::new(-forward.y, forward.x, 0.0);
        // Occasionally reverse the strafe run.
        if self.rng.next_bool(0.04) {
            self.strafe_sign = -self.strafe_sign;
        }
        let strafe_sign = self.strafe_sign;
        let range_push = ((dist - PREFERRED_RANGE) / PREFERRED_RANGE).clamp(-1.0, 1.0);
        let desired = (forward * range_push + side * strafe_sign).normalized_or(side)
            * view.physics.max_speed;
        let desired = self.steer(view, me.position, desired) * view.physics.max_speed;

        // Fire when the current aim is close to the target direction.
        let on_target = me.aim.direction().angle_between(to_enemy) < 0.2;
        BotCommand {
            desired_velocity: desired,
            aim,
            fire: on_target && me.ammo > 0,
            jump: self.rng.next_bool(0.02),
        }
    }

    /// The current navigation goal position, selecting a new one if none.
    fn current_goal(&mut self, view: &BotView<'_>, me: &AvatarState) -> Vec3 {
        if let Some(idx) = self.goal_item {
            let item = &view.items[idx];
            if item.is_available(view.frame) || item.frames_until_available(view.frame) < 100 {
                return item.spawner().position;
            }
            self.goal_item = None;
        }
        if let Some(t) = self.wander_target {
            return t;
        }

        // Choose an available item weighted by attraction / (1 + dist/50),
        // or occasionally wander to a random spawn point.
        if self.rng.next_bool(0.8) && !view.items.is_empty() {
            let weights: Vec<f64> = view
                .items
                .iter()
                .map(|item| {
                    let base = item.spawner().kind.attraction();
                    let d = me.position.distance(item.spawner().position);
                    let avail = if item.is_available(view.frame) { 1.0 } else { 0.2 };
                    base * avail / (1.0 + d / 50.0)
                })
                .collect();
            let total: f64 = weights.iter().sum();
            if total > 0.0 {
                let mut pick = self.rng.next_f64() * total;
                for (i, w) in weights.iter().enumerate() {
                    pick -= w;
                    if pick <= 0.0 {
                        self.goal_item = Some(i);
                        return view.items[i].spawner().position;
                    }
                }
            }
        }
        let spawns = view.map.spawn_points();
        let target = *self.rng.choose(spawns).expect("maps always have spawn points");
        self.wander_target = Some(target);
        target
    }

    /// Obstacle-avoiding steering: prefer the goal direction, but rotate
    /// away from walls, pits and map edges a few steps ahead.
    fn steer(&mut self, view: &BotView<'_>, pos: Vec3, desired: Vec3) -> Vec3 {
        let dir = match desired.horizontal().normalized() {
            Some(d) => d,
            None => return Vec3::ZERO,
        };
        let lookahead = view.physics.max_step(0.05) * 4.0;
        let safe = |d: Vec3| {
            let probe_near = pos + d * (lookahead * 0.5);
            let probe_far = pos + d * lookahead;
            let ok = |p: Vec3| {
                let tile = view.map.tile_at(p);
                // Flying over a pit is fine when airborne high enough;
                // conservative bots treat pits as unsafe at deck level.
                !(tile.blocks_movement() || (tile.is_lethal() && pos.z < 5.0))
            };
            ok(probe_near) && ok(probe_far)
        };
        if safe(dir) {
            return dir;
        }
        for &(s, c) in DETOURS.iter() {
            let rotated = Vec3::new(dir.x * c - dir.y * s, dir.x * s + dir.y * c, 0.0);
            if safe(rotated) {
                return rotated;
            }
        }
        // Boxed in: stop rather than walk into a pit.
        Vec3::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use watchmen_world::maps;

    fn view_fixture<'a>(
        map: &'a GameMap,
        physics: &'a PhysicsConfig,
        avatars: &'a [AvatarState],
        items: &'a [ItemInstance],
    ) -> BotView<'a> {
        BotView { map, physics, avatars, items, frame: 0 }
    }

    #[test]
    fn dead_bots_do_nothing() {
        let map = maps::arena(16, 10.0);
        let physics = PhysicsConfig::default();
        let mut dead = AvatarState::spawn(Vec3::new(50.0, 50.0, 0.0));
        dead.health = 0;
        let avatars = vec![dead];
        let items: Vec<ItemInstance> = Vec::new();
        let mut bot = BotController::new(PlayerId(0), 1);
        let cmd = bot.decide(&view_fixture(&map, &physics, &avatars, &items));
        assert_eq!(cmd, BotCommand::default());
    }

    #[test]
    fn bots_engage_visible_enemies() {
        let map = maps::arena(16, 10.0);
        let physics = PhysicsConfig::default();
        let me = AvatarState::spawn(Vec3::new(50.0, 50.0, 0.0));
        let enemy = AvatarState::spawn(Vec3::new(90.0, 50.0, 0.0));
        let avatars = vec![me, enemy];
        let items: Vec<ItemInstance> = Vec::new();
        let mut bot = BotController::new(PlayerId(0), 2);
        let cmd = bot.decide(&view_fixture(&map, &physics, &avatars, &items));
        // Aim should point roughly at the enemy (east).
        let err = cmd.aim.direction().angle_between(Vec3::X);
        assert!(err < 0.5, "aim error {err}");
    }

    #[test]
    fn bots_navigate_toward_items_when_alone() {
        let map = maps::q3dm17_like();
        let physics = PhysicsConfig::default();
        let avatars = vec![AvatarState::spawn(map.spawn_points()[0])];
        let items: Vec<ItemInstance> =
            map.item_spawners().iter().map(|s| ItemInstance::new(*s)).collect();
        let mut bot = BotController::new(PlayerId(0), 3);
        let cmd = bot.decide(&view_fixture(&map, &physics, &avatars, &items));
        assert!(cmd.desired_velocity.length() > 0.0, "bot should move");
        assert!(!cmd.fire, "nothing to shoot at");
    }

    #[test]
    fn steering_avoids_walls() {
        let mut map = maps::arena(16, 10.0);
        // Wall directly east of the bot.
        map.fill_rect(7, 1, 7, 14, watchmen_world::Tile::Wall);
        let physics = PhysicsConfig::default();
        let pos = Vec3::new(62.0, 75.0, 0.0);
        let avatars = vec![AvatarState::spawn(pos)];
        let items: Vec<ItemInstance> = Vec::new();
        let mut bot = BotController::new(PlayerId(0), 4);
        let view = view_fixture(&map, &physics, &avatars, &items);
        let dir = bot.steer(&view, pos, Vec3::X);
        // Must not head straight into the wall.
        assert!(dir.x < 0.95, "steered into wall: {dir}");
    }

    #[test]
    fn engagement_respects_occlusion() {
        let mut map = maps::arena(16, 10.0);
        map.fill_rect(7, 1, 7, 14, watchmen_world::Tile::Wall);
        let physics = PhysicsConfig::default();
        let me = AvatarState::spawn(Vec3::new(30.0, 75.0, 0.0));
        let enemy = AvatarState::spawn(Vec3::new(120.0, 75.0, 0.0));
        let avatars = vec![me, enemy];
        let bot = BotController::new(PlayerId(0), 5);
        let found =
            bot.nearest_visible_enemy(&view_fixture(&map, &physics, &avatars, &[]), &avatars[0]);
        assert!(found.is_none(), "saw enemy through wall");
    }

    /// Who bot 0, standing at `avatars[0]`, targets on `map`.
    fn target_of(map: &GameMap, avatars: &[AvatarState]) -> Option<(usize, f64)> {
        let physics = PhysicsConfig::default();
        let bot = BotController::new(PlayerId(0), 6);
        bot.nearest_visible_enemy(&view_fixture(map, &physics, avatars, &[]), &avatars[0])
    }

    fn at(x: f64, y: f64) -> AvatarState {
        AvatarState::spawn(Vec3::new(x, y, 0.0))
    }

    #[test]
    fn targeting_takes_the_nearest_visible_living_enemy_in_range() {
        // 640 units a side: room for any aggression's engagement range.
        let open = maps::arena(64, 10.0);
        let me = at(300.0, 300.0);

        // Exactly equal distances: the lower id wins, whichever side it is on.
        assert_eq!(target_of(&open, &[me, at(320.0, 300.0), at(280.0, 300.0)]), Some((1, 20.0)));
        assert_eq!(target_of(&open, &[me, at(280.0, 300.0), at(320.0, 300.0)]), Some((1, 20.0)));
        assert_eq!(
            target_of(&open, &[me, at(350.0, 300.0), at(300.0, 320.0), at(280.0, 300.0)]),
            Some((2, 20.0))
        );

        // Dead enemies are ignored; the next-nearest living one is chosen.
        let mut dead = at(310.0, 300.0);
        dead.health = 0;
        assert_eq!(target_of(&open, &[me, dead, at(300.0, 330.0)]), Some((2, 30.0)));
        assert_eq!(target_of(&open, &[me, dead]), None);

        // The engagement range scales with aggression: just inside is
        // engaged, just beyond is not.
        let range = ENGAGE_RANGE * BotController::new(PlayerId(0), 6).aggression;
        let inside = at(300.0 + range * 0.999, 300.0);
        let beyond = at(300.0, 300.0 - range * 1.001);
        assert_eq!(target_of(&open, &[me, beyond, inside]).map(|(j, _)| j), Some(2));
        assert_eq!(target_of(&open, &[me, beyond]), None);

        // Alone, nothing to target.
        assert_eq!(target_of(&open, &[me]), None);

        // The nearest enemy stands behind a wall: the next-nearest visible
        // one is chosen.
        let mut walled = maps::arena(16, 10.0);
        walled.fill_rect(5, 1, 5, 14, watchmen_world::Tile::Wall);
        let me = at(30.0, 75.0);
        assert_eq!(
            target_of(&walled, &[me, at(70.0, 75.0), at(30.0, 130.0), at(30.0, 25.0)]),
            Some((3, 50.0))
        );
    }
}
