//! The deathmatch session loop.

use watchmen_crypto::rng::Xoshiro256;
use watchmen_math::Vec3;
use watchmen_world::{maps, step_movement, GameMap, ItemInstance, PhysicsConfig};

use crate::bot::{BotCommand, BotController, BotView};
use crate::{AvatarState, GameEvent, PlayerId};

/// Frame duration in milliseconds: Quake III's 20 Hz server frame.
pub const FRAME_MILLIS: u64 = 50;
/// Frame duration in seconds.
pub const FRAME_SECONDS: f64 = 0.05;

/// Pickup radius around item spawners.
const PICKUP_RADIUS: f64 = 4.0;
/// Frames a rocket flies before fizzling: bounded by the weapon's rated
/// range so game behaviour matches the kill-verification contract.
fn rocket_lifetime_frames(weapon: crate::WeaponKind) -> u64 {
    let speed = weapon.projectile_speed().unwrap_or(1.0);
    (weapon.max_range() / (speed * FRAME_SECONDS)).ceil() as u64
}

/// Session-wide configuration.
#[derive(Debug, Clone)]
pub struct GameConfig {
    /// The map to play on.
    pub map: GameMap,
    /// Movement limits.
    pub physics: PhysicsConfig,
    /// Frames a dead avatar waits before respawning (2 s by default).
    pub respawn_delay: u64,
    /// Bot aim error in radians (0 = perfect).
    pub bot_aim_noise: f64,
}

impl Default for GameConfig {
    fn default() -> Self {
        GameConfig {
            map: maps::q3dm17_like(),
            physics: PhysicsConfig::default(),
            respawn_delay: 40,
            bot_aim_noise: 0.06,
        }
    }
}

/// An in-flight rocket projectile.
#[derive(Debug, Clone, Copy)]
struct Rocket {
    owner: PlayerId,
    position: Vec3,
    direction: Vec3,
    speed: f64,
    expires_at: u64,
}

/// A running deathmatch: avatars, items, projectiles and bot controllers,
/// advanced one 50 ms frame at a time.
///
/// The session is fully deterministic for a given seed, which is what
/// makes the recorded traces reproducible experiment inputs.
///
/// # Examples
///
/// ```
/// use watchmen_game::{GameConfig, GameSession};
///
/// let mut s = GameSession::deathmatch(GameConfig::default(), 4, 1);
/// let events = s.step().to_vec();
/// assert_eq!(s.frame(), 1);
/// drop(events);
/// ```
#[derive(Debug)]
pub struct GameSession {
    config: GameConfig,
    frame: u64,
    avatars: Vec<AvatarState>,
    /// Frame at which a dead avatar respawns (`None` while alive).
    respawn_at: Vec<Option<u64>>,
    /// Earliest frame each avatar may fire again.
    next_fire: Vec<u64>,
    items: Vec<ItemInstance>,
    rockets: Vec<Rocket>,
    bots: Vec<BotController>,
    rng: Xoshiro256,
    /// The last frame's events; the buffer is reused from frame to frame,
    /// as are the two below.
    last_events: Vec<GameEvent>,
    commands: Vec<BotCommand>,
    /// Rockets that exploded this frame, with where they blew up.
    exploded: Vec<(Rocket, Vec3)>,
}

impl GameSession {
    /// Creates a deathmatch with `players` bot-controlled avatars spread
    /// over the map's spawn points.
    ///
    /// # Panics
    ///
    /// Panics if `players == 0` or the map has no spawn points.
    #[must_use]
    pub fn deathmatch(config: GameConfig, players: usize, seed: u64) -> Self {
        assert!(players > 0, "need at least one player");
        assert!(!config.map.spawn_points().is_empty(), "map has no spawn points");
        let mut rng = Xoshiro256::seed_from(seed, 0x6a4e);
        let spawns = config.map.spawn_points();
        let avatars: Vec<AvatarState> = (0..players)
            .map(|i| {
                let base = spawns[i % spawns.len()];
                // Jitter so stacked players separate.
                let jitter = Vec3::new(rng.next_f64() * 4.0 - 2.0, rng.next_f64() * 4.0 - 2.0, 0.0);
                AvatarState::spawn(config.map.snap_to_floor(base + jitter))
            })
            .collect();
        let items = config.map.item_spawners().iter().map(|s| ItemInstance::new(*s)).collect();
        let bots =
            (0..players).map(|i| BotController::new(PlayerId(i as u32), seed ^ i as u64)).collect();
        GameSession {
            config,
            frame: 0,
            avatars,
            respawn_at: vec![None; players],
            next_fire: vec![0; players],
            items,
            rockets: Vec::new(),
            bots,
            rng,
            last_events: Vec::new(),
            commands: Vec::new(),
            exploded: Vec::new(),
        }
    }

    /// The current frame number (frames completed so far).
    #[must_use]
    pub fn frame(&self) -> u64 {
        self.frame
    }

    /// All avatar states, indexed by player id.
    #[must_use]
    pub fn avatars(&self) -> &[AvatarState] {
        &self.avatars
    }

    /// One avatar's state.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn avatar(&self, id: PlayerId) -> &AvatarState {
        &self.avatars[id.index()]
    }

    /// The map in play.
    #[must_use]
    pub fn map(&self) -> &GameMap {
        &self.config.map
    }

    /// The session configuration.
    #[must_use]
    pub fn config(&self) -> &GameConfig {
        &self.config
    }

    /// The events emitted by the most recent [`GameSession::step`].
    #[must_use]
    pub fn last_events(&self) -> &[GameEvent] {
        &self.last_events
    }

    /// Advances one frame: bots decide, movement integrates, projectiles
    /// fly, pickups and respawns resolve. Returns the frame's events.
    pub fn step(&mut self) -> &[GameEvent] {
        let mut events = std::mem::take(&mut self.last_events);
        events.clear();
        let dt = FRAME_SECONDS;

        // 1. Bot decisions against a read-only view of the world.
        let mut commands = std::mem::take(&mut self.commands);
        commands.clear();
        let view = BotView {
            map: &self.config.map,
            physics: &self.config.physics,
            avatars: &self.avatars,
            items: &self.items,
            frame: self.frame,
        };
        commands.extend(self.bots.iter_mut().map(|b| b.decide(&view)));

        // 2. Apply commands: aim (angular-speed clamped), movement, firing.
        for (i, cmd) in commands.iter().enumerate() {
            if !self.avatars[i].is_alive() {
                continue;
            }
            // Clamp aim rotation to the legal angular speed.
            let current = self.avatars[i].aim;
            let max_turn = self.config.physics.max_turn(dt);
            let d_yaw =
                watchmen_math::wrap_angle(cmd.aim.yaw() - current.yaw()).clamp(-max_turn, max_turn);
            let d_pitch = (cmd.aim.pitch() - current.pitch()).clamp(-max_turn, max_turn);
            self.avatars[i].aim = current.rotated(d_yaw, d_pitch);

            // Movement (with jump): horizontal velocity changes are
            // limited to the legal acceleration, so honest motion always
            // satisfies the verification contract.
            let dt_accel = self.config.physics.max_accel * dt;
            let current_h = self.avatars[i].velocity.horizontal();
            let desired_h =
                cmd.desired_velocity.horizontal().clamp_length(self.config.physics.max_speed);
            let mut velocity = current_h + (desired_h - current_h).clamp_length(dt_accel);
            let grounded = {
                let pos = self.avatars[i].position;
                let floor = self.config.map.tile_at(pos).floor_height().unwrap_or(0.0);
                pos.z <= floor + 1e-9
            };
            velocity.z = self.avatars[i].velocity.z;
            if cmd.jump && grounded {
                velocity.z = self.config.physics.jump_speed;
            }
            let out = step_movement(
                &self.config.map,
                &self.config.physics,
                self.avatars[i].position,
                velocity,
                dt,
            );
            self.avatars[i].position = out.position;
            self.avatars[i].velocity = out.velocity;
            if out.fell_in_pit {
                let victim = PlayerId(i as u32);
                events.push(GameEvent::Fall { victim });
                self.avatars[i].health = 0;
                self.avatars[i].score -= 1;
                self.respawn_at[i] = Some(self.frame + self.config.respawn_delay);
                continue;
            }

            // Firing.
            if cmd.fire
                && self.frame >= self.next_fire[i]
                && self.avatars[i].ammo > 0
                && self.avatars[i].is_alive()
            {
                let weapon = self.avatars[i].weapon;
                self.next_fire[i] = self.frame + weapon.fire_period_frames();
                self.avatars[i].ammo -= 1;
                let origin = self.avatars[i].position + Vec3::Z * 1.5;
                let direction = self.avatars[i].aim.direction();
                let attacker = PlayerId(i as u32);
                events.push(GameEvent::Shot { attacker, weapon, origin, direction });
                if let Some(speed) = weapon.projectile_speed() {
                    self.rockets.push(Rocket {
                        owner: attacker,
                        position: origin,
                        direction,
                        speed,
                        expires_at: self.frame + rocket_lifetime_frames(weapon),
                    });
                } else {
                    self.resolve_hitscan(attacker, origin, direction, &mut events);
                }
            }
        }

        // 3. Projectiles.
        self.step_rockets(&mut events);

        // 4. Item pickups.
        for i in 0..self.avatars.len() {
            if !self.avatars[i].is_alive() {
                continue;
            }
            let pos = self.avatars[i].position;
            for (s, item) in self.items.iter_mut().enumerate() {
                if item.is_available(self.frame)
                    && pos.distance(item.spawner().position) <= PICKUP_RADIUS
                {
                    if let Some(kind) = item.try_pickup(self.frame) {
                        self.avatars[i].apply_pickup(kind);
                        events.push(GameEvent::Pickup {
                            player: PlayerId(i as u32),
                            kind,
                            spawner: s,
                        });
                    }
                }
            }
        }

        // 5. Respawns.
        for i in 0..self.avatars.len() {
            if let Some(at) = self.respawn_at[i] {
                if self.frame >= at {
                    let spawns = self.config.map.spawn_points();
                    let pick = self.rng.next_range(spawns.len() as u64) as usize;
                    let pos = self.config.map.snap_to_floor(spawns[pick]);
                    self.avatars[i].respawn_at(pos);
                    self.respawn_at[i] = None;
                    events.push(GameEvent::Respawn { player: PlayerId(i as u32), position: pos });
                }
            }
        }

        self.frame += 1;
        self.commands = commands;
        self.last_events = events;
        &self.last_events
    }

    /// Resolves an instant-hit shot: the closest living avatar within range
    /// whose center is near the aim ray and in line of sight takes damage.
    fn resolve_hitscan(
        &mut self,
        attacker: PlayerId,
        origin: Vec3,
        direction: Vec3,
        events: &mut Vec<GameEvent>,
    ) {
        let weapon = self.avatars[attacker.index()].weapon;
        let ray = watchmen_math::Ray::new(origin, direction);
        let mut best: Option<(usize, f64)> = None;
        for (j, target) in self.avatars.iter().enumerate() {
            if j == attacker.index() || !target.is_alive() {
                continue;
            }
            let center = target.position + Vec3::Z * 1.5;
            let along = ray.closest_parameter(center);
            if along > weapon.max_range() {
                continue;
            }
            if ray.distance_to_point(center) > self.config.physics.avatar_radius
                || best.is_some_and(|(_, d)| along >= d)
            {
                continue;
            }
            if self.config.map.line_of_sight(origin, center) {
                best = Some((j, along));
            }
        }
        if let Some((j, _)) = best {
            self.apply_hit(attacker, PlayerId(j as u32), weapon.damage(), events);
        }
    }

    /// Applies damage from `attacker` to `victim`, emitting Hit/Kill
    /// events and scheduling the respawn on death.
    fn apply_hit(
        &mut self,
        attacker: PlayerId,
        victim: PlayerId,
        damage: i32,
        events: &mut Vec<GameEvent>,
    ) {
        let weapon = self.avatars[attacker.index()].weapon;
        let distance =
            self.avatars[attacker.index()].position.distance(self.avatars[victim.index()].position);
        let killed = self.avatars[victim.index()].apply_damage(damage);
        let dealt = damage;
        events.push(GameEvent::Hit { attacker, target: victim, weapon, damage: dealt, distance });
        if killed {
            events.push(GameEvent::Kill { attacker, victim, weapon, distance });
            if attacker == victim {
                self.avatars[attacker.index()].score -= 1;
            } else {
                self.avatars[attacker.index()].score += 1;
            }
            self.respawn_at[victim.index()] = Some(self.frame + self.config.respawn_delay);
        }
    }

    /// Moves rockets, exploding on contact, wall or timeout.
    fn step_rockets(&mut self, events: &mut Vec<GameEvent>) {
        let dt = FRAME_SECONDS;
        let mut exploded = std::mem::take(&mut self.exploded);
        let (map, physics, avatars, frame) =
            (&self.config.map, &self.config.physics, &self.avatars, self.frame);
        self.rockets.retain_mut(|r| {
            let next = r.position + r.direction * (r.speed * dt);
            let hit_wall = !map.line_of_sight(r.position, next);
            let mut hit_avatar = false;
            for (j, target) in avatars.iter().enumerate() {
                if j == r.owner.index() || !target.is_alive() {
                    continue;
                }
                let center = target.position + Vec3::Z * 1.5;
                let seg = watchmen_math::Segment::new(r.position, next);
                if seg.distance_to_point(center) <= physics.avatar_radius {
                    hit_avatar = true;
                    break;
                }
            }
            if hit_wall || hit_avatar || frame >= r.expires_at {
                exploded.push((*r, next));
                false
            } else {
                r.position = next;
                true
            }
        });

        for &(r, at) in &exploded {
            let weapon = crate::WeaponKind::RocketLauncher;
            let splash = weapon.splash_radius();
            for j in 0..self.avatars.len() {
                if !self.avatars[j].is_alive() {
                    continue;
                }
                let center = self.avatars[j].position + Vec3::Z * 1.5;
                let d = center.distance(at);
                if d <= splash {
                    let falloff = 1.0 - (d / splash) * 0.5;
                    let damage = (weapon.damage() as f64 * falloff) as i32;
                    self.apply_hit(r.owner, PlayerId(j as u32), damage.max(1), events);
                }
            }
        }
        exploded.clear();
        self.exploded = exploded;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_session(players: usize, seed: u64) -> GameSession {
        let config = GameConfig { map: maps::arena(16, 10.0), ..GameConfig::default() };
        GameSession::deathmatch(config, players, seed)
    }

    #[test]
    fn frames_advance() {
        let mut s = small_session(4, 1);
        for _ in 0..10 {
            s.step();
        }
        assert_eq!(s.frame(), 10);
    }

    #[test]
    fn determinism_same_seed() {
        let mut a = small_session(6, 7);
        let mut b = small_session(6, 7);
        for _ in 0..200 {
            a.step();
            b.step();
        }
        for (x, y) in a.avatars().iter().zip(b.avatars()) {
            assert_eq!(x.position, y.position);
            assert_eq!(x.health, y.health);
            assert_eq!(x.score, y.score);
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = small_session(6, 1);
        let mut b = small_session(6, 2);
        for _ in 0..100 {
            a.step();
            b.step();
        }
        let same =
            a.avatars().iter().zip(b.avatars()).filter(|(x, y)| x.position == y.position).count();
        assert!(same < 6, "seeds produced identical games");
    }

    #[test]
    fn positions_stay_on_walkable_or_airborne() {
        let mut s = small_session(8, 3);
        for _ in 0..300 {
            s.step();
            for a in s.avatars() {
                if a.is_alive() {
                    assert!(
                        !s.map().tile_at(a.position).blocks_movement(),
                        "avatar inside wall at {}",
                        a.position
                    );
                }
            }
        }
    }

    #[test]
    fn speeds_respect_physics() {
        let mut s = small_session(8, 4);
        let mut prev: Vec<Vec3> = s.avatars().iter().map(|a| a.position).collect();
        let max_step = s.config().physics.max_step(FRAME_SECONDS);
        for _ in 0..200 {
            let events = s.step().to_vec();
            let respawned: Vec<usize> = events
                .iter()
                .filter_map(|e| match e {
                    GameEvent::Respawn { player, .. } => Some(player.index()),
                    _ => None,
                })
                .collect();
            for (i, a) in s.avatars().iter().enumerate() {
                if respawned.contains(&i) {
                    continue; // teleport, not movement
                }
                let moved = a.position.horizontal_distance(prev[i]);
                assert!(moved <= max_step + 1e-6, "p{i} moved {moved} > {max_step}");
            }
            prev = s.avatars().iter().map(|a| a.position).collect();
        }
    }

    #[test]
    fn combat_eventually_happens() {
        let mut s = small_session(8, 5);
        let mut shots = 0;
        let mut hits = 0;
        for _ in 0..2000 {
            for e in s.step() {
                match e {
                    GameEvent::Shot { .. } => shots += 1,
                    GameEvent::Hit { .. } => hits += 1,
                    _ => {}
                }
            }
        }
        assert!(shots > 0, "no shots in 2000 frames");
        assert!(hits > 0, "no hits in 2000 frames");
    }

    #[test]
    fn kills_update_score_and_respawn() {
        let mut s = small_session(8, 6);
        let mut saw_kill = false;
        for _ in 0..4000 {
            let events = s.step().to_vec();
            for e in &events {
                if let GameEvent::Kill { attacker, victim, .. } = e {
                    saw_kill = true;
                    assert_ne!(attacker, victim);
                    assert!(!s.avatar(*victim).is_alive());
                }
            }
            if saw_kill {
                break;
            }
        }
        assert!(saw_kill, "no kill in 4000 frames");
        // Everyone respawns eventually (new deaths can happen meanwhile,
        // so poll for a frame where all are alive).
        let mut all_alive = false;
        for _ in 0..300 {
            s.step();
            if s.avatars().iter().all(AvatarState::is_alive) {
                all_alive = true;
                break;
            }
        }
        assert!(all_alive, "someone never respawned");
    }

    #[test]
    fn q3dm17_session_runs() {
        let mut s = GameSession::deathmatch(GameConfig::default(), 16, 11);
        let mut pickups = 0;
        for _ in 0..1500 {
            for e in s.step() {
                if matches!(e, GameEvent::Pickup { .. }) {
                    pickups += 1;
                }
            }
        }
        assert!(pickups > 0, "no item pickups on q3dm17-like in 1500 frames");
    }

    #[test]
    #[should_panic(expected = "at least one player")]
    fn zero_players_panics() {
        let _ = small_session(0, 1);
    }
}
