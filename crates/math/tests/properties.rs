//! Randomized property tests for the math crate's invariants, driven by
//! the workspace's own deterministic [`Xoshiro256`] generator.

use watchmen_crypto::rng::Xoshiro256;
use watchmen_math::stats::percentile;
use watchmen_math::{grid, wrap_angle, Aim, Cone, Segment, Vec3};

const CASES: usize = 256;

fn f64_in(rng: &mut Xoshiro256, lo: f64, hi: f64) -> f64 {
    lo + rng.next_f64() * (hi - lo)
}

fn small_vec3(rng: &mut Xoshiro256) -> Vec3 {
    Vec3::new(f64_in(rng, -1e3, 1e3), f64_in(rng, -1e3, 1e3), f64_in(rng, -1e3, 1e3))
}

#[test]
fn vec_add_commutes() {
    let mut rng = Xoshiro256::new(1);
    for _ in 0..CASES {
        let (a, b) = (small_vec3(&mut rng), small_vec3(&mut rng));
        assert!((a + b).approx_eq(b + a, 1e-9));
    }
}

#[test]
fn vec_normalized_has_unit_length() {
    let mut rng = Xoshiro256::new(2);
    for _ in 0..CASES {
        let v = small_vec3(&mut rng);
        if let Some(n) = v.normalized() {
            assert!((n.length() - 1.0).abs() < 1e-9);
        }
    }
}

#[test]
fn vec_clamp_length_never_exceeds() {
    let mut rng = Xoshiro256::new(3);
    for _ in 0..CASES {
        let v = small_vec3(&mut rng);
        let cap = f64_in(&mut rng, 0.0, 100.0);
        assert!(v.clamp_length(cap).length() <= cap + 1e-9);
    }
}

#[test]
fn cross_is_orthogonal() {
    let mut rng = Xoshiro256::new(4);
    for _ in 0..CASES {
        let (a, b) = (small_vec3(&mut rng), small_vec3(&mut rng));
        let c = a.cross(b);
        assert!(c.dot(a).abs() < 1e-3);
        assert!(c.dot(b).abs() < 1e-3);
    }
}

#[test]
fn wrap_angle_in_range() {
    let mut rng = Xoshiro256::new(5);
    for _ in 0..CASES {
        let a = f64_in(&mut rng, -100.0, 100.0);
        let w = wrap_angle(a);
        assert!(w > -std::f64::consts::PI - 1e-12 && w <= std::f64::consts::PI + 1e-12);
        // Wrapping preserves the angle modulo 2π.
        let turns = ((a - w) / std::f64::consts::TAU).rem_euclid(1.0);
        assert!(!(1e-6..=1.0 - 1e-6).contains(&turns), "angle {a} wrapped to {w}");
    }
}

#[test]
fn aim_direction_is_unit() {
    let mut rng = Xoshiro256::new(6);
    for _ in 0..CASES {
        let yaw = f64_in(&mut rng, -10.0, 10.0);
        let pitch = f64_in(&mut rng, -2.0, 2.0);
        let d = Aim::new(yaw, pitch).direction();
        assert!((d.length() - 1.0).abs() < 1e-9);
    }
}

#[test]
fn cone_deviation_zero_iff_contains() {
    let mut rng = Xoshiro256::new(7);
    let cone = Cone::new(Vec3::ZERO, Vec3::X, 60f64.to_radians(), 100.0);
    for _ in 0..CASES {
        let p = small_vec3(&mut rng);
        if cone.contains(p) {
            assert_eq!(cone.deviation(p), 0.0);
        } else {
            assert!(cone.deviation(p) > 0.0);
        }
    }
}

#[test]
fn cone_contains_matches_bruteforce() {
    let mut rng = Xoshiro256::new(8);
    let cone = Cone::new(Vec3::ZERO, Vec3::X, 60f64.to_radians(), 100.0);
    for _ in 0..CASES {
        let p = small_vec3(&mut rng);
        let v = p - cone.apex();
        let brute = v.length() <= 100.0
            && (v.length() < 1e-9 || cone.axis().angle_between(v) <= 60f64.to_radians() + 1e-9);
        assert_eq!(cone.contains(p), brute, "at {p:?}");
    }
}

#[test]
fn segment_closest_point_is_closest() {
    let mut rng = Xoshiro256::new(9);
    for _ in 0..CASES {
        let seg = Segment::new(small_vec3(&mut rng), small_vec3(&mut rng));
        let p = small_vec3(&mut rng);
        let d = seg.distance_to_point(p);
        for t in [0.0, 0.1, 0.33, 0.5, 0.77, 1.0] {
            assert!(d <= seg.point_at(t).distance(p) + 1e-9);
        }
    }
}

#[test]
fn dda_traversal_is_4_connected() {
    let mut rng = Xoshiro256::new(10);
    for _ in 0..CASES {
        let from = small_vec3(&mut rng);
        let to = small_vec3(&mut rng);
        let cells = grid::traverse(from, to, 16.0);
        assert_eq!(cells[0], grid::cell_of(from, 16.0));
        for w in cells.windows(2) {
            assert_eq!(w[0].manhattan(w[1]), 1);
        }
    }
}

#[test]
fn percentile_is_monotone() {
    let mut rng = Xoshiro256::new(15);
    for _ in 0..CASES {
        let n = 1 + rng.next_range(99);
        let xs: Vec<f64> = (0..n).map(|_| f64_in(&mut rng, -1e6, 1e6)).collect();
        let p25 = percentile(&xs, 0.25).unwrap();
        let p50 = percentile(&xs, 0.50).unwrap();
        let p75 = percentile(&xs, 0.75).unwrap();
        assert!(p25 <= p50 && p50 <= p75);
    }
}
