//! Proxy rotation and verifiability across the stack. Handoff continuity
//! is checked on real nodes: `tests/node_protocol.rs` (a teleport across
//! the epoch boundary) and `msg::tests` (the notice digest chain).

use watchmen::core::proxy::ProxySchedule;
use watchmen::game::trace::standard_trace;
use watchmen::game::PlayerId;

#[test]
fn every_node_computes_identical_schedules() {
    // Simulate 48 independent nodes each instantiating the schedule from
    // the common seed: all assignments agree, for all players and epochs.
    let nodes: Vec<ProxySchedule> = (0..48).map(|_| ProxySchedule::new(0xC0FFEE, 48, 40)).collect();
    for frame in [0u64, 39, 40, 999, 12_345] {
        for p in 0..48 {
            let pid = PlayerId(p);
            let expected = nodes[0].proxy_of(pid, frame);
            for node in &nodes[1..] {
                assert_eq!(node.proxy_of(pid, frame), expected);
            }
        }
    }
}

#[test]
fn proxy_rotation_limits_exposure_window() {
    // "A cheating proxy can only disrupt a single other player's updates,
    // only for a very limited period": over many epochs, no player keeps
    // the same proxy for long, and no proxy accumulates many clients.
    let schedule = ProxySchedule::new(7, 48, 40);
    let target = PlayerId(13);
    let mut longest_run = 0u64;
    let mut current_run = 0u64;
    let mut prev = None;
    for epoch in 0..500u64 {
        let proxy = schedule.proxy_of(target, epoch * 40);
        if Some(proxy) == prev {
            current_run += 1;
        } else {
            current_run = 1;
            prev = Some(proxy);
        }
        longest_run = longest_run.max(current_run);
    }
    // Repeated same-proxy epochs happen by chance (p = 1/47) but runs of
    // four would be a broken generator.
    assert!(longest_run <= 3, "same proxy held for {longest_run} consecutive epochs");

    // Load balance across proxy duty.
    for frame in (0..40 * 50).step_by(40) {
        let max_clients =
            (0..48).map(|p| schedule.clients_of(PlayerId(p), frame as u64).len()).max().unwrap();
        assert!(max_clients <= 8, "proxy overloaded with {max_clients} clients");
    }
}

#[test]
fn schedule_is_stable_against_trace_contents() {
    // The schedule depends only on (seed, players, period) — never on
    // game events — so all nodes stay in sync regardless of what they see.
    let t1 = standard_trace(8, 1, 50);
    let t2 = standard_trace(8, 2, 50);
    assert_ne!(t1, t2);
    let s1 = ProxySchedule::new(5, 8, 40);
    let s2 = ProxySchedule::new(5, 8, 40);
    for f in 0..200 {
        for p in 0..8 {
            assert_eq!(s1.proxy_of(PlayerId(p), f), s2.proxy_of(PlayerId(p), f));
        }
    }
}
