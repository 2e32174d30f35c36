//! Golden bytes for every payload kind, captured from the codec before it
//! was split into one `Wire` impl per payload. Each constant is a whole
//! signed datagram (envelope ‖ 16-byte signature) in hex; a mismatch means
//! an honest wire byte moved. Fix the codec — never regenerate these.

use watchmen_core::dead_reckoning::Guidance;
use watchmen_core::msg::{
    BootstrapEntry, BootstrapSnapshot, Envelope, HandoffNotice, JoinTicket, KillClaim, Payload,
    PositionUpdate, StateUpdate, MAX_BOOTSTRAP_ENTRIES,
};
use watchmen_core::subscription::SetKind;
use watchmen_crypto::schnorr::Keypair;
use watchmen_game::{PlayerId, WeaponKind};
use watchmen_math::{Aim, Vec3};

const WEAPONS: [WeaponKind; 4] =
    [WeaponKind::MachineGun, WeaponKind::Shotgun, WeaponKind::RocketLauncher, WeaponKind::Railgun];

fn state(k: u32) -> StateUpdate {
    let x = f64::from(k);
    StateUpdate {
        position: Vec3::new(12.5 + x, -3.25, 0.875),
        velocity: Vec3::new(-1.5, 320.0, -x),
        aim: Aim::new(0.7 - 0.5 * x, -0.2),
        health: 85 - k as i32,
        armor: 40,
        weapon: WEAPONS[k as usize % 4],
        ammo: 7 + k,
    }
}

fn handoff() -> HandoffNotice {
    HandoffNotice {
        player: PlayerId(6),
        epoch: 3,
        observed_frame: 117,
        last_state: state(1),
        worst_rating: 2,
        updates_seen: 40,
        predecessor_digest: std::array::from_fn(|i| i as u8 * 7),
    }
}

fn ticket() -> JoinTicket {
    JoinTicket::issue(&Keypair::generate(1000), PlayerId(16), Keypair::generate(1001).public(), 200)
}

fn bootstrap(entries: u32) -> BootstrapSnapshot {
    let mut s = BootstrapSnapshot::new(3);
    for k in 0..entries {
        s.push(BootstrapEntry {
            player: PlayerId(k * 2),
            frame: 140 + u64::from(k),
            state: state(k),
        });
    }
    s
}

/// Each datagram's `Payload::label`, in tag order (Bootstrap twice).
const LABELS: &str = "state position guidance subscribe unsubscribe kill-claim handoff ack \
                      leave join bootstrap bootstrap evict";

/// One payload per kind, Bootstrap both empty and full.
fn payloads() -> Vec<Payload> {
    vec![
        Payload::State(state(0)),
        Payload::Position(PositionUpdate { position: Vec3::new(9.0, -8.5, 7.25) }),
        Payload::Guidance(Guidance {
            position: Vec3::new(1.0, 2.0, 3.0),
            velocity: Vec3::X,
            aim: Aim::new(-2.5, 0.4),
            predicted_position: Vec3::new(2.0, 2.0, 3.0),
            frame: 123,
        }),
        Payload::Subscribe { target: PlayerId(9), kind: SetKind::Vision },
        Payload::Unsubscribe { target: PlayerId(3), kind: SetKind::Others },
        Payload::Kill(KillClaim {
            victim: PlayerId(4),
            weapon: WeaponKind::Shotgun,
            attacker_position: Vec3::new(1.0, 1.0, 0.0),
            victim_position: Vec3::new(5.0, 1.5, -0.5),
        }),
        Payload::Handoff(handoff()),
        Payload::Ack { ack_seq: 77 },
        Payload::Leave { effective_frame: 160 },
        Payload::Join(ticket()),
        Payload::Bootstrap(bootstrap(0)),
        Payload::Bootstrap(bootstrap(MAX_BOOTSTRAP_ENTRIES as u32)),
        Payload::Evict { player: PlayerId(11), effective_frame: 240 },
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn every_kind_signs_to_its_golden_bytes() {
    let keys = Keypair::generate(2013);
    let payloads = payloads();
    assert_eq!(payloads.len(), GOLDEN.len());
    let labels: Vec<&str> = LABELS.split(' ').collect();
    for (i, (payload, want)) in payloads.into_iter().zip(GOLDEN).enumerate() {
        let label = payload.label();
        assert_eq!(label, labels[i], "the tag table moved");
        let env =
            Envelope { from: PlayerId(5), seq: 1000 + i as u64, frame: 4177 + i as u64, payload };
        let bytes = env.sign(&keys).encode();
        assert_eq!(hex(&bytes), want, "the {label} datagram (#{i}) moved");
        assert_eq!(env.sign_encoded(&keys), bytes, "{label}: the one-pass signer disagrees");
    }
}

#[test]
fn handoff_digest_and_ticket_signing_bytes_are_golden() {
    assert_eq!(hex(&handoff().digest()), HANDOFF_DIGEST);
    let t = ticket();
    assert_eq!(
        hex(&JoinTicket::signing_bytes(t.player, t.key, t.admit_frame)),
        TICKET_SIGNING_BYTES
    );
}

const GOLDEN: [&str; 13] = [
    "\
        0000000500000000000003e80000000000001051004029000000000000c00a00\
        00000000003fec000000000000bff80000000000004074000000000000800000\
        00000000003fe6666666666666bfc999999999999a0000005500000028000000\
        000712b1ed21d84f7a6315feefad71cbf5e9",
    "\
        0000000500000000000003e90000000000001052014022000000000000c02100\
        0000000000401d00000000000015a521508735f49d18d521c5f7a3bece",
    "\
        0000000500000000000003ea0000000000001053023ff0000000000000400000\
        000000000040080000000000003ff00000000000000000000000000000000000\
        0000000000c0040000000000003fd999999999999a4000000000000000400000\
        00000000004008000000000000000000000000007b1a8199f551a7e45d044038\
        1155c35cd4",
    "\
        0000000500000000000003eb000000000000105403000000090109d0f47deaef\
        bf6d0418595968e1b9b1",
    "\
        0000000500000000000003ec000000000000105504000000030216b8b605dbbd\
        44b70212692e3b25ecd5",
    "\
        0000000500000000000003ed00000000000010560500000004013ff000000000\
        00003ff0000000000000000000000000000040140000000000003ff800000000\
        0000bfe000000000000001f5dbe12338a34f1c8081b554f1096f",
    "\
        0000000500000000000003ee0000000000001057060000000600000000000000\
        030000000000000075402b000000000000c00a0000000000003fec0000000000\
        00bff80000000000004074000000000000bff00000000000003fc99999999999\
        98bfc999999999999a00000054000000280100000008020000002800070e151c\
        232a31383f464d545b626970777e858c939aa1a8afb6bdc4cbd2d91012b4b419\
        51f72b1b94dd2ef9070d8c",
    "\
        0000000500000000000003ef000000000000105807000000000000004d00acf6\
        16a9ff7219096465b9dec92a23",
    "\
        0000000500000000000003f000000000000010590800000000000000a01e273f\
        f02cd6221e11ec6eb3c17a3c69",
    "\
        0000000500000000000003f1000000000000105a090000001016208341c19c8e\
        2900000000000000c81c364d89e4e023061e08ca0657ca50bc09c693b5ebf3da\
        a00d2431a80b8f9014",
    "\
        0000000500000000000003f2000000000000105b0a0000000000000003001879\
        850b17afd6a21733551de8a2efb9",
    "\
        0000000500000000000003f3000000000000105c0a0000000000000003080000\
        0000000000000000008c4029000000000000c00a0000000000003fec00000000\
        0000bff8000000000000407400000000000080000000000000003fe666666666\
        6666bfc999999999999a00000055000000280000000007000000020000000000\
        00008d402b000000000000c00a0000000000003fec000000000000bff8000000\
        0000004074000000000000bff00000000000003fc9999999999998bfc9999999\
        99999a0000005400000028010000000800000004000000000000008e402d0000\
        00000000c00a0000000000003fec000000000000bff800000000000040740000\
        00000000c000000000000000bfd3333333333334bfc999999999999a00000053\
        00000028020000000900000006000000000000008f402f000000000000c00a00\
        00000000003fec000000000000bff80000000000004074000000000000c00800\
        0000000000bfe999999999999abfc999999999999a0000005200000028030000\
        000a0000000800000000000000904030800000000000c00a0000000000003fec\
        000000000000bff80000000000004074000000000000c010000000000000bff4\
        cccccccccccdbfc999999999999a0000005100000028000000000b0000000a00\
        000000000000914031800000000000c00a0000000000003fec000000000000bf\
        f80000000000004074000000000000c014000000000000bffccccccccccccdbf\
        c999999999999a0000005000000028010000000c0000000c0000000000000092\
        4032800000000000c00a0000000000003fec000000000000bff8000000000000\
        4074000000000000c018000000000000c002666666666666bfc999999999999a\
        0000004f00000028020000000d0000000e000000000000009340338000000000\
        00c00a0000000000003fec000000000000bff800000000000040740000000000\
        00c01c000000000000c006666666666666bfc999999999999a0000004e000000\
        28030000000e0121fb42eb43809202fa584bcc0a968d",
    "\
        0000000500000000000003f4000000000000105d0b0000000b00000000000000\
        f00cb905ba3686d02111025dfee76614e2",
];

const HANDOFF_DIGEST: &str = "aa74294dad35769c991cacce9cd46ddf7e324394830c1678baf95b323d8052da";

const TICKET_SIGNING_BYTES: &str = "0000001016208341c19c8e2900000000000000c8";
