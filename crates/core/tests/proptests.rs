//! Property-based tests: clustering invariants and aggregation laws.

use proptest::prelude::*;
use sdflmq_core::{
    build_plan, diff_plans, AggregationMethod, ClientId, ClientInfo, CoordinateMedian, FedAvg,
    PreferredRole, Topology, TrimmedMean,
};
use sdflmq_sim::SystemStats;

fn fleet(n: usize) -> Vec<ClientInfo> {
    (0..n)
        .map(|i| ClientInfo {
            id: ClientId::new(format!("c{i}")).unwrap(),
            stats: SystemStats {
                free_memory: 1 << 28,
                available_flops: 1e9,
                memory_utilization: 0.5,
            },
            preferred: PreferredRole::Any,
            num_samples: 100,
        })
        .collect()
}

fn ranking(n: usize, rotate: usize) -> Vec<ClientId> {
    let mut ids: Vec<ClientId> = (0..n)
        .map(|i| ClientId::new(format!("c{i}")).unwrap())
        .collect();
    ids.rotate_left(rotate % n.max(1));
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Structural invariants hold for every fleet size and ratio:
    /// * every client appears exactly once;
    /// * exactly one root;
    /// * the expected-input ledger balances: inputs expected across all
    ///   aggregators == trainers' uploads + intermediate forwards.
    #[test]
    fn plan_invariants(
        n in 1usize..60,
        ratio in 0.05f64..0.95,
        rotate in 0usize..60,
        central in prop::bool::ANY,
    ) {
        let topo = if central {
            Topology::Central
        } else {
            Topology::Hierarchical { aggregator_ratio: ratio }
        };
        let clients = fleet(n);
        let plan = build_plan(&clients, &topo, &ranking(n, rotate), 1);

        prop_assert_eq!(plan.assignments.len(), n, "everyone assigned once");
        let mut seen = std::collections::HashSet::new();
        for a in &plan.assignments {
            prop_assert!(seen.insert(a.client.clone()), "duplicate assignment");
        }
        let roots = plan
            .assignments
            .iter()
            .filter(|a| a.spec.is_root())
            .count();
        prop_assert_eq!(roots, 1, "exactly one root");

        let total_expected: u32 = plan
            .assignments
            .iter()
            .map(|a| a.spec.expected_inputs)
            .sum();
        let trainers = plan
            .assignments
            .iter()
            .filter(|a| a.spec.role.trains())
            .count() as u32;
        let forwards = plan
            .assignments
            .iter()
            .filter(|a| a.spec.position.is_some() && !a.spec.is_root())
            .count() as u32;
        prop_assert_eq!(total_expected, trainers + forwards, "input ledger balances");
    }

    /// Diffing a plan against itself (any round relabeling) is empty, and
    /// every reported change is a genuine difference.
    #[test]
    fn diff_soundness(
        n in 2usize..40,
        ratio in 0.1f64..0.6,
        rotate in 0usize..40,
    ) {
        let topo = Topology::Hierarchical { aggregator_ratio: ratio };
        let clients = fleet(n);
        let plan1 = build_plan(&clients, &topo, &ranking(n, 0), 1);
        let plan1_next = build_plan(&clients, &topo, &ranking(n, 0), 2);
        prop_assert!(diff_plans(&plan1, &plan1_next).is_empty());

        let plan2 = build_plan(&clients, &topo, &ranking(n, rotate), 2);
        for (client, sdflmq_core::clustering::PlanChange::Set(spec)) in
            diff_plans(&plan1, &plan2)
        {
            let mut old = *plan1.spec_of(&client).unwrap();
            old.round = spec.round;
            prop_assert_ne!(old, spec, "change for {} is real", client);
        }
    }

    /// FedAvg output is coordinate-wise within the min/max envelope of its
    /// inputs (convex combination) and exact for identical inputs.
    #[test]
    fn fedavg_convexity(
        vectors in prop::collection::vec(
            prop::collection::vec(-100.0f32..100.0, 4),
            1..8,
        ),
        weights in prop::collection::vec(1u64..1000, 8),
    ) {
        let inputs: Vec<(&[f32], u64)> = vectors
            .iter()
            .zip(&weights)
            .map(|(v, w)| (v.as_slice(), *w))
            .collect();
        let out = FedAvg.aggregate(&inputs).unwrap();
        for j in 0..4 {
            let lo = inputs.iter().map(|(v, _)| v[j]).fold(f32::INFINITY, f32::min);
            let hi = inputs.iter().map(|(v, _)| v[j]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(out[j] >= lo - 1e-3 && out[j] <= hi + 1e-3,
                "coordinate {j}: {} outside [{lo}, {hi}]", out[j]);
        }
    }

    /// Median and trimmed-mean tolerate a strict minority of arbitrarily
    /// corrupted inputs: the output stays within the honest envelope.
    #[test]
    fn robust_methods_bound_poison(
        honest in prop::collection::vec(-1.0f32..1.0, 3..9),
        poison_value in prop::num::f32::NORMAL,
    ) {
        let n = honest.len();
        let poisoned = n / 3; // strict minority for median
        let vectors: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                if i < poisoned {
                    vec![poison_value.clamp(-1e20, 1e20)]
                } else {
                    vec![honest[i]]
                }
            })
            .collect();
        let inputs: Vec<(&[f32], u64)> =
            vectors.iter().map(|v| (v.as_slice(), 1)).collect();

        let median = CoordinateMedian.aggregate(&inputs).unwrap();
        prop_assert!(median[0] >= -1.0 - 1e-4 && median[0] <= 1.0 + 1e-4,
            "median {} left the honest envelope", median[0]);

        if poisoned > 0 && n >= 5 {
            let trim = TrimmedMean::new(0.34);
            let trimmed = trim.aggregate(&inputs).unwrap();
            prop_assert!(trimmed[0].is_finite());
        }
    }
}

// ---------------------------------------------------------------------
// Virtual-time simulator laws
// ---------------------------------------------------------------------

use sdflmq_core::{simulate, SimConfig, StaticOrder};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Central-topology delay is monotone in client count (the Fig. 8
    /// mechanism), and every round's phases are ordered.
    #[test]
    fn sim_delay_monotone_in_clients(n in 2usize..24) {
        let run = |clients: usize| {
            simulate(SimConfig {
                optimizer: Box::new(StaticOrder),
                rounds: 2,
                ..SimConfig::fig8(clients, Topology::Central)
            })
        };
        let small = run(n);
        let large = run(n + 4);
        prop_assert!(large.total >= small.total,
            "delay must grow with N: {} vs {}", small.total, large.total);
        for r in &large.rounds {
            prop_assert!(r.train_span <= r.agg_span);
            prop_assert!(r.agg_span <= r.round_span);
        }
    }

    /// The simulation is a pure function of its config.
    #[test]
    fn sim_is_deterministic(n in 2usize..16, seed in any::<u64>()) {
        let run = || {
            simulate(SimConfig {
                optimizer: Box::new(StaticOrder),
                rounds: 2,
                seed,
                ..SimConfig::fig8(n, Topology::Hierarchical { aggregator_ratio: 0.3 })
            })
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.total, b.total);
        prop_assert_eq!(a.network_bytes, b.network_bytes);
    }
}

// ---------------------------------------------------------------------
// Wire codec laws: every control-plane message and blob header
// round-trips, re-encoding is byte-exact, every strict prefix of a valid
// frame is refused, and a mangled frame is refused or is itself a
// canonical frame — never a panic.
// ---------------------------------------------------------------------

use sdflmq_core::messages::{
    Blob, ContribMsg, CtrlMsg, JoinRequest, NewSessionRequest, RoundDone, StatsMsg, UpdateMeta,
};
use sdflmq_core::{
    ClientId as WireClientId, ControlMsg, ModelId, MsgKind, Position, Role, RoleSpec, SessionId,
    WireVersion,
};

const CONTROL_KINDS: [MsgKind; 5] = [
    MsgKind::NewSession,
    MsgKind::Join,
    MsgKind::RoundDone,
    MsgKind::Ctrl,
    MsgKind::Contrib,
];

fn wire_id() -> impl Strategy<Value = String> {
    "[a-z0-9_.-]{1,16}"
}

fn stats_msg() -> impl Strategy<Value = StatsMsg> {
    (0u64..(1 << 40), 1e6f64..1e12, 0.0f64..1.0).prop_map(
        |(free_memory, available_flops, memory_utilization)| StatsMsg {
            free_memory,
            available_flops,
            memory_utilization,
        },
    )
}

fn preferred_role() -> impl Strategy<Value = sdflmq_core::PreferredRole> {
    prop_oneof![
        Just(sdflmq_core::PreferredRole::Trainer),
        Just(sdflmq_core::PreferredRole::Aggregator),
        Just(sdflmq_core::PreferredRole::Any),
    ]
}

fn position() -> impl Strategy<Value = Position> {
    prop_oneof![Just(Position::Root), (0u32..64).prop_map(Position::Agg)]
}

fn role_spec() -> impl Strategy<Value = RoleSpec> {
    (
        prop_oneof![
            Just(Role::Trainer),
            Just(Role::Aggregator),
            Just(Role::TrainerAggregator)
        ],
        prop_oneof![Just(None), position().prop_map(Some)],
        position(),
        0u32..1000,
        1u32..10_000,
        0u8..4,
    )
        .prop_map(
            |(role, position, parent, expected_inputs, round, data_codec)| RoleSpec {
                role,
                position,
                parent,
                expected_inputs,
                round,
                data_codec,
            },
        )
}

fn ctrl_msg() -> impl Strategy<Value = CtrlMsg> {
    prop_oneof![
        role_spec().prop_map(CtrlMsg::SetRole),
        Just(CtrlMsg::ResetRole),
        (1u32..10_000).prop_map(|round| CtrlMsg::RoundStart { round }),
        Just(CtrlMsg::SessionComplete),
        "[ -~]{0,40}".prop_map(CtrlMsg::Abort),
        "[ -~]{0,40}".prop_map(|reason| CtrlMsg::Evicted { reason }),
    ]
}

fn control_msg() -> impl Strategy<Value = ControlMsg> {
    prop_oneof![
        (
            wire_id(),
            wire_id(),
            wire_id(),
            1.0f64..1e6,
            1usize..100,
            1usize..100,
            0.0f64..1e4,
            1u32..1000,
            preferred_role(),
            0u8..4
        )
            .prop_map(|(s, c, m, time, lo, hi, wait, rounds, role, codec)| {
                ControlMsg::NewSession(NewSessionRequest {
                    session_id: SessionId::new(s).unwrap(),
                    client_id: WireClientId::new(c).unwrap(),
                    model_name: ModelId::new(m).unwrap(),
                    session_time_secs: time,
                    capacity_min: lo.min(hi),
                    capacity_max: lo.max(hi),
                    waiting_time_secs: wait,
                    fl_rounds: rounds,
                    preferred_role: role,
                    codec,
                })
            }),
        (
            wire_id(),
            wire_id(),
            wire_id(),
            preferred_role(),
            1u64..1_000_000,
            stats_msg(),
            0u8..4
        )
            .prop_map(|(s, c, m, role, samples, stats, codec)| {
                ControlMsg::Join(JoinRequest {
                    session_id: SessionId::new(s).unwrap(),
                    client_id: WireClientId::new(c).unwrap(),
                    model_name: ModelId::new(m).unwrap(),
                    preferred_role: role,
                    num_samples: samples,
                    stats,
                    codec,
                })
            }),
        (wire_id(), wire_id(), 1u32..10_000, stats_msg()).prop_map(|(s, c, round, stats)| {
            ControlMsg::RoundDone(RoundDone {
                session_id: SessionId::new(s).unwrap(),
                client_id: WireClientId::new(c).unwrap(),
                round,
                stats,
            })
        }),
        (wire_id(), ctrl_msg()).prop_map(|(s, msg)| ControlMsg::Ctrl {
            session: SessionId::new(s).unwrap(),
            msg,
        }),
        (wire_id(), wire_id(), 1u32..10_000).prop_map(|(s, c, round)| {
            ControlMsg::Contrib(ContribMsg {
                session_id: SessionId::new(s).unwrap(),
                client_id: WireClientId::new(c).unwrap(),
                round,
            })
        }),
    ]
}

/// A blob with arbitrary update-codec metadata.
fn blob_msg() -> impl Strategy<Value = (Blob, UpdateMeta)> {
    (
        wire_id(),
        "[a-z0-9_]{1,12}",
        1u32..10_000,
        1u64..1_000_000,
        prop::collection::vec(any::<u8>(), 0..64),
        any::<u8>(),
        any::<u64>(),
        any::<u32>(),
    )
        .prop_map(
            |(sid, sender, round, weight, params, codec, elems, delta_base)| {
                let blob = Blob {
                    session_id: SessionId::new(sid).unwrap(),
                    round,
                    sender,
                    weight,
                    params: bytes::Bytes::from(params),
                };
                let update = UpdateMeta {
                    codec,
                    elems,
                    delta_base,
                };
                (blob, update)
            },
        )
}

/// `frame` with one byte flipped (`kind` 0), cut short (1), extended by
/// `tail` (2), or spliced into the tail of `other` (3).
fn mangle(frame: &[u8], other: &[u8], kind: u8, at: u32, byte: u8, tail: &[u8]) -> Vec<u8> {
    let cut = at as usize % (frame.len() + 1);
    match kind {
        0 => {
            let mut f = frame.to_vec();
            f[cut.min(frame.len() - 1)] ^= byte.max(1);
            f
        }
        1 => frame[..cut].to_vec(),
        2 => [frame, tail].concat(),
        _ => [&frame[..cut], &other[(byte as usize) % (other.len() + 1)..]].concat(),
    }
}

/// Decodes a blob frame and, if it decodes, re-encodes it.
fn reencode_blob(frame: &[u8]) -> Option<Vec<u8>> {
    let (blob, update, version) = Blob::decode_update(bytes::Bytes::from(frame.to_vec())).ok()?;
    Some(
        blob.encode_update_into(version, &update, Vec::new())
            .to_vec(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every control-plane message round-trips.
    #[test]
    fn control_messages_roundtrip(msg in control_msg()) {
        let frame = msg.encode();
        let decoded = ControlMsg::decode(msg.kind(), &frame).expect("well-formed frame decodes");
        prop_assert_eq!(&decoded, &msg);
    }

    /// Binary frames are canonical: decode followed by re-encode
    /// reproduces the exact bytes.
    #[test]
    fn binary_frames_are_byte_exact(msg in control_msg()) {
        let frame = msg.encode();
        let decoded = ControlMsg::decode(msg.kind(), &frame).unwrap();
        prop_assert_eq!(&decoded.encode()[..], &frame[..]);
    }

    /// No field is optional: every strict prefix of a valid control frame,
    /// and of a valid blob metadata header, is refused.
    #[test]
    fn every_strict_prefix_is_refused(msg in control_msg(), blob in blob_msg()) {
        let (blob, update) = blob;
        let frame = msg.encode();
        for cut in 0..frame.len() {
            prop_assert!(ControlMsg::decode(msg.kind(), &frame[..cut]).is_err(), "cut at {}", cut);
        }
        let frame = blob.encode_update(&update);
        let meta_len = u32::from_be_bytes(frame[..4].try_into().unwrap()) as usize;
        let (meta, params) = frame[4..].split_at(meta_len);
        for cut in 0..meta_len {
            let short = [&(cut as u32).to_be_bytes()[..], &meta[..cut], params].concat();
            prop_assert!(reencode_blob(&short).is_none(), "meta cut at {}", cut);
        }
        for cut in 0..4 + meta_len {
            prop_assert!(reencode_blob(&frame[..cut]).is_none(), "frame cut at {}", cut);
        }
    }

    /// A flipped, truncated, extended or spliced frame of any kind, or
    /// blob, is refused or decodes to a value that re-encodes to exactly
    /// the mangled bytes. Never a panic.
    #[test]
    fn mangled_frames_are_refused_or_canonical(
        msg in control_msg(),
        other in control_msg(),
        blob in blob_msg(),
        kind in 0u8..4,
        at in any::<u32>(),
        byte in any::<u8>(),
        tail in prop::collection::vec(any::<u8>(), 1..12),
    ) {
        let (blob, update) = blob;
        let other = other.encode();
        let frame = mangle(&msg.encode(), &other, kind, at, byte, &tail);
        for expected in CONTROL_KINDS {
            if let Ok(decoded) = ControlMsg::decode(expected, &frame) {
                prop_assert_eq!(decoded.kind(), expected);
                prop_assert_eq!(&decoded.encode()[..], &frame[..]);
            }
        }
        let frame = mangle(&blob.encode_update(&update), &other, kind, at, byte, &tail);
        if let Some(reencoded) = reencode_blob(&frame) {
            prop_assert_eq!(reencoded, frame);
        }
    }

    /// The decoder never panics on arbitrary bytes, whatever kind it
    /// expects.
    #[test]
    fn decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        for kind in CONTROL_KINDS.into_iter().chain([MsgKind::BlobMeta]) {
            let _ = ControlMsg::decode(kind, &bytes);
        }
        let _ = Blob::decode(bytes::Bytes::from(bytes.clone()));
    }

    /// Blobs round-trip with their update-codec metadata.
    #[test]
    fn blob_metadata_roundtrips(blob in blob_msg()) {
        let (blob, update) = blob;
        let (decoded, got, version) = Blob::decode_update(blob.encode_update(&update)).unwrap();
        prop_assert_eq!(&decoded, &blob);
        prop_assert_eq!(got, update);
        prop_assert_eq!(version, WireVersion::LATEST);
    }
}
