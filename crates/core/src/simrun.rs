//! Virtual-time SDFL round simulator.
//!
//! Reproduces the paper's delay experiments (Fig. 8) deterministically: the
//! same clustering engine and role optimizers as the threaded runtime, but
//! time comes from the `sdflmq-sim` models instead of wall clocks —
//! training time from the per-client CPU model, transfer time from
//! FIFO-contended access links, aggregation time from the memory-pressure
//! model. That preserves the paper's mechanism (a central aggregator
//! serializes N ingest transfers and pays memory pressure; hierarchical
//! aggregation parallelizes both); the `core::simrun` row of "Why there are
//! still two" in `docs/ARCHITECTURE.md` says what modelled time is for.

use crate::clustering::{build_plan, diff_plans, ClientInfo, ClusterPlan, Topology};
use crate::ids::ClientId;
use crate::messages::{Blob, CtrlMsg, RoundDone, StatsMsg, UpdateMeta};
use crate::optimizer::RoleOptimizer;
use crate::roles::{PreferredRole, Role, RoleSpec};
use crate::topics::Position;
use crate::wirecodec::ControlMsg;
use bytes::Bytes;
use sdflmq_nn::codec::UpdateCodec;
use sdflmq_sim::{ClientSystem, Network, NodeLink, SimDuration, SimTime, SystemSpec};
use std::collections::HashMap;

const MS: u64 = 1_000_000;
/// Per-link propagation latency.
const LINK_LATENCY: SimDuration = SimDuration::from_nanos(5 * MS);
/// Broker forwarding overhead per message.
const BROKER_FORWARD: SimDuration = SimDuration::from_nanos(2 * MS);
/// Added latency for each cross-region (bridged) message.
const BRIDGE_HOP: SimDuration = SimDuration::from_nanos(20 * MS);
/// Virtual time the coordinator needs to notice a dropout and re-delegate
/// (deadline + grace stand-in); charged once per round with at least one
/// eviction.
const EVICTION_DETECT: SimDuration = SimDuration::from_nanos(500 * MS);

/// Parameters for a simulated deployment.
///
/// Start from [`SimConfig::fig8`] (the paper baseline) and override with
/// struct update: `SimConfig { rounds: 3, ..SimConfig::fig8(n, topology) }`.
pub struct SimConfig {
    /// Number of contributing clients.
    pub num_clients: usize,
    /// Cluster topology.
    pub topology: Topology,
    /// FL rounds to run.
    pub rounds: u32,
    /// Model size in parameters (f32 each).
    pub model_params: usize,
    /// Local samples per client.
    pub samples_per_client: usize,
    /// Local epochs per round.
    pub local_epochs: usize,
    /// Per-client access bandwidth in bytes/s.
    pub bandwidth: f64,
    /// Role-optimization policy (rearranges between rounds).
    pub optimizer: Box<dyn RoleOptimizer>,
    /// Seed for system drift.
    pub seed: u64,
    /// Machine profiles: client `i` uses `system_mix[i % len]` (must not
    /// be empty; one entry gives a uniform fleet).
    pub system_mix: Vec<SystemSpec>,
    /// Whether per-client loads drift between rounds. Disable for
    /// stationary-environment experiments (e.g. evaluating black-box
    /// optimizers whose fitness snapshots must stay comparable).
    pub drift: bool,
    /// Model gateway-class hardware with proportionally faster access
    /// links: each client's bandwidth is scaled by sqrt(cpu/2 GFLOP/s).
    /// Off by default (uniform links, the Fig. 8 setting).
    pub scale_bandwidth_with_cpu: bool,
    /// Number of broker regions; clients are assigned round-robin. 1 = a
    /// single broker. The parameter server and cross-region traffic pay a
    /// 20 ms bridge hop.
    pub regions: u32,
    /// Per-client, per-round probability of dropping out (dying) at the
    /// start of a round. Dropped clients are evicted: the plan for that
    /// round is rebuilt over the survivors (mid-round re-delegation) and
    /// the round pays a 500 ms detection window once. 0.0 = the paper's
    /// churn-free baseline.
    pub dropout_prob: f64,
    /// Fraction of clients that are stragglers: their training time is
    /// multiplied by [`SimConfig::straggler_multiplier`].
    pub straggler_fraction: f64,
    /// Training-time multiplier applied to straggler clients (≥ 1.0).
    pub straggler_multiplier: f64,
    /// Data-plane update codec. Per-hop payload bytes are measured from a
    /// *real encoding* of a model-sized vector (not an estimate), and the
    /// report carries the resulting compression ratio and the single-
    /// update model-vs-dense divergence (see
    /// [`SimReport::codec_divergence`]).
    pub update_codec: UpdateCodec,
    /// Worker threads for the data-plane probe's codec and fold timing
    /// (0 = share the process-wide pool). Codecs and folds are
    /// bit-identical at every setting, so this changes only the measured
    /// [`SimReport::encode_ms`] family — never bytes or divergence.
    pub data_plane_threads: usize,
}

impl SimConfig {
    /// The Fig. 8 baseline configuration for `num_clients` clients and the
    /// given topology: the paper's MNIST MLP, 600 samples/client, 5 local
    /// epochs, constrained edge machines on 2 MB/s links with 5 ms
    /// latency and 2 ms of broker forwarding per message. Raw f32
    /// parameters do not LZSS-compress (see ABL-3), so the wire carries
    /// the measured update frame 1:1.
    pub fn fig8(num_clients: usize, topology: Topology) -> SimConfig {
        SimConfig {
            num_clients,
            topology,
            rounds: 10,
            model_params: 109_386, // 784-128-64-10 MLP
            samples_per_client: 600,
            local_epochs: 5,
            bandwidth: 2.0 * 1024.0 * 1024.0,
            optimizer: Box::new(crate::optimizer::MemoryAware),
            seed: 7,
            system_mix: vec![SystemSpec::edge_small()],
            drift: true,
            scale_bandwidth_with_cpu: false,
            regions: 1,
            dropout_prob: 0.0,
            straggler_fraction: 0.0,
            straggler_multiplier: 1.0,
            update_codec: UpdateCodec::Dense,
            data_plane_threads: 0,
        }
    }
}

/// Timing breakdown for one simulated round.
#[derive(Debug, Clone)]
pub struct RoundBreakdown {
    /// 1-based round number.
    pub round: u32,
    /// When the last client finished local training (relative to round
    /// start).
    pub train_span: SimDuration,
    /// When the root aggregate reached the parameter server (relative to
    /// round start).
    pub agg_span: SimDuration,
    /// Full round span: global model delivered to every client.
    pub round_span: SimDuration,
    /// Clients whose roles changed entering this round.
    pub rearranged: usize,
    /// Clients still alive in this round.
    pub survivors: usize,
    /// Clients evicted (dropped out) entering this round.
    pub evicted: usize,
}

/// Results of a simulated deployment.
#[derive(Debug)]
pub struct SimReport {
    /// Total processing delay across all rounds (the paper's Fig. 8
    /// y-axis).
    pub total: SimDuration,
    /// Per-round breakdowns.
    pub rounds: Vec<RoundBreakdown>,
    /// Total data-plane (parameter) bytes carried by the network.
    pub network_bytes: u64,
    /// Total control-plane bytes (`set_role` + `round_start` +
    /// `round_done` frames), measured from real encodings.
    pub control_bytes: u64,
    /// Clients evicted over the whole run (dropout churn).
    pub evicted: usize,
    /// Evicted clients that held an aggregator position when they died —
    /// each one forced a mid-round role re-delegation.
    pub aggregators_redelegated: usize,
    /// Rounds that completed *after* the first eviction — the session
    /// survived dropout instead of aborting.
    pub completed_despite_dropout: u32,
    /// Name of the data-plane update codec the run used.
    pub data_codec: &'static str,
    /// Measured per-hop data-plane frame bytes (blob header + encoded
    /// payload); every simulated transfer carries exactly this many.
    pub update_frame_bytes: u64,
    /// Measured compression vs the dense f32 frame (1.0 for dense).
    pub codec_compression: f64,
    /// Relative L2 error of one decode(encode(x)) pass over a model-sized
    /// vector (0.0 for dense). Error feedback retries this across rounds
    /// on the real runtime; here it quantifies the single-update loss.
    pub codec_divergence: f64,
    /// Wall-clock milliseconds one model-sized encode took at
    /// [`SimConfig::data_plane_threads`], measured by the codec probe
    /// (real encode of the probe vector, not an estimate).
    pub encode_ms: f64,
    /// Wall-clock milliseconds for the matching decode.
    pub decode_ms: f64,
    /// Wall-clock milliseconds for one weighted FedAvg fold plus finish
    /// over the model-sized probe vector.
    pub fold_ms: f64,
}

/// A tiny deterministic xorshift generator for dropout/straggler draws —
/// the simulation must stay a pure function of its config.
struct SimRng(u64);

impl SimRng {
    fn new(seed: u64) -> SimRng {
        SimRng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next_f64(&mut self) -> f64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Runs the virtual-time simulation.
pub fn simulate(mut config: SimConfig) -> SimReport {
    assert!(config.num_clients > 0);
    let ids: Vec<ClientId> = (0..config.num_clients)
        .map(|i| ClientId::new(format!("c{i}")).unwrap())
        .collect();
    let mut rng = SimRng::new(config.seed);

    // Straggler designation is drawn once per client up front.
    let train_scale: HashMap<ClientId, f64> = ids
        .iter()
        .map(|id| {
            let scale = if rng.next_f64() < config.straggler_fraction {
                config.straggler_multiplier.max(1.0)
            } else {
                1.0
            };
            (id.clone(), scale)
        })
        .collect();

    // Systems drift per round; network links are rebuilt each round (link
    // occupancy does not carry over: rounds are serialized).
    let mut systems: HashMap<ClientId, ClientSystem> = ids
        .iter()
        .enumerate()
        .map(|(i, id)| {
            let spec = config.system_mix[i % config.system_mix.len()].clone();
            (
                id.clone(),
                ClientSystem::new(spec, config.seed ^ (i as u64) << 1),
            )
        })
        .collect();

    let probe = CodecProbe::measure(&config);

    let mut infos: Vec<ClientInfo> = ids
        .iter()
        .map(|id| ClientInfo {
            id: id.clone(),
            stats: systems[id].stats(),
            preferred: PreferredRole::Any,
            num_samples: config.samples_per_client as u64,
        })
        .collect();

    let mut plan: Option<ClusterPlan> = None;
    let mut rounds = Vec::with_capacity(config.rounds as usize);
    let mut total = SimDuration::ZERO;
    let mut network_bytes = 0u64;
    let mut control_bytes = 0u64;
    let mut evicted_total = 0usize;
    let mut aggregators_redelegated = 0usize;
    let mut completed_despite_dropout = 0u32;
    let ctrl_sizes = ControlFrameSizes::measure();

    for round in 1..=config.rounds {
        // Dropout churn: each alive client dies with `dropout_prob` at the
        // round boundary. The coordinator evicts the dead and rebuilds the
        // plan over the survivors — the DFML/massive-IoT behaviour, in
        // place of the paper's all-or-abort. At least one client survives.
        let mut dropped: Vec<ClientId> = Vec::new();
        if config.dropout_prob > 0.0 {
            for info in &infos {
                if infos.len() - dropped.len() > 1 && rng.next_f64() < config.dropout_prob {
                    dropped.push(info.id.clone());
                }
            }
        }
        for id in &dropped {
            if plan
                .as_ref()
                .and_then(|p| p.spec_of(id))
                .is_some_and(|spec| spec.position.is_some())
            {
                aggregators_redelegated += 1;
            }
            infos.retain(|info| &info.id != id);
        }
        evicted_total += dropped.len();

        // Role (re)arrangement over the survivors with the freshest stats.
        let ranking = config.optimizer.rank(&infos, round);
        let new_plan = build_plan(&infos, &config.topology, &ranking, round);
        let rearranged = match &plan {
            Some(old) => diff_plans(old, &new_plan).len(),
            None => new_plan.assignments.len(),
        };
        let breakdown = simulate_round(
            &new_plan,
            &systems,
            &config,
            probe.frame_bytes,
            round,
            rearranged,
            dropped.len(),
            &train_scale,
            &mut network_bytes,
        );
        total += breakdown.round_span;
        control_bytes += ctrl_sizes.round_total(rearranged, infos.len());
        config
            .optimizer
            .observe_round(round, breakdown.round_span.as_secs_f64());
        rounds.push(breakdown);
        plan = Some(new_plan);
        if evicted_total > 0 {
            completed_despite_dropout += 1;
        }

        // Post-round: stats drift and are re-reported (paper §III.E.4).
        if config.drift {
            for info in &mut infos {
                let system = systems.get_mut(&info.id).expect("known client");
                system.drift();
                info.stats = system.stats();
            }
        }
    }

    SimReport {
        total,
        rounds,
        network_bytes,
        control_bytes,
        evicted: evicted_total,
        aggregators_redelegated,
        completed_despite_dropout,
        data_codec: config.update_codec.name(),
        update_frame_bytes: probe.frame_bytes,
        codec_compression: probe.compression,
        codec_divergence: probe.divergence,
        encode_ms: probe.encode_ms,
        decode_ms: probe.decode_ms,
        fold_ms: probe.fold_ms,
    }
}

/// Data-plane frame size and fidelity at one codec, measured by actually
/// encoding a deterministic model-sized vector and framing it as a blob
/// (so the accounting tracks the codec and header, not an estimate).
struct CodecProbe {
    frame_bytes: u64,
    compression: f64,
    divergence: f64,
    encode_ms: f64,
    decode_ms: f64,
    fold_ms: f64,
}

impl CodecProbe {
    fn measure(config: &SimConfig) -> CodecProbe {
        let n = config.model_params;
        // A deterministic pseudo-model with realistic value spread.
        let x: Vec<f32> = (0..n)
            .map(|i| ((i as f32) * 0.37).sin() * (1.0 + (i % 17) as f32 * 0.25))
            .collect();
        let frame_of = |codec: UpdateCodec| {
            let payload = codec.encode_stateless(&x, None);
            let blob = Blob {
                session_id: crate::ids::SessionId::new("sim-session").expect("valid id"),
                round: 1,
                sender: "c0".into(),
                weight: config.samples_per_client as u64,
                params: Bytes::from(payload),
            };
            let update = UpdateMeta {
                codec: codec.id(),
                elems: n as u64,
                delta_base: 0,
            };
            blob.encode_update(&update).len() as u64
        };
        let frame_bytes = frame_of(config.update_codec);
        let dense_bytes = frame_of(UpdateCodec::Dense);
        // Timed passes run the same parallel entry points the runtime
        // uses, on a pool sized by the config knob. A fresh residual makes
        // the encode byte-identical to `encode_stateless`.
        let workers = if config.data_plane_threads == 0 {
            sdflmq_nn::parallel::WorkerPool::global()
        } else {
            std::sync::Arc::new(sdflmq_nn::parallel::WorkerPool::new(
                config.data_plane_threads,
            ))
        };
        let mut residual = Vec::new();
        let mut encoded = Vec::new();
        let start = std::time::Instant::now();
        config
            .update_codec
            .encode_into(&x, None, &mut residual, &workers, &mut encoded);
        let encode_ms = start.elapsed().as_secs_f64() * 1000.0;
        let mut decoded = Vec::new();
        let start = std::time::Instant::now();
        if config
            .update_codec
            .decode_into(&encoded, None, &workers, &mut decoded)
            .is_err()
        {
            decoded.clear();
        }
        let decode_ms = start.elapsed().as_secs_f64() * 1000.0;
        let mut acc: Box<dyn crate::aggregation::Accumulator> =
            Box::new(crate::aggregation::FedAvgAccumulator::default());
        let start = std::time::Instant::now();
        let _ = acc.fold_par(&x, config.samples_per_client as u64, &workers);
        let _ = acc.finish();
        let fold_ms = start.elapsed().as_secs_f64() * 1000.0;
        let (mut err2, mut norm2) = (0.0f64, 0.0f64);
        for (a, b) in x.iter().zip(&decoded) {
            let d = (*a - *b) as f64;
            err2 += d * d;
            norm2 += (*a as f64) * (*a as f64);
        }
        CodecProbe {
            frame_bytes,
            compression: dense_bytes as f64 / frame_bytes.max(1) as f64,
            divergence: if norm2 > 0.0 {
                (err2 / norm2).sqrt()
            } else {
                0.0
            },
            encode_ms,
            decode_ms,
            fold_ms,
        }
    }
}

/// Byte sizes of representative control frames, measured by actually
/// encoding them (so the accounting tracks the codec, not an estimate).
struct ControlFrameSizes {
    set_role: u64,
    round_start: u64,
    round_done: u64,
}

impl ControlFrameSizes {
    fn measure() -> ControlFrameSizes {
        let session = crate::ids::SessionId::new("sim-session").expect("valid id");
        let client = ClientId::new("c0").expect("valid id");
        let set_role = ControlMsg::Ctrl {
            session: session.clone(),
            msg: CtrlMsg::SetRole(RoleSpec {
                role: Role::TrainerAggregator,
                position: Some(Position::Agg(0)),
                parent: Position::Root,
                expected_inputs: 8,
                round: 1,
                data_codec: 0,
            }),
        };
        let round_start = ControlMsg::Ctrl {
            session: session.clone(),
            msg: CtrlMsg::RoundStart { round: 1 },
        };
        let round_done = ControlMsg::RoundDone(RoundDone {
            session_id: session,
            client_id: client,
            round: 1,
            stats: StatsMsg {
                free_memory: 1 << 28,
                available_flops: 2e9,
                memory_utilization: 0.5,
            },
        });
        let len = |msg: ControlMsg| msg.encode().len() as u64;
        ControlFrameSizes {
            set_role: len(set_role),
            round_start: len(round_start),
            round_done: len(round_done),
        }
    }

    /// Control bytes for one round: role pushes to rearranged clients plus
    /// a round-start and a round-done exchange per contributor.
    fn round_total(&self, rearranged: usize, num_clients: usize) -> u64 {
        rearranged as u64 * self.set_role
            + num_clients as u64 * (self.round_start + self.round_done)
    }
}

/// Multiplies a virtual duration by a straggler factor.
fn scale_duration(d: SimDuration, factor: f64) -> SimDuration {
    if factor == 1.0 {
        d
    } else {
        SimDuration::from_nanos((d.as_nanos() as f64 * factor).round() as u64)
    }
}

#[allow(clippy::too_many_arguments)]
fn simulate_round(
    plan: &ClusterPlan,
    systems: &HashMap<ClientId, ClientSystem>,
    config: &SimConfig,
    payload_bytes: u64,
    round: u32,
    rearranged: usize,
    evicted: usize,
    train_scale: &HashMap<ClientId, f64>,
    network_bytes: &mut u64,
) -> RoundBreakdown {
    let mut net = Network::new(BROKER_FORWARD);
    net.bridge_hop = BRIDGE_HOP;
    let regions = config.regions.max(1);
    for (i, assignment) in plan.assignments.iter().enumerate() {
        let bandwidth = if config.scale_bandwidth_with_cpu {
            let cpu = systems[&assignment.client].spec.cpu_flops;
            config.bandwidth * (cpu / 2e9).sqrt().max(0.25)
        } else {
            config.bandwidth
        };
        net.add_node_in_region(
            assignment.client.as_str().to_owned(),
            NodeLink::symmetric(bandwidth, LINK_LATENCY),
            i as u32 % regions,
        );
    }
    // The parameter server sits in region 0 with a fatter pipe.
    net.add_node_in_region(
        "ps",
        NodeLink::symmetric(config.bandwidth * 4.0, LINK_LATENCY),
        0,
    );

    let t0 = SimTime::ZERO;
    // Control-plane overhead: each rearranged client exchanges a small
    // set_role/ack pair before the round opens, and a round with
    // evictions first pays the coordinator's dropout-detection window.
    let detect = if evicted > 0 {
        EVICTION_DETECT
    } else {
        SimDuration::ZERO
    };
    let ctrl = SimDuration::from_millis(2 * rearranged as u64) + detect;
    let start = t0 + ctrl;

    // Phase 1: local training (fully parallel across clients; stragglers
    // pay their multiplier).
    let mut train_done: HashMap<&ClientId, SimTime> = HashMap::new();
    let mut latest_train = start;
    for a in &plan.assignments {
        if a.spec.role.trains() {
            let base = systems[&a.client].training_time(
                config.samples_per_client,
                config.local_epochs,
                config.model_params,
            );
            let factor = train_scale.get(&a.client).copied().unwrap_or(1.0);
            let t = start + scale_duration(base, factor);
            latest_train = latest_train.max(t);
            train_done.insert(&a.client, t);
        }
    }

    // Client holding each position.
    let holder_of: HashMap<Position, &ClientId> = plan
        .assignments
        .iter()
        .filter_map(|a| a.spec.position.map(|p| (p, &a.client)))
        .collect();

    // Phase 2: trainers upload to their cluster head (link contention
    // applies at the head's downlink).
    // arrivals[position] = times each expected input became available.
    let mut arrivals: HashMap<Position, Vec<SimTime>> = HashMap::new();
    for a in &plan.assignments {
        if a.spec.position.is_none() {
            let head = holder_of[&a.spec.parent];
            let done = net.send(
                a.client.as_str(),
                head.as_str(),
                payload_bytes,
                train_done[&a.client],
            );
            arrivals.entry(a.spec.parent).or_default().push(done);
        }
    }
    // Aggregators' own updates are local (no transfer).
    for a in &plan.assignments {
        if let Some(pos) = a.spec.position {
            if a.spec.role.trains() {
                arrivals.entry(pos).or_default().push(train_done[&a.client]);
            }
        }
    }

    // Phase 3: intermediate aggregators, ordered bottom-up (intermediates
    // then root). With two levels, intermediates complete then feed root.
    let mut intermediate_positions: Vec<Position> = holder_of
        .keys()
        .copied()
        .filter(|p| *p != Position::Root)
        .collect();
    intermediate_positions.sort();
    for pos in intermediate_positions {
        let holder = holder_of[&pos];
        let inputs = arrivals.remove(&pos).unwrap_or_default();
        let ready = inputs.iter().copied().fold(start, SimTime::max);
        let agg_done = ready + systems[holder].aggregation_time(inputs.len(), config.model_params);
        let root_holder = holder_of[&Position::Root];
        let delivered = net.send(
            holder.as_str(),
            root_holder.as_str(),
            payload_bytes,
            agg_done,
        );
        arrivals.entry(Position::Root).or_default().push(delivered);
    }

    // Phase 4: root aggregation and push to the parameter server. This is
    // the paper's §III.B.2 flow, kept so Fig. 8 stays the paper's model:
    // the real stack's root broadcasts the global itself, one hop fewer
    // (docs/ARCHITECTURE.md, "Who publishes the global").
    let root_holder = holder_of[&Position::Root];
    let root_inputs = arrivals.remove(&Position::Root).unwrap_or_default();
    let root_ready = root_inputs.iter().copied().fold(start, SimTime::max);
    let root_done =
        root_ready + systems[root_holder].aggregation_time(root_inputs.len(), config.model_params);
    let at_ps = net.send(root_holder.as_str(), "ps", payload_bytes, root_done);

    // Phase 5: parameter server broadcasts the global model.
    let client_names: Vec<&str> = plan.assignments.iter().map(|a| a.client.as_str()).collect();
    let deliveries = net.broadcast("ps", &client_names, payload_bytes, at_ps);
    let round_end = deliveries.into_iter().fold(at_ps, SimTime::max);

    *network_bytes += net.total_bytes();

    RoundBreakdown {
        round,
        train_span: latest_train.since(t0),
        agg_span: at_ps.since(t0),
        round_span: round_end.since(t0),
        rearranged,
        survivors: plan.assignments.len(),
        evicted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{MemoryAware, StaticOrder};

    fn quick(
        num_clients: usize,
        topology: Topology,
        optimizer: Box<dyn RoleOptimizer>,
    ) -> SimReport {
        simulate(SimConfig {
            optimizer,
            rounds: 3,
            ..SimConfig::fig8(num_clients, topology)
        })
    }

    #[test]
    fn produces_requested_rounds() {
        let report = quick(5, Topology::Central, Box::new(StaticOrder));
        assert_eq!(report.rounds.len(), 3);
        assert!(report.total.as_secs_f64() > 0.0);
        assert!(report.network_bytes > 0);
        // Phases are ordered within a round.
        for r in &report.rounds {
            assert!(r.train_span <= r.agg_span);
            assert!(r.agg_span <= r.round_span);
        }
    }

    #[test]
    fn delay_grows_with_client_count() {
        let small = quick(5, Topology::Central, Box::new(StaticOrder));
        let large = quick(20, Topology::Central, Box::new(StaticOrder));
        assert!(
            large.total > small.total,
            "central delay must grow with N: {} vs {}",
            small.total,
            large.total
        );
    }

    #[test]
    fn hierarchical_beats_central_at_scale() {
        // The Fig. 8 claim: at larger client counts, single-point
        // aggregation costs more than hierarchical.
        let topo = Topology::Hierarchical {
            aggregator_ratio: 0.3,
        };
        let hier = quick(20, topo, Box::new(MemoryAware));
        let central = quick(20, Topology::Central, Box::new(MemoryAware));
        assert!(
            hier.total < central.total,
            "hierarchical {} vs central {}",
            hier.total,
            central.total
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick(8, Topology::Central, Box::new(StaticOrder));
        let b = quick(8, Topology::Central, Box::new(StaticOrder));
        assert_eq!(a.total, b.total);
        assert_eq!(a.network_bytes, b.network_bytes);
    }

    #[test]
    fn control_bytes_count_every_frame_of_every_round() {
        let report = quick(6, Topology::Central, Box::new(StaticOrder));
        let sizes = ControlFrameSizes::measure();
        // Header (3) + session "sim-session" (1 + 11) + cmd (1) + round (1).
        assert_eq!(sizes.round_start, 17);
        let expected: u64 = report
            .rounds
            .iter()
            .map(|r| sizes.round_total(r.rearranged, r.survivors))
            .sum();
        assert!(expected > 0);
        assert_eq!(report.control_bytes, expected);
    }

    #[test]
    fn first_round_assigns_everyone() {
        let report = quick(6, Topology::Central, Box::new(StaticOrder));
        assert_eq!(report.rounds[0].rearranged, 6);
        // Static optimizer: later rounds change nothing.
        assert_eq!(report.rounds[1].rearranged, 0);
    }

    #[test]
    fn no_dropout_means_no_evictions() {
        let report = quick(6, Topology::Central, Box::new(StaticOrder));
        assert_eq!(report.evicted, 0);
        assert_eq!(report.completed_despite_dropout, 0);
        assert!(report.rounds.iter().all(|r| r.survivors == 6));
    }

    #[test]
    fn dropout_evicts_and_session_survives() {
        let report = simulate(SimConfig {
            rounds: 8,
            optimizer: Box::new(StaticOrder),
            dropout_prob: 0.05,
            seed: 11,
            ..SimConfig::fig8(
                20,
                Topology::Hierarchical {
                    aggregator_ratio: 0.3,
                },
            )
        });
        assert_eq!(report.rounds.len(), 8, "no round aborts under churn");
        assert!(report.evicted > 0, "5% per-round churn over 8 rounds");
        assert!(report.completed_despite_dropout > 0);
        for w in report.rounds.windows(2) {
            assert!(w[1].survivors <= w[0].survivors, "survivors only shrink");
        }
        let final_survivors = report.rounds.last().unwrap().survivors;
        assert_eq!(final_survivors + report.evicted, 20, "ledger balances");
    }

    #[test]
    fn codec_accounting_reports_real_reductions() {
        let run = |update_codec| {
            simulate(SimConfig {
                rounds: 2,
                optimizer: Box::new(StaticOrder),
                update_codec,
                ..SimConfig::fig8(8, Topology::Central)
            })
        };
        let dense = run(UpdateCodec::Dense);
        assert_eq!(dense.data_codec, "dense");
        assert!((dense.codec_compression - 1.0).abs() < 1e-9);
        assert_eq!(dense.codec_divergence, 0.0);

        let int8 = run(UpdateCodec::Int8);
        assert_eq!(int8.data_codec, "int8");
        assert!(
            int8.codec_compression > 3.9,
            "int8 compression {}",
            int8.codec_compression
        );
        assert!(int8.codec_divergence > 0.0 && int8.codec_divergence < 0.01);
        // The byte accounting follows the codec through the network model.
        let ratio = dense.network_bytes as f64 / int8.network_bytes as f64;
        assert!(ratio > 3.9, "network bytes ratio {ratio}");
        // Time follows bytes: smaller updates move faster.
        assert!(int8.total < dense.total);

        let topk = run(UpdateCodec::TOP_K_DEFAULT);
        assert!(
            topk.codec_compression > 25.0,
            "topk compression {}",
            topk.codec_compression
        );
        assert!(topk.codec_divergence > int8.codec_divergence);
    }

    #[test]
    fn probe_times_data_plane_and_threads_leave_accounting_alone() {
        let run = |data_plane_threads| {
            simulate(SimConfig {
                rounds: 1,
                optimizer: Box::new(StaticOrder),
                update_codec: UpdateCodec::Int8,
                data_plane_threads,
                ..SimConfig::fig8(4, Topology::Central)
            })
        };
        let serial = run(1);
        assert!(serial.encode_ms >= 0.0);
        assert!(serial.decode_ms >= 0.0);
        assert!(serial.fold_ms >= 0.0);
        // The thread knob changes only timings: every byte- and
        // fidelity-accounting field must match exactly.
        let parallel = run(4);
        assert_eq!(serial.update_frame_bytes, parallel.update_frame_bytes);
        assert_eq!(serial.network_bytes, parallel.network_bytes);
        assert_eq!(serial.codec_divergence, parallel.codec_divergence);
        assert_eq!(serial.total, parallel.total);
    }

    #[test]
    fn stragglers_slow_rounds_down() {
        let run = |straggler_fraction| {
            simulate(SimConfig {
                rounds: 2,
                optimizer: Box::new(StaticOrder),
                straggler_fraction,
                straggler_multiplier: 4.0,
                ..SimConfig::fig8(8, Topology::Central)
            })
        };
        let base = run(0.0);
        let slow = run(1.0);
        assert!(
            slow.total > base.total,
            "4x stragglers must cost time: {} vs {}",
            slow.total,
            base.total
        );
    }

    #[test]
    fn dropout_runs_are_deterministic() {
        let run = || {
            simulate(SimConfig {
                rounds: 4,
                optimizer: Box::new(StaticOrder),
                dropout_prob: 0.1,
                straggler_fraction: 0.25,
                straggler_multiplier: 2.0,
                seed: 3,
                ..SimConfig::fig8(12, Topology::Central)
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.total, b.total);
        assert_eq!(a.evicted, b.evicted);
        assert_eq!(a.aggregators_redelegated, b.aggregators_redelegated);
    }
}
