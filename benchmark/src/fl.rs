//! The four federated-learning workloads: a real fleet (sharded broker,
//! coordinator, parameter server, N `SdflmqClient`s) driven closed-loop by
//! this one thread. The fleet's own client and broker threads are the
//! system under test, not the generator.

use crate::counters::BrokerCounts;
use crate::gen;
use crate::replay;
use crate::report::{self, Outcome};
use crate::stats;
use crate::trace::{Tracer, NO_CLIENT};
use crate::{RunArgs, CHECK_EVERY, SHARDS, WARMUP_ROUNDS};
use sdflmq::core::{
    ClientId, Coordinator, CoordinatorConfig, MemoryAware, ModelId, ParamServer, PreferredRole,
    SdflmqClient, SdflmqClientConfig, SessionId, Topology, UpdateCodec, WaitOutcome,
};
use sdflmq::dataset::{Split, SynthDigits};
use sdflmq::mqtt::{Broker, BrokerConfig};
use sdflmq::mqttfc::BatchConfig;
use sdflmq::nn::{evaluate, train, Adam, Matrix, Mlp, MlpSpec, TrainConfig};
use std::time::{Duration, Instant};

/// A round that takes longer than this has failed.
const ROUND_TIMEOUT: Duration = Duration::from_secs(30);
/// Every client reports the same sample count, so FedAvg weights are equal.
const SAMPLES_PER_CLIENT: usize = 256;
const TEST_SAMPLES: usize = 1000;
/// The session never completes on its own: the run length decides.
const SESSION_ROUNDS: u32 = 100_000_000;

/// What distinguishes one FL workload from another.
pub struct FlSpec {
    pub clients: usize,
    /// `None`: the 784-128-64-10 MLP's 109,386 parameters. `Some(n)`: a
    /// flat vector of `n` elements.
    pub flat_len: Option<usize>,
    pub codec: UpdateCodec,
    /// Real `nn::train` on `SynthDigits` instead of pseudo-gradients.
    pub train: bool,
    /// Largest accepted relative L2 distance between the fleet's global
    /// and the f64 FedAvg of the round's locals.
    pub reference_tolerance: f64,
    /// Smallest accepted final test accuracy (training workloads) once
    /// `TRAINED_ROUNDS` rounds have run; before that, `UNTRAINED_FLOOR`.
    pub accuracy_floor: f64,
}

/// From this many rounds on, accuracy is held to the workload's floor.
const TRAINED_ROUNDS: u64 = 30;
/// Accuracy is never accepted below this, however short the run
/// (`--check` stops after 8 rounds, at about 0.79).
const UNTRAINED_FLOOR: f64 = 0.60;

pub fn spec(workload: &str) -> Option<FlSpec> {
    let base = FlSpec {
        clients: 8,
        flat_len: None,
        codec: UpdateCodec::Dense,
        train: false,
        reference_tolerance: 1e-5,
        accuracy_floor: 0.0,
    };
    match workload {
        "fl_dense_mlp" => Some(base),
        "fl_topk_mlp" => Some(FlSpec {
            codec: UpdateCodec::TOP_K_DEFAULT,
            // Pinned from 0.20 at round 8 (0.05 at round 30): top-k ships
            // 3 % of each delta and owes the rest, starting from an
            // all-zeros base. A wrong base or a lost update reads >= 1.
            reference_tolerance: 0.3,
            ..base
        }),
        "fl_ctrl_fleet32" => Some(FlSpec {
            clients: 32,
            flat_len: Some(64),
            ..base
        }),
        "fl_train_digits" => Some(FlSpec {
            clients: 4,
            train: true,
            // Pinned: the first runs reached 0.85 to 0.87; minus 5 points.
            accuracy_floor: 0.80,
            ..base
        }),
        _ => None,
    }
}

fn mlp_spec() -> MlpSpec {
    MlpSpec {
        input: 784,
        hidden: vec![128, 64],
        output: 10,
    }
}

impl FlSpec {
    fn model_len(&self) -> usize {
        self.flat_len.unwrap_or_else(|| mlp_spec().param_count())
    }
}

/// The stack under test. Field order is drop order: clients first, the
/// broker last, so every node's threads see their link close.
struct Fleet {
    clients: Vec<SdflmqClient>,
    ps: ParamServer,
    _coordinator: Coordinator,
    broker: Broker,
    session: SessionId,
}

struct Formed {
    fleet: Fleet,
    setup_s: f64,
    session_form_ms: f64,
}

/// Broker, coordinator and parameter-server start, N connects, create and
/// join, until round 1 is open at every client.
fn form(spec: &FlSpec) -> Result<Formed, String> {
    let start = Instant::now();
    let broker = Broker::start(BrokerConfig {
        name: "bench".into(),
        shards: SHARDS,
        ..BrokerConfig::default()
    });
    let coordinator = Coordinator::start(
        &broker,
        CoordinatorConfig {
            topology: Topology::Hierarchical {
                aggregator_ratio: 0.25,
            },
            optimizer: Box::new(MemoryAware),
            ..CoordinatorConfig::default()
        },
    )
    .map_err(|e| format!("start coordinator: {e}"))?;
    let ps = ParamServer::start(&broker, BatchConfig::default())
        .map_err(|e| format!("start parameter server: {e}"))?;
    let session = SessionId::new("bench-session").expect("valid id");
    let model = ModelId::new("bench-model").expect("valid id");
    let mut clients = Vec::with_capacity(spec.clients);
    for i in 0..spec.clients {
        // Ids never depend on the seed: they fix shard placement.
        let client = SdflmqClient::connect(
            &broker,
            ClientId::new(format!("dev{i:03}")).expect("valid id"),
            SdflmqClientConfig {
                system_seed: i as u64,
                update_codec: spec.codec,
                ..SdflmqClientConfig::default()
            },
        )
        .map_err(|e| format!("connect client {i}: {e}"))?;
        if i == 0 {
            client.create_fl_session(
                &session,
                &model,
                Duration::from_secs(86_400),
                spec.clients,
                spec.clients,
                Duration::from_secs(600),
                SESSION_ROUNDS,
                PreferredRole::Any,
                SAMPLES_PER_CLIENT as u64,
            )
        } else {
            client.join_fl_session(
                &session,
                &model,
                PreferredRole::Any,
                SAMPLES_PER_CLIENT as u64,
            )
        }
        .map_err(|e| format!("client {i} create/join: {e}"))?;
        clients.push(client);
    }
    let joined = Instant::now();
    // Before any contribution, the first round_start is the only event a
    // wait can return: this observes "round 1 is open" at each client.
    for (i, client) in clients.iter().enumerate() {
        match client.wait_global_update(&session, ROUND_TIMEOUT) {
            Ok(WaitOutcome::NextRound(1)) => {}
            other => return Err(format!("client {i} waiting for round 1: {other:?}")),
        }
    }
    Ok(Formed {
        setup_s: start.elapsed().as_secs_f64(),
        session_form_ms: joined.elapsed().as_secs_f64() * 1e3,
        fleet: Fleet {
            clients,
            ps,
            _coordinator: coordinator,
            broker,
            session,
        },
    })
}

/// One client's local training state (`fl_train_digits`).
struct Trainer {
    model: Mlp,
    optimizer: Adam,
    x: Matrix,
    labels: Vec<usize>,
}

struct TestSet {
    x: Matrix,
    labels: Vec<usize>,
}

fn generate_data(seed: u64, clients: usize) -> (Vec<Trainer>, TestSet) {
    let digits = SynthDigits::new(seed);
    let trainers = (0..clients)
        .map(|i| {
            let local =
                digits.generate_range(Split::Train, i * SAMPLES_PER_CLIENT, SAMPLES_PER_CLIENT);
            Trainer {
                // The same initial weights everywhere, as FedAvg assumes.
                model: Mlp::new(mlp_spec(), seed),
                optimizer: Adam::new(0.001),
                x: Matrix::from_vec(local.len(), 784, local.images),
                labels: local.labels,
            }
        })
        .collect();
    let test = digits.generate(Split::Test, TEST_SAMPLES);
    let test = TestSet {
        x: Matrix::from_vec(test.len(), 784, test.images),
        labels: test.labels,
    };
    (trainers, test)
}

/// The counters read at round boundaries.
#[derive(Clone, Copy, Default)]
struct Counters {
    broker: BrokerCounts,
    encode_us: u64,
    decode_us: u64,
    fold_us: u64,
    dropped_transfers: u64,
    undecodable_updates: u64,
    copied_bytes: u64,
}

impl Fleet {
    fn counters(&self) -> Counters {
        let mut c = Counters {
            broker: BrokerCounts::of(&self.broker.stats()),
            dropped_transfers: self.ps.dropped_transfers(),
            copied_bytes: self.ps.copied_bytes(),
            ..Counters::default()
        };
        for client in &self.clients {
            let dp = client.data_plane_stats();
            c.encode_us += dp.encode_us;
            c.decode_us += dp.decode_us;
            c.fold_us += dp.fold_us;
            c.dropped_transfers += dp.dropped_transfers;
            c.undecodable_updates += dp.undecodable_updates;
        }
        c
    }

    /// Aggregating clients in the current plan.
    fn aggregators(&self) -> usize {
        self.clients
            .iter()
            .filter(|c| {
                c.current_role(&self.session)
                    .is_some_and(|r| r.role.aggregates())
            })
            .count()
    }
}

impl Counters {
    fn add_delta(&mut self, later: &Counters, earlier: &Counters) {
        self.broker.add(&later.broker.since(&earlier.broker));
        self.encode_us += later.encode_us - earlier.encode_us;
        self.decode_us += later.decode_us - earlier.decode_us;
        self.fold_us += later.fold_us - earlier.fold_us;
        self.dropped_transfers += later.dropped_transfers - earlier.dropped_transfers;
        self.undecodable_updates += later.undecodable_updates - earlier.undecodable_updates;
        self.copied_bytes += later.copied_bytes - earlier.copied_bytes;
    }
}

/// Relative L2 distance of `got` from the f64 FedAvg (equal weights) of
/// `locals`.
fn distance_from_fedavg(got: &[f32], locals: &[&[f32]]) -> f64 {
    let mut diff2 = 0.0f64;
    let mut ref2 = 0.0f64;
    for (i, g) in got.iter().enumerate() {
        let mean = locals.iter().map(|l| f64::from(l[i])).sum::<f64>() / locals.len() as f64;
        diff2 += (f64::from(*g) - mean).powi(2);
        ref2 += mean * mean;
    }
    if ref2 == 0.0 {
        diff2.sqrt()
    } else {
        (diff2 / ref2).sqrt()
    }
}

/// Everything the driver holds between rounds.
struct Driver<'a> {
    spec: &'a FlSpec,
    fleet: Fleet,
    seed: u64,
    /// The global every client holds (bit-identical, checked).
    global: Vec<f32>,
    /// Synthetic workloads: per-client pseudo-gradient and this round's local.
    gradients: Vec<Vec<f32>>,
    locals: Vec<Vec<f32>>,
    trainers: Vec<Trainer>,
    round: u64,
    worst_distance: f64,
}

impl Driver<'_> {
    fn local(&self, client: usize) -> &[f32] {
        if self.spec.train {
            self.trainers[client].model.params()
        } else {
            &self.locals[client]
        }
    }

    /// Drives one round: every client's turn (train, `set_model`,
    /// `send_local`), then every client's `wait_global_update`. Returns the
    /// round's wall-clock in ms; failed client-rounds are counted into
    /// `out`, and `Err` means the fleet cannot continue.
    fn round(&mut self, out: &mut Outcome, tracer: &mut Tracer) -> Result<f64, String> {
        self.round += 1;
        let round = self.round;
        let n = self.fleet.clients.len();
        if !self.spec.train {
            for c in 0..n {
                gen::local_update(&self.global, &self.gradients[c], round, &mut self.locals[c]);
            }
        }
        out.attempted += n as u64;
        let session = self.fleet.session.clone();
        let start = Instant::now();
        let root = tracer.live_begin("round", None, round, NO_CLIENT);
        let mut sent = Vec::with_capacity(n);
        for c in 0..n {
            if self.spec.train {
                let span = tracer.live_begin("train", root, round, c as i64);
                let trainer = &mut self.trainers[c];
                trainer.model.set_params(&self.global);
                train(
                    &mut trainer.model,
                    &mut trainer.optimizer,
                    &trainer.x,
                    &trainer.labels,
                    &TrainConfig {
                        batch_size: 32,
                        epochs: 1,
                        shuffle_seed: self.seed.wrapping_add(round),
                    },
                );
                tracer.live_end(span);
            }
            let client = &self.fleet.clients[c];
            let span = tracer.live_begin("send_local", root, round, c as i64);
            let result = client
                .set_model(&session, self.local(c))
                .and_then(|()| client.send_local(&session));
            tracer.live_end(span);
            sent.push(result.is_ok());
            if let Err(e) = result {
                out.fail(1, format!("round {round}: client {c} send_local: {e}"));
            }
        }
        let wait = tracer.live_begin("wait_global", root, round, NO_CLIENT);
        let deadline = start + ROUND_TIMEOUT;
        let mut broken = None;
        for c in (0..n).filter(|&c| sent[c]) {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.fleet.clients[c].wait_global_update(&session, left) {
                Ok(WaitOutcome::NextRound(_)) => {}
                other => {
                    out.fail(1, format!("round {round}: client {c} wait: {other:?}"));
                    broken = Some(format!("round {round} did not close at client {c}"));
                }
            }
        }
        tracer.live_end(wait);
        tracer.live_end(root);
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        if let Some(why) = broken {
            return Err(why);
        }
        if sent.iter().any(|s| !s) {
            return Err(format!("round {round}: a client could not contribute"));
        }
        self.global = self.fleet.clients[0]
            .model_params(&session)
            .map_err(|e| format!("round {round}: read global: {e}"))?;
        Ok(elapsed_ms)
    }

    /// Output checks, run outside every timed span: all clients hold the
    /// bit-identical global of this round, it matches the f64 FedAvg of the
    /// round's locals, and nothing was dropped on the data plane.
    fn check(&mut self, out: &mut Outcome) {
        let round = self.round;
        let n = self.fleet.clients.len() as u64;
        let session = &self.fleet.session;
        let same_bits = |a: &[f32], b: &[f32]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        for (c, client) in self.fleet.clients.iter().enumerate() {
            match (client.model_params(session), client.global_round(session)) {
                (Ok(params), Ok(applied)) => {
                    if applied as u64 != round {
                        out.fail(
                            1,
                            format!("round {round}: client {c} is at round {applied}"),
                        );
                    } else if !same_bits(&params, &self.global) {
                        out.fail(1, format!("round {round}: client {c} holds another global"));
                    }
                }
                (params, applied) => out.fail(
                    1,
                    format!(
                        "round {round}: client {c} model unreadable: {:?} {:?}",
                        params.err(),
                        applied.err()
                    ),
                ),
            }
        }
        let locals: Vec<&[f32]> = (0..self.fleet.clients.len())
            .map(|c| self.local(c))
            .collect();
        let distance = distance_from_fedavg(&self.global, &locals);
        self.worst_distance = self.worst_distance.max(distance);
        if distance.is_nan() || distance > self.spec.reference_tolerance {
            out.fail(
                n,
                format!(
                    "round {round}: global is {distance:e} from the FedAvg reference (limit {:e})",
                    self.spec.reference_tolerance
                ),
            );
        }
        let counters = self.fleet.counters();
        if counters.dropped_transfers + counters.undecodable_updates > 0 {
            out.fail(
                counters.dropped_transfers + counters.undecodable_updates,
                format!(
                    "round {round}: {} dropped transfers, {} undecodable updates",
                    counters.dropped_transfers, counters.undecodable_updates
                ),
            );
        }
    }
}

/// Runs one FL workload and reports its metrics.
pub fn run(spec: &FlSpec, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    if let Err(why) = run_inner(spec, args, &mut out) {
        out.fail(1, why);
    }
    out
}

fn run_inner(spec: &FlSpec, args: &RunArgs, out: &mut Outcome) -> Result<(), String> {
    // Set-up, several times over: its median is `setup_s`. For the
    // training workload set-up includes generating the data.
    let mut setups = Vec::new();
    let mut forms = Vec::new();
    let mut generates = Vec::new();
    let mut kept = None;
    for _ in 0..args.setups {
        drop(kept.take()); // the previous fleet's threads end here
        let start = Instant::now();
        let data = spec.train.then(|| generate_data(args.seed, spec.clients));
        let generate_s = start.elapsed().as_secs_f64();
        let formed = form(spec)?;
        setups.push(generate_s + formed.setup_s);
        forms.push(formed.session_form_ms);
        generates.push(generate_s * 1e3);
        kept = Some((formed.fleet, data));
    }
    let (fleet, data) = kept.expect("at least one set-up");
    let (trainers, test) = match data {
        Some((trainers, test)) => (trainers, Some(test)),
        None => (Vec::new(), None),
    };

    let len = spec.model_len();
    let n = spec.clients;
    let mut driver = Driver {
        spec,
        seed: args.seed,
        global: if spec.train {
            Mlp::new(mlp_spec(), args.seed).params().to_vec()
        } else {
            gen::initial_model(args.seed, len)
        },
        gradients: if spec.train {
            Vec::new()
        } else {
            (0..n)
                .map(|c| gen::pseudo_gradient(args.seed, c, len))
                .collect()
        },
        locals: vec![Vec::new(); if spec.train { 0 } else { n }],
        trainers,
        fleet,
        round: 0,
        worst_distance: 0.0,
    };

    let mut tracer = Tracer::new();
    for _ in 0..WARMUP_ROUNDS {
        driver.round(out, &mut tracer)?;
    }

    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut traced_counters = Counters::default();
    let window_start = Instant::now();
    let bytes_start = driver.fleet.broker.stats().payload_bytes_out;
    let mut paused = Duration::ZERO;
    let mut measured = 0u64;
    loop {
        tracer.live = args.traces_round(measured);
        if tracer.live {
            let before = driver.fleet.counters();
            let ms = driver.round(out, &mut tracer)?;
            traced_counters.add_delta(&driver.fleet.counters(), &before);
            traced_ms.push(ms);
        } else {
            plain_ms.push(driver.round(out, &mut tracer)?);
        }
        measured += 1;
        let window = window_start.elapsed() - paused;
        let done = match args.max_rounds {
            Some(max) => measured >= max,
            None => window.as_secs_f64() >= args.seconds,
        };
        if done || measured.is_multiple_of(CHECK_EVERY) {
            let check_start = Instant::now();
            driver.check(out);
            paused += check_start.elapsed();
        }
        if done {
            break;
        }
    }
    let window_s = (window_start.elapsed() - paused).as_secs_f64();
    let bytes = driver.fleet.broker.stats().payload_bytes_out - bytes_start;

    out.set_round_metrics(&plain_ms, measured, window_s, bytes, &setups);
    out.note("clients", n as u32);
    out.note("model_elems", len as u32);
    out.note("reference_distance_max", driver.worst_distance);

    if let Some(test) = &test {
        let mut model = Mlp::new(mlp_spec(), args.seed);
        model.set_params(&driver.global);
        let accuracy = evaluate(&model, &test.x, &test.labels);
        out.note("test_accuracy", accuracy);
        let floor = if driver.round >= TRAINED_ROUNDS {
            spec.accuracy_floor
        } else {
            UNTRAINED_FLOOR
        };
        if accuracy.is_nan() || accuracy < floor {
            out.fail(
                n as u64,
                format!(
                    "test accuracy {accuracy:.4} after {} rounds is under the floor {floor}",
                    driver.round
                ),
            );
        }
    }

    if args.trace {
        let live = LiveTrace {
            plain_ms: &plain_ms,
            traced_ms: &traced_ms,
            counters: &traced_counters,
            session_form_ms: stats::median(&forms),
            generate_ms: stats::median(&generates),
        };
        report_layers(&driver, &live, &mut tracer, args, out)?;
    }
    // VmHWM is read last so it covers the whole run.
    drop(driver);
    out.set("peak_rss_mb", report::peak_rss_mb());
    Ok(())
}

/// What the live half of a traced run hands to the per-layer report.
struct LiveTrace<'a> {
    plain_ms: &'a [f64],
    traced_ms: &'a [f64],
    counters: &'a Counters,
    session_form_ms: f64,
    generate_ms: f64,
}

/// The per-layer metrics: live spans and counter deltas from the traced
/// rounds, layer spans from the pipeline replay, and the estimate of where
/// a round's wall-clock goes.
fn report_layers(
    driver: &Driver<'_>,
    live: &LiveTrace<'_>,
    tracer: &mut Tracer,
    args: &RunArgs,
    out: &mut Outcome,
) -> Result<(), String> {
    let rounds = live.traced_ms.len() as f64;
    if rounds == 0.0 {
        return Err("the traced run measured no traced round".into());
    }
    let per_round = |v: u64| v as f64 / rounds;
    let median_of = |t: &Tracer, name: &str| {
        let d = t.durations_ms(name);
        if d.is_empty() {
            0.0
        } else {
            stats::median(&d)
        }
    };
    let n = driver.fleet.clients.len();
    let aggregators = driver.fleet.aggregators();
    let c = live.counters;

    out.set("nn.train_ms", median_of(tracer, "train"));
    out.set("core.send_local_ms", median_of(tracer, "send_local"));
    out.set("core.wait_global_ms", median_of(tracer, "wait_global"));
    out.set("nn.encode_counter_ms", per_round(c.encode_us) / 1e3);
    out.set("nn.decode_counter_ms", per_round(c.decode_us) / 1e3);
    out.set("core.fold_counter_ms", per_round(c.fold_us) / 1e3);
    out.set("core.copied_bytes", per_round(c.copied_bytes));
    out.set("core.dropped_transfers", c.dropped_transfers as f64);
    out.set("core.undecodable_updates", c.undecodable_updates as f64);
    out.set("core.session_form_ms", live.session_form_ms);
    out.set("dataset.generate_ms", live.generate_ms);
    c.broker.report(rounds, out);

    // Pipeline replay: each client's real update of the last round through
    // every layer's public functions, in order, on this thread.
    let probe_broker = Broker::start(BrokerConfig {
        name: "bench-replay".into(),
        shards: SHARDS,
        ..BrokerConfig::default()
    });
    let mut probe = replay::DeliverProbe::in_process(&probe_broker, SHARDS)?;
    let locals: Vec<&[f32]> = (0..n).map(|c| driver.local(c)).collect();
    let reps = if args.max_rounds.is_some() { 3 } else { 24 };
    let replayed = replay::replay_updates(
        tracer,
        &mut probe,
        driver.spec.codec,
        &locals,
        &driver.global,
        reps,
    )?;
    replay::report_mqtt_probes(tracer, &mut probe, args.max_rounds.is_some(), out)?;
    drop(probe);
    drop(probe_broker);

    let total = |name: &str| replayed.total_ms[name];
    out.set("nn.encode_ms", total("nn.encode"));
    out.set("nn.decode_ms", total("nn.decode"));
    out.set("mqttfc.split_ms", total("mqttfc.split"));
    out.set("mqttfc.compress_ms", total("mqttfc.compress"));
    out.set("mqttfc.crc_ms", total("mqttfc.crc"));
    out.set("mqttfc.reassemble_ms", total("mqttfc.reassemble"));
    out.set("mqttfc.lzss_win_share", replayed.lzss_win_share);
    out.set("core.fold_ms", total("core.fold"));

    // Calls per round, from the role plan: every client encodes once (its
    // update, or as aggregator its aggregate); a blob is framed and split
    // once per sender plus once at the parameter server, and reassembled
    // at every receiver (children's at aggregators, the root's at the
    // parameter server, the global at all); aggregators fold their own and
    // their children's vectors and finish once. A layer's estimate is its
    // spans' per-call self time times those calls.
    let nf = n as f64;
    let af = aggregators as f64;
    let blobs_out = nf + 1.0;
    let blobs_in = 2.0 * nf;
    let frames_in = blobs_in * replayed.chunks_per_blob as f64;
    out.set(
        "mqttfc.chunks_per_round",
        blobs_out * replayed.chunks_per_blob as f64,
    );
    let est = |calls: &[(&str, f64)]| -> f64 {
        calls
            .iter()
            .map(|(name, per_round)| replayed.self_ms[name] * per_round)
            .sum()
    };
    let train_ms = if driver.spec.train {
        out.metrics["nn.train_ms"] * nf
    } else {
        0.0
    };
    let nn_est = train_ms + est(&[("nn.encode", nf), ("nn.decode", 2.0 * nf - 1.0)]);
    let mqttfc_est = est(&[
        ("mqttfc.split", blobs_out),
        ("mqttfc.compress", blobs_out),
        ("mqttfc.crc", blobs_out),
        ("mqttfc.reassemble", blobs_in),
    ]);
    // Every blob delivery costs its frames' publish-to-receive time; what
    // is left of `publishes_out` are small control messages.
    let small_out = (per_round(c.broker.publishes_out) - frames_in).max(0.0);
    let mqtt_est = est(&[
        ("mqtt.deliver", frames_in),
        ("mqtt.packet_encode", frames_in),
        ("mqtt.packet_decode", frames_in),
    ]) + out.metrics["mqtt.deliver_small_ms_p50"] * small_out;
    let core_est = est(&[
        ("core.blob_encode", blobs_out),
        ("core.blob_decode", blobs_in),
        ("core.fold", nf + af - 1.0),
        ("core.finish", af),
    ]);
    out.set("layers.nn.est_ms_per_round", nn_est);
    out.set("layers.mqttfc.est_ms_per_round", mqttfc_est);
    out.set("layers.mqtt.est_ms_per_round", mqtt_est);
    out.set("layers.core.est_ms_per_round", core_est);

    let plain_p50 = stats::median(live.plain_ms);
    let traced_p50 = stats::median(live.traced_ms);
    out.set(
        "unattributed_share",
        1.0 - (nn_est + mqttfc_est + mqtt_est + core_est) / plain_p50,
    );
    out.set("trace_overhead_share", traced_p50 / plain_p50 - 1.0);
    out.note("aggregators", aggregators as u32);
    out.note("traced_rounds", rounds);
    out.note("chunks_per_blob", replayed.chunks_per_blob as u32);
    out.note("blob_bytes", replayed.blob_bytes as u32);
    crate::write_trace(args, tracer)
}
