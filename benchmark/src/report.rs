//! Metric definitions, the per-run result, and host facts recorded next to
//! every figure.

use crate::stats;
use sdflmq::mqttfc::Json;
use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A named metric. `bound` is the share of the base's median by which an
/// end-to-end metric may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// What a user of the system sees. Every workload reports all of them
/// (`BENCHMARK.json` mirrors this table; a unit test keeps them equal).
pub const END_TO_END: &[MetricDef] = &[
    e2e("round_ms_p50", "ms", Better::Lower, 0.25),
    e2e("round_ms_p90", "ms", Better::Lower, 0.25),
    e2e("rounds_per_s", "1/s", Better::Higher, 0.25),
    e2e("wire_bytes_per_round", "bytes", Better::Lower, 0.01),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Single-layer metrics from the traced run; no bounds. The README's
/// interaction table names the end-to-end metric each should move.
pub const PER_LAYER: &[MetricDef] = &[
    layer("nn.train_ms", "ms", Better::Lower),
    layer("nn.encode_ms", "ms", Better::Lower),
    layer("nn.decode_ms", "ms", Better::Lower),
    layer("nn.encode_counter_ms", "ms/round", Better::Lower),
    layer("nn.decode_counter_ms", "ms/round", Better::Lower),
    layer("mqttfc.split_ms", "ms", Better::Lower),
    layer("mqttfc.compress_ms", "ms", Better::Lower),
    layer("mqttfc.crc_ms", "ms", Better::Lower),
    layer("mqttfc.reassemble_ms", "ms", Better::Lower),
    layer("mqttfc.chunks_per_round", "count", Better::Lower),
    layer("mqttfc.lzss_win_share", "ratio", Better::Higher),
    layer("mqtt.publishes_in", "1/round", Better::Lower),
    layer("mqtt.publishes_out", "1/round", Better::Lower),
    layer("mqtt.payload_bytes_out", "bytes/round", Better::Lower),
    layer("mqtt.cross_shard_hops", "1/round", Better::Lower),
    layer("mqtt.wal_records", "1/round", Better::Lower),
    layer("mqtt.wal_batches", "1/round", Better::Lower),
    layer("mqtt.wal_queue_hwm", "count", Better::Lower),
    layer("mqtt.wal_stalls", "count", Better::Lower),
    layer("mqtt.wal_sheds", "count", Better::Lower),
    layer("mqtt.fsyncs", "count", Better::Lower),
    layer("mqtt.dropped", "count", Better::Lower),
    layer("mqtt.slow_consumer_evictions", "count", Better::Lower),
    layer("mqtt.packet_codec_small_ns", "ns", Better::Lower),
    layer("mqtt.packet_codec_large_ns", "ns", Better::Lower),
    layer("mqtt.deliver_small_ms_p50", "ms", Better::Lower),
    layer("mqtt.deliver_small_ms_p90", "ms", Better::Lower),
    layer("mqtt.deliver_large_ms_p50", "ms", Better::Lower),
    layer("mqtt.deliver_large_ms_p90", "ms", Better::Lower),
    layer("core.send_local_ms", "ms", Better::Lower),
    layer("core.wait_global_ms", "ms", Better::Lower),
    layer("core.fold_ms", "ms", Better::Lower),
    layer("core.fold_counter_ms", "ms/round", Better::Lower),
    layer("core.copied_bytes", "bytes/round", Better::Lower),
    layer("core.dropped_transfers", "count", Better::Lower),
    layer("core.undecodable_updates", "count", Better::Lower),
    layer("core.session_form_ms", "ms", Better::Lower),
    layer("dataset.generate_ms", "ms", Better::Lower),
    layer("layers.nn.est_ms_per_round", "ms/round", Better::Lower),
    layer("layers.mqttfc.est_ms_per_round", "ms/round", Better::Lower),
    layer("layers.mqtt.est_ms_per_round", "ms/round", Better::Lower),
    layer("layers.core.est_ms_per_round", "ms/round", Better::Lower),
    layer("unattributed_share", "ratio", Better::Lower),
    layer("trace_overhead_share", "ratio", Better::Lower),
];

/// Result of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations driven: client-rounds for FL, messages for MQTT.
    pub attempted: u64,
    /// Operations that errored, timed out, or ended on a wrong output.
    pub failed: u64,
    /// Output checks that did not hold, in words.
    pub check_failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Facts that are not metrics: sample counts, fleet shape, accuracy.
    pub notes: BTreeMap<&'static str, Json>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, name: &'static str, value: impl Into<f64>) {
        self.notes.insert(name, Json::num(value));
    }

    /// A failed output check: counts `operations` as failed.
    pub fn fail(&mut self, operations: u64, what: String) {
        self.failed += operations;
        self.check_failures.push(what);
    }

    /// The end-to-end round metrics and sample counts, which every workload
    /// derives the same way: `plain_ms` are the untraced rounds' wall-clocks,
    /// `measured` counts all measured rounds over `window_s` seconds (output
    /// checks excluded), `wire_bytes` is the broker's payload-out delta over
    /// them, and `setups` the set-up times whose median is `setup_s`.
    pub fn set_round_metrics(
        &mut self,
        plain_ms: &[f64],
        measured: u64,
        window_s: f64,
        wire_bytes: u64,
        setups: &[f64],
    ) {
        let sorted = stats::sorted(plain_ms);
        self.set("round_ms_p50", stats::percentile(&sorted, 0.5));
        self.set("round_ms_p90", stats::percentile(&sorted, 0.9));
        self.set("rounds_per_s", measured as f64 / window_s);
        self.set("wire_bytes_per_round", wire_bytes as f64 / measured as f64);
        self.set("setup_s", stats::median(setups));
        self.note("rounds_measured", measured as f64);
        self.note("round_samples", sorted.len() as u32);
        self.note("warmup_rounds", crate::WARMUP_ROUNDS as u32);
        self.note("setup_samples", setups.len() as u32);
        self.note(
            "samples_beyond_p90",
            stats::samples_beyond(sorted.len(), 0.9) as u32,
        );
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the latter holding every metric of `defs`.
    pub fn result_json(&self, defs: &[MetricDef]) -> Json {
        let metrics = defs.iter().map(|def| {
            let value = self.metrics.get(def.name).copied().unwrap_or(0.0);
            (
                def.name,
                Json::object([("value", Json::num(value)), ("unit", Json::str(def.unit))]),
            )
        });
        Json::object([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::num(self.attempted.max(1) as f64)),
            ("failed", Json::num(self.failed as f64)),
            ("metrics", Json::object(metrics)),
        ])
    }
}

/// `VmHWM` of this process in MB: the peak resident set so far.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn first_line(path: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    Some(text.lines().next()?.trim().to_owned())
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// 1-minute load average, if the host exposes it.
pub fn load_average() -> Option<f64> {
    first_line("/proc/loadavg")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Host and toolchain facts stored with every result set.
pub fn hygiene(seed: u64) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let load = load_average();
    Json::object([
        ("nproc", Json::num(nproc() as f64)),
        ("cpu_model", Json::str(cpu_model)),
        (
            "kernel",
            Json::str(
                first_line("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".to_owned()),
            ),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::num(seed as f64)),
        ("load_avg_1m", load.map_or(Json::Null, Json::num)),
        (
            "load_warning",
            Json::Bool(load.is_some_and(|l| l > nproc() as f64 / 2.0)),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_object_has_exactly_the_contract_keys() {
        let mut outcome = Outcome {
            attempted: 800,
            ..Outcome::default()
        };
        for def in END_TO_END {
            outcome.set(def.name, 1.25);
        }
        let doc = outcome.result_json(END_TO_END);
        let parsed = Json::parse(&doc.to_string_compact()).expect("valid JSON");
        assert_eq!(parsed, doc);
        let Json::Object(top) = &parsed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("attempted").and_then(Json::as_u64), Some(800));
        let Some(Json::Object(metrics)) = parsed.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = &metrics["setup_s"];
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.25));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut outcome = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        assert!(outcome.correct());
        outcome.fail(2, "global differs".to_owned());
        assert!(!outcome.correct());
        assert_eq!(outcome.failed, 2);
    }

    #[test]
    fn manifest_mirrors_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let manifest = Json::parse(&text).expect("valid JSON");
        for (key, defs, bounded) in [
            ("end_to_end", END_TO_END, true),
            ("per_layer", PER_LAYER, false),
        ] {
            let listed = manifest.get(key).and_then(Json::as_array).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(def.better.as_str())
                );
                if bounded {
                    assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(def.bound));
                }
            }
        }
        let workloads = manifest.get("workloads").and_then(Json::as_array).unwrap();
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }
}
