//! The structured, hashable record of one chaos-scenario run.
//!
//! A [`ScenarioTrace`] separates two kinds of observation:
//!
//! * **Hashed fields** — the script's event log, the sorted per-client
//!   outcomes, the coordinator's final state, the sorted eviction set,
//!   and the hit counts of fault rules the scenario opted in. These are
//!   protocol-level invariants a correct run must reproduce exactly, so
//!   the FNV-1a hash over their canonical form is asserted identical
//!   across same-seed runs (in-test and in the CI chaos job).
//! * **Observability fields** — wall-clock-sensitive measurements (byte
//!   counts, publish counts, drive iterations) recorded for debugging and
//!   CI artifacts but excluded from the hash, because thread interleaving
//!   can legitimately perturb them without changing protocol behaviour.

/// Final account of one client's run through a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientOutcome {
    /// Client id.
    pub client: String,
    /// Rounds the client completed (globals applied).
    pub rounds: u32,
    /// Terminal outcome: `completed`, `evicted`, `died`, `aborted:<why>`,
    /// `timeout`, or `error:<why>`. May carry a `g=<bits>` suffix with
    /// the final global's first parameter (exact f32 bit pattern).
    pub outcome: String,
    /// Data-plane transfers this client's blob channel dropped.
    pub dropped_transfers: u64,
    /// Blob payloads this client could not decode.
    pub undecodable_updates: u64,
}

impl ClientOutcome {
    fn canonical(&self) -> String {
        format!(
            "{}:r{}:{}:drop{}:undec{}",
            self.client,
            self.rounds,
            self.outcome,
            self.dropped_transfers,
            self.undecodable_updates
        )
    }
}

/// The full record of one scenario run. Build via
/// [`crate::scenario::ScenarioBuilder::run`].
#[derive(Debug, Clone)]
pub struct ScenarioTrace {
    /// Scenario name.
    pub scenario: String,
    /// Seed the run used (fault plan + any seeded choices).
    pub seed: u64,
    /// The script's ordered event log (waits, clock advances, fault
    /// toggles, releases, notes). Hashed.
    pub events: Vec<String>,
    /// Per-client outcomes, sorted by client id. Hashed.
    pub outcomes: Vec<ClientOutcome>,
    /// Coordinator-side final session state (`completed`,
    /// `aborted:<why>`, `running:<round>`, or `gone`). Hashed.
    pub final_state: String,
    /// Clients evicted by the coordinator, sorted. Hashed.
    pub evicted: Vec<String>,
    /// Surviving session members at the end, sorted. Hashed.
    pub survivors: Vec<String>,
    /// Hit counts of the fault rules the scenario marked hashable, in
    /// rule order. Hashed.
    pub rule_hits: Vec<(String, u64)>,
    /// Wall-clock-sensitive measurements (broker byte/publish counts,
    /// drive-loop iterations, all fault-rule hits). NOT hashed.
    pub observability: Vec<(String, u64)>,
}

impl ScenarioTrace {
    /// The canonical string form of the hashed fields. Stable across runs
    /// of the same seed; the hash is FNV-1a over these bytes.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("scenario={}\nseed={}\n", self.scenario, self.seed));
        for e in &self.events {
            out.push_str(&format!("event={e}\n"));
        }
        for o in &self.outcomes {
            out.push_str(&format!("outcome={}\n", o.canonical()));
        }
        out.push_str(&format!("final={}\n", self.final_state));
        out.push_str(&format!("evicted={}\n", self.evicted.join(",")));
        out.push_str(&format!("survivors={}\n", self.survivors.join(",")));
        for (label, hits) in &self.rule_hits {
            out.push_str(&format!("rule={label}:{hits}\n"));
        }
        out
    }

    /// An FNV-1a-shaped 64-bit hash over [`ScenarioTrace::canonical`].
    /// Two same-seed runs of a correct scenario produce the same value.
    /// Deliberately not `sdflmq_mqtt::fnv1a64`: the multiplier below is
    /// `0x1000_0000_01b3`, one digit off the FNV prime `0x100_0000_01b3`,
    /// and every golden hash in `tests/chaos.rs` is pinned to it.
    pub fn hash(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for b in self.canonical().as_bytes() {
            hash ^= *b as u64;
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        hash
    }

    /// JSON form for CI artifacts (includes the unhashed observability
    /// fields and the hash itself).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"scenario\": {},\n", json_str(&self.scenario)));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"trace_hash\": \"{:016x}\",\n", self.hash()));
        out.push_str("  \"events\": [");
        out.push_str(
            &self
                .events
                .iter()
                .map(|e| json_str(e))
                .collect::<Vec<_>>()
                .join(", "),
        );
        out.push_str("],\n  \"outcomes\": [");
        out.push_str(
            &self
                .outcomes
                .iter()
                .map(|o| {
                    format!(
                        "{{\"client\": {}, \"rounds\": {}, \"outcome\": {}, \"dropped_transfers\": {}, \"undecodable_updates\": {}}}",
                        json_str(&o.client),
                        o.rounds,
                        json_str(&o.outcome),
                        o.dropped_transfers,
                        o.undecodable_updates
                    )
                })
                .collect::<Vec<_>>()
                .join(", "),
        );
        out.push_str("],\n");
        out.push_str(&format!(
            "  \"final_state\": {},\n",
            json_str(&self.final_state)
        ));
        out.push_str(&format!(
            "  \"evicted\": [{}],\n",
            self.evicted
                .iter()
                .map(|e| json_str(e))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!(
            "  \"survivors\": [{}],\n",
            self.survivors
                .iter()
                .map(|e| json_str(e))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!(
            "  \"rule_hits\": {{{}}},\n",
            self.rule_hits
                .iter()
                .map(|(l, h)| format!("{}: {h}", json_str(l)))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str(&format!(
            "  \"observability\": {{{}}}\n",
            self.observability
                .iter()
                .map(|(l, v)| format!("{}: {v}", json_str(l)))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str("}\n");
        out
    }

    /// Writes the JSON form to `dir/<scenario>-<seed>.json` (best effort;
    /// IO errors are swallowed — tracing must never fail a scenario). The
    /// directory is created if missing. Returns the path written.
    pub fn write_artifact(&self, dir: &std::path::Path) -> Option<std::path::PathBuf> {
        std::fs::create_dir_all(dir).ok()?;
        let path = dir.join(format!("{}-{}.json", self.scenario, self.seed));
        std::fs::write(&path, self.to_json()).ok()?;
        Some(path)
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> ScenarioTrace {
        ScenarioTrace {
            scenario: "t".into(),
            seed: 1,
            events: vec!["wait:x".into(), "advance:100ms".into()],
            outcomes: vec![ClientOutcome {
                client: "c00".into(),
                rounds: 2,
                outcome: "completed".into(),
                dropped_transfers: 0,
                undecodable_updates: 0,
            }],
            final_state: "completed".into(),
            evicted: vec![],
            survivors: vec!["c00".into()],
            rule_hits: vec![("dup".into(), 1)],
            observability: vec![("publishes_out".into(), 42)],
        }
    }

    #[test]
    fn hash_is_stable_and_sensitive() {
        let a = trace();
        let b = trace();
        assert_eq!(a.hash(), b.hash());
        let mut c = trace();
        c.events.push("note:extra".into());
        assert_ne!(a.hash(), c.hash(), "events are hashed");
        let mut d = trace();
        d.observability[0].1 = 99;
        assert_eq!(a.hash(), d.hash(), "observability is not hashed");
    }

    #[test]
    fn json_is_wellformed_enough() {
        let json = trace().to_json();
        assert!(json.contains("\"trace_hash\""));
        assert!(json.contains("\"scenario\": \"t\""));
        // Sanity: the mqttfc JSON parser accepts it.
        sdflmq_mqttfc::Json::parse(&json).expect("artifact JSON parses");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
