//! The repo's benchmark: five closed-loop workloads on the real stack,
//! with per-layer attribution measured from outside the program.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run (the contract form)
//! run.sh [--seed N] [--trace] [--sets K] [--save FILE]   every workload, a process each
//! run.sh --check                                          3 measured rounds each, all checks
//! run.sh --compare a.json b.json                          verdict per (workload, metric)
//! ```
//!
//! See `README.md` beside this package for what each workload and metric is for.

mod compare;
mod counters;
mod fl;
mod gen;
mod mqtt_tcp;
mod rawmqtt;
mod replay;
mod report;
mod stats;
mod trace;

use report::{MetricDef, Outcome, END_TO_END, PER_LAYER};
use sdflmq::mqttfc::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] = [
    "fl_dense_mlp",
    "fl_topk_mlp",
    "fl_ctrl_fleet32",
    "fl_train_digits",
    "mqtt_tcp_durable",
];

/// `run_seconds` of `BENCHMARK.json`: the default measuring time of a run.
const RUN_SECONDS: f64 = 20.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Rounds driven before measuring starts.
pub const WARMUP_ROUNDS: u64 = 5;
/// Output checks run on every this-many-th measured round and on the last.
pub const CHECK_EVERY: u64 = 25;
/// Broker shards: two, so cross-shard hops occur.
pub const SHARDS: usize = 2;
/// Measured rounds per workload under `--check`.
const CHECK_ROUNDS: &str = "3";

/// Arguments of one run of one workload.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// How long to measure, unless `max_rounds` is set.
    pub seconds: f64,
    pub trace: bool,
    /// Measure exactly this many rounds instead of for `seconds`.
    pub max_rounds: Option<u64>,
    pub setups: usize,
    pub out_dir: PathBuf,
}

/// Traced and untraced rounds alternate in blocks of this many, so both
/// see the same fleet, the same roles and the same host weather.
const TRACE_BLOCK: u64 = 10;

impl RunArgs {
    /// Whether the `measured`-th measured round (from 0) is a traced one.
    /// A run of a fixed few rounds alternates round by round.
    pub fn traces_round(&self, measured: u64) -> bool {
        let block = if self.max_rounds.is_some() {
            1
        } else {
            TRACE_BLOCK
        };
        self.trace && (measured / block) % 2 == 1
    }
}

/// Writes the run's spans to `<out>/trace-<workload>.json`.
pub fn write_trace(args: &RunArgs, tracer: &trace::Tracer) -> Result<(), String> {
    std::fs::create_dir_all(&args.out_dir).map_err(|e| format!("create out dir: {e}"))?;
    let path = args.out_dir.join(format!("trace-{}.json", args.workload));
    std::fs::write(&path, trace::to_json(tracer.spans()).to_string_compact())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "trace: {} spans in {}",
        tracer.spans().len(),
        path.display()
    );
    Ok(())
}

/// Command line, parsed: flags with a value, and bare switches.
struct Cli {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
    files: Vec<String>,
}

const SWITCHES: [&str; 2] = ["--check", "--compare"];
const VALUED: [&str; 9] = [
    "--workload",
    "--seed",
    "--seconds",
    "--trace",
    "--rounds",
    "--setups",
    "--out",
    "--sets",
    "--save",
];

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            values: BTreeMap::new(),
            switches: Vec::new(),
            files: Vec::new(),
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            if SWITCHES.contains(&arg.as_str()) {
                cli.switches.push(arg);
            } else if arg == "--trace" && args.peek().is_none_or(|next| next.starts_with("--")) {
                // Bare `--trace` (all-workloads form) means `--trace 1`.
                cli.values.insert(arg, "1".to_owned());
            } else if VALUED.contains(&arg.as_str()) {
                let value = args.next().ok_or(format!("{arg} needs a value"))?;
                cli.values.insert(arg, value);
            } else if arg.starts_with("--") {
                return Err(format!("unknown option {arg}"));
            } else {
                cli.files.push(arg);
            }
        }
        Ok(cli)
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn opt<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.values
            .get(flag)
            .map(|v| v.parse().map_err(|_| format!("bad value for {flag}: {v}")))
            .transpose()
    }

    fn get<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        Ok(self.opt(flag)?.unwrap_or(default))
    }

    fn out_dir(&self) -> PathBuf {
        PathBuf::from(
            self.values
                .get("--out")
                .map_or("benchmark/out", String::as_str),
        )
    }
}

fn main() -> ExitCode {
    let result = Cli::parse(std::env::args().skip(1)).and_then(|cli| {
        if cli.has("--compare") {
            compare_files(&cli)
        } else if cli.values.contains_key("--workload") {
            run_one(&cli)
        } else {
            run_all(&cli)
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("sdflmq-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn compare_files(cli: &Cli) -> Result<bool, String> {
    let [a, b] = cli.files.as_slice() else {
        return Err("--compare takes two result files".into());
    };
    let worse = compare::compare(&load(a)?, &load(b)?, &WORKLOADS)?;
    println!("{worse} worse");
    Ok(worse == 0)
}

/// One run of one workload in this process: the contract form.
fn run_one(cli: &Cli) -> Result<bool, String> {
    let args = RunArgs {
        workload: cli.get("--workload", String::new())?,
        seed: cli.get("--seed", 1)?,
        seconds: cli.get("--seconds", RUN_SECONDS)?,
        trace: cli.get::<u8>("--trace", 0)? != 0,
        max_rounds: cli.opt("--rounds")?,
        setups: cli.get("--setups", SETUPS)?.max(1),
        out_dir: cli.out_dir(),
    };
    // Read before the run's own threads raise it.
    if let Some(load) = report::load_average() {
        println!(
            "host: nproc {} load_avg_1m {load} at start",
            report::nproc()
        );
    }
    let outcome = if args.workload == "mqtt_tcp_durable" {
        mqtt_tcp::run(&args)
    } else {
        let spec =
            fl::spec(&args.workload).ok_or(format!("unknown workload {:?}", args.workload))?;
        fl::run(&spec, &args)
    };
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    print_outcome(&args, &outcome, defs);
    println!("{}", outcome.result_json(defs).to_string_compact());
    Ok(outcome.correct())
}

fn print_outcome(args: &RunArgs, outcome: &Outcome, defs: &[MetricDef]) {
    println!(
        "workload {} seed {} ({})",
        args.workload,
        args.seed,
        if args.trace {
            "traced run"
        } else {
            "timed run"
        }
    );
    let samples = outcome.notes.get("round_samples").and_then(Json::as_u64);
    if let Some(n) = samples.filter(|&n| !stats::supports(n as usize, 0.9)) {
        if args.max_rounds.is_none() && !args.trace {
            println!(
                "WARNING: {n} round samples; p90 needs {} samples beyond it",
                stats::MIN_BEYOND
            );
        }
    }
    for def in defs {
        let value = outcome.metrics.get(def.name).copied().unwrap_or(0.0);
        println!("  {:<34} {:>16.6} {}", def.name, value, def.unit);
    }
    println!(
        "  attempted {} failed {} correct {}",
        outcome.attempted,
        outcome.failed,
        outcome.correct()
    );
    for failure in outcome.check_failures.iter().take(10) {
        println!("  CHECK FAILED: {failure}");
    }
    let notes = Json::Object(
        outcome
            .notes
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect(),
    );
    println!("notes {}", notes.to_string_compact());
}

/// What a child run printed, parsed back.
struct ChildRun {
    result: Json,
    notes: Json,
    wall_s: f64,
    ok: bool,
}

/// Runs one workload in a fresh process (so `VmHWM` is per workload).
fn spawn_run(extra: &[String]) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let start = Instant::now();
    let output = Command::new(exe)
        .args(extra)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn run: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().ok_or("the run printed nothing")?;
    let result = Json::parse(last).map_err(|e| format!("result line: {e}"))?;
    let notes = stdout
        .lines()
        .find_map(|l| l.strip_prefix("notes "))
        .and_then(|n| Json::parse(n).ok())
        .unwrap_or(Json::Null);
    Ok(ChildRun {
        result,
        notes,
        wall_s,
        ok: output.status.success(),
    })
}

/// What one workload's runs added up to across the sets.
struct Tally {
    /// Metric name -> one value per set.
    values: BTreeMap<String, Vec<f64>>,
    attempted: f64,
    failed: f64,
    /// Wall time of each timed run, set-up and checks included.
    wall_s: Vec<f64>,
    /// Sample counts and the like, from the last timed run.
    notes: Json,
}

impl Tally {
    fn add(&mut self, run: ChildRun, traced: bool) {
        if let Some(Json::Object(metrics)) = run.result.get("metrics") {
            for (name, metric) in metrics {
                if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                    self.values.entry(name.clone()).or_default().push(value);
                }
            }
        }
        let count = |key| run.result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        self.attempted += count("attempted");
        self.failed += count("failed");
        if !traced {
            self.wall_s.push(run.wall_s);
            self.notes = run.notes;
        }
    }

    /// Every metric by name with its unit: median and quartiles over the sets.
    fn print(&self, workload: &str) {
        println!(
            "{workload}: attempted {} failed {} wall_s {:?}",
            self.attempted, self.failed, self.wall_s
        );
        for def in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(values) = self.values.get(def.name) {
                let [q1, median, q3] = stats::quartiles(values);
                println!(
                    "  {:<34} {median:>16.6} {:<12} [q1 {q1:.6} q3 {q3:.6}]",
                    def.name, def.unit
                );
            }
        }
    }

    fn to_json(&self) -> Json {
        let numbers = |v: &[f64]| Json::Array(v.iter().copied().map(Json::num).collect());
        let metrics = END_TO_END.iter().chain(PER_LAYER).filter_map(|def| {
            let values = self.values.get(def.name)?;
            let [q1, median, q3] = stats::quartiles(values);
            let doc = Json::object([
                ("unit", Json::str(def.unit)),
                ("values", numbers(values)),
                ("median", Json::num(median)),
                ("q1", Json::num(q1)),
                ("q3", Json::num(q3)),
            ]);
            Some((def.name, doc))
        });
        Json::object([
            ("metrics", Json::object(metrics)),
            ("attempted", Json::num(self.attempted)),
            ("failed", Json::num(self.failed)),
            ("wall_s", numbers(&self.wall_s)),
            ("notes", self.notes.clone()),
        ])
    }
}

/// Every workload, one fresh process each; `--sets K` repeats the whole
/// set with seeds `seed..seed+K`. `--check` is the 3-round smoke form.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let check = cli.has("--check");
    let seed: u64 = cli.get("--seed", 1)?;
    let sets: u64 = cli.get("--sets", 1)?.max(1);
    let seconds: f64 = cli.get("--seconds", RUN_SECONDS)?;
    let traced = cli.get::<u8>("--trace", 0)? != 0 || check;
    let out_dir = cli.out_dir();

    let hygiene = report::hygiene(seed);
    println!("hygiene {}", hygiene.to_string_compact());
    if hygiene.get("load_warning") == Some(&Json::Bool(true)) {
        println!("WARNING: 1-minute load average above nproc/2 at the start; timings are suspect");
    }
    let mut tallies = WORKLOADS.map(|_| Tally {
        values: BTreeMap::new(),
        attempted: 0.0,
        failed: 0.0,
        wall_s: Vec::new(),
        notes: Json::Null,
    });
    let mut all_ok = true;
    let started = Instant::now();
    for set in 0..sets {
        for (workload, tally) in WORKLOADS.iter().zip(&mut tallies) {
            for trace in [false, true] {
                if trace && !traced {
                    continue;
                }
                let mut args = vec![
                    "--workload".to_owned(),
                    (*workload).to_owned(),
                    "--seed".to_owned(),
                    (seed + set).to_string(),
                    "--seconds".to_owned(),
                    seconds.to_string(),
                    "--trace".to_owned(),
                    u8::from(trace).to_string(),
                    "--out".to_owned(),
                    out_dir.display().to_string(),
                ];
                if check {
                    args.extend(["--rounds", CHECK_ROUNDS, "--setups", "1"].map(str::to_owned));
                }
                let run = spawn_run(&args)?;
                all_ok &= run.ok && run.result.get("correct") == Some(&Json::Bool(true));
                tally.add(run, trace);
            }
        }
    }

    let doc = Json::object([
        ("hygiene", hygiene),
        ("sets", Json::num(sets as f64)),
        ("check", Json::Bool(check)),
        ("run_seconds", Json::num(seconds)),
        ("warmup_rounds", Json::num(WARMUP_ROUNDS as f64)),
        ("wall_s_total", Json::num(started.elapsed().as_secs_f64())),
        (
            "workloads",
            Json::object(
                WORKLOADS
                    .iter()
                    .zip(&tallies)
                    .map(|(w, t)| (*w, t.to_json())),
            ),
        ),
    ]);
    println!();
    for (workload, tally) in WORKLOADS.iter().zip(&tallies) {
        tally.print(workload);
    }
    let save = match cli.values.get("--save") {
        Some(path) => PathBuf::from(path),
        None => out_dir.join(if check { "check.json" } else { "results.json" }),
    };
    if let Some(dir) = save.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&save, doc.to_string_compact() + "\n")
        .map_err(|e| format!("write {}: {e}", save.display()))?;
    println!("results: {}", save.display());
    let verdict = if all_ok {
        "all output checks passed"
    } else {
        "OUTPUT CHECKS FAILED"
    };
    println!("{verdict}");
    Ok(all_ok)
}
