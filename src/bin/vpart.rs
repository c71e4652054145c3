//! `vpart` — command-line partitioning advisor.
//!
//! Every command declares its flags once, in [`FLAGS`]; `vpart help`
//! prints the synopses and defaults generated from it, and an undeclared
//! flag is an error listing the flags the command accepts.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use vpart::core::predicted_txn_bytes;
use vpart::model::report;
use vpart::obs::{AlertEvent, HealthMonitor, HealthSnapshot, TimeSeriesStore};
use vpart::prelude::*;

/// Every declared argument, one row each: the group declaring it (shared
/// groups are named for what they do), its name (`<name>`: positional),
/// its metavar (`-`: a switch) and its default (`-`: none), which is
/// parsed like a user's value when the flag is absent.
const FLAGS: &str = "
instance  instance               <name|file.json>                       -
workload  schema                 <ddl.sql>                              -
workload  log                    <queries.log>                          -
workload  stats                  <dump>                                 -
workload  stats-format           <pgss-csv|pgss-json|perf-schema>       pgss-csv
workload  text-width             <bytes>                                64
workload  default-rows           <n>                                    1
workload  sample-rate            <f>                                    1
workload  confidence-min         <n>                                    10
workload  lenient                -                                      -
name      name                   <s>                                    -
ingest    out                    <file.json>                            -
ingest    strict                 -                                      -
cost      sites                  <k>                                    2
cost      p                      <f>                                    8
cost      lambda                 <f>                                    0.9
solve     algo                   <qp|sa|exact>                          sa
solve     disjoint               -                                      -
solve     restarts               <n>                                    1
solve     threads                <n>                                    1
solve     probe-levels           <n>                                    0
solve     time-limit             <secs>                                 300
solve     layout                 -                                      -
replay    partitioning           <part.json>                            -
replay    threads                <n>                                    4
replay    shards                 <n>                                    32
replay    rows                   <n>                                    256
replay    txns                   <n>                                    1000
replay    rounds                 <n>                                    -
replay    duration               <secs>                                 0
replay    seed                   <n>                                    42
replay    skew                   <uniform|zipf:<theta>|hotspot:<frac>>  uniform
replay    error-bound            <f>                                    -
watch     interval               <epochs>                               2
watch     decay                  <f>                                    0.5
watch     window                 <n>                                    -
watch     drift-threshold        <f>                                    0.05
watch     rows                   <n>                                    64
watch     restarts               <n>                                    4
watch     threads                <n>                                    4
watch     hysteresis             <epochs>                               1
watch     amortize-epochs        <n>                                    0
watch     max-retries            <n>                                    3
watch     migration-batch-bytes  <B>                                    inf
sa-seed   seed                   <n>                                    12648430
fault     fault                  <point:trigger,...>                    -
inspect   <trace>                <trace.jsonl>                          -
inspect   journal                <journal.jsonl>                        -
inspect   health                 <health.json>                          -
monitor   <trace>                <trace.jsonl>                          -
monitor   follow                 -                                      -
monitor   poll-ms                <n>                                    500
monitor   max-polls              <n>                                    0
monitor   metrics                <health.json>                          -
trace     trace-out              <file.jsonl>                           -
trace     metrics-out            <file.prom>                            -
health    health-out             <file.json>                            -
health    alerts-exit            -                                      -
rules     rules                  <rules.json>                           -
flight    flight-dir             <dir>                                  -
json      json                   -                                      -
";

/// One row of [`FLAGS`].
struct Flag {
    group: &'static str,
    name: &'static str,
    positional: bool,
    metavar: Option<&'static str>,
    default: Option<&'static str>,
}

fn flag_rows() -> impl Iterator<Item = Flag> {
    FLAGS.lines().filter(|l| !l.is_empty()).map(|line| {
        let cols: Vec<&'static str> = line.split_whitespace().collect();
        let given = |i: usize| cols.get(i).copied().filter(|&c| c != "-");
        let bare = cols[1].strip_prefix('<').and_then(|n| n.strip_suffix('>'));
        Flag {
            group: cols[0],
            name: bare.unwrap_or(cols[1]),
            positional: bare.is_some(),
            metavar: given(2),
            default: given(3),
        }
    })
}

/// A subcommand: its name, the [`FLAGS`] groups it declares besides its
/// own (the group named after it), and its body.
struct Command {
    name: &'static str,
    groups: &'static str,
    run: Run,
}

type Run = fn(&Args) -> Result<(), String>;

const fn cmd(name: &'static str, groups: &'static str, run: Run) -> Command {
    Command { name, groups, run }
}

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    cmd("list",    "json",                                                        cmd_list),
    cmd("ingest",  "workload name json",                                          cmd_ingest),
    cmd("solve",   "instance workload name cost sa-seed trace json",              cmd_solve),
    cmd("replay",  "instance workload name cost fault trace health rules flight json", cmd_replay),
    cmd("watch",   "workload cost sa-seed fault trace health rules flight json",  cmd_watch),
    cmd("inspect", "",                                                            cmd_inspect),
    cmd("monitor", "rules json",                                                  cmd_monitor),
];

impl Command {
    fn flags(&self) -> impl Iterator<Item = Flag> + '_ {
        let declared = |g: &str| g == self.name || self.groups.split(' ').any(|own| own == g);
        flag_rows().filter(move |f| declared(f.group))
    }

    /// `lead`, then every declared argument with its default in
    /// parentheses.
    fn synopsis(&self, lead: &str) -> String {
        let args = self
            .flags()
            .map(|f| match (f.positional, f.metavar, f.default) {
                (true, metavar, _) => metavar.unwrap_or_default().to_owned(),
                (false, None, _) => format!("[--{}]", f.name),
                (false, Some(metavar), None) => format!("[--{} {metavar}]", f.name),
                (false, Some(metavar), Some(default)) => {
                    format!("[--{} {metavar} ({default})]", f.name)
                }
            });
        wrap(lead, args)
    }

    /// An argument error: `msg`, then this command's usage.
    fn usage_error(&self, msg: &str) -> String {
        let usage = self.synopsis(&format!("usage: vpart {} ", self.name));
        format!("{msg}\n{}", usage.trim_end())
    }
}

/// Greedily fills 80-column lines with `words`, the first line led by
/// `lead` and the rest indented to its width.
fn wrap(lead: &str, words: impl IntoIterator<Item = String>) -> String {
    let indent = " ".repeat(lead.len());
    let (mut out, mut line) = (String::new(), lead.to_owned());
    for word in words {
        if line.len() > indent.len() && line.chars().count() + word.chars().count() > 80 {
            out += line.trim_end();
            out.push('\n');
            line = indent.clone();
        }
        line += &word;
        line.push(' ');
    }
    out + line.trim_end() + "\n"
}

/// A command's arguments as given, read back through its declarations.
struct Args {
    cmd: &'static Command,
    given: HashMap<&'static str, String>,
}

impl Args {
    /// Binds `argv` to `cmd`'s declarations. Undeclared flags, stray
    /// arguments and a valued flag followed by another `--flag` are
    /// errors; a repeated flag keeps its last value.
    fn parse(cmd: &'static Command, argv: &[String]) -> Result<Self, String> {
        let mut given = HashMap::new();
        let mut tokens = argv.iter();
        while let Some(token) = tokens.next() {
            let Some(key) = token.strip_prefix("--") else {
                let slot = cmd
                    .flags()
                    .find(|f| f.positional && !given.contains_key(f.name))
                    .ok_or_else(|| cmd.usage_error(&format!("unexpected argument {token:?}")))?;
                given.insert(slot.name, token.clone());
                continue;
            };
            let flag = cmd
                .flags()
                .find(|f| f.name == key && !f.positional)
                .ok_or_else(|| {
                    cmd.usage_error(&format!("unknown flag --{key} for `vpart {}`", cmd.name))
                })?;
            let value = match flag.metavar {
                None => String::new(),
                Some(_) => match tokens.next() {
                    Some(v) if !v.starts_with("--") => v.clone(),
                    _ => return Err(format!("--{key} needs a value")),
                },
            };
            given.insert(flag.name, value);
        }
        Ok(Self { cmd, given })
    }

    /// Whether `name` was given on the command line.
    fn has(&self, name: &str) -> bool {
        self.given.contains_key(name)
    }

    /// The given value of `name`, else its declared default.
    fn value(&self, name: &str) -> Option<&str> {
        let flag = (self.cmd.flags().find(|f| f.name == name))
            .unwrap_or_else(|| panic!("vpart {} reads undeclared --{name}", self.cmd.name));
        self.given.get(name).map(String::as_str).or(flag.default)
    }

    /// [`value`](Self::value) parsed as `T`; `None` when there is none.
    fn opt<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|_| format!("invalid value for --{name}: {v:?}"))
        };
        self.value(name).map(parse).transpose()
    }

    /// [`opt`](Self::opt) of a flag that has a value or a default.
    fn get<T: FromStr>(&self, name: &str) -> Result<T, String> {
        self.opt(name)?
            .ok_or_else(|| format!("--{name} is required"))
    }
}

/// The full help: every command's generated synopsis, then the prose.
fn usage() -> String {
    let mut out = String::from(
        "vpart — vertical partitioning advisor for OLTP workloads\n\n\
         USAGE (defaults in parentheses; unknown flags are rejected):\n",
    );
    for cmd in COMMANDS {
        out += &cmd.synopsis(&format!("  vpart {:<8} ", cmd.name));
    }
    for paragraph in ABOUT.split("\n\n") {
        out += "\n";
        out += &wrap("", paragraph.split_whitespace().map(str::to_owned));
    }
    out.trim_end().to_owned()
}

/// The prose half of `vpart help`, one paragraph per blank line,
/// re-wrapped to 80 columns when printed.
const ABOUT: &str = "\
Instances: `tpcc`, any rnd class name (e.g. rndAt8x15, rndBt16x100u50), a JSON instance file, a SQL
schema + query log via --schema/--log, or a schema + statistics dump (pg_stat_statements CSV/JSON,
MySQL performance_schema digest CSV/TSV) via --schema/--stats (`vpart ingest` converts either into
the JSON form and prints a per-statement ingestion report; see README \"Bring your own workload\").
--sample-rate scales sampled inputs up to population estimates; --strict exits non-zero when any
skip or low-confidence diagnostic remains. --restarts runs that many independent SA chains (seeds
seed..seed+n) over at most --threads OS threads and keeps the best; results depend only on (seed,
restarts), not on --threads, unless a chain is cut off by --time-limit (flagged in the restart
stats). --probe-levels <n> races the chains portfolio-style: after n temperature levels the
dominated half is cut off.

`vpart replay` is the production-rate load harness: it deploys the partitioning (from --partitioning
— a solve-output or bare partitioning JSON — or a fresh seeded SA solve) as sharded row-store
storage (each fraction row stored contiguously: the paper's row-store access quantum), replays a
seeded stream of --txns weighted executions (or --rounds uniform rounds) with --threads workers
until --duration elapses, and reports txns/sec plus the model error: true physical bytes vs the cost
model's prediction. Byte meters are bit-identical across thread counts (fixed --shards row-range
shards). The replayed stream also feeds the online tracker (tracker weight in the output).
--error-bound exits non-zero when |model error| exceeds the bound. --skew picks the row-touch
distribution inside each table (uniform, zipf:<theta> with 0<theta<1, or hotspot:<frac> sending
1-frac of the traffic to the first frac of the rows); skew changes which rows are touched (checksum)
but not byte totals. --fault arms deterministic fail points (comma-separated
`point:nth=N|prob=P|once` specs, seeded from --seed): replay.pass crashes a pass (discarded and
retried, meters bit-identical), migration.batch / migration.rollback / watch.resolve crash the watch
loop's migration machinery (rolled back, retried with backoff, degraded after --max-retries
failures).

`vpart watch` replays comma-separated workload phases in epochs (--interval epochs per phase)
through the online repartitioning loop: a streaming tracker (exponential --decay or a sliding
--window of epochs) snapshots the drifting mix, the incumbent is re-scored each epoch, a warm
re-solve runs when its objective-(6) regression over a fresh bound exceeds --drift-threshold, and
the resulting migration plan is applied on a --rows rows/fragment deployment whose byte meter must
equal the plan estimate exactly. Migrations are batched (--migration-batch-bytes caps the install
bytes per batch) through a write-ahead journal; re-solves wait for --hysteresis consecutive
triggered epochs, --amortize-epochs vetoes plans whose movement cost exceeds the projected savings
horizon (0 = off), and failed migrations roll back and retry with exponential backoff until
--max-retries is exhausted, after which the watcher serves the incumbent in degraded mode (exit code
1 if still degraded at the end of the run).

Live health (watch and replay): --health-out writes a combined time-series + alert snapshot (JSON,
rewritten each epoch/pass) from a fixed-capacity sample ring ticked on the run's logical clock;
built-in rules watch SA acceptance collapse, model error out of bound, degraded-mode entry and
migration retry build-up, and --rules <file> swaps in declarative JSON rules (threshold /
rate-of-change / absence with for_ticks hysteresis). --alerts-exit exits non-zero while a critical
alert is still firing. --flight-dir arms the crash flight recorder: the last trace records ride in a
bounded ring and are dumped as flight_<point>.jsonl when a fault point trips or the process panics.
`vpart monitor` renders the alert timeline of a recorded trace (bit-identical to the snapshot's
transition history), re-evaluates rules over the sample ring (--metrics <health.json> or rebuilt
from epoch spans), and with --follow tails the trace file printing alert edges as they land; `vpart
inspect ... --health <file>` merges the snapshot's degraded-epoch and alert history into the
inspection report.

Observability: --trace-out records a structured span/event trace (JSONL; per-chain annealing spans,
per-epoch watch spans) and --metrics-out a Prometheus-style text exposition (sa_moves_total,
sa_acceptance_ratio, solve_wall_seconds, watch_epochs_total, engine_migration_bytes_total, ...).
Both are off by default and `vpart inspect <trace.jsonl>` renders a recorded trace as a per-chain
convergence table and an epoch timeline; `vpart inspect --journal <file>` summarizes a migration
journal (boundary, byte meters, rollback state) and detects corruption (checksum mismatch,
truncation, illegal record sequences).";

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn ingest_options(a: &Args) -> Result<IngestOptions, String> {
    let mut opts = IngestOptions::default()
        .with_text_width(a.get("text-width")?)
        .with_default_rows(a.get("default-rows")?)
        .with_sample_rate(a.get("sample-rate")?)
        .with_confidence_min_calls(a.get("confidence-min")?);
    if a.has("lenient") {
        opts = opts.lenient();
    }
    Ok(opts)
}

/// The workload source: `--log`, or `--stats` read as `--stats-format`
/// (`None` for a log), with its path (comma-separated phases for watch).
fn workload_source(a: &Args) -> Result<(Option<StatsFormat>, &str), String> {
    match (a.value("log"), a.value("stats")) {
        (Some(_), Some(_)) => Err("--log and --stats are mutually exclusive".to_owned()),
        (Some(log), None) => Ok((None, log)),
        (None, Some(stats)) => {
            let name = a.value("stats-format").unwrap_or_default();
            let format = StatsFormat::parse(name).ok_or_else(|| {
                format!("unknown --stats-format {name:?} (pgss-csv|pgss-json|perf-schema)")
            })?;
            Ok((Some(format), stats))
        }
        (None, None) => Err("--schema also needs --log or --stats".to_owned()),
    }
}

/// Ingests workload `text`: a query log, or a statistics dump in `format`.
fn ingest_text(
    schema_sql: &str,
    text: &str,
    format: Option<StatsFormat>,
    opts: &IngestOptions,
) -> Result<Ingestion, IngestError> {
    match format {
        Some(format) => vpart::ingest::ingest_stats(schema_sql, text, format, opts),
        None => vpart::ingest::ingest(schema_sql, text, opts),
    }
}

/// Ingests `--schema` plus either `--log` or `--stats`/`--stats-format`
/// per the shared flag conventions (the name defaults to the schema path;
/// `--lenient`/`--text-width`/`--sample-rate` apply).
fn run_ingest(a: &Args) -> Result<Ingestion, String> {
    let schema_path: String = a.get("schema")?;
    let schema_sql = read(&schema_path)?;
    let (format, path) = workload_source(a)?;
    let opts = ingest_options(a)?.with_name(a.value("name").unwrap_or(&schema_path));
    ingest_text(&schema_sql, &read(path)?, format, &opts).map_err(|e| e.to_string())
}

fn load_instance(a: &Args) -> Result<Instance, String> {
    let name = match (a.value("instance"), a.has("schema")) {
        (Some(_), true) => return Err("--instance and --schema are mutually exclusive".to_owned()),
        (None, true) => return run_ingest(a).map(report_losses),
        (Some(name), false) => name,
        (None, false) => return Err("--instance (or --schema/--log) is required".to_owned()),
    };
    if let Some(ins) = vpart::instances::by_name(name) {
        return Ok(ins);
    }
    // Fall back to an instance JSON file (the `vpart ingest --out` format).
    if Path::new(name).exists() {
        return serde_json::from_str(&read(name)?)
            .map_err(|e| format!("{name} is not a valid instance file: {e}"));
    }
    Err(format!(
        "unknown instance {name:?} (not a catalog name, not a file); try `vpart list`"
    ))
}

/// Whether any flag of the [`FLAGS`] `groups` was given.
fn given_any(a: &Args, groups: &[&str]) -> bool {
    flag_rows().any(|f| groups.contains(&f.group) && a.has(f.name))
}

/// An enabled [`Obs`] handle when any observability sink was requested
/// (a `trace`, `health`, `rules` or `flight` flag), else the inert
/// disabled handle (zero hot-path cost).
fn obs_from_flags(a: &Args) -> Obs {
    if given_any(a, &["trace", "health", "rules", "flight"]) {
        Obs::enabled()
    } else {
        Obs::disabled()
    }
}

/// A [`HealthMonitor`] when a `health` or `rules` flag was given.
fn health_from_flags(a: &Args) -> Result<Option<HealthMonitor>, String> {
    if !given_any(a, &["health", "rules"]) {
        return Ok(None);
    }
    HealthMonitor::new(vpart::obs::DEFAULT_HEALTH_CAPACITY, rules_from_flags(a)?).map(Some)
}

/// The `--rules FILE` alert rules (declarative JSON), else the built-ins.
fn rules_from_flags(a: &Args) -> Result<Vec<vpart::obs::AlertRule>, String> {
    match a.value("rules") {
        Some(p) => vpart::obs::rules_from_json(&read(p)?).map_err(|e| format!("{p}: {e}")),
        None => Ok(vpart::obs::builtin_rules()),
    }
}

/// Arms the crash flight recorder when `--flight-dir` was given: the
/// most recent trace records ride in a bounded in-memory ring and are
/// dumped as `<dir>/flight_<point>.jsonl` when a fault point trips or
/// the process panics.
fn arm_flight_from_flags(obs: &Obs, a: &Args) -> Result<(), String> {
    if let Some(dir) = a.value("flight-dir") {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        obs.arm_flight(Path::new(dir), vpart::obs::DEFAULT_FLIGHT_CAPACITY);
        obs.install_flight_panic_hook();
    }
    Ok(())
}

/// Writes the `--health-out` snapshot. Called once per tick so the file
/// on disk is fresh even if the run dies mid-way.
fn write_health_snapshot(health: Option<&HealthMonitor>, a: &Args) -> Result<(), String> {
    if let (Some(path), Some(h)) = (a.value("health-out"), health) {
        h.write_snapshot(Path::new(path))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

/// The `--alerts-exit` gate: non-zero exit when any critical rule is
/// still firing at the end of the run.
fn alerts_exit_check(health: Option<&HealthMonitor>, a: &Args) -> Result<(), String> {
    let firing = health.filter(|h| a.has("alerts-exit") && h.any_critical_firing());
    let Some(h) = firing else {
        return Ok(());
    };
    let rules: Vec<String> = h
        .alerts()
        .firing()
        .iter()
        .filter(|(r, _)| r.severity == vpart::obs::Severity::Critical)
        .map(|(r, since)| format!("{} (since tick {since})", r.name))
        .collect();
    let rules = rules.join(", ");
    Err(format!(
        "--alerts-exit: critical alert(s) still firing: {rules}"
    ))
}

/// Writes the `--trace-out` trace and `--metrics-out` exposition, then
/// names every written file (`--health-out` too) on stderr, so `--json`
/// stdout stays machine-parseable.
fn write_obs_outputs(obs: &Obs, a: &Args) -> Result<(), String> {
    if let Some(path) = a.value("trace-out") {
        obs.write_trace(Path::new(path))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote trace {path}");
    }
    if let Some(path) = a.value("metrics-out") {
        obs.write_metrics(Path::new(path))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote metrics {path}");
    }
    if let Some(path) = a.given.get("health-out") {
        eprintln!("wrote health snapshot {path}");
    }
    Ok(())
}

fn cost_config(a: &Args) -> Result<CostConfig, String> {
    let cfg = CostConfig::default()
        .with_p(a.get("p")?)
        .with_lambda(a.get("lambda")?);
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(cfg)
}

fn cmd_list(a: &Args) -> Result<(), String> {
    let catalog = vpart::instances::names().into_iter().map(|name| {
        let ins = vpart::instances::by_name(name).expect("catalog name resolves");
        (name, ins)
    });
    if a.has("json") {
        let entries: Vec<serde_json::Value> = catalog
            .map(|(name, ins)| {
                serde_json::json!({
                    "name": name,
                    "attrs": ins.n_attrs(),
                    "txns": ins.n_txns(),
                    "tables": ins.n_tables(),
                })
            })
            .collect();
        println!("{}", serde_json::Value::Array(entries));
        return Ok(());
    }
    println!("available instances:");
    for (name, ins) in catalog {
        println!(
            "  {name:<16} |A| = {:<5} |T| = {:<4} tables = {}",
            ins.n_attrs(),
            ins.n_txns(),
            ins.n_tables()
        );
    }
    Ok(())
}

fn cmd_ingest(a: &Args) -> Result<(), String> {
    let out = run_ingest(a)?;
    let json = serde_json::to_string_pretty(&out.instance).map_err(|e| e.to_string())?;
    match a.value("out") {
        Some(path) => {
            std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    if a.has("json") {
        let r = &out.report;
        let confidence: Vec<serde_json::Value> = r
            .confidence
            .iter()
            .map(|c| {
                serde_json::json!({
                    "txn": c.txn,
                    "observed": c.observed,
                    "scaled": c.scaled,
                    "low": c.level == vpart::ingest::ConfidenceLevel::LowConfidence,
                })
            })
            .collect();
        eprintln!(
            "{}",
            serde_json::json!({
                "tables": r.tables,
                "attrs": r.attrs,
                "txns": r.txns,
                "queries": r.queries,
                "statements_seen": r.statements_seen,
                "statements_ingested": r.statements_ingested,
                "txn_occurrences": r.txn_occurrences,
                "skipped": r.skipped.len(),
                "width_fallbacks": r.width_fallbacks.len(),
                "row_estimates": r.row_estimates.len(),
                "row_guesses": r.row_estimates.iter().filter(|e| !e.pk_equality).count(),
                "lossless": r.is_lossless(),
                "sample_rate": r.sample_rate,
                "confidence": serde_json::Value::Array(confidence),
                "low_confidence": r.low_confidence().count(),
            })
        );
    } else {
        eprint!("{}", out.report);
    }
    if a.has("strict") && out.report.has_diagnostics() {
        return Err(format!(
            "--strict: ingestion left {} skipped statement(s) and {} low-confidence \
             template(s)",
            out.report.skipped.len(),
            out.report.low_confidence().count()
        ));
    }
    Ok(())
}

fn cmd_solve(a: &Args) -> Result<(), String> {
    let ins = load_instance(a)?;
    let sites: usize = a.get("sites")?;
    let cost = cost_config(a)?;
    let time_limit: f64 = a.get("time-limit")?;
    if time_limit.is_nan() || time_limit <= 0.0 || !time_limit.is_finite() {
        return Err(format!(
            "--time-limit must be a positive number of seconds, got {time_limit}"
        ));
    }
    let algo_name: String = a.get("algo")?;
    let disjoint = a.has("disjoint");
    let obs = obs_from_flags(a);
    let sa = SaConfig {
        seed: a.get("seed")?,
        time_limit: std::time::Duration::from_secs_f64(time_limit),
        restarts: a.get("restarts")?,
        threads: a.get("threads")?,
        probe_levels: Some(a.get("probe-levels")?).filter(|&n| n > 0),
        obs: obs.clone(),
        ..Default::default()
    };

    let algorithm = match algo_name.as_str() {
        "qp" => {
            let mut qc = QpConfig::with_time_limit(time_limit);
            if disjoint {
                qc = qc.disjoint();
            }
            qc.obs = obs.clone();
            Algorithm::Qp(qc)
        }
        "sa" => {
            if disjoint {
                return Err("--disjoint requires --algo qp".into());
            }
            Algorithm::Sa(sa)
        }
        // The exhaustive solver is tiny-instance ground truth; it stays
        // uninstrumented and --trace-out records an empty trace for it.
        "exact" => Algorithm::Exact(ExactConfig::default()),
        other => return Err(format!("unknown algorithm {other:?} (qp|sa|exact)")),
    };

    let single = Partitioning::single_site(&ins, 1).map_err(|e| e.to_string())?;
    let baseline = evaluate(&ins, &single, &cost).objective4;
    let r = vpart::solve(&ins, sites, &algorithm, &cost).map_err(|e| e.to_string())?;
    write_obs_outputs(&obs, a)?;

    if a.has("json") {
        let restart_stats: Vec<serde_json::Value> = r
            .restarts
            .iter()
            .map(|s| {
                serde_json::json!({
                    "restart": s.restart,
                    "seed": s.seed,
                    "objective6": s.objective6,
                    "objective4": s.objective4,
                    "levels": s.levels,
                    "iterations": s.iterations,
                    "accepted_moves": s.accepted,
                    "rejected_moves": s.rejected,
                    "resyncs": s.resyncs,
                    "mean_abs_delta": s.mean_abs_delta,
                    "elapsed_secs": s.elapsed.as_secs_f64(),
                    "timed_out": s.timed_out,
                    "cut_off": s.cut_off,
                    "winner": s.winner,
                })
            })
            .collect();
        println!(
            "{}",
            serde_json::json!({
                "instance": ins.name(),
                "sites": sites,
                "algorithm": algo_name,
                "cost": r.breakdown.objective4,
                "baseline_single_site": baseline,
                "reduction": 1.0 - r.breakdown.objective4 / baseline,
                "read": r.breakdown.read,
                "write": r.breakdown.write,
                "transfer": r.breakdown.transfer,
                "max_site_work": r.breakdown.max_work,
                "optimal": r.is_optimal(),
                "elapsed_secs": r.elapsed.as_secs_f64(),
                "restarts": serde_json::Value::Array(restart_stats),
                "partitioning": r.partitioning,
            })
        );
        return Ok(());
    }

    println!("instance        {}", ins.name());
    println!("sites           {sites}");
    println!("algorithm       {algo_name} ({})", r.detail);
    println!("cost (obj 4)    {:.1}", r.breakdown.objective4);
    println!("  read          {:.1}", r.breakdown.read);
    println!("  write         {:.1}", r.breakdown.write);
    println!(
        "  transfer      {:.1} (p = {})",
        r.breakdown.transfer, cost.p
    );
    println!("max site work   {:.1}", r.breakdown.max_work);
    println!("single site     {baseline:.1}");
    println!(
        "reduction       {:.1}%{}",
        (1.0 - r.breakdown.objective4 / baseline) * 100.0,
        if r.is_optimal() {
            " (proven optimal)"
        } else {
            ""
        }
    );
    println!("elapsed         {:.2?}", r.elapsed);
    if r.restarts.len() > 1 {
        println!(
            "restarts        (best of {}, per-chain budget)",
            r.restarts.len()
        );
        for s in &r.restarts {
            println!(
                "  #{:<2} seed {:<12} obj6 {:>14.1}  {:>7} iters  {:.2?}{}{}",
                s.restart,
                s.seed,
                s.objective6,
                s.iterations,
                s.elapsed,
                if s.timed_out {
                    "  [timed out]"
                } else if s.cut_off {
                    "  [cut at probe]"
                } else {
                    ""
                },
                if s.winner { "  <- winner" } else { "" }
            );
        }
    }
    if a.has("layout") {
        println!("\n{}", report::render_partitioning(&ins, &r.partitioning));
    } else {
        println!("\n{}", report::render_summary(&ins, &r.partitioning));
    }
    Ok(())
}

/// Loads `--partitioning`: either a bare [`Partitioning`] JSON or a
/// `vpart solve --json` output (its `partitioning` field).
fn load_partitioning(path: &str, ins: &Instance) -> Result<Partitioning, String> {
    let value: serde_json::Value =
        serde_json::from_str(&read(path)?).map_err(|e| format!("{path} is not JSON: {e}"))?;
    let inner = match value.get("partitioning") {
        Some(p) => p.clone(),
        None => value,
    };
    let part: Partitioning = serde_json::from_value(&inner)
        .map_err(|e| format!("{path} holds no partitioning (bare or under `partitioning`): {e}"))?;
    part.validate(ins, false)
        .map_err(|e| format!("{path} does not fit this instance: {e}"))?;
    Ok(part)
}

fn cmd_replay(a: &Args) -> Result<(), String> {
    let ins = load_instance(a)?;
    let sites: usize = a.get("sites")?;
    let seed: u64 = a.get("seed")?;
    let shards: usize = a.get("shards")?;
    let rows: usize = a.get("rows")?;
    let duration: f64 = a.get("duration")?;
    if !duration.is_finite() || duration < 0.0 {
        return Err(format!(
            "--duration must be a non-negative number of seconds, got {duration}"
        ));
    }
    let skew = RowSkew::parse(&a.get::<String>("skew")?).map_err(|e| e.to_string())?;
    let error_bound: Option<f64> = a.opt("error-bound")?;
    let mut faults = FaultInjector::new(seed);
    if let Some(specs) = a.value("fault") {
        faults.arm_specs(specs).map_err(|e| e.to_string())?;
    }
    let cost = cost_config(a)?;
    let obs = obs_from_flags(a);

    let part = match a.value("partitioning") {
        Some(path) => load_partitioning(path, &ins)?,
        None => {
            SaSolver::new(SaConfig {
                seed,
                ..Default::default()
            })
            .solve(&ins, sites, &cost)
            .map_err(|e| e.to_string())?
            .partitioning
        }
    };

    let stream = match a.opt("rounds")? {
        Some(_) if a.has("txns") => {
            return Err("--txns and --rounds are mutually exclusive".to_owned())
        }
        Some(rounds) => ReplayStream::uniform(&ins, rounds, seed),
        None => ReplayStream::weighted(&ins, a.get("txns")?, seed),
    };

    // The cost model's prediction for one pass of this stream.
    let predicted = stream.predicted(&predicted_txn_bytes(&ins, &part, &cost), |b| {
        (b.read, b.written, b.transferred)
    });

    let mut dep = ReplayDeployment::new(&ins, &part, rows, shards).map_err(|e| e.to_string())?;
    dep = dep.with_obs(obs.clone());
    if let Some(monitor) = health_from_flags(a)? {
        dep = dep.with_health(monitor);
    }
    arm_flight_from_flags(&obs, a)?;
    let report = dep
        .replay(
            &stream,
            &ReplayConfig {
                threads: a.get("threads")?,
                min_duration: std::time::Duration::from_secs_f64(duration),
                max_passes: usize::MAX,
                skew,
                faults,
            },
            Some(&predicted),
        )
        .map_err(|e| e.to_string())?;

    // Feed the replayed stream back through the online tracker, the
    // watch loop's engine-speed observation path.
    let mut tracker =
        OnlineWorkload::from_instance(&ins, TrackerConfig::default()).map_err(|e| e.to_string())?;
    let tracker_weight = tracker
        .observe_replay(&ins, &stream.executions)
        .map_err(|e| e.to_string())?;

    write_health_snapshot(dep.health(), a)?;
    write_obs_outputs(&obs, a)?;

    let me = report
        .model_error
        .as_ref()
        .ok_or_else(|| "replay always carries a prediction here".to_owned())?;
    let totals = report.totals();
    if a.has("json") {
        let per_site: Vec<serde_json::Value> = report
            .per_site
            .iter()
            .map(|s| serde_json::json!({"bytes_read": s.bytes_read, "bytes_written": s.bytes_written}))
            .collect();
        let bytes_json = |b: &PredictedBytes| {
            serde_json::json!({
                "read": b.read,
                "written": b.written,
                "transferred": b.transferred,
            })
        };
        let error_json = serde_json::json!({
            "read": me.read_ratio,
            "write": me.write_ratio,
            "transfer": me.transfer_ratio,
            "overall": me.overall_ratio,
        });
        // The thread-count-invariant meter block: byte-compare this
        // across `--threads` values to assert determinism.
        let meter_json = serde_json::json!({
            "per_site": serde_json::Value::Array(per_site),
            "transfer_bytes": report.transfer_bytes,
            "rows_read": report.rows_read,
            "rows_written": report.rows_written,
            "stream_len": report.stream_len,
            "checksum": report.checksum,
        });
        println!(
            "{}",
            serde_json::json!({
                "instance": ins.name(),
                "sites": part.n_sites(),
                "threads": report.threads,
                "shards": report.shards,
                "rows_per_table": rows,
                "stream_len": report.stream_len,
                "seed": seed,
                "passes": report.passes,
                "passes_injected": report.passes_injected,
                "txns_replayed": report.txns_replayed,
                "elapsed_secs": report.elapsed.as_secs_f64(),
                "txns_per_sec": report.throughput_txns_per_sec(),
                "predicted": bytes_json(&me.predicted),
                "measured": bytes_json(&me.measured),
                "model_error_ratio": me.overall_ratio,
                "model_error": error_json,
                "meter": meter_json,
                "tracker_weight": tracker_weight,
                "tracker_templates": tracker.n_templates(),
            })
        );
    } else {
        println!(
            "instance {} on {} sites: {} executions/pass, {} pass(es), {} threads, {} shards",
            ins.name(),
            part.n_sites(),
            report.stream_len,
            report.passes,
            report.threads,
            report.shards
        );
        println!(
            "throughput       {:>14.0} txns/sec ({} txns in {:.3?})",
            report.throughput_txns_per_sec(),
            report.txns_replayed,
            report.elapsed
        );
        println!("                 {:>14} {:>14}", "predicted", "measured");
        println!(
            "bytes read       {:>14.1} {:>14}",
            me.predicted.read, totals.bytes_read
        );
        println!(
            "bytes written    {:>14.1} {:>14}",
            me.predicted.written, totals.bytes_written
        );
        println!(
            "bytes shipped    {:>14.1} {:>14}",
            me.predicted.transferred, report.transfer_bytes
        );
        println!(
            "model error      {:+.4} overall (read {:+.4}, write {:+.4}, transfer {:+.4})",
            me.overall_ratio, me.read_ratio, me.write_ratio, me.transfer_ratio
        );
        println!(
            "rows touched     {} read, {} written; checksum {:#018x}",
            report.rows_read, report.rows_written, report.checksum
        );
        if report.passes_injected > 0 {
            println!(
                "faults           {} injected pass(es) discarded and retried",
                report.passes_injected
            );
        }
        println!(
            "tracker          {} templates fed, total weight {:.1}",
            tracker.n_templates(),
            tracker_weight
        );
    }

    if let Some(bound) = error_bound {
        if !me.overall_ratio.is_finite() || me.overall_ratio.abs() > bound {
            return Err(format!(
                "model error {:+.4} exceeds --error-bound {bound}",
                me.overall_ratio
            ));
        }
    }
    alerts_exit_check(dep.health(), a)?;
    Ok(())
}

/// Ingests one watch phase file against the shared schema.
fn ingest_phase(
    schema_sql: &str,
    path: &str,
    format: Option<StatsFormat>,
    opts: &IngestOptions,
) -> Result<Instance, String> {
    let opts = opts.clone().with_name(path);
    ingest_text(schema_sql, &read(path)?, format, &opts)
        .map(report_losses)
        .map_err(|e| format!("{path}: {e}"))
}

/// The ingested instance, after printing any loss or low-confidence
/// diagnostics of its report to stderr.
fn report_losses(out: Ingestion) -> Instance {
    if !out.report.is_lossless() || out.report.has_diagnostics() {
        eprint!("{}", out.report);
    }
    out.instance
}

fn cmd_watch(a: &Args) -> Result<(), String> {
    let schema_path: String = a.get("schema")?;
    let schema_sql = read(&schema_path)?;
    let (format, paths) = workload_source(a)?;
    let opts = ingest_options(a)?;

    let seed: u64 = a.get("seed")?;
    let interval: usize = a.get("interval")?;
    let max_retries: usize = a.get("max-retries")?;
    let mut faults = FaultInjector::new(seed);
    if let Some(specs) = a.value("fault") {
        faults.arm_specs(specs).map_err(|e| e.to_string())?;
    }
    if interval == 0 {
        return Err("--interval must be positive".into());
    }
    let decay = match (a.has("decay"), a.opt("window")?) {
        (true, Some(_)) => return Err("--decay and --window are mutually exclusive".into()),
        (false, Some(epochs)) => DecayMode::Window { epochs },
        (_, None) => DecayMode::Exponential {
            factor: a.get("decay")?,
        },
    };

    // Phase instances share the schema by construction (same DDL text).
    let parsed = vpart::ingest::parse_schema(&schema_sql, &opts).map_err(|e| e.to_string())?;
    let tracker = OnlineWorkload::new(
        schema_path.clone(),
        parsed.schema,
        TrackerConfig {
            decay,
            ..TrackerConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let obs = obs_from_flags(a);
    let mut watcher = Watcher::new(
        tracker,
        WatchConfig {
            sites: a.get("sites")?,
            cost: cost_config(a)?,
            drift: DriftConfig {
                threshold: a.get("drift-threshold")?,
                ..Default::default()
            },
            seed,
            rows_per_fragment: a.get("rows")?,
            cold_restarts: a.get("restarts")?,
            threads: a.get("threads")?,
            hysteresis: a.get("hysteresis")?,
            amortize_epochs: a.get("amortize-epochs")?,
            max_retries,
            migration_batch_bytes: a.get("migration-batch-bytes")?,
            faults,
            obs: obs.clone(),
        },
    )
    .map_err(|e| e.to_string())?;
    if let Some(monitor) = health_from_flags(a)? {
        watcher = watcher.with_health(monitor);
    }
    arm_flight_from_flags(&obs, a)?;

    let json = a.has("json");
    let mut epochs_json: Vec<serde_json::Value> = Vec::new();
    if !json {
        println!(
            "{:<5} {:<28} {:>9} {:>12} {:>12}  {:<14} {:>14}",
            "epoch", "phase", "score", "incumbent", "bound", "action", "moved-bytes"
        );
    }
    for phase_path in paths.split(',') {
        let phase = ingest_phase(&schema_sql, phase_path, format, &opts)?;
        for _ in 0..interval {
            watcher
                .tracker_mut()
                .observe_instance(&phase)
                .map_err(|e| e.to_string())?;
            let out = watcher.end_epoch(phase_path).map_err(|e| e.to_string())?;
            if let Some(m) = &out.migration {
                if !m.meter_matches {
                    return Err(format!(
                        "epoch {}: migration meter {} != plan estimate {}",
                        out.epoch, m.measured_bytes, m.estimated_bytes
                    ));
                }
            }
            // Overwritten each epoch so the on-disk snapshot stays fresh
            // even if a later epoch crashes the process.
            write_health_snapshot(watcher.health(), a)?;
            if json {
                epochs_json.push(serde_json::json!({
                    "epoch": out.epoch,
                    "phase": out.label,
                    "templates": out.templates,
                    "incumbent_objective6": out.incumbent_cost,
                    "bound_objective6": out.bound,
                    "drift_score": out.drift_score,
                    "triggered": out.triggered,
                    "epoch_wall_secs": out.elapsed.as_secs_f64(),
                    "snapshot_attrs": out.snapshot_attrs,
                    "veto": out.veto,
                    "failures": out.failures,
                    "backoff_remaining": out.backoff_remaining,
                    "degraded": out.degraded,
                    "resolve": out.resolve.as_ref().map(|r| serde_json::json!({
                        "cold": r.cold,
                        "objective6": r.objective6,
                        "restarts": r.restarts,
                        "elapsed_secs": r.elapsed.as_secs_f64(),
                    })),
                    "migration": out.migration.as_ref().map(|m| serde_json::json!({
                        "fragment_changes": m.plan.changes.len(),
                        "installs": m.plan.installs(),
                        "drops": m.plan.drops(),
                        "txn_moves": m.plan.txn_moves.len(),
                        "estimated_bytes": m.estimated_bytes,
                        "measured_bytes": m.measured_bytes,
                        "meter_matches": m.meter_matches,
                        "batches": m.batches,
                        "peak_transient_bytes": m.peak_transient_bytes,
                    })),
                }));
            } else {
                let action = match (&out.resolve, &out.migration) {
                    (Some(r), _) if r.cold => "cold solve".to_string(),
                    (Some(_), Some(m)) => {
                        format!("warm+migrate({}i/{}d)", m.plan.installs(), m.plan.drops())
                    }
                    (Some(_), None) => "warm re-solve".to_string(),
                    // A vetoed epoch serves the incumbent; the first words
                    // of the veto reason name why (hysteresis, retry
                    // backoff, amortization, migration failed, degraded).
                    _ => match &out.veto {
                        Some(v) => v
                            .split(&[':', '('][..])
                            .next()
                            .unwrap_or("veto")
                            .trim()
                            .to_string(),
                        None => "keep".to_string(),
                    },
                };
                let moved = out
                    .migration
                    .as_ref()
                    .map(|m| format!("{:.0}", m.measured_bytes))
                    .unwrap_or_else(|| "-".to_string());
                println!(
                    "{:<5} {:<28} {:>9.4} {:>12.1} {:>12.1}  {:<14} {:>14}",
                    out.epoch,
                    out.label,
                    out.drift_score,
                    out.incumbent_cost,
                    out.bound,
                    action,
                    moved
                );
            }
        }
    }
    if json {
        println!("{}", serde_json::Value::Array(epochs_json));
    } else if watcher.retries_total() > 0 {
        println!(
            "migrations: {} retry(ies), {} rollback(s)",
            watcher.retries_total(),
            watcher.rollbacks_total()
        );
    }
    write_obs_outputs(&obs, a)?;
    alerts_exit_check(watcher.health(), a)?;
    if watcher.is_degraded() {
        return Err(format!(
            "watch ended degraded: {} migration failure(s) exhausted --max-retries {} \
             ({} rollback(s)); the incumbent is still being served",
            watcher.retries_total(),
            max_retries,
            watcher.rollbacks_total()
        ));
    }
    Ok(())
}

/// One alert transition as a text row.
fn transition_row(tick: u64, rule: &str, state: &str, severity: &str, value: f64) -> String {
    format!("{tick:>6} {state:>10} {severity:>9}  {rule:<28} {value:>12.4}")
}

/// Loads and renders a `--health-out` snapshot: sample-ring shape, alert
/// transition history, rules still firing, and the degraded epochs.
fn render_health(path: &str) -> Result<String, String> {
    let h = HealthSnapshot::from_path(Path::new(path))?;
    let mut out = String::new();
    let _ = writeln!(out, "health snapshot  {path}");
    let ticks: Vec<u64> = h.series.samples().map(|s| s.tick).collect();
    match (ticks.first(), ticks.last()) {
        (Some(a), Some(b)) => {
            let _ = writeln!(
                out,
                "samples          {} (ticks {a}..{b}, {} evicted)",
                ticks.len(),
                h.series.evicted()
            );
        }
        _ => {
            let _ = writeln!(out, "samples          0");
        }
    }
    let degraded = h.degraded_ticks();
    if degraded.is_empty() {
        let _ = writeln!(out, "degraded ticks   none");
    } else {
        let list: Vec<String> = degraded.iter().map(u64::to_string).collect();
        let _ = writeln!(
            out,
            "degraded ticks   {} of {}: {}",
            degraded.len(),
            ticks.len(),
            list.join(", ")
        );
    }
    if !h.transitions.is_empty() {
        let _ = writeln!(out, "alert history");
        for (tick, rule, state, severity, value) in &h.transitions {
            out += &transition_row(*tick, rule, state, severity, *value);
            out.push('\n');
        }
    }
    if h.firing.is_empty() {
        let _ = writeln!(out, "firing           none");
    } else {
        let _ = writeln!(out, "firing           {}", h.firing.join(", "));
    }
    Ok(out)
}

/// `vpart inspect <trace.jsonl>`: renders a recorded trace as a per-chain
/// convergence table plus an epoch timeline. `vpart inspect --journal
/// <file>` summarizes a migration journal instead, rejecting corrupt ones.
/// Either form (and the bare form `vpart inspect --health <snap>`) takes
/// `--health <snapshot.json>` to merge in the recorded health view.
fn cmd_inspect(a: &Args) -> Result<(), String> {
    let mut sep = "\n";
    match (a.value("trace"), a.value("journal")) {
        (Some(path), None) => print!("{}", read_trace(path)?.render()),
        (None, Some(path)) => inspect_journal(path)?,
        (None, None) if a.has("health") => sep = "",
        _ => {
            return Err(a
                .cmd
                .usage_error("needs <trace.jsonl>, --journal or --health"))
        }
    }
    if let Some(snap) = a.value("health") {
        print!("{sep}{}", render_health(snap)?);
    }
    Ok(())
}

fn read_trace(path: &str) -> Result<TraceSummary, String> {
    TraceSummary::from_jsonl(&read(path)?).map_err(|e| format!("{path}: {e}"))
}

/// Renders a migration journal's durable state: plan identity, batch
/// boundary, byte meters and rollback status. Corruption (checksum
/// mismatch, truncated lines, illegal sequences) surfaces as an error.
fn inspect_journal(path: &str) -> Result<(), String> {
    let journal = MigrationJournal::from_jsonl(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
    if journal.is_empty() {
        println!("journal {path}: empty (migration not started)");
        return Ok(());
    }
    let st = journal.state();
    let Some(&JournalRecord::Start {
        fingerprint,
        batches,
        rows_per_fragment,
    }) = journal.records().first()
    else {
        // from_jsonl enforces Start-first; an empty journal returned above.
        return Err(format!("{path}: journal does not begin with Start"));
    };
    println!("journal          {path}");
    println!("records          {}", journal.records().len());
    println!("plan fingerprint {fingerprint:#018x}");
    println!("plan batches     {batches} ({rows_per_fragment} rows/fragment)");
    println!(
        "boundary         {} (committed {}, undone {})",
        st.boundary(),
        st.committed,
        st.undone
    );
    println!("bytes committed  {:.1}", st.bytes_committed);
    if st.undone > 0 || st.rolling_back || st.rolled_back {
        println!("bytes undone     {:.1}", st.bytes_undone);
    }
    let status = if st.complete {
        "complete (deployment reached plan.to)".to_string()
    } else if st.rolled_back {
        "rolled back (deployment back at plan.from)".to_string()
    } else if st.rolling_back {
        format!(
            "rolling back ({} of {} committed batch(es) still to undo)",
            st.boundary(),
            st.committed
        )
    } else {
        format!(
            "in flight ({} of {batches} batch(es) committed; resume or roll back)",
            st.committed
        )
    };
    println!("status           {status}");
    Ok(())
}

/// Rebuilds a gauge/counter sample ring from a trace's `watch_epoch`
/// spans so rules can be re-evaluated without a `--metrics` snapshot.
fn store_from_trace(summary: &TraceSummary) -> TimeSeriesStore {
    let mut store = TimeSeriesStore::new(vpart::obs::DEFAULT_HEALTH_CAPACITY);
    for (i, e) in summary.epochs.iter().enumerate() {
        let mut counters = BTreeMap::new();
        counters.insert("watch_epochs_total".to_string(), (i + 1) as f64);
        let mut gauges = BTreeMap::new();
        gauges.insert("watch_drift_score".to_string(), e.drift_score);
        gauges.insert("watch_drift_threshold_margin".to_string(), e.margin);
        gauges.insert(
            "watch_degraded".to_string(),
            if e.degraded { 1.0 } else { 0.0 },
        );
        store.record(e.epoch, counters, gauges);
    }
    store
}

/// Replays a rule set tick-by-tick over a reconstructed sample ring and
/// returns the transitions it would have produced.
fn evaluate_rules_over(
    store: &TimeSeriesStore,
    rules: Vec<vpart::obs::AlertRule>,
) -> Result<Vec<vpart::obs::AlertTransition>, String> {
    let mut engine = vpart::obs::AlertEngine::new(rules)?;
    let mut replayed = TimeSeriesStore::new(store.capacity());
    let obs = Obs::disabled();
    for s in store.samples() {
        replayed.record(s.tick, s.counters.clone(), s.gauges.clone());
        engine.evaluate(s.tick, &replayed, &obs);
    }
    Ok(engine.transitions().to_vec())
}

/// `--follow`: tails the trace file, printing each `alert` event as it
/// lands (text columns, or one JSON transition per line with `--json`).
/// `--max-polls` bounds the loop (0 = follow forever); `--poll-ms` sets
/// the poll interval. A truncated/rewritten file restarts from the top.
fn monitor_follow(path: &str, a: &Args, json: bool) -> Result<(), String> {
    let poll_ms: u64 = a.get("poll-ms")?;
    let max_polls: u64 = a.get("max-polls")?;
    eprintln!("following {path} for alert edges (poll every {poll_ms} ms)");
    let mut offset = 0usize;
    let mut polls = 0u64;
    loop {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        if text.len() < offset {
            offset = 0;
        }
        let new = &text[offset..];
        let complete = new.rfind('\n').map(|i| i + 1).unwrap_or(0);
        // Lines that are not well-formed trace records are skipped.
        let records = new[..complete]
            .lines()
            .filter_map(|l| TraceSummary::from_jsonl(l).ok());
        for e in records.flat_map(|r| r.alerts) {
            if json {
                println!("{}", e.to_transition_json());
            } else {
                println!(
                    "{}",
                    transition_row(e.tick, &e.rule, &e.state, &e.severity, e.value)
                );
            }
        }
        offset += complete;
        polls += 1;
        if max_polls > 0 && polls >= max_polls {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(poll_ms));
    }
    Ok(())
}

/// `vpart monitor <trace.jsonl>`: the health view of a recorded trace —
/// the alert timeline (bit-identical to the transitions a live
/// `--health-out` snapshot records), per-epoch degradation, and a rule
/// re-evaluation over the sample ring (`--metrics <snapshot.json>` when
/// given, else one rebuilt from the trace's epoch spans). `--rules FILE`
/// swaps the built-in rule set; `--follow` tails the file instead.
fn cmd_monitor(a: &Args) -> Result<(), String> {
    let path = a
        .value("trace")
        .ok_or_else(|| a.cmd.usage_error("missing <trace.jsonl>"))?;
    let json = a.has("json");
    if a.has("follow") {
        return monitor_follow(path, a, json);
    }

    let summary = read_trace(path)?;
    let health = (a
        .value("metrics")
        .map(|p| HealthSnapshot::from_path(Path::new(p))))
    .transpose()?;
    let rules = rules_from_flags(a)?;
    let store = (health.as_ref()).map_or_else(|| store_from_trace(&summary), |h| h.series.clone());
    let rule_eval = evaluate_rules_over(&store, rules)?;

    if json {
        let alerts: Vec<serde_json::Value> = summary
            .alerts
            .iter()
            .map(AlertEvent::to_transition_json)
            .collect();
        let firing: Vec<serde_json::Value> = summary
            .firing_rules()
            .iter()
            .map(|r| serde_json::Value::String((*r).to_string()))
            .collect();
        let epochs: Vec<serde_json::Value> = summary
            .epochs
            .iter()
            .map(|e| {
                serde_json::json!({
                    "epoch": e.epoch,
                    "drift_score": e.drift_score,
                    "margin": e.margin,
                    "triggered": e.triggered,
                    "degraded": e.degraded,
                })
            })
            .collect();
        let eval_json: Vec<serde_json::Value> = rule_eval.iter().map(|t| t.to_json()).collect();
        let health_json = match &health {
            Some(h) => {
                let transitions: Vec<serde_json::Value> = h
                    .transitions
                    .iter()
                    .map(|(tick, rule, state, severity, value)| {
                        serde_json::json!({
                            "tick": tick,
                            "rule": rule,
                            "state": state,
                            "severity": severity,
                            "value": serde_json::Value::Float(*value),
                        })
                    })
                    .collect();
                serde_json::json!({
                    "samples": h.series.len(),
                    "evicted": h.series.evicted(),
                    "degraded_ticks": h.degraded_ticks(),
                    "firing": h.firing,
                    "transitions": serde_json::Value::Array(transitions),
                })
            }
            None => serde_json::Value::Null,
        };
        println!(
            "{}",
            serde_json::json!({
                "trace": serde_json::json!({
                    "records": summary.records,
                    "spans": summary.spans,
                    "events": summary.events,
                }),
                "alerts": serde_json::Value::Array(alerts),
                "firing": serde_json::Value::Array(firing),
                "epochs": serde_json::Value::Array(epochs),
                "rule_eval": serde_json::Value::Array(eval_json),
                "health": health_json,
            })
        );
        return Ok(());
    }

    print!("{}", summary.render());
    if !rule_eval.is_empty() {
        println!("\nrule re-evaluation over sample ring");
        for t in &rule_eval {
            let severity = t.severity.as_str();
            println!(
                "{}",
                transition_row(t.tick, &t.rule, t.state, severity, t.value)
            );
        }
    }
    if let Some(p) = a.value("metrics") {
        print!("\n{}", render_health(p)?);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = match COMMANDS.iter().find(|c| c.name == name) {
        Some(cmd) => Args::parse(cmd, &args[1..]).and_then(|a| (cmd.run)(&a)),
        None if matches!(name.as_str(), "help" | "--help" | "-h") => {
            println!("{}", usage());
            Ok(())
        }
        None => Err(format!("unknown command {name:?}\n\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A name declared twice in one command would make the second row
    /// unreachable (the parser binds the first).
    #[test]
    fn each_command_declares_a_name_once() {
        for cmd in COMMANDS {
            let mut names: Vec<&str> = cmd.flags().map(|f| f.name).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(names.len(), before, "vpart {} repeats a flag", cmd.name);
        }
    }

    /// The declared ingest defaults are the library's.
    #[test]
    fn ingest_defaults_match_the_library() {
        let ingest = COMMANDS.iter().find(|c| c.name == "ingest").unwrap();
        let a = Args::parse(ingest, &[]).unwrap();
        assert_eq!(ingest_options(&a).unwrap(), IngestOptions::default());
    }

    #[test]
    fn parser_binds_declared_flags_and_defaults() {
        let solve = COMMANDS.iter().find(|c| c.name == "solve").unwrap();
        let parse = |argv: &[&str]| {
            let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            Args::parse(solve, &argv)
        };
        let error = |argv: &[&str]| parse(argv).err().unwrap();
        let a = parse(&["--sites", "-3", "--layout", "--sites", "4"]).unwrap();
        assert_eq!(a.get::<usize>("sites"), Ok(4));
        assert!(a.has("layout") && !a.has("json"));
        assert_eq!(a.get::<f64>("lambda"), Ok(0.9));
        assert_eq!(a.opt::<String>("instance"), Ok(None));
        assert_eq!(
            a.get::<String>("instance").unwrap_err(),
            "--instance is required"
        );

        assert!(error(&["--bogus"]).starts_with("unknown flag --bogus for `vpart solve`"));
        assert_eq!(error(&["--algo", "--json"]), "--algo needs a value");
        assert!(error(&["stray"]).starts_with("unexpected argument \"stray\""));
    }
}
