//! End-to-end benchmark of the vpart advisor.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <advise-rnd64|advise-tpcc-qp|serve-tpcc|watch-rnd64> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload: it sets the workload up several times
//! (reporting the median set-up time), then runs a closed loop of
//! operations on the main thread for `--seconds`, checks every result,
//! and prints one JSON object as the last line of standard output. With
//! `--trace 0` the object carries the end-to-end metrics; with
//! `--trace 1` the loop alternates untraced and traced blocks and the
//! object carries the per-layer breakdown of the traced operations. A
//! failed check counts as a failed operation and makes the exit code 1.
//! See README.md for the workloads, metrics and layer mapping.

mod advise;
mod layers;
mod serve;
mod stats;
mod watch;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use vpart_obs::Obs;

/// End-to-end metrics, every one reported by every workload with
/// `--trace 0` (name, unit). Keep in step with `BENCHMARK.json`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("work_per_s", "1/s"),
    ("cost_ratio", "ratio"),
];

/// Per-layer metrics, every one reported by every workload with
/// `--trace 1` (name, unit). A layer a workload never enters reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("instances.build_ms", "ms"),
    ("cost.coeffs_ms", "ms"),
    ("cost.self_ms", "ms"),
    ("sa.solve_ms", "ms"),
    ("sa.iterations", "count"),
    ("sa.moves_per_s", "1/s"),
    ("sa.accept_ratio", "ratio"),
    ("sa.levels", "count"),
    ("sa.resyncs", "count"),
    ("sa.warm_resolve_ms", "ms"),
    ("sa.self_ms", "ms"),
    ("qp.solve_ms", "ms"),
    ("qp.build_ms", "ms"),
    ("qp.self_ms", "ms"),
    ("ilp.lp_pivots", "count"),
    ("ilp.bb_nodes", "count"),
    ("ilp.pivots_per_s", "1/s"),
    ("ilp.self_ms", "ms"),
    ("migration.plan_bytes", "B"),
    ("migration.batches", "count"),
    ("migration.peak_transient_bytes", "B"),
    ("migration.self_ms", "ms"),
    ("engine.migrate_ms", "ms"),
    ("engine.migrated_bytes", "B"),
    ("engine.self_ms", "ms"),
    ("replay.deploy_s", "s"),
    ("replay.stored_mb", "MB"),
    ("replay.pass_p50_ms", "ms"),
    ("replay.rows_read_per_txn", "count"),
    ("replay.rows_written_per_txn", "count"),
    ("replay.transfer_bytes_per_txn", "B"),
    ("replay.bytes_per_txn", "B"),
    ("replay.self_ms", "ms"),
    ("online.observe_us", "us"),
    ("online.keep_epoch_ms", "ms"),
    ("online.resolve_p50_ms", "ms"),
    ("online.epochs", "count"),
    ("online.resolve_share", "ratio"),
    ("online.drift_score_mean", "ratio"),
    ("online.self_ms", "ms"),
    ("bench.self_ms", "ms"),
    ("obs.op_mean_ms", "ms"),
    ("obs.traced_p50_ms", "ms"),
    ("obs.untraced_p50_ms", "ms"),
    ("obs.overhead_ratio", "ratio"),
    ("obs.unattributed_ratio", "ratio"),
];

/// A run is split into this many segments. Each sets the workload up
/// afresh and then runs operations for its share of `--seconds`, so the
/// set-ups (whose median is `setup_s`) are spread over the run like the
/// operations are.
pub const SEGMENTS: usize = 5;

/// Seed of the set-up inputs (warm-up requests, the watcher's solves and
/// warm-up split): the same for every run, so every set-up does the same
/// work whatever `--seed` is.
pub const SET_UP_SEED: u64 = 0x5EED_5E70;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|_| bad("not an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(bad("must be positive"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("must be 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timed operations attempted.
    pub attempted: usize,
    /// Operations that errored or failed a check.
    pub failed: usize,
    /// Metric values by name (end-to-end or per-layer, per `--trace`).
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Sets metric `name`, replacing an earlier value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }
}

/// Failure accounting shared by the workloads: every failed check is
/// logged to stderr, and an operation with at least one failed check
/// counts as failed. Set-up checks count against the first operation.
#[derive(Debug, Default)]
pub struct Checks {
    failures: usize,
    closed: usize,
    failed_ops: usize,
}

impl Checks {
    /// Records a failed check when `ok` is false; returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failures += 1;
            eprintln!("check failed: {}", what());
        }
        ok
    }

    /// Ends the current operation's checks.
    pub fn close_op(&mut self) {
        if self.failures > self.closed {
            self.failed_ops += 1;
        }
        self.closed = self.failures;
    }

    /// Failed operations out of `attempted`.
    pub fn failed_ops(&mut self, attempted: usize) -> usize {
        self.close_op();
        self.failed_ops.min(attempted)
    }
}

/// A segment's stop rule: its share of `--seconds`, and at least
/// `min_ops` operations.
pub struct Deadline {
    start: Instant,
    seconds: f64,
    min_ops: usize,
}

impl Deadline {
    pub fn segment(args: &Args, min_ops: usize) -> Self {
        Self {
            start: Instant::now(),
            seconds: args.seconds / SEGMENTS as f64,
            min_ops,
        }
    }

    /// Whether to run another operation after `done` in this segment.
    pub fn more(&self, done: usize) -> bool {
        done < self.min_ops || self.start.elapsed().as_secs_f64() < self.seconds
    }
}

/// The run's recording handle: enabled with `--trace 1`.
pub fn recording(args: &Args) -> Obs {
    if args.trace {
        Obs::enabled()
    } else {
        Obs::disabled()
    }
}

/// Sets the end-to-end metrics from the untraced operations' times
/// (`op_ms`), in which `work` units of work (requests, executions or
/// epochs) were done.
pub fn report_end_to_end(
    out: &mut Outcome,
    setup_s: &[f64],
    op_ms: &[f64],
    tail_ms: f64,
    work: f64,
    cost_ratio: f64,
) {
    out.set("setup_s", stats::median(setup_s));
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("p50_ms", stats::median(op_ms));
    out.set("tail_ms", tail_ms);
    out.set(
        "work_per_s",
        stats::ratio(work, op_ms.iter().sum::<f64>() / 1e3),
    );
    out.set("cost_ratio", cost_ratio);
}

/// Sets the per-layer metrics every workload shares from the traced run
/// and writes its trace; returns the breakdown for workload-specific ones.
pub fn report_layers(
    out: &mut Outcome,
    recording: &Obs,
    times: &Times,
    build_ms: &[f64],
    args: &Args,
) -> layers::Breakdown {
    let breakdown = layers::Breakdown::from_obs(recording);
    breakdown.report(
        out,
        stats::median(&times.untraced),
        stats::median(&times.traced),
    );
    out.set("instances.build_ms", stats::mean(build_ms));
    write_trace(recording, args);
    breakdown
}

/// Whether operation `i` of the loop is traced: with `--trace 1` blocks of
/// `block` operations alternate untraced / traced, so both sides see the
/// same machine state.
pub fn traced_op(trace: bool, i: usize, block: usize) -> bool {
    trace && (i / block) % 2 == 1
}

/// The handle for one operation: the run's recording handle when traced,
/// otherwise a disabled one.
pub fn obs_for(recording: &Obs, traced: bool) -> Obs {
    if traced {
        recording.clone()
    } else {
        Obs::disabled()
    }
}

/// Runs `f` inside a benchmark-side span named `name` on `obs`, handing
/// it a handle whose spans nest under that span.
pub fn call<T>(obs: &Obs, name: &str, f: impl FnOnce(&Obs) -> T) -> T {
    let span = obs.span_begin(name, &[]);
    let out = f(&obs.under(&span));
    obs.span_end(span, &[]);
    out
}

/// Runs one timed operation inside a `bench.op` span, handing `f` a
/// handle nested under it; returns the result and the operation's time.
pub fn timed_op<T>(obs: &Obs, f: impl FnOnce(&Obs) -> T) -> (T, Duration) {
    let span = obs.span_begin("bench.op", &[]);
    let inner = obs.under(&span);
    let start = Instant::now();
    let out = f(&inner);
    let elapsed = start.elapsed();
    obs.span_end(span, &[]);
    (out, elapsed)
}

/// Operation times (ms) of the untraced and traced halves of a loop.
#[derive(Debug, Default)]
pub struct Times {
    pub untraced: Vec<f64>,
    pub traced: Vec<f64>,
}

impl Times {
    pub fn push(&mut self, traced: bool, d: Duration) {
        let side = if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        };
        side.push(ms(d));
    }
}

/// Times a second call of a layer that runs unspanned inside the `host`
/// layer's program span (see `layers`). Only traced operations shadow.
pub fn shadow<T>(obs: &Obs, host: &str, name: &str, f: impl FnOnce() -> T) -> T {
    call(obs, &format!("shadow/{host}/{name}"), |_| f())
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// splitmix64: the benchmark's input generator.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` keyed by `key`.
pub fn unit(key: u64) -> f64 {
    (mix(key) >> 11) as f64 / (1u64 << 53) as f64
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where traces are written at exit.
const TRACE_DIR: &str = ".perfbench-out";

/// Writes the recorded spans of a traced run to `TRACE_DIR`.
fn write_trace(obs: &Obs, args: &Args) {
    let path = format!("{TRACE_DIR}/trace-{}-{}.jsonl", args.workload, args.seed);
    let written = std::fs::create_dir_all(TRACE_DIR).and_then(|()| obs.write_trace(path.as_ref()));
    match written {
        Ok(()) => eprintln!("trace written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn render(outcome: &Outcome, table: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("workload did not report metric {name}"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed
    ))
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "advise-rnd64" => advise::rnd64(args),
        "advise-tpcc-qp" => advise::tpcc_qp(args),
        "serve-tpcc" => serve::run(args),
        "watch-rnd64" => watch::run(args),
        other => Err(format!(
            "unknown workload {other:?} (advise-rnd64, advise-tpcc-qp, serve-tpcc, watch-rnd64)"
        )),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        // A layer the workload never enters did no work in it.
        for &(name, _) in PER_LAYER {
            if !outcome.metrics.iter().any(|&(n, _)| n == name) {
                outcome.set(name, 0.0);
            }
        }
        if !layers::attributed(&outcome) {
            eprintln!("check failed: the layers' self times do not account for the traced time");
            outcome.failed = outcome.failed.max(1);
        }
    }
    match render(&outcome, table) {
        Ok(line) => {
            println!("{line}");
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
