//! Per-layer breakdown of a traced run, computed from the spans the
//! run's `Obs` handle recorded in memory.
//!
//! Every traced operation is one benchmark-side `bench.op` span. Spans
//! nest by parent id; a root span the program opened on a handle the
//! benchmark cannot parent (the watcher's `watch_epoch`) is adopted by
//! the `bench.op` whose interval contains it. A span's self time is its
//! duration minus its children's, and is credited to the layer its name
//! belongs to, so the layers' self times add up to the operations' time.
//!
//! Some layers run inside a program span with no span of their own (QP
//! model construction inside `qp_solve`, migration planning inside
//! `watch_epoch`). The benchmark times them from outside with a second
//! call on the same inputs, recorded after the operation as a root span
//! named `shadow/<host layer>/<layer>.<call>`; its duration moves from the
//! host layer to the named layer.

use crate::stats::{mean, median, ratio};
use crate::Outcome;
use serde::Value;
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};
use vpart_obs::Obs;

/// The layers whose self time is reported, in report order.
pub const LAYERS: &[&str] = &[
    "cost",
    "sa",
    "qp",
    "ilp",
    "migration",
    "engine",
    "replay",
    "online",
    "bench",
];

/// The layer a span belongs to.
fn layer_of(name: &str) -> &str {
    match name {
        "sa_solve" | "sa_chain" => "sa",
        // What the shadow calls do not claim of `qp_solve` is the
        // simplex / branch & bound work of `vpart_ilp`.
        "qp_solve" => "ilp",
        "watch_epoch" => "online",
        "migrate_batched" | "apply_migration" | "rollback_migration" => "engine",
        "replay" => "replay",
        other => other.split('.').next().unwrap_or(other),
    }
}

/// One recorded span.
#[derive(Debug)]
pub struct SpanRec {
    pub name: String,
    pub dur_us: f64,
    pub self_us: f64,
    pub fields: Value,
}

impl SpanRec {
    pub fn field(&self, key: &str) -> f64 {
        self.fields.get(key).and_then(Value::as_f64).unwrap_or(0.0)
    }
}

/// The breakdown of one traced run.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Traced operations (`bench.op` spans).
    pub ops: usize,
    /// Total time of the traced operations, µs.
    pub op_us: f64,
    /// Self time per layer over all traced operations, µs.
    pub self_us: BTreeMap<String, f64>,
    /// Every span inside a traced operation, plus the shadow spans.
    pub spans: Vec<SpanRec>,
}

struct Raw {
    id: u64,
    parent: u64,
    name: String,
    start: u64,
    dur: u64,
    fields: Value,
}

fn parse(line: &str) -> Option<Raw> {
    let v: Value = serde_json::from_str(line).ok()?;
    if v.get("type")?.as_str()? != "span" {
        return None;
    }
    Some(Raw {
        id: v.get("id")?.as_u64()?,
        parent: v.get("parent")?.as_u64()?,
        name: v.get("name")?.as_str()?.to_string(),
        start: v.get("start_us")?.as_u64()?,
        dur: v.get("dur_us")?.as_u64()?,
        fields: v.get("fields").cloned().unwrap_or(Value::Null),
    })
}

impl Breakdown {
    pub fn from_obs(obs: &Obs) -> Self {
        let raws: Vec<Raw> = obs.trace_json_lines().lines().filter_map(parse).collect();
        let index: HashMap<u64, usize> = raws.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
        let explicit: Vec<Option<usize>> = raws
            .iter()
            .map(|r| match r.parent {
                0 => None,
                p => index.get(&p).copied(),
            })
            .collect();
        // Root and depth of every span by parent ids.
        let (top, depth): (Vec<usize>, Vec<usize>) = (0..raws.len())
            .map(|mut i| {
                let mut depth = 0;
                while let Some(p) = explicit[i] {
                    i = p;
                    depth += 1;
                }
                (i, depth)
            })
            .unzip();
        // Spans that hang from a `bench.op` by parent ids, outer before
        // inner: by start time, then longest first, then shallowest first
        // (timestamps are whole microseconds, so nested spans can tie).
        let mut anchored: Vec<usize> = (0..raws.len())
            .filter(|&i| raws[top[i]].name == "bench.op")
            .collect();
        anchored.sort_by_key(|&i| (raws[i].start, Reverse(raws[i].dur), depth[i]));
        let ops: Vec<usize> = anchored
            .iter()
            .copied()
            .filter(|&i| raws[i].name == "bench.op")
            .collect();
        // The innermost anchored span whose interval contains `r`: the
        // last one in that order.
        let enclosing = |r: &Raw| -> Option<usize> {
            let k = anchored.partition_point(|&o| raws[o].start <= r.start);
            anchored[..k]
                .iter()
                .rev()
                .copied()
                .find(|&o| r.start + r.dur <= raws[o].start + raws[o].dur)
        };
        let parent: Vec<Option<usize>> = raws
            .iter()
            .enumerate()
            .map(|(i, r)| match explicit[i] {
                Some(p) => Some(p),
                None if r.name == "bench.op" || r.name.starts_with("shadow/") => None,
                None => enclosing(r),
            })
            .collect();
        let mut child_us = vec![0u64; raws.len()];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = *p {
                child_us[p] += raws[i].dur;
            }
        }
        // Whether a span belongs to a traced operation: its root (after
        // adoption) is a `bench.op`.
        let in_op: Vec<bool> = (0..raws.len())
            .map(|mut i| {
                while let Some(p) = parent[i] {
                    i = p;
                }
                raws[i].name == "bench.op"
            })
            .collect();

        let mut out = Self {
            ops: ops.len(),
            op_us: ops.iter().map(|&o| raws[o].dur as f64).sum(),
            ..Self::default()
        };
        let mut moved: Vec<(String, String, f64)> = Vec::new();
        for (i, r) in raws.into_iter().enumerate() {
            let self_us = r.dur.saturating_sub(child_us[i]) as f64;
            if let Some(rest) = r.name.strip_prefix("shadow/") {
                let (host, call) = rest.split_once('/').unwrap_or((rest, rest));
                moved.push((host.to_string(), layer_of(call).to_string(), r.dur as f64));
                out.spans.push(SpanRec {
                    name: call.to_string(),
                    dur_us: r.dur as f64,
                    self_us,
                    fields: r.fields,
                });
                continue;
            }
            if !in_op[i] {
                continue;
            }
            *out.self_us
                .entry(layer_of(&r.name).to_string())
                .or_default() += self_us;
            out.spans.push(SpanRec {
                name: r.name,
                dur_us: r.dur as f64,
                self_us,
                fields: r.fields,
            });
        }
        for (host, layer, us) in moved {
            let available = out.self_us.get(&host).copied().unwrap_or(0.0);
            let shift = us.min(available);
            *out.self_us.entry(host).or_default() -= shift;
            *out.self_us.entry(layer).or_default() += shift;
        }
        out
    }

    /// Spans named `name` (inside traced operations, or shadows).
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRec> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Mean duration of the spans named `name`, ms (0 if none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let durs: Vec<f64> = self.named(name).map(|s| s.dur_us / 1e3).collect();
        mean(&durs)
    }

    /// Median duration of the spans named `name`, ms (0 if none).
    pub fn median_ms(&self, name: &str) -> f64 {
        let durs: Vec<f64> = self.named(name).map(|s| s.dur_us / 1e3).collect();
        median(&durs)
    }

    /// Sum of field `key` over the spans named `name`.
    pub fn field_sum(&self, name: &str, key: &str) -> f64 {
        self.named(name).map(|s| s.field(key)).sum()
    }

    /// Self time of `layer` per traced operation, ms.
    pub fn self_ms(&self, layer: &str) -> f64 {
        ratio(
            self.self_us.get(layer).copied().unwrap_or(0.0),
            self.ops as f64,
        ) / 1e3
    }

    /// The per-layer metrics every workload reports from its traced run.
    /// `untraced_p50_ms` / `traced_p50_ms` are the median operation times
    /// of the two alternating halves of the loop, timed from outside.
    pub fn report(&self, out: &mut Outcome, untraced_p50_ms: f64, traced_p50_ms: f64) {
        for layer in LAYERS {
            out.set(self_ms_name(layer), self.self_ms(layer));
        }
        let solves = self.named("sa_solve").count() as f64;
        let iterations = self.field_sum("sa_chain", "iterations");
        let chain_s: f64 = self.named("sa_chain").map(|s| s.dur_us / 1e6).sum();
        out.set("sa.solve_ms", self.mean_ms("sa_solve"));
        out.set("sa.iterations", ratio(iterations, solves));
        out.set("sa.moves_per_s", ratio(iterations, chain_s));
        out.set(
            "sa.accept_ratio",
            ratio(self.field_sum("sa_chain", "accepted"), iterations),
        );
        out.set(
            "sa.levels",
            ratio(self.field_sum("sa_chain", "levels"), solves),
        );
        out.set(
            "sa.resyncs",
            ratio(self.field_sum("sa_chain", "resyncs"), solves),
        );

        let qp_solves = self.named("qp_solve").count() as f64;
        let pivots = self.field_sum("qp_solve", "lp_pivots");
        out.set("qp.solve_ms", self.mean_ms("qp_solve"));
        out.set("qp.build_ms", self.mean_ms("qp.build"));
        out.set("ilp.lp_pivots", ratio(pivots, qp_solves));
        out.set(
            "ilp.bb_nodes",
            ratio(self.field_sum("qp_solve", "nodes"), qp_solves),
        );
        let ilp_s = self.self_us.get("ilp").copied().unwrap_or(0.0) / 1e6;
        out.set("ilp.pivots_per_s", ratio(pivots, ilp_s));

        out.set("cost.coeffs_ms", self.mean_ms("cost.coeffs"));
        let migrate_self: Vec<f64> = self
            .named("migrate_batched")
            .map(|s| s.self_us / 1e3)
            .collect();
        out.set("engine.migrate_ms", mean(&migrate_self));
        out.set("replay.pass_p50_ms", self.median_ms("replay"));

        let op_ms = ratio(self.op_us, self.ops as f64) / 1e3;
        out.set("obs.op_mean_ms", op_ms);
        out.set("obs.traced_p50_ms", traced_p50_ms);
        out.set("obs.untraced_p50_ms", untraced_p50_ms);
        out.set("obs.overhead_ratio", ratio(traced_p50_ms, untraced_p50_ms));
        out.set(
            "obs.unattributed_ratio",
            ratio(self.self_ms("bench"), op_ms),
        );
    }
}

/// Whether the layers' self times add up to the mean traced operation
/// within a tenth, with under a tenth of it left to the benchmark's own
/// code between calls.
pub fn attributed(out: &Outcome) -> bool {
    let get = |name: &str| {
        out.metrics
            .iter()
            .find(|&&(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    let op_ms = get("obs.op_mean_ms");
    let sum: f64 = LAYERS.iter().map(|l| get(self_ms_name(l))).sum();
    op_ms > 0.0 && (sum - op_ms).abs() <= 0.1 * op_ms && get("obs.unattributed_ratio") <= 0.1
}

fn self_ms_name(layer: &str) -> &'static str {
    match layer {
        "cost" => "cost.self_ms",
        "sa" => "sa.self_ms",
        "qp" => "qp.self_ms",
        "ilp" => "ilp.self_ms",
        "migration" => "migration.self_ms",
        "engine" => "engine.self_ms",
        "replay" => "replay.self_ms",
        "online" => "online.self_ms",
        _ => "bench.self_ms",
    }
}
