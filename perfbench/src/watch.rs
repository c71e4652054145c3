//! `watch-rnd64`: epochs of the online loop on `rndAt64x100` at 4 sites.
//!
//! A seeded split of the 100 transactions into two halves gives the hot
//! half 100× the weight of the cold half; the halves swap every 3 epochs
//! and a fresh split is drawn every 30. Migrations materialize 256 rows
//! per fragment and run as journaled batches of at most 32 KiB, below the
//! typical plan size.

use crate::stats::{mean, median, quantile, ratio};
use crate::{
    call, mix, ms, obs_for, recording, report_end_to_end, report_layers, shadow, timed_op,
    traced_op, Args, Checks, Deadline, Outcome, Times, SEGMENTS, SET_UP_SEED,
};
use std::time::{Duration, Instant};
use vpart_core::objective4;
use vpart_engine::Deployment;
use vpart_model::{Instance, Partitioning};
use vpart_obs::Obs;
use vpart_online::{
    plan_migration, DriftConfig, OnlineWorkload, TrackerConfig, WatchConfig, Watcher,
};

const SITES: usize = 4;
const ROWS_PER_FRAGMENT: usize = 256;
const BATCH_BYTES: f64 = 32.0 * 1024.0;
const TEMPLATES: usize = 100;
const HOT: f64 = 100.0;
const COLD: f64 = 1.0;
/// Epochs between swaps of the hot and cold halves.
const PHASE: usize = 3;
/// Epochs per split of the halves. How heavily the re-solves of a split
/// move data depends on the split (from ≈ 5 to ≈ 40 batches per
/// migration), so a run walks through many splits to see a steady mix.
const SPLIT_EPOCHS: usize = 30;
/// Drift that triggers a re-solve. Nearly every swap of the halves
/// crosses it, so about 30% of the epochs re-solve and migrate; the
/// residual drift of the epochs in between stays near 0.01.
const DRIFT_THRESHOLD: f64 = 0.02;
/// Untimed epochs after the bootstrap epoch in every set-up.
const WARMUP_EPOCHS: usize = 12;
/// Epochs whose outcomes define the exact metrics (`cost_ratio`,
/// `online.resolve_share`, `online.drift_score_mean`, migration sizes).
const EXACT_PREFIX: usize = 300;
/// Epochs per untraced / traced block with `--trace 1` (whole phases).
const BLOCK: usize = 12;

/// The per-template observation counts of each epoch: a seeded split of
/// the templates into a hot and a cold half, the halves swapping every
/// `PHASE` epochs, and a fresh split every `SPLIT_EPOCHS` epochs.
struct Mix {
    seed: u64,
}

impl Mix {
    fn counts(&self, e: usize) -> Vec<(usize, f64)> {
        let split = mix(self.seed.wrapping_add((e / SPLIT_EPOCHS) as u64));
        let mut order: Vec<usize> = (0..TEMPLATES).collect();
        order.sort_by_key(|&t| mix(split ^ mix(t as u64)));
        let swapped = (e / PHASE) % 2 == 1;
        let mut counts = vec![(0, 0.0); TEMPLATES];
        for (rank, &t) in order.iter().enumerate() {
            let hot = (rank < TEMPLATES / 2) != swapped;
            counts[t] = (t, if hot { HOT } else { COLD });
        }
        counts
    }
}

/// One watcher plus an untimed mirror of its tracker, fed the same
/// counts, which yields the snapshot each epoch solved on.
struct Lane {
    watcher: Watcher,
    mirror: OnlineWorkload,
    epoch: usize,
}

/// What the report keeps of one timed epoch.
struct Epoch {
    drift_score: f64,
    /// Warm re-solve time, on epochs that re-solved.
    resolve: Option<Duration>,
    migration: Option<Moved>,
    /// Objective (4) of the in-force layout ÷ that of the single-site
    /// layout, on the epoch's snapshot.
    cost_ratio: f64,
    /// Wall time of `observe` + `end_epoch`.
    time: Duration,
    /// Wall time of `end_epoch` alone.
    end_epoch: Duration,
}

/// Sizes of one epoch's migration.
struct Moved {
    plan_bytes: f64,
    batches: usize,
    peak_transient_bytes: f64,
    metered_bytes: f64,
}

impl Epoch {
    fn resolved(&self) -> bool {
        self.resolve.is_some()
    }

    /// Bits that must repeat for the same seed and epoch.
    fn signature(&self) -> [u64; 4] {
        let moved = self.migration.as_ref().map_or(0.0, |m| m.metered_bytes);
        [
            self.drift_score.to_bits(),
            u64::from(self.resolved()),
            moved.to_bits(),
            self.cost_ratio.to_bits(),
        ]
    }
}

impl Lane {
    fn new(ins: &Instance, obs: Obs) -> Result<Self, String> {
        let tracker = || {
            OnlineWorkload::from_instance(ins, TrackerConfig::default())
                .map_err(|e| format!("tracker: {e}"))
        };
        let config = WatchConfig {
            sites: SITES,
            seed: SET_UP_SEED,
            rows_per_fragment: ROWS_PER_FRAGMENT,
            threads: 1,
            migration_batch_bytes: BATCH_BYTES,
            obs,
            drift: DriftConfig {
                threshold: DRIFT_THRESHOLD,
                ..DriftConfig::default()
            },
            ..WatchConfig::default()
        };
        let watcher = Watcher::new(tracker()?, config).map_err(|e| format!("watcher: {e}"))?;
        Ok(Self {
            watcher,
            mirror: tracker()?,
            epoch: 0,
        })
    }

    /// Runs one epoch with the counts `mix` gives it. `obs` (when
    /// recording) gets the `bench.op` span and the shadow spans.
    fn step(&mut self, mix: &Mix, obs: &Obs, checks: &mut Checks) -> Result<Epoch, String> {
        let e = self.epoch;
        self.epoch += 1;
        let counts = mix.counts(e);
        let watcher = &mut self.watcher;
        let (outcome, time) = timed_op(obs, |inner| {
            call(inner, "online.observe", |_| {
                let tracker = watcher.tracker_mut();
                counts.iter().try_for_each(|&(t, c)| tracker.observe(t, c))
            })?;
            let start = Instant::now();
            let outcome = call(inner, "online.end_epoch", |_| watcher.end_epoch("epoch"))?;
            Ok((outcome, start.elapsed()))
        });
        let (outcome, end_epoch) = outcome.map_err(|e: vpart_online::OnlineError| e.to_string())?;

        // Untimed: the snapshot the epoch solved on, from the mirror.
        for &(t, c) in &counts {
            self.mirror.observe(t, c).map_err(|e| e.to_string())?;
        }
        let snapshot = self.mirror.snapshot().map_err(|e| e.to_string())?;
        self.mirror.advance_epoch();
        let in_force = self
            .watcher
            .incumbent()
            .ok_or("no incumbent after an epoch")?;
        let single = Partitioning::single_site(&snapshot, SITES).map_err(|e| e.to_string())?;
        let cost = WatchConfig::default().cost;
        let cost_ratio =
            objective4(&snapshot, in_force, &cost) / objective4(&snapshot, &single, &cost);

        checks.check(outcome.veto.is_none() && !outcome.degraded, || {
            format!("epoch {e}: vetoed or degraded: {:?}", outcome.veto)
        });
        if let Some(m) = &outcome.migration {
            checks.check(m.meter_matches, || {
                format!(
                    "epoch {e}: migration metered {} B, plan estimated {} B",
                    m.measured_bytes, m.estimated_bytes
                )
            });
            if obs.is_enabled() {
                // Migration planning and the engine's fragment build run
                // unspanned inside `watch_epoch`: time them again on the
                // same inputs.
                let planned = shadow(obs, "online", "migration.plan", || {
                    plan_migration(&snapshot, &m.plan.from, &m.plan.to, ROWS_PER_FRAGMENT)
                        .and_then(|p| Ok(p.batched(&snapshot, BATCH_BYTES)?))
                });
                checks.check(planned.is_ok(), || format!("epoch {e}: re-planning failed"));
                let deployed = shadow(obs, "online", "engine.deploy", || {
                    Deployment::new(&snapshot, &m.plan.from, ROWS_PER_FRAGMENT)
                });
                checks.check(deployed.is_ok(), || {
                    format!("epoch {e}: re-deploying failed")
                });
            }
        }
        let epoch = Epoch {
            drift_score: outcome.drift_score,
            resolve: outcome.resolve.as_ref().map(|r| r.elapsed),
            migration: outcome.migration.as_ref().map(|m| Moved {
                plan_bytes: m.estimated_bytes,
                batches: m.batches,
                peak_transient_bytes: m.peak_transient_bytes,
                metered_bytes: m.measured_bytes,
            }),
            cost_ratio,
            time,
            end_epoch,
        };
        Ok(epoch)
    }
}

/// The epochs that define the exact metrics: the first timed epochs of
/// segment 0.
fn exact(log: &[(usize, Epoch)]) -> Vec<&Epoch> {
    log.iter()
        .filter(|(s, _)| *s == 0)
        .map(|(_, e)| e)
        .take(EXACT_PREFIX)
        .collect()
}

/// One set-up: instance, watcher, the cold bootstrap epoch and the
/// warm-up epochs. The set-up is the same for every seed, so it does the
/// same work in every run. Returns the lane, the warm-up epochs'
/// signatures and the instance build time.
fn set_up(
    obs: Obs,
    recording: &Obs,
    checks: &mut Checks,
) -> Result<(Lane, Vec<[u64; 4]>, f64), String> {
    let start = Instant::now();
    let ins = call(recording, "setup.instances.build", |_| {
        vpart_instances::by_name("rndAt64x100").expect("rndAt64x100 is a catalog class")
    });
    let build_ms = ms(start.elapsed());
    let mut lane = Lane::new(&ins, obs)?;
    let warm_mix = Mix { seed: SET_UP_SEED };
    let mut warm = Vec::new();
    for _ in 0..=WARMUP_EPOCHS {
        warm.push(lane.step(&warm_mix, &Obs::disabled(), checks)?.signature());
    }
    Ok((lane, warm, build_ms))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let recording = recording(args);
    let seed = mix(args.seed);
    let mut checks = Checks::default();
    let mut setup_s = Vec::new();
    let mut build_ms = Vec::new();
    let mut reference = None;
    let mut times = Times::default();
    // Timed epochs by segment, of the untraced and the traced lane.
    let mut plain_log: Vec<(usize, Epoch)> = Vec::new();
    let mut traced_log: Vec<(usize, Epoch)> = Vec::new();
    let mut k = 0; // timed epochs so far
    for seg in 0..SEGMENTS {
        // Set-up; every segment replays the same warm-up epochs and must
        // get them bit for bit.
        let start = Instant::now();
        let (mut plain, warm, b) = set_up(Obs::disabled(), &recording, &mut checks)?;
        setup_s.push(start.elapsed().as_secs_f64());
        build_ms.push(b);
        match &reference {
            None => reference = Some(warm),
            Some(r) => {
                checks.check(*r == warm, || {
                    "warm-up epochs differ between set-ups".to_string()
                });
            }
        }
        // With `--trace 1`, a second lane on the same inputs records its
        // epochs; blocks of epochs alternate between the two lanes.
        let mut traced_lane = match args.trace {
            true => Some(set_up(recording.clone(), &recording, &mut checks)?.0),
            false => None,
        };
        // Each segment's timed epochs get their own splits.
        let mix = Mix {
            seed: mix(seed.wrapping_add(1 + seg as u64)),
        };
        let min_ops = if seg == 0 { 2 * EXACT_PREFIX } else { 0 };
        let deadline = Deadline::segment(args, min_ops);
        let mut done = 0;
        while deadline.more(done) {
            let traced = traced_op(args.trace, k, BLOCK);
            let (lane, log) = match (&mut traced_lane, traced) {
                (Some(l), true) => (l, &mut traced_log),
                _ => (&mut plain, &mut plain_log),
            };
            let stepped = lane.step(&mix, &obs_for(&recording, traced), &mut checks);
            k += 1;
            done += 1;
            match stepped {
                Ok(epoch) => {
                    times.push(traced, epoch.time);
                    log.push((seg, epoch));
                }
                Err(e) => {
                    checks.check(false, || e);
                }
            }
            checks.close_op();
        }
    }
    if args.trace {
        // Tracing must not change a single outcome.
        for seg in 0..SEGMENTS {
            let plain = plain_log.iter().filter(|(s, _)| *s == seg);
            let traced = traced_log.iter().filter(|(s, _)| *s == seg);
            let same = plain
                .zip(traced)
                .all(|((_, a), (_, b))| a.signature() == b.signature());
            checks.check(same, || {
                format!("segment {seg}: traced and untraced epochs differ")
            });
        }
    }
    let mut out = Outcome {
        attempted: k,
        failed: checks.failed_ops(k),
        metrics: Vec::new(),
    };
    if args.trace {
        let exact = exact(&traced_log);
        let traced: Vec<&Epoch> = traced_log.iter().map(|(_, e)| e).collect();
        let resolve_ms: Vec<f64> = traced
            .iter()
            .filter(|e| e.resolved())
            .map(|e| ms(e.time))
            .collect();
        let keep_ms: Vec<f64> = traced
            .iter()
            .filter(|e| !e.resolved())
            .map(|e| ms(e.end_epoch))
            .collect();
        let warm_ms: Vec<f64> = traced.iter().filter_map(|e| e.resolve).map(ms).collect();
        let migrations: Vec<&Moved> = exact.iter().filter_map(|e| e.migration.as_ref()).collect();
        let per_migration =
            |f: fn(&Moved) -> f64| mean(&migrations.iter().map(|m| f(m)).collect::<Vec<_>>());

        let breakdown = report_layers(&mut out, &recording, &times, &build_ms, args);
        out.set("sa.warm_resolve_ms", mean(&warm_ms));
        out.set("migration.plan_bytes", per_migration(|m| m.plan_bytes));
        out.set("migration.batches", per_migration(|m| m.batches as f64));
        out.set(
            "migration.peak_transient_bytes",
            per_migration(|m| m.peak_transient_bytes),
        );
        out.set("engine.migrated_bytes", per_migration(|m| m.metered_bytes));
        out.set(
            "online.observe_us",
            breakdown.mean_ms("online.observe") * 1e3,
        );
        out.set("online.keep_epoch_ms", median(&keep_ms));
        out.set("online.resolve_p50_ms", median(&resolve_ms));
        out.set("online.epochs", exact.len() as f64);
        out.set(
            "online.resolve_share",
            ratio(
                exact.iter().filter(|e| e.resolved()).count() as f64,
                exact.len() as f64,
            ),
        );
        out.set(
            "online.drift_score_mean",
            mean(&exact.iter().map(|e| e.drift_score).collect::<Vec<_>>()),
        );
    } else {
        let resolve_ms: Vec<f64> = plain_log
            .iter()
            .filter(|(_, e)| e.resolved())
            .map(|(_, e)| ms(e.time))
            .collect();
        let op_ms = &times.untraced;
        let ratios: Vec<f64> = exact(&plain_log).iter().map(|e| e.cost_ratio).collect();
        let tail_ms = quantile(&resolve_ms, 0.95);
        let work = op_ms.len() as f64;
        report_end_to_end(&mut out, &setup_s, op_ms, tail_ms, work, mean(&ratios));
    }
    Ok(out)
}
