//! `serve-tpcc`: replay passes of a seeded TPC-C stream over the
//! SA-advised 3-site layout, stored as 65536 rows per table in 32 shards
//! (about 100 MB) and replayed by 2 workers.

use crate::stats::{mean, quantile};
use crate::{
    call, mix, ms, obs_for, recording, report_end_to_end, report_layers, timed_op, traced_op, Args,
    Checks, Deadline, Outcome, Times, SEGMENTS,
};
use std::time::{Duration, Instant};
use vpart_core::sa::{SaConfig, SaSolver};
use vpart_core::{objective4, predicted_txn_bytes, CostConfig};
use vpart_engine::{
    PredictedBytes, ReplayConfig, ReplayDeployment, ReplayReport, ReplayStream, SiteBytes,
};
use vpart_model::{Instance, Partitioning};
use vpart_obs::Obs;

const SITES: usize = 3;
const ROWS_PER_TABLE: usize = 65536;
const SHARDS: usize = 32;
const WORKERS: usize = 2;
const EXECUTIONS: usize = 2000;
const WARMUP_PASSES: usize = 3;
const BLOCK: usize = 8;
const MB: f64 = 1024.0 * 1024.0;

/// What a deployment is built from, besides the instance.
struct Prepared {
    layout: Partitioning,
    stream: ReplayStream,
    predicted: PredictedBytes,
    /// Time of the instance build, ms.
    build_ms: f64,
}

/// Instance build and the advice solve.
fn prepare(seed: u64, obs: &Obs) -> Result<(Instance, Prepared), String> {
    let start = Instant::now();
    let instance = call(obs, "setup.instances.build", |_| vpart_instances::tpcc());
    let build_ms = ms(start.elapsed());
    let cost = CostConfig::default();
    let layout = call(obs, "setup.sa.advise", |_| {
        SaSolver::new(SaConfig {
            seed,
            threads: 1,
            ..SaConfig::default()
        })
        .solve(&instance, SITES, &cost)
    })
    .map_err(|e| format!("advice solve failed: {e}"))?
    .partitioning;
    let stream = ReplayStream::weighted(&instance, EXECUTIONS, seed);
    let per_txn = predicted_txn_bytes(&instance, &layout, &cost);
    let mut predicted = PredictedBytes::default();
    for (t, &c) in stream.counts(instance.n_txns()).iter().enumerate() {
        predicted.read += c as f64 * per_txn[t].read;
        predicted.written += c as f64 * per_txn[t].written;
        predicted.transferred += c as f64 * per_txn[t].transferred;
    }
    let prepared = Prepared {
        layout,
        stream,
        predicted,
        build_ms,
    };
    Ok((instance, prepared))
}

/// The row-touch seed of pass `j`: no pass re-reads the rows the one
/// before it touched.
fn pass_seed(base: u64, j: usize) -> u64 {
    mix(base.wrapping_add(1 + j as u64))
}

/// Byte and row meters of a pass, without the data checksum (which
/// depends on the rows touched).
type Meters = (Vec<SiteBytes>, u64, u64, u64, usize);

/// Checks shared by all passes of a run.
struct PassChecks {
    checks: Checks,
    /// Meters of the first pass; every pass must match them.
    meters: Option<Meters>,
    /// Checksums of the warm-up passes of the first set-up; every set-up
    /// repeats those passes and must match them bit for bit.
    warm: Option<Vec<u64>>,
}

/// One replay pass with row-touch seed `seed`, timed inside a `bench.op`
/// span. The meter must equal the model's prediction exactly, and every
/// pass must meter the same bytes and rows.
fn pass(
    dep: &mut ReplayDeployment,
    prep: &mut Prepared,
    seed: u64,
    obs: &Obs,
    pc: &mut PassChecks,
) -> Result<(ReplayReport, Duration), String> {
    prep.stream.seed = seed;
    let (stream, predicted) = (&prep.stream, &prep.predicted);
    let (report, elapsed) = timed_op(obs, |_| {
        dep.replay(
            stream,
            &ReplayConfig::deterministic(WORKERS),
            Some(predicted),
        )
    });
    let report = report.map_err(|e| format!("replay failed: {e}"))?;
    let exact = report
        .model_error
        .is_some_and(|m| m.read_ratio == 0.0 && m.write_ratio == 0.0 && m.transfer_ratio == 0.0);
    pc.checks.check(exact, || {
        format!("pass seed {seed}: model error {:?}", report.model_error)
    });
    let (sites, transfer, rows_read, rows_written, len, _) = report.meter_fingerprint();
    let m = (sites, transfer, rows_read, rows_written, len);
    match &pc.meters {
        None => pc.meters = Some(m),
        Some(r) => {
            pc.checks.check(*r == m, || {
                format!("pass seed {seed}: meters differ from the first pass")
            });
        }
    }
    Ok((report, elapsed))
}

/// Storage materialization and the warm-up passes of one set-up.
fn deploy<'a>(
    ins: &'a Instance,
    prep: &mut Prepared,
    base: u64,
    obs: &Obs,
    pc: &mut PassChecks,
) -> Result<(ReplayDeployment<'a>, f64), String> {
    let start = Instant::now();
    let mut dep = call(obs, "setup.replay.deploy", |_| {
        ReplayDeployment::new(ins, &prep.layout, ROWS_PER_TABLE, SHARDS)
    })
    .map_err(|e| format!("deployment failed: {e}"))?;
    let deploy_s = start.elapsed().as_secs_f64();
    let mut warm = Vec::new();
    for j in 0..WARMUP_PASSES {
        let (report, _) = pass(&mut dep, prep, pass_seed(base, j), &Obs::disabled(), pc)?;
        warm.push(report.checksum);
    }
    match &pc.warm {
        None => pc.warm = Some(warm),
        Some(r) => {
            pc.checks.check(*r == warm, || {
                "warm-up pass checksums differ between set-ups".to_string()
            });
        }
    }
    Ok((dep, deploy_s))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let recording = recording(args);
    let base = mix(args.seed);
    let mut pc = PassChecks {
        checks: Checks::default(),
        meters: None,
        warm: None,
    };
    let mut setup_s = Vec::new();
    let mut build_ms = Vec::new();
    let mut deploy_s = Vec::new();
    let mut stored_mb = 0.0;
    let mut cost_ratio = 0.0;
    let mut times = Times::default();
    let mut k = 0; // timed passes so far
    for _ in 0..SEGMENTS {
        // Set-up: instance, advice, storage, warm-up passes. The previous
        // segment's storage is freed before this one is built.
        let start = Instant::now();
        let (ins, mut prep) = prepare(base, &recording)?;
        let (mut dep, d) = deploy(&ins, &mut prep, base, &recording, &mut pc)?;
        setup_s.push(start.elapsed().as_secs_f64());
        build_ms.push(prep.build_ms);
        deploy_s.push(d);
        stored_mb = dep.stored_bytes() as f64 / MB;
        let cost = CostConfig::default();
        let single = Partitioning::single_site(&ins, SITES)
            .map_err(|e| format!("single-site layout: {e}"))?;
        cost_ratio = objective4(&ins, &prep.layout, &cost) / objective4(&ins, &single, &cost);

        let deadline = Deadline::segment(args, BLOCK);
        let mut done = 0;
        while deadline.more(done) {
            let traced = traced_op(args.trace, k, BLOCK);
            let obs = obs_for(&recording, traced);
            dep = dep.with_obs(obs.clone());
            let seed = pass_seed(base, WARMUP_PASSES + k);
            let passed = pass(&mut dep, &mut prep, seed, &obs, &mut pc);
            k += 1;
            done += 1;
            match passed {
                Ok((_, elapsed)) => times.push(traced, elapsed),
                Err(e) => {
                    pc.checks.check(false, || e);
                }
            }
            pc.checks.close_op();
        }
    }

    let mut out = Outcome {
        attempted: k,
        failed: pc.checks.failed_ops(k),
        metrics: Vec::new(),
    };
    if args.trace {
        report_layers(&mut out, &recording, &times, &build_ms, args);
        out.set("replay.deploy_s", mean(&deploy_s));
        out.set("replay.stored_mb", stored_mb);
        // Every pass meters the same bytes and rows (checked above).
        if let Some((sites, transfer, rows_read, rows_written, len)) = &pc.meters {
            let per_txn = |v: u64| v as f64 / *len as f64;
            let local: u64 = sites.iter().map(|s| s.bytes_read + s.bytes_written).sum();
            out.set("replay.rows_read_per_txn", per_txn(*rows_read));
            out.set("replay.rows_written_per_txn", per_txn(*rows_written));
            out.set("replay.transfer_bytes_per_txn", per_txn(*transfer));
            out.set("replay.bytes_per_txn", per_txn(local + transfer));
        }
    } else {
        let op_ms = &times.untraced;
        let work = (op_ms.len() * EXECUTIONS) as f64;
        let tail_ms = quantile(op_ms, 0.95);
        report_end_to_end(&mut out, &setup_s, op_ms, tail_ms, work, cost_ratio);
    }
    Ok(out)
}
