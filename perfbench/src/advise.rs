//! The two advice workloads: one request is one solve of a fixed
//! instance, each with its own seeded input.
//!
//! * `advise-rnd64` — cost coefficients plus a cold single-chain SA solve
//!   of `rndAt64x100` (1052 attributes, 100 transactions) at 4 sites.
//! * `advise-tpcc-qp` — a QP solve of TPC-C at 2 sites under a per-request
//!   (λ, p), which must end proven optimal.

use crate::stats::{mean, quantile};
use crate::{
    call, mix, ms, obs_for, recording, report_end_to_end, report_layers, shadow, timed_op,
    traced_op, unit, Args, Checks, Deadline, Outcome, Times, SEGMENTS, SET_UP_SEED,
};
use std::hint::black_box;
use std::time::Instant;
use vpart_core::cost::objective::fast_objective4;
use vpart_core::qp::{build_qp_model, QpConfig, QpOptions, QpSolver};
use vpart_core::reduce::Reduction;
use vpart_core::report::{SolveReport, Termination};
use vpart_core::sa::{SaConfig, SaSolver};
use vpart_core::{objective4, CostCoefficients, CostConfig};
use vpart_model::{Instance, Partitioning};
use vpart_obs::Obs;

/// Shape of one advice workload.
struct Advice {
    instance: fn() -> Instance,
    sites: usize,
    /// Untimed requests at the end of every set-up.
    warmup: usize,
    /// Requests whose mean cost ratio is `cost_ratio` (exact for a seed).
    exact_prefix: usize,
    /// Requests per segment at least, so that the exact prefix and the
    /// tail quantile always have their samples.
    min_ops: usize,
    /// Operations per untraced / traced block with `--trace 1`.
    block: usize,
    /// Quantile reported as `tail_ms`.
    tail: f64,
}

/// A request's answer, kept for the untimed checks.
struct Answer {
    report: SolveReport,
    cost: CostConfig,
    /// Coefficients the request built itself (`advise-rnd64`).
    coeffs: Option<CostCoefficients>,
}

/// The input key of request `i` of a sequence starting at `base`; `solve`
/// derives the request's seed or (λ, p) from it and from `key + 1`.
fn request_key(base: u64, i: usize) -> u64 {
    base.wrapping_add(2 * i as u64)
}

/// Runs an advice workload. `solve` answers the request keyed `key` (timed);
/// `verify` checks the answer afterwards, untimed, with the recording
/// handle when the request was traced.
fn run(
    args: &Args,
    advice: &Advice,
    mut solve: impl FnMut(&Instance, u64, &Obs) -> Result<Answer, String>,
    mut verify: impl FnMut(&Instance, u64, &Answer, Option<&Obs>, &mut Checks),
) -> Result<Outcome, String> {
    let recording = recording(args);
    let mut checks = Checks::default();
    let mut setup_s = Vec::new();
    let mut build_ms = Vec::new();
    let mut reference: Option<Vec<u64>> = None;
    let mut times = Times::default();
    let mut ratios = Vec::new();
    let base = mix(args.seed);
    let mut k = 0; // timed requests so far
    for _ in 0..SEGMENTS {
        // Set-up: build the instance and answer the warm-up requests.
        // Every segment answers the same warm-up requests and must get
        // the same objectives bit for bit.
        let start = Instant::now();
        let ins = call(&recording, "setup.instances.build", |_| (advice.instance)());
        build_ms.push(ms(start.elapsed()));
        let mut warm = Vec::new();
        for i in 0..advice.warmup {
            let answer = solve(&ins, request_key(SET_UP_SEED, i), &Obs::disabled())?;
            warm.push(answer.report.breakdown.objective4.to_bits());
        }
        setup_s.push(start.elapsed().as_secs_f64());
        match &reference {
            None => reference = Some(warm),
            Some(r) => {
                checks.check(*r == warm, || {
                    "warm-up objectives differ between set-ups".to_string()
                });
            }
        }
        let single = Partitioning::single_site(&ins, advice.sites)
            .map_err(|e| format!("single-site layout: {e}"))?;

        let deadline = Deadline::segment(args, advice.min_ops);
        let mut done = 0;
        while deadline.more(done) {
            let traced = traced_op(args.trace, k, advice.block);
            let key = request_key(base, k);
            let (answer, elapsed) =
                timed_op(&obs_for(&recording, traced), |obs| solve(&ins, key, obs));
            times.push(traced, elapsed);
            k += 1;
            done += 1;
            let answer = match answer {
                Ok(a) => a,
                Err(e) => {
                    checks.check(false, || format!("request {key:#x}: {e}"));
                    checks.close_op();
                    continue;
                }
            };
            verify(
                &ins,
                key,
                &answer,
                traced.then_some(&recording),
                &mut checks,
            );
            let part = &answer.report.partitioning;
            checks.check(part.validate(&ins, false).is_ok(), || {
                format!("request {key:#x}: layout fails validation")
            });
            if k <= advice.exact_prefix {
                let single4 = objective4(&ins, &single, &answer.cost);
                ratios.push(answer.report.breakdown.objective4 / single4);
            }
            checks.close_op();
        }
    }

    let mut out = Outcome {
        attempted: k,
        failed: checks.failed_ops(k),
        metrics: Vec::new(),
    };
    if args.trace {
        report_layers(&mut out, &recording, &times, &build_ms, args);
    } else {
        let op_ms = &times.untraced;
        let tail_ms = quantile(op_ms, advice.tail);
        let work = op_ms.len() as f64;
        report_end_to_end(&mut out, &setup_s, op_ms, tail_ms, work, mean(&ratios));
    }
    Ok(out)
}

/// `advise-rnd64`: `CostCoefficients::compute`, then a cold default SA
/// solve (one chain, one thread) seeded with the run seed plus the
/// request index.
pub fn rnd64(args: &Args) -> Result<Outcome, String> {
    let advice = Advice {
        instance: || {
            vpart_instances::by_name("rndAt64x100").expect("rndAt64x100 is a catalog class")
        },
        sites: 4,
        warmup: 6,
        exact_prefix: 100,
        min_ops: 20,
        block: 8,
        tail: 0.95,
    };
    let cost = CostConfig::default();
    let solve = |ins: &Instance, key: u64, obs: &Obs| {
        let coeffs = call(obs, "cost.coeffs", |_| {
            CostCoefficients::compute(ins, &cost)
        });
        let report = call(obs, "sa.solve", |o| {
            SaSolver::new(SaConfig {
                seed: key,
                threads: 1,
                obs: o.clone(),
                ..SaConfig::default()
            })
            .solve(ins, advice.sites, &cost)
        })
        .map_err(|e| format!("SA failed: {e}"))?;
        Ok(Answer {
            report,
            cost: cost.clone(),
            coeffs: Some(coeffs),
        })
    };
    // The coefficients a request built must price the returned layout as
    // the solver's own evaluation did.
    let verify = |_: &Instance, key: u64, a: &Answer, _: Option<&Obs>, checks: &mut Checks| {
        let Some(coeffs) = &a.coeffs else { return };
        let priced = fast_objective4(black_box(coeffs), &a.report.partitioning);
        let reported = a.report.breakdown.objective4;
        checks.check((priced - reported).abs() <= 1e-9 * reported.abs().max(1.0), || {
            format!("request {key:#x}: coefficients price the layout at {priced}, the solver at {reported}")
        });
    };
    run(args, &advice, solve, verify)
}

/// `advise-tpcc-qp`: a default QP solve of TPC-C at 2 sites with λ ∈
/// [0.5, 1] and p ∈ [2, 8] drawn per request. Every request must end
/// proven optimal, with objective (6) no worse than an untimed SA solve
/// of the same request beyond the MIP gap.
pub fn tpcc_qp(args: &Args) -> Result<Outcome, String> {
    let advice = Advice {
        instance: vpart_instances::tpcc,
        sites: 2,
        warmup: 2,
        exact_prefix: 20,
        min_ops: 22,
        block: 2,
        tail: 0.9,
    };
    let solve = |ins: &Instance, key: u64, obs: &Obs| {
        let cost = CostConfig::default()
            .with_lambda(0.5 + 0.5 * unit(key))
            .with_p(2.0 + 6.0 * unit(key + 1));
        let report = call(obs, "qp.solve", |o| {
            QpSolver::new(QpConfig {
                obs: o.clone(),
                ..QpConfig::default()
            })
            .solve(ins, advice.sites, &cost)
        })
        .map_err(|e| format!("QP failed: {e}"))?;
        Ok(Answer {
            report,
            cost,
            coeffs: None,
        })
    };
    let verify =
        |ins: &Instance, key: u64, a: &Answer, traced: Option<&Obs>, checks: &mut Checks| {
            if let Some(obs) = traced {
                // Model construction runs unspanned inside `qp_solve`: time
                // it again on the same inputs.
                let reduction = shadow(obs, "ilp", "qp.reduce", || Reduction::compute(ins));
                let work = reduction.as_ref().map_or(ins, |r| &r.reduced);
                let coeffs = shadow(obs, "ilp", "cost.coeffs", || {
                    CostCoefficients::compute(work, &a.cost)
                });
                black_box(shadow(obs, "ilp", "qp.build", || {
                    build_qp_model(work, &coeffs, advice.sites, &a.cost, &QpOptions::default())
                }));
            }
            checks.check(a.report.termination == Termination::Optimal, || {
                format!(
                    "request {key:#x}: QP ended {:?}, not optimal",
                    a.report.termination
                )
            });
            let sa = SaSolver::new(SaConfig {
                seed: key,
                threads: 1,
                ..SaConfig::default()
            })
            .solve(ins, advice.sites, &a.cost);
            match sa {
                Ok(sa) => {
                    let (qp6, sa6) = (a.report.breakdown.objective6, sa.breakdown.objective6);
                    checks.check(qp6 <= sa6 * (1.0 + QpConfig::default().mip_gap), || {
                        format!("request {key:#x}: QP objective (6) {qp6} is worse than SA's {sa6}")
                    });
                }
                Err(e) => {
                    checks.check(false, || {
                        format!("request {key:#x}: reference SA failed: {e}")
                    });
                }
            }
        };
    run(args, &advice, solve, verify)
}
