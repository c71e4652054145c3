//! Replay harness validation: byte meters are bit-identical across thread
//! counts and repeated runs, and the true-byte measurement stays within a
//! pinned bound of the cost model's prediction on TPC-C.

use vpart_core::sa::{SaConfig, SaSolver};
use vpart_core::{predicted_txn_bytes, CostConfig};
use vpart_engine::{
    PredictedBytes, ReplayConfig, ReplayDeployment, ReplayStream, RowSkew, SiteBytes,
};
use vpart_instances::tpcc;
use vpart_model::{Instance, Partitioning};

fn solved(ins: &Instance, sites: usize, seed: u64) -> Partitioning {
    SaSolver::new(SaConfig::fast_deterministic(seed))
        .solve(ins, sites, &CostConfig::default())
        .expect("SA solves TPC-C")
        .partitioning
}

/// The model's prediction for one pass of `stream`: per-transaction bytes
/// weighted by the stream's execution counts.
fn predicted_for_stream(
    ins: &Instance,
    part: &Partitioning,
    stream: &ReplayStream,
) -> PredictedBytes {
    stream.predicted(
        &predicted_txn_bytes(ins, part, &CostConfig::default()),
        |b| (b.read, b.written, b.transferred),
    )
}

#[test]
fn meters_are_thread_count_independent_on_tpcc() {
    let ins = tpcc();
    let part = solved(&ins, 3, 1);
    let stream = ReplayStream::weighted(&ins, 300, 42);
    let mut reference = None;
    for threads in [1usize, 2, 4, 16] {
        let mut dep = ReplayDeployment::new(&ins, &part, 256, 32).expect("deploys");
        let report = dep
            .replay(&stream, &ReplayConfig::deterministic(threads), None)
            .expect("replays");
        assert_eq!(report.txns_replayed, 300);
        let fp = report.meter_fingerprint();
        match &reference {
            None => reference = Some(fp),
            Some(r) => assert_eq!(
                r, &fp,
                "byte meters must be bit-identical at {threads} threads"
            ),
        }
    }
}

#[test]
fn fixed_seed_reproduces_meters_and_counts() {
    let ins = tpcc();
    let part = solved(&ins, 3, 1);
    let run = || {
        let stream = ReplayStream::weighted(&ins, 150, 7);
        ReplayDeployment::new(&ins, &part, 128, 16)
            .expect("deploys")
            .replay(&stream, &ReplayConfig::deterministic(2), None)
            .expect("replays")
    };
    let a = run();
    let b = run();
    assert_eq!(a.meter_fingerprint(), b.meter_fingerprint());
    assert_eq!(a.txns_replayed, b.txns_replayed);
    assert_eq!(a.passes, b.passes);
    // A different seed really does touch different rows.
    let other = ReplayStream::weighted(&ins, 150, 8);
    let c = ReplayDeployment::new(&ins, &part, 128, 16)
        .expect("deploys")
        .replay(&other, &ReplayConfig::deterministic(2), None)
        .expect("replays");
    assert_ne!(a.checksum, c.checksum, "seed must steer the row touches");
}

#[test]
fn model_error_stays_bounded_on_tpcc() {
    let ins = tpcc();
    for (sites, seed) in [(1usize, 0u64), (3, 1)] {
        let part = if sites == 1 {
            Partitioning::single_site(&ins, 1).expect("single site deploys")
        } else {
            solved(&ins, sites, seed)
        };
        let stream = ReplayStream::uniform(&ins, 4, 9);
        let predicted = predicted_for_stream(&ins, &part, &stream);
        let mut dep = ReplayDeployment::new(&ins, &part, 256, 32).expect("deploys");
        let report = dep
            .replay(&stream, &ReplayConfig::deterministic(2), Some(&predicted))
            .expect("replays");
        let me = report.model_error.expect("prediction supplied");
        // The gap is pure quantization (physical widths round up, row
        // counts and frequencies round to integers), so it is small and
        // non-negative on TPC-C's integer-width schema.
        assert!(
            me.overall_ratio.abs() < 0.15,
            "{sites} sites: model error {:+.4} out of bounds (predicted {:?}, measured {:?})",
            me.overall_ratio,
            me.predicted,
            me.measured
        );
        assert!(
            me.overall_ratio >= -1e-12,
            "true bytes can only exceed the fractional model on TPC-C"
        );
    }
}

#[test]
fn throughput_reporting_counts_all_passes() {
    let ins = tpcc();
    let part = solved(&ins, 3, 1);
    let stream = ReplayStream::weighted(&ins, 50, 3);
    let mut dep = ReplayDeployment::new(&ins, &part, 64, 8).expect("deploys");
    let report = dep
        .replay(
            &stream,
            &ReplayConfig {
                threads: 2,
                min_duration: std::time::Duration::from_millis(10),
                max_passes: 1000,
                ..ReplayConfig::default()
            },
            None,
        )
        .expect("replays");
    assert!(report.passes >= 1);
    assert_eq!(report.txns_replayed, report.passes * 50);
    assert!(report.throughput_txns_per_sec() > 0.0);
    assert!(report.elapsed >= std::time::Duration::from_millis(10) || report.passes == 1000);
}

/// Meters and data checksum pinned to constants recorded with the former
/// column-per-attribute replay storage: the row-contiguous layout moves
/// exactly the same bytes and fills them with exactly the same values.
#[test]
fn golden_meter_fingerprint_on_tpcc() {
    let ins = tpcc();
    let part = solved(&ins, 3, 1);
    let stream = ReplayStream::weighted(&ins, 300, 42);
    let per_site = vec![
        SiteBytes {
            bytes_read: 40900,
            bytes_written: 147106,
        },
        SiteBytes {
            bytes_read: 104160,
            bytes_written: 91448,
        },
        SiteBytes {
            bytes_read: 1042673,
            bytes_written: 965799,
        },
    ];
    for (skew, checksum) in [
        (RowSkew::Uniform, 7565900560535932974u64),
        (RowSkew::Zipf { theta: 0.9 }, 2189953521963056697),
    ] {
        let mut dep = ReplayDeployment::new(&ins, &part, 256, 32).expect("deploys");
        let config = ReplayConfig {
            skew,
            ..ReplayConfig::deterministic(2)
        };
        let report = dep.replay(&stream, &config, None).expect("replays");
        assert_eq!(
            report.meter_fingerprint(),
            (per_site.clone(), 82544, 9336, 13559, 300, checksum),
            "{skew:?}"
        );
    }
}
