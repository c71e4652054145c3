//! An H-store-like row-store engine.
//!
//! The paper *assumes* an H-store-like DBMS (single-threaded sites, rows
//! stored contiguously, reads in quantums of whole rows, single-sited
//! transactions running without undo/redo logs). No such system is
//! available here, so this crate builds the substrate: a deterministic
//! multi-site row store whose one storage type, [`RowSegment`], holds a
//! table fraction — the attributes a [`vpart_model::Partitioning`] places
//! on a site — with each fraction row stored contiguously.
//!
//! * [`ReplayDeployment`] shards the fractions by row range and replays a
//!   seeded [`ReplayStream`] of transaction executions with parallel
//!   workers, metering exactly the three quantities the cost model
//!   estimates — bytes read and written by storage access methods per
//!   site, and bytes transferred between sites by write replication — in
//!   physical integer bytes. With integer widths, row counts and
//!   frequencies, a uniform stream of `k` rounds measures exactly `k ×`
//!   the model's predicted `A_R`, `A_W`, `B` and per-site work; the cost
//!   model and the engine are implemented independently, so agreement
//!   validates both.
//! * [`Deployment`] holds each fraction whole and applies migration plans
//!   as journaled, crash-safe batches ([`MigrationJournal`],
//!   [`FaultInjector`]) with a byte meter equal to the plan's estimate.
//!
//! ```
//! use vpart_engine::{ReplayConfig, ReplayDeployment, ReplayStream};
//! use vpart_model::Partitioning;
//! use vpart_instances::tpcc;
//!
//! let ins = tpcc();
//! let part = Partitioning::single_site(&ins, 1).unwrap();
//! let mut dep = ReplayDeployment::new(&ins, &part, 64, 4).unwrap();
//! let stream = ReplayStream::uniform(&ins, 3, 7);
//! let report = dep
//!     .replay(&stream, &ReplayConfig::deterministic(2), None)
//!     .unwrap();
//! assert!(report.totals().bytes_read > 0);
//! ```

pub mod executor;
pub mod faults;
pub mod journal;
pub mod replay;
pub mod storage;

pub use executor::{BatchedMigrationReport, Deployment, EngineError, MigrationReport};
pub use faults::{
    FaultInjector, FaultTrigger, FP_MIGRATION_BATCH, FP_MIGRATION_ROLLBACK, FP_REPLAY_PASS,
    FP_WATCH_RESOLVE,
};
pub use journal::{JournalRecord, JournalState, MigrationJournal};
pub use replay::{
    PredictedBytes, ReplayConfig, ReplayDeployment, ReplayModelError, ReplayReport, ReplayStream,
    RowSkew, SiteBytes,
};
pub use storage::RowSegment;
