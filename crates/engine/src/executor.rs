//! Migration deployments: a partitioning materialized as row-store table
//! fractions, changed in place by journaled, crash-safe migrations with
//! byte-exact migration meters.

use crate::faults::{FaultInjector, FP_MIGRATION_BATCH, FP_MIGRATION_ROLLBACK};
use crate::journal::{JournalRecord, MigrationJournal};
use crate::storage::{table_fraction, RowSegment};
use std::collections::BTreeSet;
use std::fmt;
use vpart_model::{
    BatchedMigrationPlan, Instance, MigrationOp, MigrationPlan, Partitioning, SiteId, TableId,
    TxnId,
};
use vpart_obs::Obs;

/// Errors raised by the execution engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The partitioning failed validation against the instance.
    Model(vpart_model::ModelError),
    /// A migration plan does not start from this deployment's state (its
    /// `from` layout or row count differs).
    MigrationMismatch {
        /// What the plan disagrees with the deployment about.
        what: &'static str,
    },
    /// A migration plan is internally inconsistent: applying its changes
    /// to `from` does not produce `to`.
    CorruptPlan {
        /// Which invariant broke.
        what: &'static str,
    },
    /// A replay stream or configuration is unusable (empty stream,
    /// out-of-range transaction ids, …).
    InvalidReplay {
        /// What was wrong with the replay request.
        what: &'static str,
    },
    /// A deterministic fault-injection arm fired at a named fail point
    /// (a simulated crash/abort; see [`crate::faults`]).
    Injected {
        /// The fail point that fired.
        point: String,
    },
    /// A migration journal failed validation: damaged encoding, checksum
    /// mismatch, impossible record sequence, or a fingerprint that does
    /// not match the plan being recovered.
    CorruptJournal {
        /// What was wrong, naming the offending line where applicable.
        what: String,
    },
    /// A fault-injection spec string could not be parsed.
    InvalidFault {
        /// What was wrong with the spec.
        what: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Model(e) => write!(f, "invalid deployment: {e}"),
            Self::MigrationMismatch { what } => {
                write!(f, "migration plan does not match this deployment: {what}")
            }
            Self::CorruptPlan { what } => {
                write!(f, "migration plan is inconsistent: {what}")
            }
            Self::InvalidReplay { what } => {
                write!(f, "invalid replay request: {what}")
            }
            Self::Injected { point } => {
                write!(f, "injected fault at {point}")
            }
            Self::CorruptJournal { what } => {
                write!(f, "migration journal is corrupt: {what}")
            }
            Self::InvalidFault { what } => {
                write!(f, "invalid fault spec: {what}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<vpart_model::ModelError> for EngineError {
    fn from(e: vpart_model::ModelError) -> Self {
        Self::Model(e)
    }
}

/// Result of applying a [`MigrationPlan`]: what physically moved.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationReport {
    /// Bytes shipped between sites to install attribute fractions, metered
    /// from the engine's own schema widths and fragment row counts (not
    /// copied from the plan's estimates).
    pub bytes_moved: f64,
    /// Per-[`FragmentChange`](vpart_model::FragmentChange) moved bytes, in
    /// plan order.
    pub per_change_bytes: Vec<f64>,
    /// Attribute replicas installed.
    pub installs: usize,
    /// Attribute replicas dropped.
    pub drops: usize,
    /// Transactions re-routed to a new home site.
    pub txns_rerouted: usize,
}

/// Result of running (part of) a [`BatchedMigrationPlan`] through the
/// write-ahead journal: forward progress, rollback progress, and the
/// durable byte meter derived from commit records (never double-counted
/// across crashes and resumes).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchedMigrationReport {
    /// Durable metered bytes: `Σ` over the journal's commit records —
    /// forward installs for a migration, re-installs for a rollback.
    /// Identical across any crash/resume schedule of the same plan.
    pub bytes_moved: f64,
    /// Bytes shipped by batches committed in *this* call.
    pub bytes_this_run: f64,
    /// Batches committed (or undone, for rollbacks) in this call.
    pub batches_applied: usize,
    /// The batch boundary the deployment now sits at (committed − undone).
    pub boundary: usize,
    /// Total batches in the plan.
    pub batches_total: usize,
    /// Attribute replicas installed in this call.
    pub installs: usize,
    /// Attribute replicas dropped in this call.
    pub drops: usize,
    /// Transactions re-homed in this call.
    pub txns_rerouted: usize,
    /// The plan's peak transient dual-resident bytes (worst extra storage
    /// at any boundary, priced by the cost model's widths).
    pub peak_transient_bytes: f64,
    /// True when this call continued a journal with prior progress.
    pub resumed: bool,
    /// True when the migration reached `plan.to` (forward) …
    pub completed: bool,
    /// … or `plan.from` again (rollback).
    pub rolled_back: bool,
}

/// A partitioning physically deployed onto sites.
#[derive(Debug, Clone)]
pub struct Deployment<'a> {
    instance: &'a Instance,
    partitioning: Partitioning,
    /// `fractions[site][table]`: the site's fraction of the table, `None`
    /// when no attribute of the table lives there.
    fractions: Vec<Vec<Option<RowSegment>>>,
    rows_per_fragment: usize,
    obs: Obs,
}

impl<'a> Deployment<'a> {
    /// Validates `partitioning` and materializes one row-store fraction
    /// per `(site, table)` pair holding attributes, with
    /// `rows_per_fragment` rows each.
    pub fn new(
        instance: &'a Instance,
        partitioning: &Partitioning,
        rows_per_fragment: usize,
    ) -> Result<Self, EngineError> {
        partitioning.validate(instance, false)?;
        let rows = rows_per_fragment.max(1);
        let fractions = (0..partitioning.n_sites())
            .map(|s| {
                (0..instance.n_tables())
                    .map(|t| {
                        let (site, table) = (SiteId::from_index(s), TableId::from_index(t));
                        table_fraction(instance, partitioning, site, table, 0, rows)
                    })
                    .collect()
            })
            .collect();
        Ok(Self {
            instance,
            partitioning: partitioning.clone(),
            fractions,
            rows_per_fragment: rows,
            obs: Obs::disabled(),
        })
    }

    /// Attaches an observability sink: [`apply_migration`] then records an
    /// `apply_migration` span and the `engine_*_total` meter counters
    /// (migration bytes, installs, drops, re-routes). Off by default.
    ///
    /// [`apply_migration`]: Self::apply_migration
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The deployed partitioning.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// The uniform per-fragment row count this deployment materializes.
    pub fn rows_per_fragment(&self) -> usize {
        self.rows_per_fragment
    }

    /// Site `site`'s fraction of `table`, if it holds any of the table's
    /// attributes (for storage inspection).
    pub fn fraction(&self, site: SiteId, table: TableId) -> Option<&RowSegment> {
        self.fractions[site.index()][table.index()].as_ref()
    }

    /// Total physically materialized bytes across sites.
    pub fn stored_bytes(&self) -> usize {
        self.fractions
            .iter()
            .flatten()
            .flatten()
            .map(RowSegment::payload_bytes)
            .sum()
    }

    /// Physically executes a [`MigrationPlan`]: rebuilds every changed
    /// fraction (installs materialize column data at the destination site,
    /// drops shrink the fraction), re-routes moved transactions, and
    /// meters the bytes shipped between sites.
    ///
    /// The meter re-derives moved bytes from the engine's own schema
    /// widths and row counts — `(Σ w_installed) × rows` per change, the
    /// same accounting [`MigrationPlan::between`] estimates with — so a
    /// plan built with this deployment's `rows_per_fragment` measures
    /// **exactly** its estimate (`MigrationReport::bytes_moved ==
    /// MigrationPlan::estimated_bytes`).
    ///
    /// The plan must start from the currently deployed layout and its
    /// changes must reproduce `plan.to` exactly; anything else is rejected
    /// without touching storage.
    pub fn apply_migration(
        &mut self,
        plan: &MigrationPlan,
    ) -> Result<MigrationReport, EngineError> {
        // Dropped without a record if the plan is rejected below.
        let span = self.obs.span_begin("apply_migration", &[]);
        if plan.from != self.partitioning {
            return Err(EngineError::MigrationMismatch {
                what: "plan.from is not the deployed partitioning",
            });
        }
        if plan.rows_per_fragment.max(1) != self.rows_per_fragment {
            return Err(EngineError::MigrationMismatch {
                what: "plan rows_per_fragment differs from the deployment's",
            });
        }
        plan.to.validate(self.instance, false)?;

        // Dry-run the bookkeeping first: storage is only touched once the
        // whole plan checks out.
        let mut next = self.partitioning.clone();
        for mv in &plan.txn_moves {
            if next.site_of(mv.txn) != mv.from {
                return Err(EngineError::CorruptPlan {
                    what: "txn move does not start at the transaction's current site",
                });
            }
            next.move_txn(mv.txn, mv.to);
        }
        for ch in &plan.changes {
            for &a in ch.installed.iter().chain(&ch.dropped) {
                if self.instance.schema().table_of(a) != ch.table {
                    return Err(EngineError::CorruptPlan {
                        what: "fragment change lists an attribute of another table",
                    });
                }
            }
            for &a in &ch.installed {
                if next.has_attr(a, ch.site) {
                    return Err(EngineError::CorruptPlan {
                        what: "install of an already-present replica",
                    });
                }
                next.add_replica(a, ch.site);
            }
            for &a in &ch.dropped {
                if !next.has_attr(a, ch.site) {
                    return Err(EngineError::CorruptPlan {
                        what: "drop of a replica that is not there",
                    });
                }
                next.remove_replica(a, ch.site);
            }
        }
        if next != plan.to {
            return Err(EngineError::CorruptPlan {
                what: "changes do not produce plan.to",
            });
        }

        // Execute: rebuild each changed fraction and meter shipped bytes.
        self.partitioning = next;
        let schema = self.instance.schema();
        let mut per_change_bytes = Vec::with_capacity(plan.changes.len());
        let mut bytes_moved = 0.0f64;
        let mut installs = 0usize;
        let mut drops = 0usize;
        for ch in &plan.changes {
            let moved = ch.installed.iter().map(|&a| schema.width(a)).sum::<f64>()
                * self.rows_per_fragment as f64;
            per_change_bytes.push(moved);
            bytes_moved += moved;
            installs += ch.installed.len();
            drops += ch.dropped.len();
            self.rebuild_fraction(ch.site, ch.table);
        }

        let txns_rerouted = plan.txn_moves.len();
        if self.obs.is_enabled() {
            self.obs.counter_inc("engine_migrations_total");
            self.obs
                .counter_add("engine_migration_bytes_total", bytes_moved);
            self.obs
                .counter_add("engine_fragment_installs_total", installs as f64);
            self.obs
                .counter_add("engine_fragment_drops_total", drops as f64);
            self.obs
                .counter_add("engine_txns_rerouted_total", txns_rerouted as f64);
            self.obs.span_end(
                span,
                &[
                    ("bytes_moved", bytes_moved.into()),
                    ("installs", installs.into()),
                    ("drops", drops.into()),
                    ("txns_rerouted", txns_rerouted.into()),
                    ("changes", plan.changes.len().into()),
                ],
            );
        }

        self.debug_check_storage_bookkeeping();

        Ok(MigrationReport {
            bytes_moved,
            per_change_bytes,
            installs,
            drops,
            txns_rerouted,
        })
    }

    /// Runs a [`BatchedMigrationPlan`] to completion through a write-ahead
    /// `journal`: each batch is journaled (`BatchBegin`), applied to
    /// storage, then committed (`BatchCommit` with its metered bytes).
    /// Passing a journal with prior progress *resumes* from its boundary —
    /// already-committed batches are never re-applied and never re-counted,
    /// so `bytes_moved` is identical across any crash/resume schedule.
    ///
    /// `faults` may arm the [`FP_MIGRATION_BATCH`] fail point, which fires
    /// *after* a batch's ops hit storage but *before* its commit is
    /// journaled — the worst-case crash window. After an
    /// [`EngineError::Injected`] abort this deployment is mid-batch and
    /// must be discarded; [`Deployment::recover`] rebuilds a clean one at
    /// the journal's boundary.
    pub fn migrate_batched(
        &mut self,
        plan: &BatchedMigrationPlan,
        journal: &mut MigrationJournal,
        faults: &mut FaultInjector,
    ) -> Result<BatchedMigrationReport, EngineError> {
        self.migrate_batches(plan, journal, faults, usize::MAX)
    }

    /// [`migrate_batched`](Self::migrate_batched), but commits at most
    /// `max_batches` batches in this call (rate limiting: a control loop
    /// can interleave batches with foreground work). The migration is
    /// `Complete` only once a call commits the final batch.
    pub fn migrate_batches(
        &mut self,
        plan: &BatchedMigrationPlan,
        journal: &mut MigrationJournal,
        faults: &mut FaultInjector,
        max_batches: usize,
    ) -> Result<BatchedMigrationReport, EngineError> {
        let span = self.obs.span_begin(
            "migrate_batched",
            &[
                ("batches", plan.n_batches().into()),
                ("fingerprint", plan.fingerprint().into()),
                ("rows_per_fragment", self.rows_per_fragment.into()),
            ],
        );
        let resumed = !journal.is_empty();
        if resumed {
            self.check_journal_matches(plan, journal)?;
            let st = journal.state();
            if st.rolling_back || st.rolled_back {
                return Err(EngineError::MigrationMismatch {
                    what: "journal records a rollback; resume with rollback_migration",
                });
            }
            if st.complete {
                return Ok(self.batched_report(plan, journal, 0.0, 0, 0, 0, 0));
            }
        } else {
            if plan.plan.from != self.partitioning {
                return Err(EngineError::MigrationMismatch {
                    what: "plan.from is not the deployed partitioning",
                });
            }
            if plan.plan.rows_per_fragment.max(1) != self.rows_per_fragment {
                return Err(EngineError::MigrationMismatch {
                    what: "plan rows_per_fragment differs from the deployment's",
                });
            }
            plan.plan.to.validate(self.instance, false)?;
            if plan.boundary(plan.n_batches()) != plan.plan.to {
                return Err(EngineError::CorruptPlan {
                    what: "batches do not produce plan.to",
                });
            }
            journal.append(JournalRecord::Start {
                fingerprint: plan.fingerprint(),
                batches: plan.n_batches(),
                rows_per_fragment: self.rows_per_fragment,
            })?;
        }

        let start = journal.state().boundary();
        let mut bytes_this_run = 0.0f64;
        let mut applied = 0usize;
        let mut installs = 0usize;
        let mut drops = 0usize;
        let mut moves = 0usize;
        for (k, batch) in plan.batches.iter().enumerate().skip(start) {
            if applied >= max_batches {
                break;
            }
            journal.append(JournalRecord::BatchBegin { batch: k })?;
            let (batch_bytes, i, d, m) = self.apply_ops(batch.ops.iter(), true);
            installs += i;
            drops += d;
            moves += m;
            if self.obs.is_enabled() {
                self.obs.event(
                    "migration_batch.applied",
                    &[("batch", k.into()), ("bytes", batch_bytes.into())],
                );
            }
            // The crash window: ops applied, commit not yet durable. A
            // fault here aborts mid-batch; recovery re-applies batch k
            // from the journal's boundary and the meter (commit records
            // only) never double-counts it. The flight recorder dumps its
            // ring before the error propagates, so the black box carries
            // the crashing batch's span context.
            if let Err(e) = faults.fail(FP_MIGRATION_BATCH) {
                let _ = self.obs.dump_flight(FP_MIGRATION_BATCH);
                return Err(e);
            }
            journal.append(JournalRecord::BatchCommit {
                batch: k,
                bytes: batch_bytes,
            })?;
            bytes_this_run += batch_bytes;
            applied += 1;
            #[cfg(feature = "debug-invariants")]
            {
                // The durable meter must equal the plan's estimate for the
                // committed prefix exactly — bit-identical f64 sums.
                let expect: f64 = plan.batches[..=k].iter().map(|b| b.bytes).sum();
                assert_eq!(
                    journal.state().bytes_committed,
                    expect,
                    "journaled bytes diverge from the plan estimate at batch {k}"
                );
                assert_eq!(self.partitioning, plan.boundary(k + 1));
            }
            self.debug_check_storage_bookkeeping();
        }

        let st = journal.state();
        if st.boundary() == plan.n_batches() && !st.complete {
            if self.partitioning != plan.plan.to {
                return Err(EngineError::CorruptPlan {
                    what: "applying all batches did not reach plan.to",
                });
            }
            journal.append(JournalRecord::Complete {
                bytes_moved: st.bytes_committed,
            })?;
        }

        let report = self.batched_report(
            plan,
            journal,
            bytes_this_run,
            applied,
            installs,
            drops,
            moves,
        );
        let report = BatchedMigrationReport { resumed, ..report };
        if self.obs.is_enabled() {
            if report.completed {
                self.obs.counter_inc("engine_migrations_total");
            }
            self.obs
                .counter_add("engine_migration_bytes_total", bytes_this_run);
            self.obs
                .counter_add("engine_migration_batches_total", applied as f64);
            self.obs
                .counter_add("engine_fragment_installs_total", installs as f64);
            self.obs
                .counter_add("engine_fragment_drops_total", drops as f64);
            self.obs
                .counter_add("engine_txns_rerouted_total", moves as f64);
            self.obs.span_end(
                span,
                &[
                    ("bytes_this_run", bytes_this_run.into()),
                    ("batches_applied", applied.into()),
                    ("boundary", report.boundary.into()),
                    ("completed", (report.completed as usize).into()),
                ],
            );
        }
        Ok(report)
    }

    /// Rolls a journaled migration back to `plan.from`: committed batches
    /// are undone in reverse order (re-homings reversed, installed
    /// replicas dropped, dropped replicas re-installed and re-metered),
    /// each undo journaled write-ahead like forward batches. A journal
    /// already mid-rollback resumes it; a crash between undo batches
    /// (the [`FP_MIGRATION_ROLLBACK`] fail point) is recoverable the same
    /// way as a forward crash.
    pub fn rollback_migration(
        &mut self,
        plan: &BatchedMigrationPlan,
        journal: &mut MigrationJournal,
        faults: &mut FaultInjector,
    ) -> Result<BatchedMigrationReport, EngineError> {
        let span = self.obs.span_begin(
            "rollback_migration",
            &[
                ("batches", plan.n_batches().into()),
                ("fingerprint", plan.fingerprint().into()),
            ],
        );
        if journal.is_empty() {
            return Err(EngineError::MigrationMismatch {
                what: "rollback without a started migration",
            });
        }
        self.check_journal_matches(plan, journal)?;
        let st = journal.state();
        if st.complete {
            return Err(EngineError::MigrationMismatch {
                what: "cannot roll back a completed migration",
            });
        }
        if st.rolled_back {
            return Ok(self.batched_report(plan, journal, 0.0, 0, 0, 0, 0));
        }
        let resumed = st.rolling_back;
        if !st.rolling_back {
            journal.append(JournalRecord::RollbackBegin)?;
        }

        let mut bytes_this_run = 0.0f64;
        let mut applied = 0usize;
        let mut installs = 0usize;
        let mut drops = 0usize;
        let mut moves = 0usize;
        while journal.state().boundary() > 0 {
            let k = journal.state().boundary() - 1;
            journal.append(JournalRecord::UndoBegin { batch: k })?;
            let (undo_bytes, i, d, m) = self.apply_ops(plan.batches[k].ops.iter().rev(), false);
            installs += i;
            drops += d;
            moves += m;
            if self.obs.is_enabled() {
                self.obs.event(
                    "migration_batch.undone",
                    &[("batch", k.into()), ("bytes", undo_bytes.into())],
                );
            }
            if let Err(e) = faults.fail(FP_MIGRATION_ROLLBACK) {
                let _ = self.obs.dump_flight(FP_MIGRATION_ROLLBACK);
                return Err(e);
            }
            journal.append(JournalRecord::UndoCommit {
                batch: k,
                bytes: undo_bytes,
            })?;
            bytes_this_run += undo_bytes;
            applied += 1;
            #[cfg(feature = "debug-invariants")]
            assert_eq!(self.partitioning, plan.boundary(k));
            self.debug_check_storage_bookkeeping();
        }
        if self.partitioning != plan.plan.from {
            return Err(EngineError::CorruptPlan {
                what: "undoing all batches did not reach plan.from",
            });
        }
        journal.append(JournalRecord::RolledBack)?;

        let report = self.batched_report(
            plan,
            journal,
            bytes_this_run,
            applied,
            installs,
            drops,
            moves,
        );
        let report = BatchedMigrationReport { resumed, ..report };
        if self.obs.is_enabled() {
            self.obs.counter_inc("engine_migration_rollbacks_total");
            self.obs
                .counter_add("engine_migration_bytes_total", bytes_this_run);
            self.obs.span_end(
                span,
                &[
                    ("bytes_this_run", bytes_this_run.into()),
                    ("batches_undone", applied.into()),
                ],
            );
        }
        Ok(report)
    }

    /// Rebuilds a deployment at a crashed migration's durable boundary:
    /// the journal's committed batches (minus committed undos) applied to
    /// `plan.from`. Fraction materialization is deterministic, so the
    /// recovered payloads are bit-identical to a deployment that
    /// reached the same boundary without crashing. Continue with
    /// [`migrate_batched`](Self::migrate_batched) (forward) or
    /// [`rollback_migration`](Self::rollback_migration).
    pub fn recover(
        instance: &'a Instance,
        plan: &BatchedMigrationPlan,
        journal: &MigrationJournal,
    ) -> Result<Self, EngineError> {
        if let Some(fp) = journal.fingerprint() {
            if fp != plan.fingerprint() {
                return Err(EngineError::CorruptJournal {
                    what: "journal fingerprint does not match the plan".to_string(),
                });
            }
        } else if !journal.is_empty() {
            return Err(EngineError::CorruptJournal {
                what: "journal has records but no Start".to_string(),
            });
        }
        let boundary = journal.state().boundary();
        if boundary > plan.n_batches() {
            return Err(EngineError::CorruptJournal {
                what: "journal commits more batches than the plan holds".to_string(),
            });
        }
        Self::new(
            instance,
            &plan.boundary(boundary),
            plan.plan.rows_per_fragment,
        )
    }

    /// A 64-bit fingerprint of the full deployment state: the logical
    /// partitioning plus every fraction's attrs, row count and raw
    /// physical payload. Two deployments with equal fingerprints hold
    /// bit-identical storage — the equality the fault-sweep harness
    /// asserts between crashed-and-recovered and uninterrupted runs.
    pub fn state_fingerprint(&self) -> u64 {
        let mut h = 0x9E37_79B9_7F4A_7C15_u64;
        let put = |h: &mut u64, v: u64| {
            let mut z = *h ^ v.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *h = z ^ (z >> 31);
        };
        put(&mut h, self.partitioning.n_sites() as u64);
        for t in (0..self.instance.n_txns()).map(TxnId::from_index) {
            put(&mut h, self.partitioning.site_of(t).index() as u64);
        }
        for site in &self.fractions {
            for frag in site.iter().flatten() {
                put(&mut h, frag.table.index() as u64);
                put(&mut h, frag.attrs.len() as u64);
                for a in &frag.attrs {
                    put(&mut h, a.index() as u64);
                }
                put(&mut h, frag.rows as u64);
                for &b in frag.payload() {
                    put(&mut h, b as u64);
                }
            }
        }
        h
    }

    /// Applies a batch's micro-ops (or their inverses, in the order given)
    /// to the logical partitioning, then rebuilds each touched fraction
    /// once. Returns `(metered bytes, installs, drops, moves)`; forward
    /// installs and undo re-installs ship `w_a × rows`, as the plan priced.
    fn apply_ops<'p>(
        &mut self,
        ops: impl Iterator<Item = &'p MigrationOp>,
        forward: bool,
    ) -> (f64, usize, usize, usize) {
        let schema = self.instance.schema();
        let (mut meters, mut touched) = ((0.0f64, 0, 0, 0), BTreeSet::new());
        for op in ops {
            // An undone drop re-installs; an undone install drops.
            let (attr, site, install) = match *op {
                MigrationOp::Install { attr, site, .. } => (attr, site, forward),
                MigrationOp::Drop { attr, site } => (attr, site, !forward),
                MigrationOp::MoveTxn { txn, from, to } => {
                    self.partitioning
                        .move_txn(txn, if forward { to } else { from });
                    meters.3 += 1;
                    continue;
                }
            };
            if install {
                self.partitioning.add_replica(attr, site);
                meters.0 += schema.width(attr) * self.rows_per_fragment as f64;
                meters.1 += 1;
            } else {
                self.partitioning.remove_replica(attr, site);
                meters.2 += 1;
            }
            touched.insert((site, schema.table_of(attr)));
        }
        for (site, table) in touched {
            self.rebuild_fraction(site, table);
        }
        meters
    }

    /// Re-derives the `(site, table)` fraction from the current logical
    /// partitioning. The fill is deterministic, so recovery reaches
    /// bit-identical payloads however many times a batch replays.
    fn rebuild_fraction(&mut self, site: SiteId, table: TableId) {
        self.fractions[site.index()][table.index()] = table_fraction(
            self.instance,
            &self.partitioning,
            site,
            table,
            0,
            self.rows_per_fragment,
        );
    }

    /// Shared resume-path validation: the journal must belong to `plan`
    /// and the deployment must sit exactly at its durable boundary.
    fn check_journal_matches(
        &self,
        plan: &BatchedMigrationPlan,
        journal: &MigrationJournal,
    ) -> Result<(), EngineError> {
        match journal.fingerprint() {
            Some(fp) if fp == plan.fingerprint() => {}
            Some(_) => {
                return Err(EngineError::CorruptJournal {
                    what: "journal fingerprint does not match the plan".to_string(),
                })
            }
            None => {
                return Err(EngineError::CorruptJournal {
                    what: "journal has records but no Start".to_string(),
                })
            }
        }
        let boundary = journal.state().boundary();
        if boundary > plan.n_batches() {
            return Err(EngineError::CorruptJournal {
                what: "journal commits more batches than the plan holds".to_string(),
            });
        }
        if self.partitioning != plan.boundary(boundary) {
            return Err(EngineError::MigrationMismatch {
                what: "deployment is not at the journal's batch boundary (recover() first)",
            });
        }
        Ok(())
    }

    /// Assembles a report from the journal's durable state.
    #[allow(clippy::too_many_arguments)]
    fn batched_report(
        &self,
        plan: &BatchedMigrationPlan,
        journal: &MigrationJournal,
        bytes_this_run: f64,
        batches_applied: usize,
        installs: usize,
        drops: usize,
        txns_rerouted: usize,
    ) -> BatchedMigrationReport {
        let st = journal.state();
        BatchedMigrationReport {
            bytes_moved: if st.rolling_back || st.rolled_back {
                st.bytes_undone
            } else {
                st.bytes_committed
            },
            bytes_this_run,
            batches_applied,
            boundary: st.boundary(),
            batches_total: plan.n_batches(),
            installs,
            drops,
            txns_rerouted,
            peak_transient_bytes: plan.peak_transient_bytes,
            resumed: true,
            completed: st.complete,
            rolled_back: st.rolled_back,
        }
    }

    /// `debug-invariants` self-check: after a migration, the physical
    /// fractions must agree exactly with the logical partitioning —
    /// every `(site, table)` fraction holds precisely the attributes
    /// `y` places there, at their physical widths, over rows
    /// `0..rows_per_fragment`, and no empty fractions linger. Compiles to
    /// nothing without the feature.
    #[cfg(feature = "debug-invariants")]
    fn debug_check_storage_bookkeeping(&self) {
        for (s, site) in self.fractions.iter().enumerate() {
            let site_id = SiteId::from_index(s);
            for (t, slot) in site.iter().enumerate() {
                let table = TableId::from_index(t);
                let expected = crate::storage::fraction_attrs(
                    self.instance,
                    &self.partitioning,
                    site_id,
                    table,
                );
                let Some(f) = slot else {
                    assert!(
                        expected.is_empty(),
                        "site {site_id:?} table {table:?}: partitioning places {expected:?} but no fraction exists"
                    );
                    continue;
                };
                assert!(
                    !f.attrs.is_empty(),
                    "site {site_id:?} table {table:?}: empty fraction not pruned"
                );
                let ids: Vec<_> = expected.iter().map(|&(a, _)| a).collect();
                assert_eq!(
                    f.attrs, ids,
                    "site {site_id:?} table {table:?}: fraction attrs diverge from partitioning"
                );
                for &(a, w) in &expected {
                    assert_eq!(
                        f.attr_width(a),
                        (w.ceil() as usize).max(1),
                        "site {site_id:?} table {table:?}: physical width of {a:?} drifted"
                    );
                }
                assert_eq!(
                    (f.base_row, f.rows),
                    (0, self.rows_per_fragment),
                    "site {site_id:?} table {table:?}: fraction row range drifted"
                );
            }
        }
    }

    #[cfg(not(feature = "debug-invariants"))]
    #[inline(always)]
    fn debug_check_storage_bookkeeping(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{ReplayConfig, ReplayDeployment, ReplayStream};
    use vpart_model::workload::QuerySpec;
    use vpart_model::{AttrId, Schema, Workload};

    /// R{a(4), b(8)}: T0 reads a (1 row); T1 writes b (2 rows).
    fn instance() -> Instance {
        let mut sb = Schema::builder();
        sb.table("R", &[("a", 4.0), ("b", 8.0)]).unwrap();
        let schema = sb.build().unwrap();
        let mut wb = Workload::builder(&schema);
        let q0 = wb
            .add_query(QuerySpec::read("q0").access(&[AttrId(0)]))
            .unwrap();
        let q1 = wb
            .add_query(
                QuerySpec::write("q1")
                    .access(&[AttrId(1)])
                    .rows(vpart_model::TableId(0), 2.0),
            )
            .unwrap();
        wb.transaction("T0", &[q0]).unwrap();
        wb.transaction("T1", &[q1]).unwrap();
        Instance::new("eng", schema, wb.build().unwrap()).unwrap()
    }

    #[test]
    fn rejects_non_single_sited_deployment() {
        let ins = instance();
        // T0 on site 1, but `a` only on site 0 → invalid at deploy time.
        let mut y = vpart_model::BitMatrix::new(2, 2);
        y.set(0, 0);
        y.set(1, 0);
        let part = Partitioning::from_parts(2, vec![SiteId(1), SiteId(0)], y).unwrap();
        assert!(matches!(
            Deployment::new(&ins, &part, 4),
            Err(EngineError::Model(_))
        ));
    }

    /// A migration deployment's fractions are the storage replay meters:
    /// T0 reads one row of the whole single-site fraction and T1 writes
    /// two, so the byte meters are that fraction's row width by hand.
    #[test]
    fn single_site_execution_meters_by_hand() {
        let ins = instance();
        let part = Partitioning::single_site(&ins, 1).unwrap();
        let dep = Deployment::new(&ins, &part, 16).unwrap();
        // One fraction row holds a + b = 4 + 8 = 12 physical bytes.
        let row = dep.fraction(SiteId(0), TableId(0)).unwrap().row_width() as u64;
        assert_eq!(row, 12);
        let mut replay = ReplayDeployment::new(&ins, dep.partitioning(), 16, 1).unwrap();
        assert_eq!(replay.stored_bytes(), dep.stored_bytes());
        let report = replay
            .replay(
                &ReplayStream::uniform(&ins, 1, 0),
                &ReplayConfig::deterministic(1),
                None,
            )
            .unwrap();
        let t = report.totals();
        assert_eq!(t.bytes_read, row);
        assert_eq!(t.bytes_written, 2 * row);
        assert_eq!(report.transfer_bytes, 0);
        assert_eq!((report.rows_read, report.rows_written), (1, 2));
    }

    /// Migrating to a replicated layout makes the replica's writes ship
    /// transfer bytes when the migrated layout is replayed.
    #[test]
    fn replication_generates_transfer() {
        let ins = instance();
        let from = Partitioning::single_site(&ins, 2).unwrap();
        let mut to = from.clone();
        to.add_replica(AttrId(1), SiteId(1)); // b replicated; T1 home = s0
        let plan = vpart_model::MigrationPlan::between(&ins, &from, &to, 8).unwrap();
        let mut dep = Deployment::new(&ins, &from, 8).unwrap();
        dep.apply_migration(&plan).unwrap();
        let mut replay = ReplayDeployment::new(&ins, dep.partitioning(), 8, 2).unwrap();
        assert_eq!(replay.stored_bytes(), dep.stored_bytes());
        let report = replay
            .replay(
                &ReplayStream::uniform(&ins, 1, 0),
                &ReplayConfig::deterministic(1),
                None,
            )
            .unwrap();
        // Transfer: b (8 bytes) × 2 rows to the remote replica.
        assert_eq!(report.transfer_bytes, 16);
        // Writes hit both fractions: 2 × 12 at site 0 + 2 × 8 at site 1.
        assert_eq!(report.per_site[0].bytes_written, 24);
        assert_eq!(report.per_site[1].bytes_written, 16);
    }

    /// Deploying and migrating the same layouts twice yields bit-identical
    /// storage, before and after the migration.
    #[test]
    fn deterministic_checksum() {
        let ins = instance();
        let from = Partitioning::single_site(&ins, 2).unwrap();
        let mut to = from.clone();
        to.add_replica(AttrId(1), SiteId(1));
        to.move_txn(TxnId(1), SiteId(1));
        let plan = vpart_model::MigrationPlan::between(&ins, &from, &to, 16).unwrap();
        let run = || {
            let mut dep = Deployment::new(&ins, &from, 16).unwrap();
            let deployed = dep.state_fingerprint();
            dep.apply_migration(&plan).unwrap();
            (deployed, dep.state_fingerprint())
        };
        let (deployed, migrated) = run();
        assert_eq!(run(), (deployed, migrated));
        assert_ne!(deployed, migrated, "the migration changes the state");
    }

    #[test]
    fn apply_migration_moves_and_meters_exactly() {
        let ins = instance();
        let from = Partitioning::single_site(&ins, 2).unwrap();
        // Replicate b to site 1 and re-home T1 there.
        let mut to = from.clone();
        to.add_replica(AttrId(1), SiteId(1));
        to.move_txn(TxnId(1), SiteId(1));
        let plan = vpart_model::MigrationPlan::between(&ins, &from, &to, 16).unwrap();
        assert_eq!(plan.estimated_bytes(), 8.0 * 16.0);

        let mut dep = Deployment::new(&ins, &from, 16).unwrap();
        let before = dep.stored_bytes();
        let report = dep.apply_migration(&plan).unwrap();
        assert_eq!(report.bytes_moved, plan.estimated_bytes());
        assert_eq!(report.per_change_bytes.len(), plan.changes.len());
        for (m, c) in report.per_change_bytes.iter().zip(&plan.changes) {
            assert_eq!(*m, c.bytes, "per-change meter matches the estimate");
        }
        assert_eq!(report.installs, 1);
        assert_eq!(report.drops, 0);
        assert_eq!(report.txns_rerouted, 1);
        assert_eq!(dep.partitioning(), &to);
        assert!(dep.stored_bytes() > before, "the replica is materialized");
        // Site 1 now stores b's 8-byte column over all 16 rows.
        let replica = dep.fraction(SiteId(1), TableId(0)).unwrap();
        assert_eq!(replica.attrs, [AttrId(1)]);
        assert_eq!(replica.payload_bytes(), 8 * 16);
    }

    #[test]
    fn apply_migration_drops_shrink_fragments() {
        let ins = instance();
        let mut from = Partitioning::single_site(&ins, 2).unwrap();
        from.add_replica(AttrId(1), SiteId(1));
        let to = Partitioning::single_site(&ins, 2).unwrap();
        let plan = vpart_model::MigrationPlan::between(&ins, &from, &to, 8).unwrap();
        assert_eq!(plan.estimated_bytes(), 0.0, "drops ship nothing");
        let mut dep = Deployment::new(&ins, &from, 8).unwrap();
        let before = dep.stored_bytes();
        let report = dep.apply_migration(&plan).unwrap();
        assert_eq!(report.bytes_moved, 0.0);
        assert_eq!(report.drops, 1);
        assert!(dep.stored_bytes() < before, "the replica is deleted");
        assert!(dep.fraction(SiteId(1), TableId(0)).is_none());
    }

    /// With `debug-invariants` on, a chain of migrations keeps the
    /// physical fragments in lockstep with the logical partitioning —
    /// the self-check in `apply_migration` runs after every plan.
    #[cfg(feature = "debug-invariants")]
    #[test]
    fn migration_chain_passes_the_bookkeeping_self_check() {
        let ins = instance();
        let base = Partitioning::single_site(&ins, 2).unwrap();
        let mut dep = Deployment::new(&ins, &base, 8).unwrap();
        let mut layouts = vec![base.clone()];
        let mut grown = base.clone();
        grown.add_replica(AttrId(1), SiteId(1));
        layouts.push(grown.clone());
        grown.move_txn(TxnId(1), SiteId(1));
        layouts.push(grown);
        layouts.push(base); // and all the way back
        for pair in layouts.windows(2) {
            let plan = vpart_model::MigrationPlan::between(&ins, &pair[0], &pair[1], 8).unwrap();
            dep.apply_migration(&plan).unwrap();
            assert_eq!(dep.partitioning(), &pair[1]);
        }
    }

    #[test]
    fn apply_migration_rejects_mismatched_and_corrupt_plans() {
        let ins = instance();
        let from = Partitioning::single_site(&ins, 2).unwrap();
        let mut to = from.clone();
        to.add_replica(AttrId(0), SiteId(1));
        let plan = vpart_model::MigrationPlan::between(&ins, &from, &to, 16).unwrap();

        // Wrong starting layout.
        let mut dep = Deployment::new(&ins, &to, 16).unwrap();
        assert!(matches!(
            dep.apply_migration(&plan),
            Err(EngineError::MigrationMismatch { .. })
        ));
        // Wrong row count.
        let mut dep = Deployment::new(&ins, &from, 32).unwrap();
        assert!(matches!(
            dep.apply_migration(&plan),
            Err(EngineError::MigrationMismatch { .. })
        ));
        // Tampered plan: changes no longer produce `to`.
        let mut bad = plan.clone();
        bad.changes.clear();
        let mut dep = Deployment::new(&ins, &from, 16).unwrap();
        assert!(matches!(
            dep.apply_migration(&bad),
            Err(EngineError::CorruptPlan { .. })
        ));
        // Rejected plans leave the deployment untouched.
        assert_eq!(dep.partitioning(), &from);
    }

    #[test]
    fn stored_bytes_scale_with_replication() {
        let ins = instance();
        let single = Partitioning::single_site(&ins, 2).unwrap();
        let dep1 = Deployment::new(&ins, &single, 100).unwrap();
        let mut replicated = single.clone();
        replicated.add_replica(AttrId(0), SiteId(1));
        replicated.add_replica(AttrId(1), SiteId(1));
        let dep2 = Deployment::new(&ins, &replicated, 100).unwrap();
        assert!(dep2.stored_bytes() > dep1.stored_bytes());
    }

    /// Everything relocates from site 0 to site 1 — a migration the
    /// batcher must split across several batches at a small budget.
    fn relocation_pair(ins: &Instance) -> (Partitioning, Partitioning) {
        let from = Partitioning::single_site(ins, 2).unwrap();
        let mut to = from.clone();
        to.add_replica(AttrId(0), SiteId(1));
        to.add_replica(AttrId(1), SiteId(1));
        to.move_txn(TxnId(0), SiteId(1));
        to.move_txn(TxnId(1), SiteId(1));
        to.remove_replica(AttrId(0), SiteId(0));
        to.remove_replica(AttrId(1), SiteId(0));
        (from, to)
    }

    fn relocation_plan(ins: &Instance) -> vpart_model::BatchedMigrationPlan {
        let (from, to) = relocation_pair(ins);
        vpart_model::MigrationPlan::between(ins, &from, &to, 16)
            .unwrap()
            .batched(ins, 64.0)
            .unwrap()
    }

    #[test]
    fn batched_migration_matches_atomic_apply() {
        let ins = instance();
        let (from, to) = relocation_pair(&ins);
        let plan = vpart_model::MigrationPlan::between(&ins, &from, &to, 16).unwrap();
        let batched = plan.batched(&ins, 64.0).unwrap();
        assert!(batched.n_batches() >= 2, "budget should split the plan");

        let mut atomic = Deployment::new(&ins, &from, 16).unwrap();
        let atomic_report = atomic.apply_migration(&plan).unwrap();

        let mut dep = Deployment::new(&ins, &from, 16).unwrap();
        let mut journal = MigrationJournal::new();
        let report = dep
            .migrate_batched(&batched, &mut journal, &mut FaultInjector::disabled())
            .unwrap();
        assert!(report.completed && !report.resumed);
        assert_eq!(report.boundary, batched.n_batches());
        assert_eq!(report.bytes_moved, atomic_report.bytes_moved);
        assert_eq!(report.bytes_moved, plan.estimated_bytes());
        assert_eq!(dep.partitioning(), &to);
        assert_eq!(
            dep.state_fingerprint(),
            atomic.state_fingerprint(),
            "batched and atomic migration must reach bit-identical storage"
        );
    }

    /// Crash at every batch boundary (the window after ops hit storage
    /// but before the commit is durable), recover from the journal and
    /// resume: state and byte meter end bit-identical to a run that
    /// never crashed.
    #[test]
    fn crash_at_every_boundary_recovers_bit_identically() {
        let ins = instance();
        let plan = relocation_plan(&ins);
        let n = plan.n_batches();

        let mut clean = Deployment::new(&ins, &plan.plan.from, 16).unwrap();
        let mut clean_journal = MigrationJournal::new();
        clean
            .migrate_batched(&plan, &mut clean_journal, &mut FaultInjector::disabled())
            .unwrap();
        let clean_fp = clean.state_fingerprint();
        let clean_bytes = clean_journal.state().bytes_committed;

        for k in 1..=n {
            let mut dep = Deployment::new(&ins, &plan.plan.from, 16).unwrap();
            let mut journal = MigrationJournal::new();
            let mut faults = FaultInjector::new(1);
            faults
                .arm_spec(&format!("migration.batch:nth={k}"))
                .unwrap();
            let err = dep
                .migrate_batched(&plan, &mut journal, &mut faults)
                .unwrap_err();
            assert!(matches!(err, EngineError::Injected { .. }));
            assert_eq!(
                journal.state().boundary(),
                k - 1,
                "commit k never became durable"
            );

            // The journal survives as text; the crashed deployment does not.
            let journal_text = journal.to_jsonl();
            let mut journal = MigrationJournal::from_jsonl(&journal_text).unwrap();
            let mut dep = Deployment::recover(&ins, &plan, &journal).unwrap();
            let report = dep
                .migrate_batched(&plan, &mut journal, &mut FaultInjector::disabled())
                .unwrap();
            assert!(report.resumed && report.completed);
            assert_eq!(dep.state_fingerprint(), clean_fp, "crash at batch {k}");
            assert_eq!(journal.state().bytes_committed, clean_bytes);
            assert_eq!(report.bytes_moved, clean_bytes, "meter never double-counts");
        }
    }

    #[test]
    fn rollback_after_crash_restores_the_source_exactly() {
        let ins = instance();
        let plan = relocation_plan(&ins);
        let pristine_fp = Deployment::new(&ins, &plan.plan.from, 16)
            .unwrap()
            .state_fingerprint();

        let mut dep = Deployment::new(&ins, &plan.plan.from, 16).unwrap();
        let mut journal = MigrationJournal::new();
        let mut faults = FaultInjector::new(2);
        faults.arm_spec("migration.batch:nth=2").unwrap();
        dep.migrate_batched(&plan, &mut journal, &mut faults)
            .unwrap_err();

        let mut dep = Deployment::recover(&ins, &plan, &journal).unwrap();
        let report = dep
            .rollback_migration(&plan, &mut journal, &mut FaultInjector::disabled())
            .unwrap();
        assert!(report.rolled_back);
        assert_eq!(dep.partitioning(), &plan.plan.from);
        assert_eq!(dep.state_fingerprint(), pristine_fp);
        // A rolled-back journal is terminal for both directions.
        assert!(dep
            .migrate_batched(&plan, &mut journal, &mut FaultInjector::disabled())
            .is_err());
        let again = dep
            .rollback_migration(&plan, &mut journal, &mut FaultInjector::disabled())
            .unwrap();
        assert_eq!(again.batches_applied, 0, "rollback is idempotent");
    }

    /// A crash during rollback resumes the rollback the same way.
    #[test]
    fn rollback_crash_resumes_to_source() {
        let ins = instance();
        let plan = relocation_plan(&ins);
        let mut dep = Deployment::new(&ins, &plan.plan.from, 16).unwrap();
        let mut journal = MigrationJournal::new();
        let mut faults = FaultInjector::new(3);
        faults
            .arm_spec(&format!("migration.batch:nth={}", plan.n_batches()))
            .unwrap();
        faults.arm_spec("migration.rollback:nth=1").unwrap();
        dep.migrate_batched(&plan, &mut journal, &mut faults)
            .unwrap_err();

        let mut dep = Deployment::recover(&ins, &plan, &journal).unwrap();
        dep.rollback_migration(&plan, &mut journal, &mut faults)
            .unwrap_err();

        let mut dep = Deployment::recover(&ins, &plan, &journal).unwrap();
        let report = dep
            .rollback_migration(&plan, &mut journal, &mut FaultInjector::disabled())
            .unwrap();
        assert!(report.rolled_back && report.resumed);
        assert_eq!(dep.partitioning(), &plan.plan.from);
    }

    #[test]
    fn rate_limited_batches_step_to_completion() {
        let ins = instance();
        let plan = relocation_plan(&ins);
        let mut dep = Deployment::new(&ins, &plan.plan.from, 16).unwrap();
        let mut journal = MigrationJournal::new();
        let mut faults = FaultInjector::disabled();
        let mut steps = 0usize;
        let mut total = 0.0f64;
        loop {
            let r = dep
                .migrate_batches(&plan, &mut journal, &mut faults, 1)
                .unwrap();
            total += r.bytes_this_run;
            steps += 1;
            if r.completed {
                break;
            }
            assert_eq!(r.boundary, steps, "one batch per call");
        }
        assert_eq!(steps, plan.n_batches());
        assert_eq!(total, plan.estimated_bytes());
        assert_eq!(dep.partitioning(), &plan.plan.to);
        // Re-running a complete migration is a observable no-op.
        let again = dep
            .migrate_batched(&plan, &mut journal, &mut FaultInjector::disabled())
            .unwrap();
        assert!(again.completed && again.resumed);
        assert_eq!(again.batches_applied, 0);
        assert_eq!(again.bytes_this_run, 0.0);
    }

    #[test]
    fn journal_from_another_plan_is_rejected() {
        let ins = instance();
        let plan = relocation_plan(&ins);
        let mut dep = Deployment::new(&ins, &plan.plan.from, 16).unwrap();
        let mut journal = MigrationJournal::new();
        dep.migrate_batches(&plan, &mut journal, &mut FaultInjector::disabled(), 1)
            .unwrap();

        // Same endpoints, different budget ⇒ different fingerprint.
        let other = plan.plan.clone().batched(&ins, 1e9).unwrap();
        assert_ne!(other.fingerprint(), plan.fingerprint());
        assert!(matches!(
            dep.migrate_batched(&other, &mut journal, &mut FaultInjector::disabled()),
            Err(EngineError::CorruptJournal { .. })
        ));
        assert!(matches!(
            Deployment::recover(&ins, &other, &journal),
            Err(EngineError::CorruptJournal { .. })
        ));
        // A deployment that drifted off the journal's boundary must be
        // rebuilt with recover() before resuming.
        let mut stale = Deployment::new(&ins, &plan.plan.from, 16).unwrap();
        let stale_err = stale
            .migrate_batched(&plan, &mut journal, &mut FaultInjector::disabled())
            .unwrap_err();
        assert!(matches!(stale_err, EngineError::MigrationMismatch { .. }));
    }
}
