//! Error type shared by model construction and validation.

use crate::ids::{AttrId, QueryId, SiteId, TableId, TxnId};
use std::fmt;

/// Errors raised while building or validating schemas, workloads,
/// instances and partitionings.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A table, attribute, query or transaction name was registered twice.
    DuplicateName(String),
    /// An entity name was empty.
    EmptyName,
    /// An attribute was declared with a non-positive average width.
    InvalidWidth { attr: String, width: f64 },
    /// A query frequency was not strictly positive and finite.
    InvalidFrequency { query: String, frequency: f64 },
    /// A per-table row count `n_{a,q}` was not strictly positive and finite.
    InvalidRowCount {
        query: String,
        table: TableId,
        rows: f64,
    },
    /// A table was declared without attributes.
    EmptyTable(String),
    /// A referenced table id does not exist in the schema.
    UnknownTable(TableId),
    /// A referenced attribute id does not exist in the schema.
    UnknownAttr(AttrId),
    /// A referenced query id does not exist in the workload.
    UnknownQuery(QueryId),
    /// A query accesses no attributes.
    EmptyQuery(String),
    /// A query references a table without declaring its row count, or vice
    /// versa.
    RowCountMismatch { query: String, table: TableId },
    /// A query was assigned to more than one transaction (γ must be a
    /// partition of queries).
    QueryReused {
        query: QueryId,
        first: TxnId,
        second: TxnId,
    },
    /// A query is not assigned to any transaction.
    OrphanQuery(QueryId),
    /// A transaction holds no queries.
    EmptyTransaction(String),
    /// The workload holds no transactions.
    EmptyWorkload,
    /// The schema holds no tables.
    EmptySchema,
    /// Partitioning refers to a site outside `0..n_sites`.
    SiteOutOfRange { site: SiteId, n_sites: usize },
    /// Partitioning shape does not match the instance dimensions.
    DimensionMismatch {
        what: &'static str,
        expected: usize,
        got: usize,
    },
    /// An attribute is not placed on any site (violates `Σ_s y[a][s] ≥ 1`).
    UnplacedAttr(AttrId),
    /// A read query's attribute is missing from the executing site of its
    /// transaction (violates single-sitedness `y[a][s] ≥ x[t][s]·φ[a][t]`).
    SingleSitednessViolated {
        txn: TxnId,
        attr: AttrId,
        site: SiteId,
    },
    /// A partitioning was required to be disjoint but replicates an attribute.
    ReplicationForbidden { attr: AttrId },
    /// Number of sites must be at least one.
    NoSites,
    /// A table's attribute range breaks the schema's tiling of
    /// `0..n_attrs` (only a deserialized schema can).
    InvalidTableRange(String, std::ops::Range<usize>),
    /// A migration batch byte budget was not strictly positive (NaN, zero
    /// or negative). `f64::INFINITY` is allowed and means "one batch".
    InvalidBatchBytes { bytes: f64 },
    /// A migration plan failed an internal consistency check while being
    /// split into batches (e.g. its changes do not take `from` to `to`).
    InconsistentPlan { what: &'static str },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DuplicateName(n) => write!(f, "duplicate name: {n:?}"),
            Self::EmptyName => write!(f, "entity names must be non-empty"),
            Self::InvalidWidth { attr, width } => {
                write!(f, "attribute {attr:?} has invalid width {width}")
            }
            Self::InvalidFrequency { query, frequency } => {
                write!(f, "query {query:?} has invalid frequency {frequency}")
            }
            Self::InvalidRowCount { query, table, rows } => {
                write!(
                    f,
                    "query {query:?} has invalid row count {rows} for table {table}"
                )
            }
            Self::EmptyTable(n) => write!(f, "table {n:?} has no attributes"),
            Self::UnknownTable(t) => write!(f, "unknown table {t}"),
            Self::UnknownAttr(a) => write!(f, "unknown attribute {a}"),
            Self::UnknownQuery(q) => write!(f, "unknown query {q}"),
            Self::EmptyQuery(n) => write!(f, "query {n:?} accesses no attributes"),
            Self::RowCountMismatch { query, table } => write!(
                f,
                "query {query:?} touches table {table} without a matching row-count declaration"
            ),
            Self::QueryReused {
                query,
                first,
                second,
            } => write!(
                f,
                "query {query} assigned to both transaction {first} and {second}; \
                 γ must partition queries"
            ),
            Self::OrphanQuery(q) => write!(f, "query {q} not assigned to any transaction"),
            Self::EmptyTransaction(n) => write!(f, "transaction {n:?} holds no queries"),
            Self::EmptyWorkload => write!(f, "workload holds no transactions"),
            Self::EmptySchema => write!(f, "schema holds no tables"),
            Self::SiteOutOfRange { site, n_sites } => {
                write!(f, "site {site} out of range (have {n_sites} sites)")
            }
            Self::DimensionMismatch {
                what,
                expected,
                got,
            } => {
                write!(
                    f,
                    "partitioning {what} dimension mismatch: expected {expected}, got {got}"
                )
            }
            Self::UnplacedAttr(a) => write!(f, "attribute {a} is not placed on any site"),
            Self::SingleSitednessViolated { txn, attr, site } => write!(
                f,
                "single-sitedness violated: transaction {txn} on site {site} reads \
                 attribute {attr} which is absent there"
            ),
            Self::ReplicationForbidden { attr } => {
                write!(
                    f,
                    "attribute {attr} is replicated but disjointness was required"
                )
            }
            Self::NoSites => write!(f, "at least one site is required"),
            Self::InvalidTableRange(table, range) => write!(
                f,
                "table {table:?} has invalid attribute range {range:?} (table ranges must \
                 tile the attributes in order, each owning its own)"
            ),
            Self::InvalidBatchBytes { bytes } => {
                write!(
                    f,
                    "migration batch byte budget must be positive, got {bytes}"
                )
            }
            Self::InconsistentPlan { what } => {
                write!(f, "inconsistent migration plan: {what}")
            }
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ModelError::SingleSitednessViolated {
            txn: TxnId(1),
            attr: AttrId(4),
            site: SiteId(0),
        };
        let msg = e.to_string();
        assert!(msg.contains("t1") && msg.contains("a4") && msg.contains("s0"));
    }

    #[test]
    fn implements_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(ModelError::EmptyWorkload);
        assert!(e.to_string().contains("workload"));
    }
}
