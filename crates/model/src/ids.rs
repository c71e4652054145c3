//! Typed indices for tables, attributes, queries, transactions and sites.
//!
//! All entities are identified by dense `u32` indices assigned in insertion
//! order. Newtypes prevent accidentally indexing the wrong collection (e.g.
//! using a query id where a transaction id is expected), which matters in a
//! codebase that juggles five parallel index spaces.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $tag:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(pub u32);

        impl $name {
            /// The dense index as a `usize`, for direct slice indexing.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Constructs an id from a dense `usize` index.
            ///
            /// # Panics
            /// Panics if `i` does not fit in `u32`.
            #[inline]
            pub fn from_index(i: usize) -> Self {
                Self(u32::try_from(i).expect("id index exceeds u32::MAX"))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl From<$name> for usize {
            #[inline]
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

define_id!(
    /// Identifies a table within a [`crate::Schema`].
    TableId,
    "r"
);
define_id!(
    /// Identifies an attribute (column) globally across the schema.
    ///
    /// Attribute ids are contiguous per table: all attributes of table 0
    /// come first, then table 1, and so on. [`crate::Schema::table_attrs`]
    /// exposes the range.
    AttrId,
    "a"
);
define_id!(
    /// Identifies a query within a [`crate::Workload`].
    QueryId,
    "q"
);
define_id!(
    /// Identifies a transaction within a [`crate::Workload`].
    TxnId,
    "t"
);
define_id!(
    /// Identifies a physical or logical site (partition host).
    SiteId,
    "s"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_paper_notation() {
        assert_eq!(TableId(3).to_string(), "r3");
        assert_eq!(AttrId(0).to_string(), "a0");
        assert_eq!(QueryId(7).to_string(), "q7");
        assert_eq!(TxnId(2).to_string(), "t2");
        assert_eq!(SiteId(1).to_string(), "s1");
    }

    #[test]
    fn index_round_trip() {
        let a = AttrId::from_index(42);
        assert_eq!(a.index(), 42);
        assert_eq!(usize::from(a), 42);
    }

    #[test]
    fn ordering_follows_dense_index() {
        assert!(SiteId(0) < SiteId(1));
        assert!(TxnId(9) > TxnId(3));
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn from_index_rejects_overflow() {
        let _ = AttrId::from_index(usize::MAX);
    }

    #[test]
    fn serde_is_transparent() {
        let json = serde_json::to_string(&AttrId(5)).unwrap();
        assert_eq!(json, "5");
        let back: AttrId = serde_json::from_str(&json).unwrap();
        assert_eq!(back, AttrId(5));
    }
}
