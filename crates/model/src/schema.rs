//! Relational schema: tables and attributes with average widths.
//!
//! The cost model only needs names (for reporting), the table→attribute
//! containment relation and the average byte width `w_a` of each attribute,
//! so that is all a [`Schema`] stores. Attribute ids are global and
//! contiguous per table, which lets the rest of the system represent
//! "attributes of table r" as a simple index range.

use crate::error::ModelError;
use crate::ids::{AttrId, TableId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::ops::Range;

/// A single attribute (column) of a table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Attribute {
    /// Attribute name, unique within its table.
    pub name: String,
    /// Average width `w_a` in bytes.
    pub width: f64,
    /// Owning table.
    pub table: TableId,
}

/// A table: a named, contiguous range of attributes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Table name, unique within the schema.
    pub name: String,
    /// Global ids of this table's attributes (`first..last`, contiguous).
    pub first_attr: AttrId,
    /// One past the last attribute id of this table.
    pub attr_end: AttrId,
}

impl Table {
    /// The global attribute id range of this table.
    pub fn attrs(&self) -> Range<usize> {
        self.first_attr.index()..self.attr_end.index()
    }

    /// Number of attributes in this table.
    pub fn n_attrs(&self) -> usize {
        self.attr_end.index() - self.first_attr.index()
    }
}

/// A validated relational schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schema {
    tables: Vec<Table>,
    attrs: Vec<Attribute>,
}

impl Schema {
    /// Starts building a schema.
    pub fn builder() -> SchemaBuilder {
        SchemaBuilder::default()
    }

    /// All tables in declaration order.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// All attributes in global id order.
    pub fn attrs(&self) -> &[Attribute] {
        &self.attrs
    }

    /// Number of tables.
    pub fn n_tables(&self) -> usize {
        self.tables.len()
    }

    /// Number of attributes across all tables (the paper's `|A|`).
    pub fn n_attrs(&self) -> usize {
        self.attrs.len()
    }

    /// Table metadata by id.
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.index()]
    }

    /// Attribute metadata by global id.
    pub fn attr(&self, id: AttrId) -> &Attribute {
        &self.attrs[id.index()]
    }

    /// The table owning attribute `a`.
    pub fn table_of(&self, a: AttrId) -> TableId {
        self.attrs[a.index()].table
    }

    /// Width `w_a` of attribute `a` in bytes.
    pub fn width(&self, a: AttrId) -> f64 {
        self.attrs[a.index()].width
    }

    /// Global attribute id range of table `t`.
    pub fn table_attrs(&self, t: TableId) -> Range<usize> {
        self.tables[t.index()].attrs()
    }

    /// Sum of attribute widths of table `t` (the full row width).
    pub fn row_width(&self, t: TableId) -> f64 {
        self.table_attrs(t).map(|a| self.attrs[a].width).sum()
    }

    /// Looks up a table id by name.
    pub fn table_by_name(&self, name: &str) -> Option<TableId> {
        self.tables
            .iter()
            .position(|t| t.name == name)
            .map(TableId::from_index)
    }

    /// Looks up an attribute by `"Table.Attr"` qualified name.
    pub fn attr_by_name(&self, table: &str, attr: &str) -> Option<AttrId> {
        let t = self.table_by_name(table)?;
        self.table_attrs(t)
            .find(|&a| self.attrs[a].name == attr)
            .map(AttrId::from_index)
    }

    /// Checks what the builder guarantees but a deserialized schema may
    /// break: the tables' attribute ranges tile `0..n_attrs` in order,
    /// each non-empty and holding only attributes naming that table.
    pub(crate) fn check_ranges(&self) -> Result<(), ModelError> {
        let mut next = 0;
        for (i, t) in self.tables.iter().enumerate() {
            let range = t.attrs();
            let owned = |a: &[Attribute]| !a.is_empty() && a.iter().all(|a| a.table.index() == i);
            if range.start != next || !self.attrs.get(range.clone()).is_some_and(owned) {
                return Err(ModelError::InvalidTableRange(t.name.clone(), range));
            }
            next = range.end;
        }
        match self.tables.last() {
            Some(t) if next != self.attrs.len() => {
                Err(ModelError::InvalidTableRange(t.name.clone(), t.attrs()))
            }
            Some(_) => Ok(()),
            None => Err(ModelError::EmptySchema),
        }
    }

    /// `"Table.Attr"` display name for reporting.
    pub fn qualified_name(&self, a: AttrId) -> String {
        let attr = self.attr(a);
        format!("{}.{}", self.tables[attr.table.index()].name, attr.name)
    }
}

/// Incremental [`Schema`] construction with validation.
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    tables: Vec<Table>,
    attrs: Vec<Attribute>,
    table_names: HashMap<String, TableId>,
}

impl SchemaBuilder {
    /// Adds a table with `(attribute name, average width in bytes)` columns.
    ///
    /// Returns the new table id; attribute ids are assigned contiguously in
    /// the given order and can be recovered via [`Schema::table_attrs`].
    pub fn table<S: Into<String>>(
        &mut self,
        name: S,
        columns: &[(&str, f64)],
    ) -> Result<TableId, ModelError> {
        let name = name.into();
        if name.is_empty() {
            return Err(ModelError::EmptyName);
        }
        if self.table_names.contains_key(&name) {
            return Err(ModelError::DuplicateName(name));
        }
        if columns.is_empty() {
            return Err(ModelError::EmptyTable(name));
        }
        let id = TableId::from_index(self.tables.len());
        let first_attr = AttrId::from_index(self.attrs.len());
        let mut seen = HashMap::new();
        for &(cname, width) in columns {
            if cname.is_empty() {
                return Err(ModelError::EmptyName);
            }
            if seen.insert(cname, ()).is_some() {
                return Err(ModelError::DuplicateName(format!("{name}.{cname}")));
            }
            if !(width > 0.0) || !width.is_finite() {
                return Err(ModelError::InvalidWidth {
                    attr: format!("{name}.{cname}"),
                    width,
                });
            }
            self.attrs.push(Attribute {
                name: cname.to_owned(),
                width,
                table: id,
            });
        }
        let attr_end = AttrId::from_index(self.attrs.len());
        self.table_names.insert(name.clone(), id);
        self.tables.push(Table {
            name,
            first_attr,
            attr_end,
        });
        Ok(id)
    }

    /// Finishes the schema.
    pub fn build(self) -> Result<Schema, ModelError> {
        if self.tables.is_empty() {
            return Err(ModelError::EmptySchema);
        }
        Ok(Schema {
            tables: self.tables,
            attrs: self.attrs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_table_schema() -> Schema {
        let mut b = Schema::builder();
        b.table("Customer", &[("id", 4.0), ("name", 16.0), ("balance", 8.0)])
            .unwrap();
        b.table("Order", &[("id", 4.0), ("cust_id", 4.0)]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn attr_ids_are_contiguous_per_table() {
        let s = two_table_schema();
        assert_eq!(s.n_tables(), 2);
        assert_eq!(s.n_attrs(), 5);
        assert_eq!(s.table_attrs(TableId(0)), 0..3);
        assert_eq!(s.table_attrs(TableId(1)), 3..5);
        assert_eq!(s.table_of(AttrId(4)), TableId(1));
    }

    #[test]
    fn row_width_sums_columns() {
        let s = two_table_schema();
        assert_eq!(s.row_width(TableId(0)), 28.0);
        assert_eq!(s.row_width(TableId(1)), 8.0);
    }

    #[test]
    fn name_lookup() {
        let s = two_table_schema();
        assert_eq!(s.table_by_name("Order"), Some(TableId(1)));
        assert_eq!(s.attr_by_name("Customer", "balance"), Some(AttrId(2)));
        assert_eq!(s.attr_by_name("Customer", "missing"), None);
        assert_eq!(s.qualified_name(AttrId(3)), "Order.id");
    }

    #[test]
    fn rejects_duplicate_table() {
        let mut b = Schema::builder();
        b.table("T", &[("a", 1.0)]).unwrap();
        assert_eq!(
            b.table("T", &[("a", 1.0)]).unwrap_err(),
            ModelError::DuplicateName("T".into())
        );
    }

    #[test]
    fn rejects_duplicate_column() {
        let mut b = Schema::builder();
        let err = b.table("T", &[("a", 1.0), ("a", 2.0)]).unwrap_err();
        assert_eq!(err, ModelError::DuplicateName("T.a".into()));
    }

    #[test]
    fn rejects_bad_width() {
        let mut b = Schema::builder();
        assert!(matches!(
            b.table("T", &[("a", 0.0)]),
            Err(ModelError::InvalidWidth { .. })
        ));
        assert!(matches!(
            b.table("T", &[("a", f64::NAN)]),
            Err(ModelError::InvalidWidth { .. })
        ));
        assert!(matches!(
            b.table("T", &[("a", -3.0)]),
            Err(ModelError::InvalidWidth { .. })
        ));
    }

    #[test]
    fn rejects_empty_schema_and_table() {
        assert_eq!(
            Schema::builder().build().unwrap_err(),
            ModelError::EmptySchema
        );
        let mut b = Schema::builder();
        assert_eq!(
            b.table("T", &[]).unwrap_err(),
            ModelError::EmptyTable("T".into())
        );
    }

    #[test]
    fn check_ranges_rejects_broken_structure() {
        assert_eq!(two_table_schema().check_ranges(), Ok(()));
        let edits: [&dyn Fn(&mut Schema); 5] = [
            &|s| s.tables[0].attr_end = AttrId(600), // runs past the attributes
            &|s| s.tables[1].first_attr = AttrId(2), // overlaps its predecessor
            &|s| s.tables[1].attr_end = AttrId(3),   // empty
            &|s| s.attrs[1].table = TableId(1),      // holds another table's attribute
            &|s| s.tables[1].attr_end = AttrId(4),   // leaves a trailing attribute
        ];
        for edit in edits {
            let mut s = two_table_schema();
            edit(&mut s);
            assert!(
                matches!(s.check_ranges(), Err(ModelError::InvalidTableRange(..))),
                "{:?}",
                s.tables
            );
        }
    }

    #[test]
    fn serde_round_trip() {
        let s = two_table_schema();
        let json = serde_json::to_string(&s).unwrap();
        let back: Schema = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
