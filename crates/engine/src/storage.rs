//! Physical storage: row-store table fractions.
//!
//! [`RowSegment`] is the engine's one storage type: one vertical fraction
//! of one table on one site — the attributes placed there — stored
//! row-contiguously at physical (rounded-up) attribute widths, so every
//! access moves one whole fraction row, the paper's row-store access
//! quantum. A segment covers a contiguous range of table rows: a
//! migration [`Deployment`](crate::Deployment) holds each fraction as one
//! segment from row 0, while the replay harness splits every fraction
//! into row-range shards that different workers own mutably. Row payloads
//! are materialized deterministically, so storage really moves bytes and
//! all meters are integer bytes.
//!
//! `table_fraction` is the single place a partitioning turns into a
//! site's table fractions.

use vpart_model::{AttrId, Instance, Partitioning, SiteId, TableId};

/// One vertical table fraction covering a contiguous row segment.
///
/// A `RowSegment` stores each attribute at its *physical* width
/// (`ceil(w_a).max(1)` bytes) and holds rows `base_row .. base_row +
/// rows` of the table. Rows are contiguous — `rows × row_width` bytes,
/// attributes in global id order inside a row — so one access moves one
/// fraction row, the paper's row-store access quantum. A migration
/// deployment holds one per `(site, table)`; the replay driver builds one
/// per `(shard, site, table)` so each worker owns its shard's storage
/// outright — no locks, no atomics, byte meters in exact `u64`.
#[derive(Debug, Clone)]
pub struct RowSegment {
    /// The table this fraction belongs to.
    pub table: TableId,
    /// The attributes stored here, in global id order.
    pub attrs: Vec<AttrId>,
    /// First table row covered by this segment.
    pub base_row: usize,
    /// Rows in this segment.
    pub rows: usize,
    /// Physical per-attribute widths in bytes (`ceil(w_a).max(1)`).
    widths: Vec<usize>,
    /// Row-contiguous payload (`rows × row_width` bytes).
    data: Vec<u8>,
    row_width: usize,
}

impl RowSegment {
    /// Materializes the segment with a deterministic, row-global fill:
    /// byte `j` of attribute `a` (physical width `pw`) in table row `r` is
    /// the low byte of `(r * pw + j) * 2654435761 + (table ^ (a << 8))`
    /// (wrapping `u32`). It depends only on `(table, a, r, j)`, never on
    /// the segment boundaries — so checksums are invariant under
    /// re-sharding.
    pub fn new(table: TableId, attrs: Vec<(AttrId, f64)>, base_row: usize, rows: usize) -> Self {
        let (ids, widths): (Vec<AttrId>, Vec<usize>) = attrs
            .into_iter()
            .map(|(a, w)| (a, (w.ceil() as usize).max(1)))
            .unzip();
        let row_width = widths.iter().sum();
        let mut seg = Self {
            table,
            attrs: ids,
            base_row,
            rows,
            widths,
            data: vec![0u8; rows * row_width],
            row_width,
        };
        seg.refill();
        seg
    }

    /// Restores the deterministic initial fill — the replay harness's
    /// crash recovery: a pass discarded by an injected fault rolls its
    /// partial writes back to the durable (initial) payload.
    pub fn refill(&mut self) {
        const K: u32 = 2654435761;
        if self.data.is_empty() {
            return;
        }
        // The fill dominates deployment set-up and every migration, so
        // only the first row comes from the formula. A byte's value is
        // the low byte of a wrapping sum, which depends only on the low
        // bytes of its terms; one row down, `r * pw + j` grows by `pw`,
        // so every byte of an attribute grows by the low byte of
        // `pw * K`. Each further row is the previous one plus that
        // per-byte step: a vectorizable pass over contiguous bytes.
        let (first, rest) = self.data.split_at_mut(self.row_width);
        let mut step = Vec::with_capacity(self.row_width);
        let mut at = 0usize;
        for (&a, &pw) in self.attrs.iter().zip(&self.widths) {
            let salt = self.table.0 ^ (a.0 << 8);
            let x0 = (self.base_row * pw) as u32;
            for (j, b) in (0u32..).zip(&mut first[at..at + pw]) {
                *b = x0.wrapping_add(j).wrapping_mul(K).wrapping_add(salt) as u8;
            }
            step.resize(at + pw, (pw as u32).wrapping_mul(K) as u8);
            at += pw;
        }
        let mut prev: &[u8] = first;
        for row in rest.chunks_exact_mut(self.row_width) {
            for ((b, &p), &s) in row.iter_mut().zip(prev).zip(&step) {
                *b = p.wrapping_add(s);
            }
            prev = row;
        }
    }

    /// Physical width of one fraction row (`Σ ceil(w_a).max(1)`).
    pub fn row_width(&self) -> usize {
        self.row_width
    }

    /// Physical width of attribute `a` here, or 0 when absent.
    pub fn attr_width(&self, a: AttrId) -> usize {
        match self.attrs.binary_search(&a) {
            Ok(i) => self.widths[i],
            Err(_) => 0,
        }
    }

    /// Byte range of table row `row` (a *global* row index inside this
    /// segment) in the payload.
    fn row_range(&self, row: usize) -> std::ops::Range<usize> {
        debug_assert!(row >= self.base_row && row < self.base_row + self.rows);
        let at = (row - self.base_row) * self.row_width;
        at..at + self.row_width
    }

    /// Copies table row `row` into `buf` and returns the physical bytes
    /// read. `buf` must be at least [`row_width`](Self::row_width) long —
    /// replay preallocates it once per site and reuses it for every read.
    pub fn read_row_into(&self, row: usize, buf: &mut [u8]) -> usize {
        buf[..self.row_width].copy_from_slice(&self.data[self.row_range(row)]);
        self.row_width
    }

    /// Overwrites table row `row` with `tag`; returns the physical bytes
    /// written.
    pub fn write_row(&mut self, row: usize, tag: u8) -> usize {
        let range = self.row_range(row);
        self.data[range].fill(tag);
        self.row_width
    }

    /// Physical payload size of this segment in bytes.
    pub fn payload_bytes(&self) -> usize {
        self.data.len()
    }

    /// The raw physical payload (row-major, `row_width` bytes per row).
    /// Recovery tests hash this to prove bit-identical storage.
    pub fn payload(&self) -> &[u8] {
        &self.data
    }
}

/// Site `site`'s fraction of `table` under `partitioning`: the table's
/// attributes placed there, materialized as a segment of `rows` table
/// rows starting at `base_row`. `None` when the site holds none of the
/// table's attributes, or when the segment would be empty.
pub(crate) fn table_fraction(
    instance: &Instance,
    partitioning: &Partitioning,
    site: SiteId,
    table: TableId,
    base_row: usize,
    rows: usize,
) -> Option<RowSegment> {
    let attrs = fraction_attrs(instance, partitioning, site, table);
    (!attrs.is_empty() && rows > 0).then(|| RowSegment::new(table, attrs, base_row, rows))
}

/// The attributes of `table` that `partitioning` places on `site`, with
/// their schema widths, in global id order.
pub(crate) fn fraction_attrs(
    instance: &Instance,
    partitioning: &Partitioning,
    site: SiteId,
    table: TableId,
) -> Vec<(AttrId, f64)> {
    let schema = instance.schema();
    schema
        .table_attrs(table)
        .map(AttrId::from_index)
        .filter(|&a| partitioning.has_attr(a, site))
        .map(|a| (a, schema.width(a)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpart_model::workload::QuerySpec;
    use vpart_model::{Schema, Workload};

    /// A site's fraction of a table holds exactly the attributes the
    /// partitioning places there, at physical widths; no attributes, no
    /// fraction.
    #[test]
    fn site_holds_fragments_per_table() {
        let mut sb = Schema::builder();
        sb.table("R", &[("a", 4.0), ("b", 2.5)]).unwrap();
        let schema = sb.build().unwrap();
        let mut wb = Workload::builder(&schema);
        let q = wb
            .add_query(QuerySpec::read("q").access(&[AttrId(0)]))
            .unwrap();
        wb.transaction("T", &[q]).unwrap();
        let ins = Instance::new("frac", schema, wb.build().unwrap()).unwrap();
        let mut part = Partitioning::single_site(&ins, 2).unwrap();
        part.add_replica(AttrId(1), SiteId(1));

        let home = table_fraction(&ins, &part, SiteId(0), TableId(0), 0, 8).unwrap();
        assert_eq!(home.attrs, [AttrId(0), AttrId(1)]);
        assert_eq!((home.row_width(), home.rows, home.base_row), (7, 8, 0));
        let replica = table_fraction(&ins, &part, SiteId(1), TableId(0), 4, 2).unwrap();
        assert_eq!(replica.attrs, [AttrId(1)]);
        assert_eq!(replica.payload_bytes(), 2 * 3);
        assert!(table_fraction(&ins, &part, SiteId(1), TableId(0), 8, 0).is_none());
        part.remove_replica(AttrId(1), SiteId(1));
        assert!(table_fraction(&ins, &part, SiteId(1), TableId(0), 0, 8).is_none());
    }

    /// A written fraction row reads back, no other row changes, and
    /// `refill` restores the initial payload.
    #[test]
    fn fragment_round_trip() {
        // Rows 4..10 of a 4 + 8 = 12-byte fraction.
        let mut f = RowSegment::new(TableId(0), vec![(AttrId(0), 4.0), (AttrId(1), 8.0)], 4, 6);
        let initial = f.payload().to_vec();
        let mut buf = vec![0u8; f.row_width()];
        f.read_row_into(6, &mut buf);
        let before = buf.clone();
        assert_eq!(f.write_row(6, 0xAB), 12);
        f.read_row_into(6, &mut buf);
        assert_eq!(buf, vec![0xAB; 12]);
        assert_ne!(before, buf);
        // Only table row 6 changed: payload bytes (6 - 4) × 12 .. 36.
        for (i, (now, was)) in f.payload().iter().zip(&initial).enumerate() {
            if !(24..36).contains(&i) {
                assert_eq!(now, was, "payload byte {i} changed");
            }
        }
        f.refill();
        assert_eq!(f.payload(), initial.as_slice());
    }

    #[test]
    fn row_segment_round_trip() {
        let mut f = RowSegment::new(TableId(0), vec![(AttrId(0), 4.0), (AttrId(2), 2.5)], 0, 8);
        // Physical widths round up: 4 + 3 = 7 bytes per row.
        assert_eq!(f.row_width(), 7);
        assert_eq!(f.payload_bytes(), 8 * 7);
        assert_eq!(f.attr_width(AttrId(0)), 4);
        assert_eq!(f.attr_width(AttrId(2)), 3);
        assert_eq!(f.attr_width(AttrId(1)), 0);
        let mut buf = vec![0u8; 7];
        assert_eq!(f.read_row_into(3, &mut buf), 7);
        let before = buf.clone();
        assert_eq!(f.write_row(3, 0xCD), 7);
        f.read_row_into(3, &mut buf);
        assert_eq!(buf, vec![0xCD; 7]);
        assert_ne!(before, buf);
    }

    #[test]
    fn fractional_widths_round_up_physically() {
        // 2.5 bytes round up to 3, 0.2 bytes to the 1-byte minimum.
        let f = RowSegment::new(TableId(1), vec![(AttrId(5), 2.5), (AttrId(6), 0.2)], 0, 4);
        assert_eq!((f.attr_width(AttrId(5)), f.attr_width(AttrId(6))), (3, 1));
        assert_eq!(f.payload_bytes(), 4 * 4);
    }

    /// The fill is row-global: the same table row carries the same bytes
    /// no matter which segment materializes it.
    #[test]
    fn row_segment_fill_is_segment_invariant() {
        let attrs = vec![(AttrId(0), 4.0), (AttrId(1), 8.0)];
        let whole = RowSegment::new(TableId(2), attrs.clone(), 0, 16);
        let upper = RowSegment::new(TableId(2), attrs, 10, 6);
        let mut a = vec![0u8; whole.row_width()];
        let mut b = vec![0u8; upper.row_width()];
        for row in 10..16 {
            whole.read_row_into(row, &mut a);
            upper.read_row_into(row, &mut b);
            assert_eq!(a, b, "row {row} differs between segment layouts");
        }
    }

    /// The fill is the documented `(table, a, r, j)` formula, attributes
    /// laid out in order inside each row.
    #[test]
    fn row_segment_fill_matches_documented_formula() {
        let expected = |table: u32, a: u32, r: usize, pw: usize, j: usize| {
            ((r * pw + j) as u32)
                .wrapping_mul(2654435761)
                .wrapping_add(table ^ (a << 8))
                .to_le_bytes()[0]
        };
        // Widths 4, 3 (2.5 rounded up), 1 (0.2 rounded up) bytes.
        let attrs = vec![(AttrId(1), 4.0), (AttrId(3), 2.5), (AttrId(700), 0.2)];
        let seg = RowSegment::new(TableId(5), attrs.clone(), 1000, 40);
        let mut buf = vec![0u8; seg.row_width()];
        for row in [1000, 1017, 1039] {
            assert_eq!(seg.read_row_into(row, &mut buf), 8);
            let mut at = 0;
            for &(a, w) in &attrs {
                let pw = (w.ceil() as usize).max(1);
                for j in 0..pw {
                    assert_eq!(
                        buf[at + j],
                        expected(5, a.0, row, pw, j),
                        "table 5, attr {}, row {row}, byte {j}",
                        a.0
                    );
                }
                at += pw;
            }
        }
    }
}
