//! Physical storage: sites holding row-store table fractions.
//!
//! A [`Fragment`] is one vertical fraction of one table on one site: the
//! subset of the table's attributes placed there, stored row-contiguously
//! (the H-store/row-store assumption — access happens in quantums of whole
//! fraction rows). Row payloads are materialized deterministically so the
//! executor really moves bytes instead of just counting them.
//!
//! [`RowSegment`] is the replay harness's storage: the same vertical
//! fraction, stored row-contiguously at physical (rounded-up) attribute
//! widths — the paper's row-store access quantum, one fraction row per
//! access — and covering only a contiguous *row segment* of the table, so
//! disjoint segments can be owned mutably by different replay workers.
//! Reads copy a fraction row into a caller-provided buffer; all meters
//! are integer bytes.

use vpart_model::{AttrId, SiteId, TableId};

/// One vertical table fraction on one site.
#[derive(Debug, Clone)]
pub struct Fragment {
    /// The table this fraction belongs to.
    pub table: TableId,
    /// The attributes stored here, in global id order.
    pub attrs: Vec<AttrId>,
    /// Exact fraction row width in bytes (`Σ w_a`, may be fractional —
    /// widths are *average* widths).
    pub width: f64,
    /// Number of materialized rows.
    pub rows: usize,
    /// Row-contiguous payload (`rows × ceil(width)` bytes).
    data: Vec<u8>,
    byte_width: usize,
}

impl Fragment {
    /// Materializes a fragment with `rows` rows of deterministic payload.
    pub fn new(table: TableId, attrs: Vec<AttrId>, width: f64, rows: usize) -> Self {
        let byte_width = (width.ceil() as usize).max(1);
        let mut data = vec![0u8; rows * byte_width];
        // Deterministic, cheap, non-constant fill: row/table dependent.
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i as u32)
                .wrapping_mul(2654435761)
                .wrapping_add(table.0)
                .to_le_bytes()[0];
        }
        Self {
            table,
            attrs,
            width,
            rows,
            data,
            byte_width,
        }
    }

    /// Reads row `i % rows`, returning its payload slice.
    pub fn read_row(&self, i: usize) -> &[u8] {
        let r = i % self.rows.max(1);
        &self.data[r * self.byte_width..(r + 1) * self.byte_width]
    }

    /// Overwrites row `i % rows` with a tag byte; returns bytes written
    /// (the exact fractional width, for the meter).
    pub fn write_row(&mut self, i: usize, tag: u8) -> f64 {
        let r = i % self.rows.max(1);
        for b in &mut self.data[r * self.byte_width..(r + 1) * self.byte_width] {
            *b = tag;
        }
        self.width
    }

    /// True if this fraction stores attribute `a`.
    pub fn holds(&self, a: AttrId) -> bool {
        self.attrs.binary_search(&a).is_ok()
    }

    /// Physical payload size in bytes.
    pub fn payload_bytes(&self) -> usize {
        self.data.len()
    }

    /// The raw physical payload (row-major, `byte_width` bytes per row).
    /// Recovery tests hash this to prove bit-identical fragment state.
    pub fn payload(&self) -> &[u8] {
        &self.data
    }
}

/// One vertical table fraction covering a contiguous row segment.
///
/// Unlike [`Fragment`] (fractional average widths, whole-table rows), a
/// `RowSegment` stores each attribute at its *physical* width
/// (`ceil(w_a).max(1)` bytes) and holds only rows
/// `base_row .. base_row + rows` of the table. Rows are contiguous —
/// `rows × row_width` bytes, attributes in global id order inside a row —
/// so one access moves one fraction row, the paper's row-store access
/// quantum. The replay driver builds one per `(shard, site, table)` so
/// each worker owns its shard's storage outright — no locks, no atomics,
/// byte meters in exact `u64`.
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
        // Running offsets keep division out of the per-byte loop: this
        // fill dominates deployment set-up. (`max(1)`: an attribute-less
        // segment holds no bytes, and a zero chunk size panics.)
        let rw = self.row_width.max(1);
        for (i, row) in self.data.chunks_exact_mut(rw).enumerate() {
            let r = self.base_row + i;
            let mut at = 0usize;
            for (&a, &pw) in self.attrs.iter().zip(&self.widths) {
                let salt = self.table.0 ^ (a.0 << 8);
                let first = (r * pw) as u32;
                for (j, b) in (0u32..).zip(&mut row[at..at + pw]) {
                    *b = first
                        .wrapping_add(j)
                        .wrapping_mul(2654435761)
                        .wrapping_add(salt) as u8;
                }
                at += pw;
            }
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
}

/// One site: a set of table fractions plus access counters.
#[derive(Debug, Clone)]
pub struct Site {
    /// The site's id.
    pub id: SiteId,
    /// Fractions hosted here, grouped per table (`fragments[t]` is `None`
    /// when no attribute of table `t` lives on this site).
    pub fragments: Vec<Option<Fragment>>,
}

impl Site {
    /// Creates an empty site for `n_tables` tables.
    pub fn new(id: SiteId, n_tables: usize) -> Self {
        Self {
            id,
            fragments: vec![None; n_tables],
        }
    }

    /// The fraction of table `t` on this site, if any.
    pub fn fragment(&self, t: TableId) -> Option<&Fragment> {
        self.fragments[t.index()].as_ref()
    }

    /// Mutable access to the fraction of table `t`.
    pub fn fragment_mut(&mut self, t: TableId) -> Option<&mut Fragment> {
        self.fragments[t.index()].as_mut()
    }

    /// Total materialized bytes on this site.
    pub fn stored_bytes(&self) -> usize {
        self.fragments
            .iter()
            .flatten()
            .map(Fragment::payload_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragment_round_trip() {
        let mut f = Fragment::new(TableId(0), vec![AttrId(0), AttrId(2)], 12.0, 8);
        assert_eq!(f.payload_bytes(), 8 * 12);
        assert!(f.holds(AttrId(2)));
        assert!(!f.holds(AttrId(1)));
        let before = f.read_row(3).to_vec();
        let w = f.write_row(3, 0xAB);
        assert_eq!(w, 12.0);
        assert_eq!(f.read_row(3), vec![0xAB; 12].as_slice());
        assert_ne!(before, f.read_row(3));
        // Row indices wrap.
        assert_eq!(f.read_row(11), f.read_row(3));
    }

    #[test]
    fn fractional_widths_round_up_physically() {
        let f = Fragment::new(TableId(1), vec![AttrId(5)], 2.5, 4);
        assert_eq!(f.payload_bytes(), 4 * 3);
        assert_eq!(f.width, 2.5);
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

    #[test]
    fn site_holds_fragments_per_table() {
        let mut s = Site::new(SiteId(0), 3);
        assert!(s.fragment(TableId(1)).is_none());
        s.fragments[1] = Some(Fragment::new(TableId(1), vec![AttrId(0)], 4.0, 2));
        assert!(s.fragment(TableId(1)).is_some());
        assert_eq!(s.stored_bytes(), 8);
        s.fragment_mut(TableId(1)).unwrap().write_row(0, 1);
    }
}
