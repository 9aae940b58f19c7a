//! Key-position indexes: ordered access paths over a table's rows.
//!
//! A [`KeyIndex`] is a permutation of row positions sorted by
//! (key columns, position). It stores no key values — every comparison
//! reads the table's own rows — so an index costs four bytes per row.
//! Because positions break ties, the entries for one full key are in
//! ascending position order, which is the order a scan meets them.
//!
//! Keys compare under [`Value`]'s total order, the same order the
//! scan-based `Table::contains_key` uses for equality, so an index
//! lookup finds exactly the rows a scan would.

use fgac_types::{Row, Value};
use std::cmp::Ordering;
use std::sync::OnceLock;

/// One ordered access path over a column list. Built and maintained by
/// [`crate::Table`]; read through [`crate::Table::lookup`].
///
/// The permutation is sorted on first use: a new index, or one whose
/// table was bulk-loaded or restored, stays unbuilt — and costs nothing
/// to maintain — until a lookup needs it, which then sorts it once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyIndex {
    columns: Vec<usize>,
    perm: OnceLock<Vec<u32>>,
}

impl KeyIndex {
    /// An unbuilt index over `columns`.
    pub(crate) fn new(columns: Vec<usize>) -> KeyIndex {
        KeyIndex {
            columns,
            perm: OnceLock::new(),
        }
    }

    /// An index over `columns`, sorted over `rows` from scratch.
    pub fn build(columns: Vec<usize>, rows: &[Row]) -> KeyIndex {
        let ix = KeyIndex::new(columns);
        ix.sorted(rows);
        ix
    }

    /// The indexed column positions, most significant first.
    pub fn columns(&self) -> &[usize] {
        &self.columns
    }

    /// The row positions in index order, or `None` while unbuilt.
    pub fn positions(&self) -> Option<&[u32]> {
        self.perm.get().map(Vec::as_slice)
    }

    /// The row positions in index order, sorting them over `rows` if
    /// the index is unbuilt. Callers ensure the row count fits in `u32`
    /// (see `Table::positions_fit`).
    pub(crate) fn sorted(&self, rows: &[Row]) -> &[u32] {
        self.perm.get_or_init(|| {
            let mut perm: Vec<u32> = (0..rows.len() as u32).collect();
            // Stable over ascending positions, so equal keys stay in
            // position order without comparing positions.
            perm.sort_by(|&a, &b| cmp_keys(&self.columns, &rows[a as usize], &rows[b as usize]));
            perm
        })
    }

    /// Drops the permutation; the next lookup re-sorts.
    pub(crate) fn discard(&mut self) {
        self.perm = OnceLock::new();
    }

    /// Index order: key columns, then position.
    fn cmp_entries(&self, rows: &[Row], a: u32, b: u32) -> Ordering {
        cmp_keys(&self.columns, &rows[a as usize], &rows[b as usize]).then(a.cmp(&b))
    }

    /// Whether replacing `old` by `new` moves the row in this index.
    pub(crate) fn key_differs(&self, old: &Row, new: &Row) -> bool {
        cmp_keys(&self.columns, old, new) != Ordering::Equal
    }

    /// Enters `pos`, the newest (highest) position: after every entry
    /// whose key is less than or equal to its key. No-op while unbuilt.
    pub(crate) fn push(&mut self, rows: &[Row], pos: u32) {
        let new = &rows[pos as usize];
        let columns = &self.columns;
        if let Some(perm) = self.perm.get_mut() {
            let at = perm.partition_point(|&p| {
                cmp_keys(columns, &rows[p as usize], new) != Ordering::Greater
            });
            perm.insert(at, pos);
        }
    }

    /// Re-enters the rows at `moved` (ascending, distinct positions)
    /// after their key columns changed in place: one pass removes them,
    /// one merge puts them back at their new keys. No-op while unbuilt.
    pub(crate) fn reposition(&mut self, rows: &[Row], moved: &[u32]) {
        if moved.is_empty() {
            return;
        }
        let Some(perm) = self.perm.take() else {
            return;
        };
        let staying: Vec<u32> = perm
            .into_iter()
            .filter(|p| moved.binary_search(p).is_err())
            .collect();
        let mut entering = moved.to_vec();
        entering.sort_by(|&a, &b| self.cmp_entries(rows, a, b));
        let mut merged = Vec::with_capacity(staying.len() + entering.len());
        let (mut i, mut j) = (0, 0);
        while i < staying.len() && j < entering.len() {
            if self.cmp_entries(rows, staying[i], entering[j]) == Ordering::Less {
                merged.push(staying[i]);
                i += 1;
            } else {
                merged.push(entering[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&staying[i..]);
        merged.extend_from_slice(&entering[j..]);
        self.perm = OnceLock::from(merged);
    }

    /// Applies a deletion: `remap[p]` is the new position of old
    /// position `p`, or `None` if that row was removed. Remapping is
    /// monotone, so the order of the surviving entries is unchanged.
    /// No-op while unbuilt.
    pub(crate) fn remap(&mut self, remap: &[Option<u32>]) {
        if let Some(perm) = self.perm.get_mut() {
            perm.retain_mut(|p| match remap[*p as usize] {
                Some(np) => {
                    *p = np;
                    true
                }
                None => false,
            });
        }
    }

    /// The entries whose first `key.len()` key columns equal `key`
    /// (at most `columns().len()` values), building the index first if
    /// needed. Binary search, so O(log n) comparisons. Within a full-key
    /// match the entries are in ascending position order; a shorter
    /// prefix orders them by the remaining key columns first.
    pub(crate) fn range(&self, rows: &[Row], key: &[&Value]) -> &[u32] {
        let perm = self.sorted(rows);
        let prefix = |p: u32| -> Ordering {
            let row = &rows[p as usize];
            for (&c, v) in self.columns.iter().zip(key) {
                match row.get(c).cmp(v) {
                    Ordering::Equal => {}
                    other => return other,
                }
            }
            Ordering::Equal
        };
        let lo = perm.partition_point(|&p| prefix(p) == Ordering::Less);
        let hi = lo + perm[lo..].partition_point(|&p| prefix(p) == Ordering::Equal);
        &perm[lo..hi]
    }
}

/// Compares two rows on `columns`, most significant first.
fn cmp_keys(columns: &[usize], a: &Row, b: &Row) -> Ordering {
    for &c in columns {
        match a.get(c).cmp(b.get(c)) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(vals: &[(i64, &str)]) -> Vec<Row> {
        vals.iter()
            .map(|(a, b)| Row(vec![Value::Int(*a), Value::Str((*b).into())]))
            .collect()
    }

    #[test]
    fn sorted_by_key_then_position() {
        let rs = rows(&[(2, "b"), (1, "z"), (2, "a"), (1, "z")]);
        let ix = KeyIndex::build(vec![0], &rs);
        assert_eq!(ix.positions(), Some(&[1, 3, 0, 2][..]));
        let ix = KeyIndex::build(vec![0, 1], &rs);
        assert_eq!(ix.positions(), Some(&[1, 3, 2, 0][..]));
        // Unbuilt until first use.
        let lazy = KeyIndex::new(vec![0]);
        assert_eq!(lazy.positions(), None);
        assert_eq!(lazy.range(&rs, &[&Value::Int(1)]), &[1, 3]);
        assert_eq!(lazy, KeyIndex::build(vec![0], &rs));
    }

    #[test]
    fn range_finds_prefix_matches() {
        let rs = rows(&[(2, "b"), (1, "z"), (2, "a"), (1, "z")]);
        let ix = KeyIndex::build(vec![0, 1], &rs);
        assert_eq!(ix.range(&rs, &[&Value::Int(2)]), &[2, 0]);
        assert_eq!(ix.range(&rs, &[&Value::Int(1), &"z".into()]), &[1, 3]);
        assert!(ix.range(&rs, &[&Value::Int(3)]).is_empty());
        assert_eq!(ix.range(&rs, &[]).len(), 4);
    }

    #[test]
    fn push_reposition_and_remap_match_a_rebuild() {
        let mut rs = rows(&[(2, "b"), (1, "z"), (2, "a")]);
        let mut ix = KeyIndex::build(vec![0], &rs);
        rs.push(Row(vec![Value::Int(1), "q".into()]));
        ix.push(&rs, 3);
        assert_eq!(ix, KeyIndex::build(vec![0], &rs));

        rs[0] = Row(vec![Value::Int(0), "b".into()]);
        rs[3] = Row(vec![Value::Int(5), "q".into()]);
        ix.reposition(&rs, &[0, 3]);
        assert_eq!(ix, KeyIndex::build(vec![0], &rs));

        // Delete position 1.
        rs.remove(1);
        ix.remap(&[Some(0), None, Some(1), Some(2)]);
        assert_eq!(ix, KeyIndex::build(vec![0], &rs));

        // A discarded index ignores maintenance and re-sorts on use.
        ix.discard();
        rs.push(Row(vec![Value::Int(-3), "n".into()]));
        ix.push(&rs, 3);
        assert_eq!(ix.positions(), None);
        assert_eq!(ix.range(&rs, &[&Value::Int(-3)]), &[3]);
    }
}
