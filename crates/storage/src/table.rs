//! Multiset tables.

use crate::index::KeyIndex;
use crate::journal::Undo;
use fgac_types::{DataType, Error, Ident, Result, Row, Schema, Value};

/// An in-memory table holding a multiset of rows.
///
/// Rows are kept in insertion order; duplicates are allowed (SQL bag
/// semantics). Type checking against the schema happens on every insert.
///
/// The table also keeps one [`KeyIndex`] per column list the
/// [`crate::Database`] asks for (keys and constraint columns). Every row
/// mutation below maintains the built ones in place. An index is built
/// — sorted once — by the first lookup that needs it; bulk loads,
/// restores and journal rollbacks discard the permutations instead of
/// maintaining them row by row.
#[derive(Debug, Clone)]
pub struct Table {
    name: Ident,
    schema: Schema,
    rows: Vec<Row>,
    indexes: Vec<KeyIndex>,
}

impl Table {
    pub fn new(name: impl Into<Ident>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            schema,
            rows: Vec::new(),
            indexes: Vec::new(),
        }
    }

    pub fn name(&self) -> &Ident {
        &self.name
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table's indexes, built or not.
    pub fn indexes(&self) -> &[KeyIndex] {
        &self.indexes
    }

    /// Sorts every index not built yet. Lookups do this on demand; this
    /// takes the cost up front.
    pub fn build_indexes(&self) {
        if self.positions_fit() {
            for ix in &self.indexes {
                ix.sorted(&self.rows);
            }
        }
    }

    /// Type-checks a row against the schema without inserting it.
    pub fn check_row(&self, row: &Row) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(Error::Type(format!(
                "table {} expects {} columns, got {}",
                self.name,
                self.schema.len(),
                row.len()
            )));
        }
        for (value, col) in row.values().iter().zip(self.schema.columns()) {
            match value.data_type() {
                None => {
                    if !col.nullable {
                        return Err(Error::Constraint(format!(
                            "column {}.{} is NOT NULL",
                            self.name, col.name
                        )));
                    }
                }
                Some(ty) if ty == col.ty => {}
                // Allow lossless integer widening into double columns.
                Some(DataType::Int) if col.ty == DataType::Double => {}
                Some(ty) => {
                    return Err(Error::Type(format!(
                        "column {}.{} expects {}, got {} ({value})",
                        self.name, col.name, col.ty, ty
                    )));
                }
            }
        }
        Ok(())
    }

    /// Inserts a row after type checking. Integer values destined for
    /// double columns are widened.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        self.check_row(&row)?;
        self.rows.push(self.coerce(row));
        if self.positions_fit() {
            let pos = (self.rows.len() - 1) as u32;
            for ix in &mut self.indexes {
                ix.push(&self.rows, pos);
            }
        } else {
            self.discard_indexes();
        }
        Ok(())
    }

    fn coerce(&self, row: Row) -> Row {
        Row(row
            .0
            .into_iter()
            .zip(self.schema.columns())
            .map(|(v, c)| match (&v, c.ty) {
                (Value::Int(i), DataType::Double) => Value::Double(*i as f64),
                _ => v,
            })
            .collect())
    }

    /// Replaces row `i` for each `(i, row)` pair, after type-checking
    /// **all** replacements — either every update lands or none do.
    /// Indexes must be in bounds (callers derive them from `rows()`).
    pub fn apply_row_updates(&mut self, updates: Vec<(usize, Row)>) -> Result<usize> {
        self.replace_rows(updates).map(|old| old.len())
    }

    /// [`Table::apply_row_updates`], returning each replaced row's old
    /// image in the order replaced (the statement journal's undo).
    pub(crate) fn replace_rows(&mut self, updates: Vec<(usize, Row)>) -> Result<Vec<(usize, Row)>> {
        let mut checked = Vec::with_capacity(updates.len());
        for (i, new) in updates {
            if i >= self.rows.len() {
                return Err(Error::Execution(format!(
                    "row index {i} out of bounds in {} ({} rows)",
                    self.name,
                    self.rows.len()
                )));
            }
            self.check_row(&new)?;
            checked.push((i, self.coerce(new)));
        }
        let mut old = Vec::with_capacity(checked.len());
        // Per built index, the positions whose key columns change; they
        // fit in u32 because the index holds every row.
        let mut moved: Vec<Vec<u32>> = vec![Vec::new(); self.indexes.len()];
        for (i, new) in checked {
            for (ix, moved) in self.indexes.iter().zip(&mut moved) {
                if ix.positions().is_some() && ix.key_differs(&self.rows[i], &new) {
                    moved.push(i as u32);
                }
            }
            old.push((i, std::mem::replace(&mut self.rows[i], new)));
        }
        for (ix, mut moved) in self.indexes.iter_mut().zip(moved) {
            moved.sort_unstable();
            moved.dedup();
            ix.reposition(&self.rows, &moved);
        }
        Ok(old)
    }

    /// Removes the rows at the given positions (any order, duplicates
    /// ignored); returns how many were removed. Infallible by design:
    /// callers decide *what* to delete before any row is touched.
    pub fn delete_at(&mut self, indexes: &[usize]) -> usize {
        self.remove_rows(indexes).len()
    }

    /// [`Table::delete_at`], returning the removed rows with their
    /// positions before the removal, ascending (the journal's undo).
    pub(crate) fn remove_rows(&mut self, indexes: &[usize]) -> Vec<(usize, Row)> {
        if indexes.is_empty() {
            return Vec::new();
        }
        let mut victim = vec![false; self.rows.len()];
        for &i in indexes {
            if let Some(v) = victim.get_mut(i) {
                *v = true;
            }
        }
        // Compact in place: survivors slide down over the victims.
        let mut removed = Vec::new();
        let mut kept = 0;
        for (i, &gone) in victim.iter().enumerate() {
            if gone {
                removed.push((i, std::mem::replace(&mut self.rows[i], Row(Vec::new()))));
            } else {
                self.rows.swap(kept, i);
                kept += 1;
            }
        }
        self.rows.truncate(kept);
        if !removed.is_empty() && self.indexes.iter().any(|ix| ix.positions().is_some()) {
            // Old position -> new position; the rows kept fit in u32
            // because a built index holds them all.
            let mut next = 0u32;
            let remap: Vec<Option<u32>> = victim
                .iter()
                .map(|&gone| {
                    (!gone).then(|| {
                        next += 1;
                        next - 1
                    })
                })
                .collect();
            for ix in &mut self.indexes {
                ix.remap(&remap);
            }
        }
        removed
    }

    /// Reverses one journaled mutation, restoring the rows exactly as
    /// they were before it. The indexes re-sort on their next use:
    /// rollback runs on error paths only.
    pub(crate) fn undo(&mut self, undo: Undo) {
        match undo {
            Undo::Append(len) => self.rows.truncate(len),
            Undo::Replace(old) => {
                // Newest first, so a position replaced twice ends with
                // its first old image.
                for (i, row) in old.into_iter().rev() {
                    if let Some(slot) = self.rows.get_mut(i) {
                        *slot = row;
                    }
                }
            }
            Undo::Remove(removed) => {
                let mut survivors = std::mem::take(&mut self.rows).into_iter();
                let mut rows = Vec::with_capacity(survivors.len() + removed.len());
                for (pos, row) in removed {
                    rows.extend(survivors.by_ref().take(pos.saturating_sub(rows.len())));
                    rows.push(row);
                }
                rows.extend(survivors);
                self.rows = rows;
            }
        }
        self.discard_indexes();
    }

    /// A copy of the stored rows, for undo (see `Database::snapshot_table`).
    pub(crate) fn snapshot_rows(&self) -> Vec<Row> {
        self.rows.clone()
    }

    /// Replaces the stored rows wholesale with a previously taken
    /// snapshot; the indexes re-sort on their next use. Bypasses type
    /// checks: the snapshot was valid when taken.
    pub(crate) fn restore_rows(&mut self, rows: Vec<Row>) {
        self.rows = rows;
        self.discard_indexes();
    }

    /// Makes the table keep one index per column list in `lists`,
    /// reusing an existing index over the same columns. New indexes
    /// are built on first use.
    pub(crate) fn set_index_columns(&mut self, lists: Vec<Vec<usize>>) {
        let mut old = std::mem::take(&mut self.indexes);
        for cols in lists {
            match old.iter().position(|ix| ix.columns() == cols.as_slice()) {
                Some(at) => self.indexes.push(old.swap_remove(at)),
                None => self.indexes.push(KeyIndex::new(cols)),
            }
        }
    }

    /// Drops every index permutation: mutations until the next lookup
    /// skip index work, and that lookup sorts once. Bulk loads call this
    /// before appending.
    pub(crate) fn discard_indexes(&mut self) {
        for ix in &mut self.indexes {
            ix.discard();
        }
    }

    /// Index entries are `u32` positions; a larger table is not indexed.
    fn positions_fit(&self) -> bool {
        u32::try_from(self.rows.len()).is_ok()
    }

    /// Ascending positions of the rows whose column `c` equals `v`
    /// (under [`Value`]'s total order) for every `(c, v)` in `pins`,
    /// read through the index whose key starts with the most pinned
    /// columns (sorting it first if it is unbuilt). `None` when no index
    /// key starts with a pinned column: the caller scans instead.
    pub fn lookup(&self, pins: &[(usize, &Value)]) -> Option<Vec<usize>> {
        if !self.positions_fit() {
            return None;
        }
        let pinned = |c: usize| pins.iter().find(|(pc, _)| *pc == c).map(|(_, v)| *v);
        let (ix, depth) = self
            .indexes
            .iter()
            .map(|ix| {
                let depth = ix
                    .columns()
                    .iter()
                    .take_while(|&&c| pinned(c).is_some())
                    .count();
                (ix, depth)
            })
            .filter(|&(_, depth)| depth > 0)
            .max_by_key(|&(_, depth)| depth)?;
        let key: Vec<&Value> = ix.columns()[..depth]
            .iter()
            .filter_map(|&c| pinned(c))
            .collect();
        let mut out: Vec<usize> = ix
            .range(&self.rows, &key)
            .iter()
            .map(|&p| p as usize)
            .filter(|&p| pins.iter().all(|(c, v)| self.rows[p].get(*c) == *v))
            .collect();
        if depth < ix.columns().len() {
            // A partial key orders matches by the unpinned key columns.
            out.sort_unstable();
        }
        Some(out)
    }

    /// True if some row has the given values at the given column indexes.
    pub fn contains_key(&self, indexes: &[usize], key: &[Value]) -> bool {
        let pins: Vec<(usize, &Value)> = indexes.iter().copied().zip(key).collect();
        match self.lookup(&pins) {
            Some(hits) => !hits.is_empty(),
            None => self
                .rows
                .iter()
                .any(|r| pins.iter().all(|&(i, v)| r.get(i) == v)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_types::{Column, DataType};

    fn table() -> Table {
        Table::new(
            "grades",
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("grade", DataType::Int).nullable(),
            ]),
        )
    }

    #[test]
    fn insert_type_checks() {
        let mut t = table();
        t.insert(Row(vec!["11".into(), Value::Int(90)])).unwrap();
        t.insert(Row(vec!["12".into(), Value::Null])).unwrap();
        assert_eq!(t.len(), 2);

        let err = t.insert(Row(vec![Value::Int(1), Value::Int(2)])).unwrap_err();
        assert!(matches!(err, Error::Type(_)));
        let err = t.insert(Row(vec![Value::Null, Value::Int(2)])).unwrap_err();
        assert!(matches!(err, Error::Constraint(_)));
        let err = t.insert(Row(vec!["11".into()])).unwrap_err();
        assert!(matches!(err, Error::Type(_)));
    }

    #[test]
    fn duplicates_are_kept() {
        let mut t = table();
        let row = Row(vec!["11".into(), Value::Int(90)]);
        t.insert(row.clone()).unwrap();
        t.insert(row).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn int_widens_to_double() {
        let mut t = Table::new(
            "m",
            Schema::new(vec![Column::new("x", DataType::Double)]),
        );
        t.insert(Row(vec![Value::Int(3)])).unwrap();
        assert_eq!(t.rows()[0].get(0), &Value::Double(3.0));
    }

    #[test]
    fn delete_and_update() {
        let mut t = table();
        for (s, g) in [("11", 90), ("12", 80), ("13", 70)] {
            t.insert(Row(vec![s.into(), Value::Int(g)])).unwrap();
        }
        let n = t.delete_at(&[1, 1, 7]);
        assert_eq!(n, 1);
        assert_eq!(t.len(), 2);

        let n = t
            .apply_row_updates(vec![(0, Row(vec!["11".into(), Value::Int(95)]))])
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(t.rows()[0].get(1), &Value::Int(95));
        assert_eq!(t.rows()[1].get(0), &Value::Str("13".into()));
    }

    #[test]
    fn update_type_error_is_atomic() {
        let mut t = table();
        t.insert(Row(vec!["11".into(), Value::Int(90)])).unwrap();
        t.insert(Row(vec!["12".into(), Value::Int(80)])).unwrap();
        let err = t.apply_row_updates(vec![
            (0, Row(vec!["11".into(), Value::Int(1)])),
            (1, Row(vec![Value::Int(0), Value::Int(0)])), // bad type
        ]);
        assert!(err.is_err());
        // First row must not have been updated.
        assert_eq!(t.rows()[0].get(1), &Value::Int(90));
    }

    fn indexed() -> Table {
        let mut t = table();
        for (s, g) in [("12", 80), ("11", 90), ("12", 70), ("13", 70)] {
            t.insert(Row(vec![s.into(), Value::Int(g)])).unwrap();
        }
        t.set_index_columns(vec![vec![0, 1], vec![1]]);
        t.build_indexes();
        t
    }

    fn assert_fresh(t: &Table) {
        for ix in t.indexes() {
            assert!(ix.positions().is_some(), "maintained, not discarded");
            assert_eq!(ix, &KeyIndex::build(ix.columns().to_vec(), t.rows()));
        }
    }

    #[test]
    fn mutations_keep_indexes_fresh() {
        let mut t = indexed();
        assert_eq!(t.indexes().len(), 2);
        t.insert(Row(vec!["11".into(), Value::Int(70)])).unwrap();
        assert_fresh(&t);
        t.apply_row_updates(vec![
            (0, Row(vec!["10".into(), Value::Int(80)])),
            (3, Row(vec!["13".into(), Value::Null])),
        ])
        .unwrap();
        assert_fresh(&t);
        t.delete_at(&[2, 0]);
        assert_fresh(&t);
        let snap = t.snapshot_rows();
        t.delete_at(&[0, 1, 2]);
        t.restore_rows(snap);
        assert_eq!(t.len(), 3);
        t.build_indexes();
        assert_fresh(&t);
    }

    #[test]
    fn discarded_indexes_sort_once_on_next_lookup() {
        let mut t = indexed();
        t.build_indexes();
        t.discard_indexes();
        t.insert(Row(vec!["10".into(), Value::Int(1)])).unwrap();
        t.delete_at(&[0]);
        assert!(t.indexes().iter().all(|ix| ix.positions().is_none()));
        assert_eq!(t.lookup(&[(0, &"10".into())]), Some(vec![3]));
        assert!(t.indexes()[0].positions().is_some(), "the lookup built it");
        assert!(t.indexes()[1].positions().is_none(), "the other waits");
        t.build_indexes();
        assert_fresh(&t);
    }

    #[test]
    fn lookup_returns_scan_order() {
        let t = indexed();
        // Full key: one match.
        assert_eq!(
            t.lookup(&[(1, &Value::Int(70)), (0, &"12".into())]),
            Some(vec![2])
        );
        // Prefix of the (student, grade) index: positions ascending.
        assert_eq!(t.lookup(&[(0, &"12".into())]), Some(vec![0, 2]));
        // The (grade) index serves the second column alone.
        assert_eq!(t.lookup(&[(1, &Value::Int(70))]), Some(vec![2, 3]));
        // Contradictory pins on one column match nothing.
        assert_eq!(
            t.lookup(&[(0, &"12".into()), (0, &"11".into())]),
            Some(vec![])
        );
        // No index starts with a pinned column: scan.
        let plain = table();
        assert_eq!(plain.lookup(&[(0, &"12".into())]), None);
    }

    #[test]
    fn contains_key_checks_projection() {
        let mut t = table();
        t.insert(Row(vec!["11".into(), Value::Int(90)])).unwrap();
        assert!(t.contains_key(&[0], &["11".into()]));
        assert!(!t.contains_key(&[0], &["99".into()]));
    }
}
