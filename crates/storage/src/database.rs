//! The database: catalog + table data, with key/foreign-key enforcement.

use crate::catalog::{Catalog, TableMeta, ViewDef};
use crate::constraint::{ForeignKey, InclusionDependency};
use crate::delta::TableDelta;
use crate::journal::{Journal, Savepoint, Undo};
use crate::table::Table;
use fgac_types::{Error, Ident, Result, Row, Schema, Value};
use std::collections::BTreeMap;

/// An in-memory database: a [`Catalog`] plus the stored rows of every
/// base table. Primary-key uniqueness and foreign-key existence are
/// enforced on insert/update/delete; declared inclusion dependencies are
/// *assumed* (they describe the legal database states the inference rules
/// reason over) but can be audited with [`Database::unsatisfied_inclusions_on`].
///
/// When delta recording is on (durable engines only — see
/// [`Database::set_delta_recording`]), every successful row mutation also
/// appends a [`TableDelta`] describing it, which the WAL layer drains per
/// statement. Recording is off by default and costs nothing when off.
///
/// A statement opened with [`Database::begin_statement`] journals the
/// before-image of every row mutation (the `journal` module), so
/// [`Database::rollback_to`] can undo it in O(rows touched); the DML
/// paths roll back through it on every error, panic and failed commit.
///
/// Each table keeps a [`crate::KeyIndex`] per key-column list the
/// catalog names for it (see [`Database::index_columns`]); the row
/// mutations here maintain them, and lookups by key —
/// [`Table::contains_key`], the constraint checks, the executor's
/// equality selects — binary-search them instead of scanning.
#[derive(Debug, Clone, Default)]
pub struct Database {
    catalog: Catalog,
    tables: BTreeMap<Ident, Table>,
    recording: bool,
    deltas: Vec<TableDelta>,
    journal: Option<Journal>,
}

/// A whole-table copy: the rows as they were when the snapshot was
/// taken. See [`Database::snapshot_table`]. The engine rolls back
/// through the statement journal instead; tests and benchmarks use
/// snapshots as an independent reference.
#[derive(Debug, Clone)]
pub struct TableSnapshot {
    table: Ident,
    rows: Vec<Row>,
}

impl TableSnapshot {
    /// The table this snapshot belongs to.
    pub fn table(&self) -> &Ident {
        &self.table
    }

    /// Number of rows captured.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl Database {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Creates a base table.
    pub fn create_table(
        &mut self,
        name: impl Into<Ident>,
        schema: Schema,
        primary_key: Option<Vec<Ident>>,
    ) -> Result<()> {
        let name = name.into();
        self.catalog
            .add_table(name.clone(), schema.clone(), primary_key)?;
        self.tables
            .insert(name.clone(), Table::new(name.clone(), schema));
        self.sync_indexes(&name);
        Ok(())
    }

    pub fn add_foreign_key(&mut self, fk: ForeignKey) -> Result<()> {
        let (child, parent) = (fk.child_table.clone(), fk.parent_table.clone());
        self.catalog.add_foreign_key(fk)?;
        self.sync_indexes(&child);
        self.sync_indexes(&parent);
        Ok(())
    }

    pub fn add_inclusion_dependency(&mut self, dep: InclusionDependency) -> Result<()> {
        let dst = dep.dst_table.clone();
        self.catalog.add_inclusion_dependency(dep)?;
        self.sync_indexes(&dst);
        Ok(())
    }

    /// The column lists `table` keeps an index over: its primary key,
    /// the child and the parent columns of every foreign key touching
    /// it, and the target columns of every inclusion dependency into
    /// it. A list that is a prefix of another is dropped — the longer
    /// list's index serves it.
    pub fn index_columns(&self, table: &Ident) -> Vec<Vec<usize>> {
        let Some(meta) = self.catalog.table(table) else {
            return Vec::new();
        };
        let mut lists: Vec<Vec<usize>> = Vec::new();
        let mut want = |cols: &[Ident]| {
            let positions: Option<Vec<usize>> =
                cols.iter().map(|c| meta.schema.index_of(c)).collect();
            lists.extend(positions.filter(|p| !p.is_empty()));
        };
        if let Some(pk) = &meta.primary_key {
            want(pk);
        }
        for fk in self.catalog.foreign_keys() {
            if &fk.child_table == table {
                want(&fk.child_columns);
            }
            if &fk.parent_table == table {
                want(&fk.parent_columns);
            }
        }
        for dep in self.catalog.inclusion_dependencies() {
            if &dep.dst_table == table {
                want(&dep.dst_columns);
            }
        }
        // Longest first (stable, so catalog order breaks ties).
        lists.sort_by_key(|l| std::cmp::Reverse(l.len()));
        let mut kept: Vec<Vec<usize>> = Vec::new();
        for list in lists {
            if !kept.iter().any(|k| k.starts_with(&list)) {
                kept.push(list);
            }
        }
        kept
    }

    fn sync_indexes(&mut self, table: &Ident) {
        let lists = self.index_columns(table);
        if let Some(t) = self.tables.get_mut(table) {
            t.set_index_columns(lists);
        }
    }

    fn table_mut(&mut self, table: &Ident) -> Result<&mut Table> {
        self.tables
            .get_mut(table)
            .ok_or_else(|| Error::Bind(format!("unknown table {table}")))
    }

    pub fn add_view(&mut self, view: ViewDef) -> Result<()> {
        self.catalog.add_view(view)
    }

    pub fn table(&self, name: &Ident) -> Option<&Table> {
        self.tables.get(name)
    }

    pub fn table_required(&self, name: &Ident) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| Error::Bind(format!("unknown table {name}")))
    }

    pub fn table_meta(&self, name: &Ident) -> Option<&TableMeta> {
        self.catalog.table(name)
    }

    /// Inserts a row, enforcing primary-key uniqueness and foreign-key
    /// existence.
    pub fn insert(&mut self, table: &Ident, row: Row) -> Result<()> {
        #[cfg(feature = "fault-injection")]
        fgac_types::faults::hit("storage::insert")?;
        self.check_pk_free(table, &row)?;
        self.check_fk_parents(table, &row)?;
        self.insert_unchecked(table, row)
    }

    /// Inserts without constraint checks — bulk loading only.
    pub fn insert_unchecked(&mut self, table: &Ident, row: Row) -> Result<()> {
        let recorded = self.recording.then(|| row.clone());
        let t = self.table_mut(table)?;
        t.insert(row)?;
        let before = t.len() - 1;
        if let Some(journal) = &mut self.journal {
            journal.appended(table, before);
        }
        if let Some(row) = recorded {
            self.deltas.push(TableDelta::Insert {
                table: table.clone(),
                row,
            });
        }
        Ok(())
    }

    /// Bulk load without constraint checks: appends every row (recording
    /// one insert delta each) without index maintenance; each of the
    /// table's indexes is sorted once, by the first lookup that needs
    /// it. Stops at the first row that fails its type check; the rows
    /// before it stay loaded.
    pub fn load_unchecked(&mut self, table: &Ident, rows: Vec<Row>) -> Result<usize> {
        self.table_mut(table)?.discard_indexes();
        let mut n = 0;
        for row in rows {
            self.insert_unchecked(table, row)?;
            n += 1;
        }
        Ok(n)
    }

    /// Convenience: insert many rows (checked).
    pub fn insert_all<I>(&mut self, table: &Ident, rows: I) -> Result<usize>
    where
        I: IntoIterator<Item = Row>,
    {
        let mut n = 0;
        for row in rows {
            self.insert(table, row)?;
            n += 1;
        }
        Ok(n)
    }

    fn check_pk_free(&self, table: &Ident, row: &Row) -> Result<()> {
        let Some(meta) = self.catalog.table(table) else {
            return Err(Error::Bind(format!("unknown table {table}")));
        };
        let Some(pk) = &meta.primary_key else {
            return Ok(());
        };
        let idx: Vec<usize> = pk
            .iter()
            .map(|c| meta.schema.index_of(c).expect("validated pk column"))
            .collect();
        let key: Vec<Value> = idx.iter().map(|&i| row.get(i).clone()).collect();
        if self.tables[table].contains_key(&idx, &key) {
            return Err(Error::Constraint(format!(
                "duplicate primary key {key:?} in {table}"
            )));
        }
        Ok(())
    }

    fn check_fk_parents(&self, table: &Ident, row: &Row) -> Result<()> {
        let meta = self.catalog.table_required(table)?;
        for fk in self.catalog.foreign_keys() {
            if &fk.child_table != table {
                continue;
            }
            let child_idx: Vec<usize> = fk
                .child_columns
                .iter()
                .map(|c| meta.schema.index_of(c).expect("validated fk column"))
                .collect();
            let key: Vec<Value> = child_idx.iter().map(|&i| row.get(i).clone()).collect();
            // NULL foreign keys reference nothing (SQL semantics).
            if key.iter().any(|v| v.is_null()) {
                continue;
            }
            let parent_meta = self.catalog.table_required(&fk.parent_table)?;
            let parent_idx: Vec<usize> = fk
                .parent_columns
                .iter()
                .map(|c| parent_meta.schema.index_of(c).expect("validated fk column"))
                .collect();
            if !self.tables[&fk.parent_table].contains_key(&parent_idx, &key) {
                return Err(Error::Constraint(format!(
                    "foreign key {}: value {key:?} not present in {}",
                    fk.name, fk.parent_table
                )));
            }
        }
        Ok(())
    }

    /// Replaces row `i` of `table` for each `(i, row)` pair; all
    /// replacements type-check before any is applied.
    pub fn apply_row_updates(
        &mut self,
        table: &Ident,
        updates: Vec<(usize, Row)>,
    ) -> Result<usize> {
        let recorded = self.recording.then(|| updates.clone());
        let old = self.table_mut(table)?.replace_rows(updates)?;
        let n = old.len();
        if let Some(journal) = &mut self.journal {
            journal.push(table, Undo::Replace(old));
        }
        if let Some(updates) = recorded {
            self.deltas.push(TableDelta::Update {
                table: table.clone(),
                updates,
            });
        }
        Ok(n)
    }

    /// Removes the rows of `table` at the given positions; returns how
    /// many were removed.
    pub fn delete_at(&mut self, table: &Ident, indexes: &[usize]) -> Result<usize> {
        let removed = self.table_mut(table)?.remove_rows(indexes);
        let n = removed.len();
        if let Some(journal) = &mut self.journal {
            journal.push(table, Undo::Remove(removed));
        }
        if self.recording {
            self.deltas.push(TableDelta::Delete {
                table: table.clone(),
                indexes: indexes.to_vec(),
            });
        }
        Ok(n)
    }

    /// Opens a statement: from here until [`Database::end_statement`]
    /// every row mutation journals its before-image, so
    /// [`Database::rollback_to`] can undo it. Opening a statement while
    /// one is open discards the old journal.
    pub fn begin_statement(&mut self) {
        self.journal = Some(Journal::default());
    }

    /// Whether a statement is open.
    pub fn in_statement(&self) -> bool {
        self.journal.is_some()
    }

    /// The current point of the open statement: rolling back to it
    /// undoes every mutation made after this call.
    pub fn savepoint(&self) -> Savepoint {
        Savepoint {
            undo: self.journal.as_ref().map_or(0, Journal::len),
            deltas: self.deltas.len(),
        }
    }

    /// Undoes every row mutation journaled since `sp`, newest first,
    /// restoring the rows byte-identically and in their original
    /// order, and drops the deltas recorded since. The indexes of the
    /// tables touched re-sort on their next use. Without an open
    /// statement there is nothing journaled to undo.
    pub fn rollback_to(&mut self, sp: Savepoint) {
        if let Some(journal) = &mut self.journal {
            for (table, undo) in journal.unwind(sp.undo) {
                if let Some(t) = self.tables.get_mut(&table) {
                    t.undo(undo);
                }
            }
        }
        self.deltas.truncate(sp.deltas);
    }

    /// Closes the statement, dropping its journal: its mutations stand.
    pub fn end_statement(&mut self) {
        self.journal = None;
    }

    /// Captures a copy of the current rows of `table`. Pair with
    /// [`Database::restore_table`] to put the table back to exactly
    /// this state.
    pub fn snapshot_table(&self, table: &Ident) -> Result<TableSnapshot> {
        Ok(TableSnapshot {
            table: table.clone(),
            rows: self.table_required(table)?.snapshot_rows(),
        })
    }

    /// Restores a table to a previously captured snapshot, discarding
    /// every mutation since. Its indexes re-sort on their next use. The
    /// schema must not have changed in between.
    pub fn restore_table(&mut self, snap: TableSnapshot) -> Result<()> {
        self.table_mut(&snap.table)?.restore_rows(snap.rows);
        Ok(())
    }

    /// Turns physical delta recording on or off. Off by default; durable
    /// engines enable it so the WAL can capture committed DML. Turning it
    /// on or off discards any pending deltas.
    pub fn set_delta_recording(&mut self, on: bool) {
        self.recording = on;
        self.deltas.clear();
    }

    pub fn delta_recording(&self) -> bool {
        self.recording
    }

    /// Drains the deltas recorded since the last call. The engine calls
    /// this once per statement: on success the deltas go to the WAL, on
    /// failure they are dropped along with the rolled-back mutation.
    pub fn take_deltas(&mut self) -> Vec<TableDelta> {
        std::mem::take(&mut self.deltas)
    }

    /// Re-applies a logged delta during recovery. Constraint checks are
    /// skipped (the delta already committed once); recording is
    /// suppressed so replay does not re-log.
    pub fn apply_delta(&mut self, delta: TableDelta) -> Result<()> {
        let was_recording = std::mem::replace(&mut self.recording, false);
        let out = match delta {
            TableDelta::Insert { table, row } => self.insert_unchecked(&table, row),
            TableDelta::Update { table, updates } => {
                self.apply_row_updates(&table, updates).map(|_| ())
            }
            TableDelta::Delete { table, indexes } => {
                self.delete_at(&table, &indexes).map(|_| ())
            }
        };
        self.recording = was_recording;
        out
    }

    /// Removes a base table (data and catalog entry). Used to undo a
    /// `CREATE TABLE` whose WAL append failed — not exposed as SQL.
    pub fn drop_table(&mut self, name: &Ident) -> Result<()> {
        if self.tables.remove(name).is_none() {
            return Err(Error::Bind(format!("unknown table {name}")));
        }
        self.catalog.remove_table(name);
        Ok(())
    }

    /// Removes a view definition. Undo-only, like [`Database::drop_table`].
    pub fn drop_view(&mut self, name: &Ident) -> Result<()> {
        if self.catalog.remove_view(name).is_none() {
            return Err(Error::Bind(format!("unknown view {name}")));
        }
        Ok(())
    }

    /// Audits one *unconditional* inclusion dependency against current
    /// data, returning the violating source keys (conditional filters are
    /// ignored here — full audits with filters run through the executor,
    /// which can evaluate arbitrary predicates).
    pub fn unsatisfied_inclusions_on(&self, dep: &InclusionDependency) -> Result<Vec<Vec<Value>>> {
        let src_meta = self.catalog.table_required(&dep.src_table)?;
        let dst_meta = self.catalog.table_required(&dep.dst_table)?;
        let src_idx: Vec<usize> = dep
            .src_columns
            .iter()
            .map(|c| {
                src_meta
                    .schema
                    .index_of(c)
                    .ok_or_else(|| Error::Catalog(format!("bad column {c}")))
            })
            .collect::<Result<_>>()?;
        let dst_idx: Vec<usize> = dep
            .dst_columns
            .iter()
            .map(|c| {
                dst_meta
                    .schema
                    .index_of(c)
                    .ok_or_else(|| Error::Catalog(format!("bad column {c}")))
            })
            .collect::<Result<_>>()?;
        let dst = &self.tables[&dep.dst_table];
        let mut missing = Vec::new();
        for row in self.tables[&dep.src_table].rows() {
            let key: Vec<Value> = src_idx.iter().map(|&i| row.get(i).clone()).collect();
            if !dst.contains_key(&dst_idx, &key) {
                missing.push(key);
            }
        }
        Ok(missing)
    }

    /// Total number of stored rows (all tables).
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_types::{Column, DataType};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "students",
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("name", DataType::Str),
            ]),
            Some(vec![Ident::new("student_id")]),
        )
        .unwrap();
        db.create_table(
            "registered",
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("course_id", DataType::Str),
            ]),
            None,
        )
        .unwrap();
        db.add_foreign_key(ForeignKey {
            name: Ident::new("fk_reg_student"),
            child_table: Ident::new("registered"),
            child_columns: vec![Ident::new("student_id")],
            parent_table: Ident::new("students"),
            parent_columns: vec![Ident::new("student_id")],
        })
        .unwrap();
        db
    }

    #[test]
    fn pk_uniqueness_enforced() {
        let mut d = db();
        let t = Ident::new("students");
        d.insert(&t, Row(vec!["11".into(), "ann".into()])).unwrap();
        let err = d.insert(&t, Row(vec!["11".into(), "bob".into()]));
        assert!(matches!(err, Err(Error::Constraint(_))));
    }

    #[test]
    fn fk_existence_enforced() {
        let mut d = db();
        let s = Ident::new("students");
        let r = Ident::new("registered");
        let err = d.insert(&r, Row(vec!["11".into(), "cs101".into()]));
        assert!(matches!(err, Err(Error::Constraint(_))));
        d.insert(&s, Row(vec!["11".into(), "ann".into()])).unwrap();
        d.insert(&r, Row(vec!["11".into(), "cs101".into()])).unwrap();
    }

    #[test]
    fn inclusion_audit_reports_missing_keys() {
        let mut d = db();
        let s = Ident::new("students");
        d.insert(&s, Row(vec!["11".into(), "ann".into()])).unwrap();
        d.insert(&s, Row(vec!["12".into(), "bob".into()])).unwrap();
        let dep = InclusionDependency {
            name: Ident::new("all_registered"),
            src_table: Ident::new("students"),
            src_columns: vec![Ident::new("student_id")],
            src_filter: None,
            dst_table: Ident::new("registered"),
            dst_columns: vec![Ident::new("student_id")],
            dst_filter: None,
        };
        let missing = d.unsatisfied_inclusions_on(&dep).unwrap();
        assert_eq!(missing.len(), 2);
        d.insert(&Ident::new("registered"), Row(vec!["11".into(), "cs101".into()]))
            .unwrap();
        let missing = d.unsatisfied_inclusions_on(&dep).unwrap();
        assert_eq!(missing, vec![vec![Value::Str("12".into())]]);
    }

    #[test]
    fn delete_and_update_route_through() {
        let mut d = db();
        let s = Ident::new("students");
        d.insert(&s, Row(vec!["11".into(), "ann".into()])).unwrap();
        let n = d
            .apply_row_updates(&s, vec![(0, Row(vec!["11".into(), "anne".into()]))])
            .unwrap();
        assert_eq!(n, 1);
        let n = d.delete_at(&s, &[0]).unwrap();
        assert_eq!(n, 1);
        assert_eq!(d.total_rows(), 0);
    }

    #[test]
    fn unknown_table_errors() {
        let mut d = db();
        let bad = Ident::new("nope");
        assert!(d.insert(&bad, Row(vec![])).is_err());
        assert!(d.delete_at(&bad, &[0]).is_err());
        assert!(d.apply_row_updates(&bad, vec![]).is_err());
        assert!(d.load_unchecked(&bad, vec![]).is_err());
    }

    #[test]
    fn keys_and_constraint_columns_get_indexes() {
        let mut d = db();
        let s = Ident::new("students");
        let r = Ident::new("registered");
        // students: pk (student_id) = fk parent (student_id), one index.
        assert_eq!(d.index_columns(&s), vec![vec![0]]);
        // registered: fk child (student_id).
        assert_eq!(d.index_columns(&r), vec![vec![0]]);
        d.add_inclusion_dependency(InclusionDependency {
            name: Ident::new("reg_pairs"),
            src_table: s.clone(),
            src_columns: vec![Ident::new("student_id"), Ident::new("name")],
            src_filter: None,
            dst_table: r.clone(),
            dst_columns: vec![Ident::new("student_id"), Ident::new("course_id")],
            dst_filter: None,
        })
        .unwrap();
        // (student_id) is a prefix of the new (student_id, course_id).
        assert_eq!(d.index_columns(&r), vec![vec![0, 1]]);
        assert_eq!(d.table(&r).unwrap().indexes().len(), 1);
    }

    #[test]
    fn bulk_load_sorts_once_and_checks_still_see_the_rows() {
        let mut d = db();
        let s = Ident::new("students");
        let rows: Vec<Row> = (0..50)
            .rev()
            .map(|i| Row(vec![format!("{i:02}").into(), "x".into()]))
            .collect();
        assert_eq!(d.load_unchecked(&s, rows).unwrap(), 50);
        let t = d.table(&s).unwrap();
        let ix = &t.indexes()[0];
        assert_eq!(ix.positions(), None, "sorted on first use, not per row");
        t.build_indexes();
        assert_eq!(ix, &crate::KeyIndex::build(ix.columns().to_vec(), t.rows()));
        let dup = d.insert(&s, Row(vec!["07".into(), "y".into()]));
        assert!(matches!(dup, Err(Error::Constraint(_))));
        d.insert(
            &Ident::new("registered"),
            Row(vec!["07".into(), "cs101".into()]),
        )
        .unwrap();

        // A type error mid-load keeps the rows before it, indexed.
        let bad = vec![
            Row(vec!["90".into(), "x".into()]),
            Row(vec![Value::Int(1), "x".into()]),
        ];
        assert!(d.load_unchecked(&s, bad).is_err());
        assert!(d.table(&s).unwrap().contains_key(&[0], &["90".into()]));
    }

    fn rows(d: &Database, t: &Ident) -> Vec<Row> {
        d.table(t).unwrap().rows().to_vec()
    }

    #[test]
    fn rollback_restores_rows_in_order_and_lookups() {
        let mut d = db();
        let s = Ident::new("students");
        for i in 0..6 {
            d.insert(&s, Row(vec![format!("{i}").into(), "x".into()])).unwrap();
        }
        d.table(&s).unwrap().build_indexes();
        let before = rows(&d, &s);
        d.set_delta_recording(true);
        d.begin_statement();
        let start = d.savepoint();
        d.insert(&s, Row(vec!["9".into(), "new".into()])).unwrap();
        d.apply_row_updates(&s, vec![(2, Row(vec!["2".into(), "upd".into()]))])
            .unwrap();
        d.delete_at(&s, &[0, 3, 6]).unwrap();
        d.insert(&s, Row(vec!["0".into(), "again".into()])).unwrap();
        d.apply_row_updates(&s, vec![(0, Row(vec!["7".into(), "key".into()]))])
            .unwrap();
        assert_eq!(d.take_deltas().len(), 5);
        d.rollback_to(start);
        d.end_statement();
        assert_eq!(rows(&d, &s), before);
        assert!(d.take_deltas().is_empty());
        let t = d.table(&s).unwrap();
        for i in 0..10 {
            let key = Value::Str(format!("{i}"));
            let scan: Vec<usize> = (0..t.len()).filter(|&p| t.rows()[p].get(0) == &key).collect();
            assert_eq!(t.lookup(&[(0, &key)]), Some(scan));
        }
    }

    #[test]
    fn appends_share_an_entry_per_run_and_savepoints_nest() {
        let mut d = db();
        let (s, r) = (Ident::new("students"), Ident::new("registered"));
        let row = |a: &str, b: &str| Row(vec![a.into(), b.into()]);
        d.insert(&s, row("1", "ann")).unwrap();
        assert_eq!(d.savepoint().undo, 0, "nothing journaled outside a statement");

        d.begin_statement();
        let loaded: Vec<Row> = (10..60).map(|i| row(&format!("{i}"), "x")).collect();
        d.load_unchecked(&s, loaded).unwrap();
        assert_eq!(d.savepoint().undo, 1, "a bulk load is one entry");
        let mid = d.savepoint();
        d.insert(&r, row("1", "cs1")).unwrap();
        d.insert(&s, row("2", "bob")).unwrap();
        d.insert(&r, row("2", "cs1")).unwrap();
        assert_eq!(d.savepoint().undo, 4, "a run is per table");
        // One position replaced twice in one call: its first image wins.
        d.apply_row_updates(&s, vec![(0, row("1", "a")), (0, row("1", "b"))])
            .unwrap();
        d.rollback_to(mid);
        assert_eq!(d.table(&s).unwrap().len(), 51);
        assert_eq!(d.table(&s).unwrap().rows()[0], row("1", "ann"));
        assert!(d.table(&r).unwrap().is_empty());
        d.rollback_to(Savepoint { undo: 0, deltas: 0 });
        d.end_statement();
        assert_eq!(rows(&d, &s), vec![row("1", "ann")]);
    }
}
