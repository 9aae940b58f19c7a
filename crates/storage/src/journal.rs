//! The statement undo journal: before-images of the rows a statement
//! changes, so a failed statement can be undone in O(rows touched).
//!
//! While a statement is open ([`crate::Database::begin_statement`]),
//! the three positional row mutations each leave one [`Undo`] entry:
//!
//! * an append records the table's length before it — a run of appends
//!   to one table shares one entry, so a bulk load adds one entry;
//! * an in-place update records the old images of the rows it replaced;
//! * a delete records the removed rows with their positions.
//!
//! Rolling back to a [`Savepoint`] replays the entries after it newest
//! first, restoring every row byte-identically and in its original
//! position. On success the journal is simply dropped: nothing is
//! copied but the before-images themselves.

use fgac_types::{Ident, Row};

/// How to undo one row mutation of one table.
#[derive(Debug, Clone)]
pub(crate) enum Undo {
    /// Rows were appended past this length.
    Append(usize),
    /// Rows were replaced in place: `(position, old image)` in the
    /// order they were replaced.
    Replace(Vec<(usize, Row)>),
    /// Rows were removed: `(position before the removal, row)`,
    /// ascending.
    Remove(Vec<(usize, Row)>),
}

/// The open statement's entries, oldest first.
#[derive(Debug, Clone, Default)]
pub(crate) struct Journal {
    entries: Vec<(Ident, Undo)>,
}

impl Journal {
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Notes that `table` had `len` rows before an append; an append
    /// directly after another to the same table shares its entry.
    pub(crate) fn appended(&mut self, table: &Ident, len: usize) {
        if !matches!(self.entries.last(), Some((t, Undo::Append(_))) if t == table) {
            self.entries.push((table.clone(), Undo::Append(len)));
        }
    }

    /// Records a non-empty update or delete.
    pub(crate) fn push(&mut self, table: &Ident, undo: Undo) {
        let empty = match &undo {
            Undo::Append(_) => false,
            Undo::Replace(rows) | Undo::Remove(rows) => rows.is_empty(),
        };
        if !empty {
            self.entries.push((table.clone(), undo));
        }
    }

    /// Removes the entries past the first `len`, newest first.
    pub(crate) fn unwind(&mut self, len: usize) -> impl Iterator<Item = (Ident, Undo)> {
        let len = len.min(self.entries.len());
        self.entries.split_off(len).into_iter().rev()
    }
}

/// A point in the open statement to roll back to: the journal's length
/// and the number of recorded WAL deltas when it was taken. See
/// [`crate::Database::savepoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Savepoint {
    pub(crate) undo: usize,
    pub(crate) deltas: usize,
}
