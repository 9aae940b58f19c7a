//! Index-backed access paths.
//!
//! A `Select` directly over a `Scan` whose conjuncts pin key columns to
//! literals (`col = lit` or `lit = col`) reads the pinned rows through
//! the table's indexes ([`Table::lookup`]) instead of scanning. The
//! path is an optimization only, so it must be indistinguishable from
//! the scan:
//!
//! * **Same rows, same order.** Lookups return positions in ascending
//!   order, so results keep scan order.
//! * **Same comparisons.** A pin's literal has the column's own type
//!   (stored values are NULL or of their column's type), so the
//!   index's total order agrees with `sql_cmp`. An Int literal on a
//!   Double column is widened first, as `sql_cmp` compares them; any
//!   other type mismatch is not a pin. `col = NULL` is never true, so a
//!   NULL pin selects nothing.
//! * **Same errors.** A scan evaluates a row's conjuncts in order and
//!   stops at the first false one. Rows the pins exclude therefore
//!   evaluate only conjuncts listed before some pin, and the path is
//!   taken only when each of those is a pin or cannot fail. The rows
//!   the pins keep evaluate the residual conjuncts in list order, in
//!   position order — exactly as the scan does.
//!
//! Anything else — no pin, no index whose key starts with a pinned
//! column, or a possibly failing conjunct before a pin — falls back to
//! the scan.
//!
//! The executor's `Select` over a `Scan` takes the path through
//! [`index_path`]; the DML victim searches (UPDATE/DELETE filters,
//! split into their conjuncts) read through [`matching_rows`].

use crate::eval::eval_predicate;
use fgac_algebra::{CmpOp, ScalarExpr};
use fgac_storage::Table;
use fgac_types::{DataType, Result, Row, Schema, Value};

/// The rows of `table` on which every conjunct holds, as
/// `(position, row)` in ascending position order: exactly what a scan
/// yields that evaluates each row's conjuncts in list order and stops
/// at the first that is not true — read through an index when the
/// rules above allow. A conjunct that fails to evaluate yields its
/// error in the row's place; callers stop at the first error.
pub fn matching_rows<'t>(
    table: &'t Table,
    conjuncts: &'t [ScalarExpr],
) -> impl Iterator<Item = Result<(usize, &'t Row)>> + 't {
    let rows = table.rows();
    let (pinned, scan, residual) = match index_path(table, conjuncts) {
        Some(path) => (Some(path.positions), 0..0, path.residual),
        None => (None, 0..rows.len(), conjuncts.iter().collect()),
    };
    pinned.into_iter().flatten().chain(scan).filter_map(move |i| {
        let row = &rows[i];
        for c in &residual {
            match eval_predicate(c, row) {
                Ok(true) => {}
                Ok(false) => return None,
                Err(e) => return Some(Err(e)),
            }
        }
        Some(Ok((i, row)))
    })
}

/// Rows a `Select` reads through an index, and the conjuncts still to
/// be evaluated on them (in their original order).
pub(crate) struct IndexPath<'e> {
    pub positions: Vec<usize>,
    pub residual: Vec<&'e ScalarExpr>,
}

/// The index path for `conjuncts` over `table`, or `None` to scan.
pub(crate) fn index_path<'e>(table: &Table, conjuncts: &'e [ScalarExpr]) -> Option<IndexPath<'e>> {
    let schema = table.schema();
    let pins: Vec<Option<(usize, Value)>> = conjuncts.iter().map(|c| pin(c, schema)).collect();
    let last = pins.iter().rposition(Option::is_some)?;
    let skippable = conjuncts[..last]
        .iter()
        .zip(&pins)
        .all(|(c, p)| p.is_some() || infallible(c, schema));
    if !skippable {
        return None;
    }
    let mut pinned = Vec::new();
    let mut residual = Vec::new();
    for (c, p) in conjuncts.iter().zip(pins) {
        match p {
            Some(p) => pinned.push(p),
            None => residual.push(c),
        }
    }
    if pinned.iter().any(|(_, v)| v.is_null()) {
        return Some(IndexPath {
            positions: Vec::new(),
            residual,
        });
    }
    let keys: Vec<(usize, &Value)> = pinned.iter().map(|(c, v)| (*c, v)).collect();
    let positions = table.lookup(&keys)?;
    Some(IndexPath {
        positions,
        residual,
    })
}

/// `col = lit` or `lit = col` with a NULL literal or one of the
/// column's own type (Int widened onto a Double column): the column
/// and the value it is pinned to. A pin never fails to evaluate.
fn pin(c: &ScalarExpr, schema: &Schema) -> Option<(usize, Value)> {
    let ScalarExpr::Cmp {
        op: CmpOp::Eq,
        left,
        right,
    } = c
    else {
        return None;
    };
    let (col, lit) = match (&**left, &**right) {
        (ScalarExpr::Col(i), ScalarExpr::Lit(v)) | (ScalarExpr::Lit(v), ScalarExpr::Col(i)) => {
            (*i, v)
        }
        _ => return None,
    };
    let ty = schema.columns().get(col)?.ty;
    let value = match (lit, ty) {
        (Value::Null, _) => Value::Null,
        (Value::Int(i), DataType::Double) => Value::Double(*i as f64),
        (v, ty) if v.data_type() == Some(ty) => v.clone(),
        _ => return None,
    };
    Some((col, value))
}

/// Whether `c` evaluates without error on every row of a table with
/// this schema: a comparison between columns and literals of types
/// `sql_cmp` can compare (a NULL on either side makes it unknown, not
/// an error).
fn infallible(c: &ScalarExpr, schema: &Schema) -> bool {
    let ScalarExpr::Cmp { left, right, .. } = c else {
        return false;
    };
    // `Some(None)` is a NULL literal.
    let ty = |e: &ScalarExpr| match e {
        ScalarExpr::Col(i) => schema.columns().get(*i).map(|col| Some(col.ty)),
        ScalarExpr::Lit(v) => Some(v.data_type()),
        _ => None,
    };
    let numeric = |t: DataType| matches!(t, DataType::Int | DataType::Double);
    match (ty(left), ty(right)) {
        (Some(Some(a)), Some(Some(b))) => a == b || (numeric(a) && numeric(b)),
        (Some(_), Some(_)) => true,
        _ => false,
    }
}
