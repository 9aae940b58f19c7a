//! Plan execution.
//!
//! The executor works over *borrowed* scans: [`execute_plan_cow`]
//! returns `Cow<'_, [Row]>`, so a `Scan` hands back the table's own row
//! slice without copying, a `Select` over a borrowed input clones only
//! the rows that survive the filter, and materialization happens only
//! at operators that genuinely build new rows (projection, join output,
//! aggregation, duplicate elimination). For a selective single-table
//! query this turns the dominant cost from O(|table|) row clones into
//! O(|result|). The [`rows_cloned`] counter observes exactly the clones
//! caused by materializing borrowed data, so tests and benches can
//! assert the reduction. A `Select` whose literal equalities pin an
//! indexed key does not even read the other rows: it binary-searches
//! the table's index (see `access`), so the cost is O(log |table| +
//! |result|).

use crate::access::index_path;
use crate::eval::{eval, eval_predicate};
use fgac_algebra::{AggExpr, AggFunc, BoundQuery, CmpOp, OrderKey, ParamScope, Plan, ScalarExpr};
use fgac_storage::Database;
use fgac_types::{Error, Ident, Result, Row, Value};
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::{HashMap, HashSet};

thread_local! {
    /// Rows cloned out of borrowed storage by this thread's executor
    /// runs: survivor clones in `Select`/`Distinct` over borrowed
    /// inputs plus whole-slice materializations of borrowed results.
    /// Thread-local so concurrent queries (and parallel tests) don't
    /// observe each other.
    static ROWS_CLONED: Cell<u64> = const { Cell::new(0) };
}

fn count_cloned(n: usize) {
    ROWS_CLONED.with(|c| c.set(c.get() + n as u64));
}

/// Rows cloned from borrowed storage on this thread since the last
/// [`reset_rows_cloned`] — the executor's copy-cost instrumentation.
pub fn rows_cloned() -> u64 {
    ROWS_CLONED.with(|c| c.get())
}

/// Resets this thread's [`rows_cloned`] counter.
pub fn reset_rows_cloned() {
    ROWS_CLONED.with(|c| c.set(0));
}

/// A query result: column names + rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    pub names: Vec<Ident>,
    pub rows: Vec<Row>,
}

impl QueryResult {
    /// Renders an ASCII table (examples / report binary).
    pub fn to_table(&self) -> String {
        let header = self
            .names
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(" | ");
        // Size the ruler from the header's display width, not the byte
        // length of the accumulated output (which counts the newline and
        // over-counts multi-byte characters).
        let ruler_width = header.chars().count().max(8);
        let mut out = String::new();
        out.push_str(&header);
        out.push('\n');
        out.push_str(&"-".repeat(ruler_width));
        out.push('\n');
        for row in &self.rows {
            out.push_str(
                &row.values()
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(" | "),
            );
            out.push('\n');
        }
        out
    }
}

/// Parses, binds, and executes a `SELECT`, returning names + rows. This
/// performs **no access-control check** — it is the raw engine that both
/// the Truman and Non-Truman paths drive.
pub fn run_query_sql(db: &Database, sql: &str, params: &ParamScope) -> Result<QueryResult> {
    let query = fgac_sql::parse_query(sql)?;
    let bound = fgac_algebra::bind_query(db.catalog(), &query, params)?;
    let rows = execute_bound(db, &bound)?;
    Ok(QueryResult {
        names: bound.output_names,
        rows,
    })
}

/// Executes a bound query including ORDER BY / LIMIT presentation. The
/// plan goes through the selection-pushdown pre-pass so joins run on
/// their keys instead of materializing cross products.
pub fn execute_bound(db: &Database, bound: &BoundQuery) -> Result<Vec<Row>> {
    let plan = crate::pushdown::push_selections(&bound.plan);
    let rows = execute_plan_cow(db, &plan)?;
    let mut rows = match rows {
        Cow::Owned(rows) => rows,
        Cow::Borrowed(rows) => {
            // The caller owns the result, so borrowed rows materialize
            // here — but an unordered LIMIT needs only the prefix.
            let take = match bound.limit {
                Some(l) if bound.order_by.is_empty() => (l as usize).min(rows.len()),
                _ => rows.len(),
            };
            count_cloned(take);
            rows[..take].to_vec()
        }
    };
    if !bound.order_by.is_empty() {
        sort_rows(&mut rows, &bound.order_by);
    }
    if let Some(limit) = bound.limit {
        rows.truncate(limit as usize);
    }
    Ok(rows)
}

/// Executes a logical plan, materializing the result multiset. Prefer
/// [`execute_plan_cow`] when the caller can work with borrowed rows
/// (e.g. emptiness probes) — this wrapper clones a borrowed result.
pub fn execute_plan(db: &Database, plan: &Plan) -> Result<Vec<Row>> {
    Ok(match execute_plan_cow(db, plan)? {
        Cow::Owned(rows) => rows,
        Cow::Borrowed(rows) => {
            count_cloned(rows.len());
            rows.to_vec()
        }
    })
}

/// Executes a logical plan over borrowed storage. `Scan` returns the
/// table's row slice without copying; operators clone rows only when
/// they must produce owned data (filter survivors, projections, join
/// outputs, aggregates).
pub fn execute_plan_cow<'a>(db: &'a Database, plan: &Plan) -> Result<Cow<'a, [Row]>> {
    match plan {
        Plan::Scan { table, .. } => Ok(Cow::Borrowed(db.table_required(table)?.rows())),
        Plan::Select { input, conjuncts } => {
            // Literal pins on an indexed key: read only the pinned rows
            // (see `access`), in scan order.
            if let Plan::Scan { table, .. } = &**input {
                let table = db.table_required(table)?;
                if let Some(path) = index_path(table, conjuncts) {
                    let rows = table.rows();
                    let pinned = path.positions.iter().map(|&p| &rows[p]);
                    return clone_survivors(pinned, path.residual.iter().copied());
                }
            }
            match execute_plan_cow(db, input)? {
                // Borrowed input: filter by reference, clone only survivors.
                Cow::Borrowed(rows) => clone_survivors(rows.iter(), conjuncts.iter()),
                // Owned input: move survivors, no clones at all.
                Cow::Owned(rows) => Ok(Cow::Owned(filter_rows(rows, conjuncts)?)),
            }
        }
        Plan::Project { input, exprs } => {
            let rows = execute_plan_cow(db, input)?;
            let projected = rows
                .iter()
                .map(|r| {
                    exprs
                        .iter()
                        .map(|e| eval(e, r))
                        .collect::<Result<Vec<Value>>>()
                        .map(Row)
                })
                .collect::<Result<Vec<Row>>>()?;
            Ok(Cow::Owned(projected))
        }
        Plan::Distinct { input } => match execute_plan_cow(db, input)? {
            Cow::Borrowed(rows) => {
                let mut seen = HashSet::with_capacity(rows.len());
                let mut out = Vec::new();
                for r in rows {
                    if seen.insert(r) {
                        out.push(r.clone());
                    }
                }
                count_cloned(out.len());
                Ok(Cow::Owned(out))
            }
            Cow::Owned(rows) => {
                let mut seen = HashSet::with_capacity(rows.len());
                Ok(Cow::Owned(
                    rows.into_iter().filter(|r| seen.insert(r.clone())).collect(),
                ))
            }
        },
        Plan::Join {
            left,
            right,
            conjuncts,
        } => {
            let lrows = execute_plan_cow(db, left)?;
            let rrows = execute_plan_cow(db, right)?;
            Ok(Cow::Owned(join_rows(
                &lrows,
                &rrows,
                left.arity(),
                conjuncts,
            )?))
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let rows = execute_plan_cow(db, input)?;
            Ok(Cow::Owned(aggregate_rows(&rows, group_by, aggs)?))
        }
    }
}

/// Clones the borrowed rows on which every conjunct holds, evaluating
/// each row's conjuncts in order.
fn clone_survivors<'r, 'e>(
    rows: impl Iterator<Item = &'r Row>,
    conjuncts: impl Iterator<Item = &'e ScalarExpr> + Clone,
) -> Result<Cow<'r, [Row]>> {
    let mut out = Vec::new();
    'rows: for r in rows {
        for c in conjuncts.clone() {
            if !eval_predicate(c, r)? {
                continue 'rows;
            }
        }
        out.push(r.clone());
    }
    count_cloned(out.len());
    Ok(Cow::Owned(out))
}

fn filter_rows(rows: Vec<Row>, conjuncts: &[ScalarExpr]) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    'rows: for r in rows {
        for c in conjuncts {
            if !eval_predicate(c, &r)? {
                continue 'rows;
            }
        }
        out.push(r);
    }
    Ok(out)
}

/// Joins with a hash join on equi-conjuncts spanning the boundary when
/// possible, nested loops otherwise. Residual conjuncts are applied to
/// the concatenated row.
fn join_rows(
    lrows: &[Row],
    rrows: &[Row],
    left_arity: usize,
    conjuncts: &[ScalarExpr],
) -> Result<Vec<Row>> {
    // Split conjuncts into hashable equi-join keys and residuals.
    let mut lkeys = Vec::new();
    let mut rkeys = Vec::new();
    let mut residual = Vec::new();
    for c in conjuncts {
        match c {
            ScalarExpr::Cmp {
                op: CmpOp::Eq,
                left,
                right,
            } => match (&**left, &**right) {
                (ScalarExpr::Col(a), ScalarExpr::Col(b)) if *a < left_arity && *b >= left_arity => {
                    lkeys.push(*a);
                    rkeys.push(*b - left_arity);
                }
                (ScalarExpr::Col(a), ScalarExpr::Col(b)) if *b < left_arity && *a >= left_arity => {
                    lkeys.push(*b);
                    rkeys.push(*a - left_arity);
                }
                _ => residual.push(c.clone()),
            },
            _ => residual.push(c.clone()),
        }
    }

    let mut out = Vec::new();
    if lkeys.is_empty() {
        // Nested loops.
        for l in lrows {
            'inner: for r in rrows {
                let joined = l.concat(r);
                for c in conjuncts {
                    if !eval_predicate(c, &joined)? {
                        continue 'inner;
                    }
                }
                out.push(joined);
            }
        }
        return Ok(out);
    }

    // Hash join: build on the smaller side conceptually; build on right.
    let mut table: HashMap<Vec<Value>, Vec<&Row>> = HashMap::with_capacity(rrows.len());
    for r in rrows {
        let key: Vec<Value> = rkeys.iter().map(|&i| r.get(i).clone()).collect();
        // SQL equi-join: NULL keys never match.
        if key.iter().any(|v| v.is_null()) {
            continue;
        }
        table.entry(key).or_default().push(r);
    }
    'left: for l in lrows {
        let key: Vec<Value> = lkeys.iter().map(|&i| l.get(i).clone()).collect();
        if key.iter().any(|v| v.is_null()) {
            continue 'left;
        }
        if let Some(matches) = table.get(&key) {
            'pair: for r in matches {
                let joined = l.concat(r);
                for c in &residual {
                    if !eval_predicate(c, &joined)? {
                        continue 'pair;
                    }
                }
                out.push(joined);
            }
        }
    }
    Ok(out)
}

/// One accumulator per (group, aggregate).
#[derive(Debug, Clone)]
enum Acc {
    Count(i64),
    SumInt(i64, bool),
    SumDouble(f64, bool),
    Avg { sum: f64, n: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Acc {
    fn new(func: AggFunc, first_numeric_is_int: bool) -> Acc {
        match func {
            AggFunc::CountStar | AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => {
                if first_numeric_is_int {
                    Acc::SumInt(0, false)
                } else {
                    Acc::SumDouble(0.0, false)
                }
            }
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
        }
    }

    fn update(&mut self, v: &Value) -> Result<()> {
        match self {
            Acc::Count(n) => *n += 1,
            Acc::SumInt(s, any) => match v {
                Value::Int(i) => {
                    *s = s
                        .checked_add(*i)
                        .ok_or_else(|| Error::Execution("SUM overflow".into()))?;
                    *any = true;
                }
                Value::Double(_) => {
                    // Switch representation.
                    let mut acc = Acc::SumDouble(*s as f64, *any);
                    acc.update(v)?;
                    *self = acc;
                }
                other => return Err(Error::Type(format!("SUM over non-number {other}"))),
            },
            Acc::SumDouble(s, any) => match v.as_f64() {
                Some(d) => {
                    *s += d;
                    *any = true;
                }
                None => return Err(Error::Type(format!("SUM over non-number {v}"))),
            },
            Acc::Avg { sum, n } => match v.as_f64() {
                Some(d) => {
                    *sum += d;
                    *n += 1;
                }
                None => return Err(Error::Type(format!("AVG over non-number {v}"))),
            },
            Acc::Min(cur) => {
                let replace = match cur {
                    None => true,
                    Some(c) => matches!(
                        v.sql_cmp(c),
                        Some(std::cmp::Ordering::Less)
                    ),
                };
                if replace {
                    *cur = Some(v.clone());
                }
            }
            Acc::Max(cur) => {
                let replace = match cur {
                    None => true,
                    Some(c) => matches!(v.sql_cmp(c), Some(std::cmp::Ordering::Greater)),
                };
                if replace {
                    *cur = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    fn finish(&self) -> Value {
        match self {
            Acc::Count(n) => Value::Int(*n),
            Acc::SumInt(s, any) => {
                if *any {
                    Value::Int(*s)
                } else {
                    Value::Null
                }
            }
            Acc::SumDouble(s, any) => {
                if *any {
                    Value::Double(*s)
                } else {
                    Value::Null
                }
            }
            Acc::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Double(sum / *n as f64)
                }
            }
            Acc::Min(v) | Acc::Max(v) => v.clone().unwrap_or(Value::Null),
        }
    }
}

fn aggregate_rows(rows: &[Row], group_by: &[ScalarExpr], aggs: &[AggExpr]) -> Result<Vec<Row>> {
    struct Group {
        key: Row,
        accs: Vec<Acc>,
        distinct_seen: Vec<HashSet<Value>>,
    }

    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut groups: HashMap<Vec<Value>, Group> = HashMap::new();

    for row in rows {
        let key: Vec<Value> = group_by
            .iter()
            .map(|g| eval(g, row))
            .collect::<Result<_>>()?;
        let entry = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key.clone());
            Group {
                key: Row(key.clone()),
                accs: aggs.iter().map(|a| Acc::new(a.func, true)).collect(),
                distinct_seen: aggs.iter().map(|_| HashSet::new()).collect(),
            }
        });
        for (i, agg) in aggs.iter().enumerate() {
            match agg.func {
                AggFunc::CountStar => entry.accs[i].update(&Value::Bool(true))?,
                _ => {
                    let arg = agg.arg.as_ref().ok_or_else(|| {
                        Error::Internal("aggregate missing argument".into())
                    })?;
                    let v = eval(arg, row)?;
                    if v.is_null() {
                        continue; // aggregates skip NULLs
                    }
                    if agg.distinct && !entry.distinct_seen[i].insert(v.clone()) {
                        continue;
                    }
                    entry.accs[i].update(&v)?;
                }
            }
        }
    }

    // A global aggregate over an empty input still yields one row.
    if group_by.is_empty() && groups.is_empty() {
        let accs: Vec<Acc> = aggs.iter().map(|a| Acc::new(a.func, true)).collect();
        return Ok(vec![Row(accs.iter().map(|a| a.finish()).collect())]);
    }

    let mut out = Vec::with_capacity(order.len());
    for key in order {
        let g = &groups[&key];
        let mut vals = g.key.0.clone();
        vals.extend(g.accs.iter().map(|a| a.finish()));
        out.push(Row(vals));
    }
    Ok(out)
}

fn sort_rows(rows: &mut [Row], keys: &[OrderKey]) {
    rows.sort_by(|a, b| {
        for k in keys {
            let ord = a.get(k.col).cmp(b.get(k.col));
            let ord = if k.asc { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_types::{Column, DataType, Schema};

    /// The paper's running university schema with small data.
    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "students",
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("name", DataType::Str),
                Column::new("type", DataType::Str),
            ]),
            Some(vec![Ident::new("student_id")]),
        )
        .unwrap();
        db.create_table(
            "courses",
            Schema::new(vec![
                Column::new("course_id", DataType::Str),
                Column::new("name", DataType::Str),
            ]),
            Some(vec![Ident::new("course_id")]),
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
        db.create_table(
            "grades",
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("course_id", DataType::Str),
                Column::new("grade", DataType::Int).nullable(),
            ]),
            None,
        )
        .unwrap();
        let s = Ident::new("students");
        for (id, name, ty) in [
            ("11", "ann", "FullTime"),
            ("12", "bob", "PartTime"),
            ("13", "carol", "FullTime"),
        ] {
            db.insert(&s, Row(vec![id.into(), name.into(), ty.into()]))
                .unwrap();
        }
        let c = Ident::new("courses");
        for (id, name) in [("cs101", "intro"), ("cs202", "systems")] {
            db.insert(&c, Row(vec![id.into(), name.into()])).unwrap();
        }
        let r = Ident::new("registered");
        for (s_, c_) in [("11", "cs101"), ("12", "cs101"), ("13", "cs202"), ("11", "cs202")] {
            db.insert(&r, Row(vec![s_.into(), c_.into()])).unwrap();
        }
        let g = Ident::new("grades");
        for (s_, c_, gr) in [
            ("11", "cs101", Some(90)),
            ("12", "cs101", Some(70)),
            ("11", "cs202", Some(80)),
            ("13", "cs202", None),
        ] {
            db.insert(
                &g,
                Row(vec![
                    s_.into(),
                    c_.into(),
                    gr.map(Value::Int).unwrap_or(Value::Null),
                ]),
            )
            .unwrap();
        }
        db
    }

    fn run(sql: &str) -> QueryResult {
        run_query_sql(&db(), sql, &ParamScope::with_user("11")).unwrap()
    }

    #[test]
    fn scans_and_filters() {
        let r = run("select grade from grades where student_id = '11'");
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn parameter_filter() {
        let r = run("select grade from grades where student_id = $user_id");
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn joins_hash_path() {
        let r = run(
            "select s.name, g.grade from students s, grades g \
             where s.student_id = g.student_id and g.course_id = 'cs101'",
        );
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn join_nested_loop_inequality() {
        let r = run(
            "select a.student_id, b.student_id from registered a, registered b \
             where a.student_id < b.student_id and a.course_id = b.course_id",
        );
        // cs101: 11<12. cs202: 11<13. Two pairs.
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn cross_product() {
        let r = run("select s.name, c.name from students s, courses c");
        assert_eq!(r.rows.len(), 6);
    }

    #[test]
    fn null_join_keys_never_match() {
        let mut d = db();
        d.insert(
            &Ident::new("grades"),
            Row(vec![Value::Null, "cs101".into(), Value::Int(50)]),
        )
        .unwrap_err(); // student_id is NOT NULL in grades
        // Put the NULL on a nullable column join instead.
        let r = run_query_sql(
            &d,
            "select g.student_id from grades g, grades h where g.grade = h.grade and g.student_id <> h.student_id",
            &ParamScope::new(),
        )
        .unwrap();
        // Grades 90,70,80,NULL — no equal non-null pairs across students.
        assert_eq!(r.rows.len(), 0);
    }

    #[test]
    fn aggregate_avg_skips_nulls() {
        let r = run("select avg(grade) from grades");
        assert_eq!(r.rows[0].get(0), &Value::Double(80.0));
    }

    #[test]
    fn aggregate_group_by() {
        let r = run("select course_id, count(*) from grades group by course_id order by course_id");
        assert_eq!(
            r.rows,
            vec![
                Row(vec!["cs101".into(), Value::Int(2)]),
                Row(vec!["cs202".into(), Value::Int(2)]),
            ]
        );
    }

    #[test]
    fn count_star_vs_count_col() {
        let r = run("select count(*), count(grade) from grades");
        assert_eq!(r.rows[0], Row(vec![Value::Int(4), Value::Int(3)]));
    }

    #[test]
    fn count_distinct() {
        let r = run("select count(distinct course_id) from grades");
        assert_eq!(r.rows[0].get(0), &Value::Int(2));
    }

    #[test]
    fn empty_global_aggregate_yields_one_row() {
        let r = run("select count(*), avg(grade), min(grade) from grades where student_id = 'zz'");
        assert_eq!(
            r.rows,
            vec![Row(vec![Value::Int(0), Value::Null, Value::Null])]
        );
    }

    #[test]
    fn empty_grouped_aggregate_yields_no_rows() {
        let r = run("select course_id, count(*) from grades where student_id = 'zz' group by course_id");
        assert!(r.rows.is_empty());
    }

    #[test]
    fn distinct_eliminates_duplicates() {
        let r = run("select distinct student_id from grades");
        assert_eq!(r.rows.len(), 3);
        let r = run("select student_id from grades");
        assert_eq!(r.rows.len(), 4);
    }

    #[test]
    fn having_filters_groups() {
        let r = run(
            "select course_id from registered group by course_id having count(*) >= 2 order by course_id",
        );
        assert_eq!(
            r.rows,
            vec![Row(vec!["cs101".into()]), Row(vec!["cs202".into()])]
        );
        let r = run(
            "select course_id from registered group by course_id having count(*) >= 3",
        );
        assert!(r.rows.is_empty());
    }

    #[test]
    fn order_by_and_limit() {
        let r = run("select name from students order by name desc limit 2");
        assert_eq!(
            r.rows,
            vec![Row(vec!["carol".into()]), Row(vec!["bob".into()])]
        );
    }

    #[test]
    fn min_max() {
        let r = run("select min(grade), max(grade) from grades");
        assert_eq!(r.rows[0], Row(vec![Value::Int(70), Value::Int(90)]));
    }

    #[test]
    fn sum_integer_stays_integer() {
        let r = run("select sum(grade) from grades");
        assert_eq!(r.rows[0].get(0), &Value::Int(240));
    }

    #[test]
    fn view_through_binder_executes() {
        let mut d = db();
        d.add_view(fgac_storage::ViewDef {
            name: Ident::new("mygrades"),
            authorization: true,
            query: fgac_sql::parse_query("select * from grades where student_id = $user_id")
                .unwrap(),
        })
        .unwrap();
        let r = run_query_sql(
            &d,
            "select avg(grade) from mygrades",
            &ParamScope::with_user("11"),
        )
        .unwrap();
        assert_eq!(r.rows[0].get(0), &Value::Double(85.0));
    }

    #[test]
    fn table_rendering() {
        let r = run("select name from students order by name limit 1");
        let t = r.to_table();
        assert!(t.contains("name"));
        assert!(t.contains("'ann'"));
    }

    #[test]
    fn table_ruler_matches_header_width() {
        let r = QueryResult {
            names: vec![Ident::new("student_id"), Ident::new("final_grade")],
            rows: vec![],
        };
        let table = r.to_table();
        let lines: Vec<&str> = table.lines().collect();
        let header = lines[0];
        assert_eq!(header, "student_id | final_grade");
        // The ruler is exactly as wide as the header — previously it was
        // sized from the accumulated byte length (header + newline).
        assert_eq!(lines[1].chars().count(), header.chars().count());
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    fn table_ruler_has_minimum_width() {
        let r = QueryResult {
            names: vec![Ident::new("a")],
            rows: vec![],
        };
        let table = r.to_table();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines[1].len(), 8);
    }

    #[test]
    fn selective_query_clones_only_survivors() {
        let d = db();
        reset_rows_cloned();
        let r = run_query_sql(
            &d,
            "select student_id, course_id, grade from grades where student_id = '11'",
            &ParamScope::new(),
        )
        .unwrap();
        assert_eq!(r.rows.len(), 2);
        // grades has 4 rows; only the 2 survivors are cloned out of the
        // borrowed scan (projection then builds fresh rows, no clones).
        assert_eq!(rows_cloned(), 2);
    }

    #[test]
    fn full_scan_clones_whole_table_once() {
        let d = db();
        reset_rows_cloned();
        let r = run_query_sql(&d, "select * from grades", &ParamScope::new()).unwrap();
        assert_eq!(r.rows.len(), 4);
        // No projection above the scan: the caller materializes the
        // borrowed slice, exactly |table| clones.
        assert_eq!(rows_cloned(), 4);
    }

    #[test]
    fn unordered_limit_clones_only_prefix() {
        let d = db();
        reset_rows_cloned();
        let r = run_query_sql(&d, "select * from grades limit 1", &ParamScope::new()).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(rows_cloned(), 1);
    }

    #[test]
    fn borrowed_probe_clones_nothing() {
        let d = db();
        let plan = fgac_algebra::bind_query(
            d.catalog(),
            &fgac_sql::parse_query("select * from grades").unwrap(),
            &ParamScope::new(),
        )
        .unwrap()
        .plan;
        // Normalization elides the identity projection, leaving a bare
        // Scan — the shape the validity checker's emptiness probe sees.
        let plan = crate::pushdown::push_selections(&plan);
        reset_rows_cloned();
        let rows = execute_plan_cow(&d, &plan).unwrap();
        assert_eq!(rows.len(), 4);
        assert!(matches!(rows, Cow::Borrowed(_)));
        assert_eq!(rows_cloned(), 0);
    }
}
