//! Index-backed access paths against their scan references.
//!
//! * **Maintenance.** Random schemas (Int/Double/Str columns, nullable
//!   or not, a 0–2-column primary key, an extra inclusion-dependency
//!   target) take random sequences of insert, `apply_row_updates`,
//!   `delete_at`, snapshot + restore and bulk load. After every step
//!   each built index must equal one rebuilt from scratch over the
//!   current rows; unbuilt ones (after a load or restore) are built at
//!   random points, and by the queries that need them.
//! * **Execution.** `execute_plan_cow` on random equality and
//!   comparison selects must equal a plain in-order `eval_predicate`
//!   filter over `Table::rows()`: the same rows in the same order, or
//!   the same error. The literals cover NULL, an Int on a Double column,
//!   a Double on an Int column, mismatched types and both orientations.
//! * **DML victims.** Random authorized DELETEs and UPDATEs run on two
//!   engines holding the same rows, one with key and constraint indexes
//!   and one with none: the affected counts, the first error
//!   (unauthorized tuple, type error, division by zero) and the rows
//!   left behind must be identical.

use fgac::prelude::*;
use fgac_algebra::{CmpOp, Plan, ScalarExpr};
use fgac_exec::{eval_predicate, execute_plan_cow};
use fgac_storage::{Database, InclusionDependency, KeyIndex};
use fgac_types::faults::{self, Fault};
use fgac_types::{Column, DataType, Row, Schema, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TABLE: &str = "t";

/// Column types: 0 = Int, 1 = Double, 2 = Str.
fn ty(tag: usize) -> DataType {
    [DataType::Int, DataType::Double, DataType::Str][tag % 3]
}

fn build_db(cols: &[(usize, bool)], pk_len: usize, dep_col: usize) -> Database {
    let mut db = Database::new();
    let columns = cols
        .iter()
        .enumerate()
        .map(|(i, &(t, nullable))| {
            let c = Column::new(format!("c{i}"), ty(t));
            if nullable {
                c.nullable()
            } else {
                c
            }
        })
        .collect();
    let pk_len = pk_len.min(cols.len());
    let pk = (pk_len > 0).then(|| (0..pk_len).map(|i| Ident::new(format!("c{i}"))).collect());
    db.create_table(TABLE, Schema::new(columns), pk).unwrap();
    let dep = Ident::new(format!("c{}", dep_col % cols.len()));
    db.add_inclusion_dependency(InclusionDependency {
        name: Ident::new("self_dep"),
        src_table: Ident::new(TABLE),
        src_columns: vec![dep.clone()],
        src_filter: None,
        dst_table: Ident::new(TABLE),
        dst_columns: vec![dep],
        dst_filter: None,
    })
    .unwrap();
    db
}

/// A small domain so keys collide. Int values may land in Double
/// columns (the table widens them on insert).
fn value(rng: &mut StdRng, ty: DataType, nullable: bool) -> Value {
    if nullable && rng.gen_range(0..5) == 0 {
        return Value::Null;
    }
    match ty {
        DataType::Int => Value::Int(rng.gen_range(-2i64..3)),
        DataType::Double => match rng.gen_range(0..6usize) {
            0 => Value::Int(rng.gen_range(-1i64..2)),
            1 => Value::Double(-0.0),
            k => Value::Double([0.0, 0.5, 1.0, -1.0][k - 2]),
        },
        _ => Value::Str(["a", "b", "c"][rng.gen_range(0..3usize)].into()),
    }
}

fn row(rng: &mut StdRng, schema: &Schema) -> Row {
    Row(schema
        .columns()
        .iter()
        .map(|c| value(rng, c.ty, c.nullable))
        .collect())
}

/// A row that fails the type check (wrong type in column 0).
fn bad_row(schema: &Schema) -> Row {
    let mut r: Vec<Value> = schema.columns().iter().map(|_| Value::Null).collect();
    r[0] = match schema.columns()[0].ty {
        DataType::Str => Value::Int(1),
        _ => Value::Str("bad".into()),
    };
    Row(r)
}

fn table(db: &Database) -> &fgac_storage::Table {
    db.table(&Ident::new(TABLE)).unwrap()
}

fn positions(rng: &mut StdRng, len: usize) -> Vec<usize> {
    let n = rng.gen_range(0..4);
    (0..n).map(|_| rng.gen_range(0..len + 2)).collect()
}

/// One random mutation through the public storage API. Failures are
/// fine (duplicate keys, bad rows); the indexes must stay exact anyway.
fn mutate(db: &mut Database, rng: &mut StdRng, kind: u8) {
    let t = Ident::new(TABLE);
    let schema = table(db).schema().clone();
    let len = table(db).len();
    match kind % 6 {
        0 => {
            let r = row(rng, &schema);
            if rng.gen_bool(0.5) {
                let _ = db.insert(&t, r);
            } else {
                let _ = db.insert_unchecked(&t, r);
            }
        }
        1 if len > 0 => {
            let mut seen = Vec::new();
            let mut updates = Vec::new();
            for _ in 0..rng.gen_range(1..4) {
                let i = rng.gen_range(0..len);
                if seen.contains(&i) {
                    continue;
                }
                seen.push(i);
                let mut new = table(db).rows()[i].clone();
                let c = rng.gen_range(0..schema.len());
                new.0[c] = value(rng, schema.columns()[c].ty, schema.columns()[c].nullable);
                updates.push((i, new));
            }
            if rng.gen_range(0..5) == 0 {
                updates.push((0, bad_row(&schema)));
            }
            let _ = db.apply_row_updates(&t, updates);
        }
        2 => {
            let victims = positions(rng, len);
            db.delete_at(&t, &victims).unwrap();
        }
        3 => {
            let snap = db.snapshot_table(&t).unwrap();
            for _ in 0..rng.gen_range(1..4) {
                let k = rng.gen_range(0..3u8);
                mutate(db, rng, k);
            }
            db.restore_table(snap).unwrap();
        }
        4 => {
            let mut rows: Vec<Row> = (0..rng.gen_range(0..12))
                .map(|_| row(rng, &schema))
                .collect();
            if rng.gen_range(0..4) == 0 {
                rows.insert(rows.len() / 2, bad_row(&schema));
            }
            let _ = db.load_unchecked(&t, rows);
        }
        _ => table(db).build_indexes(),
    }
}

fn assert_indexes_fresh(db: &Database) {
    let t = table(db);
    assert_eq!(
        t.indexes().len(),
        db.index_columns(&Ident::new(TABLE)).len(),
        "one index per column list"
    );
    for ix in t.indexes().iter().filter(|ix| ix.positions().is_some()) {
        assert_eq!(ix, &KeyIndex::build(ix.columns().to_vec(), t.rows()));
    }
}

/// A literal for column `c`: its own type, NULL, Int on Double,
/// Double on Int, or a mismatched type.
fn literal(rng: &mut StdRng, col_ty: DataType) -> Value {
    match rng.gen_range(0..8) {
        0 => Value::Null,
        1 => Value::Int(rng.gen_range(-1i64..2)),
        2 => Value::Double([0.0, 1.0, 0.5, -0.0][rng.gen_range(0..4usize)]),
        3 => Value::Str("b".into()),
        4 => Value::Bool(true),
        _ => value(rng, col_ty, false),
    }
}

fn conjunct(rng: &mut StdRng, schema: &Schema) -> ScalarExpr {
    let c = rng.gen_range(0..schema.len());
    let col = ScalarExpr::col(c);
    let op = if rng.gen_range(0..4) == 0 {
        [CmpOp::Lt, CmpOp::GtEq, CmpOp::NotEq][rng.gen_range(0..3usize)]
    } else {
        CmpOp::Eq
    };
    if rng.gen_range(0..8) == 0 {
        return ScalarExpr::cmp(op, col, ScalarExpr::col(rng.gen_range(0..schema.len())));
    }
    let lit = ScalarExpr::Lit(literal(rng, schema.columns()[c].ty));
    if rng.gen_bool(0.5) {
        ScalarExpr::cmp(op, col, lit)
    } else {
        ScalarExpr::cmp(op, lit, col)
    }
}

/// The scan reference: every row, every conjunct in order, first error
/// wins.
fn reference(rows: &[Row], conjuncts: &[ScalarExpr]) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    'rows: for r in rows {
        for c in conjuncts {
            if !eval_predicate(c, r)? {
                continue 'rows;
            }
        }
        out.push(r.clone());
    }
    Ok(out)
}

fn check_query(db: &Database, conjuncts: Vec<ScalarExpr>) {
    let t = table(db);
    let expected = reference(t.rows(), &conjuncts);
    let plan = Plan::scan(TABLE, t.schema().clone()).select(conjuncts.clone());
    let got = execute_plan_cow(db, &plan).map(|rows| rows.into_owned());
    assert_eq!(got, expected, "conjuncts {conjuncts:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexes_track_every_mutation_and_serve_scan_equal_selects(
        cols in proptest::collection::vec((0..3usize, proptest::bool::ANY), 1..5),
        pk_len in 0..3usize,
        dep_col in 0..4usize,
        ops in proptest::collection::vec((0..6u8, any::<u64>()), 1..30),
        query_seed in any::<u64>(),
    ) {
        let mut db = build_db(&cols, pk_len, dep_col);
        let schema = table(&db).schema().clone();
        let mut qrng = StdRng::seed_from_u64(query_seed);
        for (kind, seed) in ops {
            let mut rng = StdRng::seed_from_u64(seed);
            mutate(&mut db, &mut rng, kind);
            assert_indexes_fresh(&db);
            for _ in 0..2 {
                let n = qrng.gen_range(1..4);
                let conjuncts = (0..n).map(|_| conjunct(&mut qrng, &schema)).collect();
                check_query(&db, conjuncts);
            }
        }
    }
}

/// A two-column table with a (k, v) primary key and a `d` Double
/// column, 200 rows; `k` repeats every 10 rows.
fn directed_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        TABLE,
        Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Str),
            Column::new("d", DataType::Double).nullable(),
        ]),
        Some(vec![Ident::new("k"), Ident::new("v")]),
    )
    .unwrap();
    db.add_inclusion_dependency(InclusionDependency {
        name: Ident::new("d_target"),
        src_table: Ident::new(TABLE),
        src_columns: vec![Ident::new("d")],
        src_filter: None,
        dst_table: Ident::new(TABLE),
        dst_columns: vec![Ident::new("d")],
        dst_filter: None,
    })
    .unwrap();
    let rows = (0..200)
        .map(|i| {
            let d = if i % 7 == 0 {
                Value::Null
            } else {
                Value::Double((i % 4) as f64)
            };
            Row(vec![Value::Int(i % 10), Value::Str(format!("v{i}")), d])
        })
        .collect();
    db.load_unchecked(&Ident::new(TABLE), rows).unwrap();
    db
}

fn eq(l: ScalarExpr, r: ScalarExpr) -> ScalarExpr {
    ScalarExpr::cmp(CmpOp::Eq, l, r)
}

fn lit(v: Value) -> ScalarExpr {
    ScalarExpr::Lit(v)
}

/// Evaluations the select performs, counted by the `exec::eval` fault
/// site armed never to fire.
fn evals(db: &Database, conjuncts: Vec<ScalarExpr>) -> u64 {
    let plan = Plan::scan(TABLE, table(db).schema().clone()).select(conjuncts);
    faults::arm("exec::eval", Fault::ErrorOnNth(u64::MAX));
    execute_plan_cow(db, &plan).unwrap();
    let n = faults::hits("exec::eval");
    faults::disarm_all();
    n
}

#[test]
fn directed_literal_cases_match_the_scan() {
    let db = directed_db();
    let (k, v, d) = (ScalarExpr::col(0), ScalarExpr::col(1), ScalarExpr::col(2));
    let cases = vec![
        // Literal on either side, pinning a key prefix.
        vec![eq(k.clone(), lit(Value::Int(3)))],
        vec![eq(lit(Value::Int(3)), k.clone())],
        // Full key, literal first.
        vec![
            eq(lit(Value::Str("v13".into())), v.clone()),
            eq(k.clone(), lit(Value::Int(3))),
        ],
        // NULL literal: empty, no error.
        vec![eq(k.clone(), lit(Value::Null))],
        // Int literal on the Double column is widened.
        vec![eq(d.clone(), lit(Value::Int(2)))],
        vec![eq(lit(Value::Double(2.0)), d.clone())],
        // Double literal on the Int column: not a pin, same answer.
        vec![eq(k.clone(), lit(Value::Double(3.0)))],
        vec![eq(k.clone(), lit(Value::Double(3.5)))],
        // Mismatched literal: the scan's type error.
        vec![eq(k.clone(), lit(Value::Str("3".into())))],
        // A pin followed by a failing residual: error from a matching row.
        vec![
            eq(k.clone(), lit(Value::Int(3))),
            eq(v.clone(), lit(Value::Int(0))),
        ],
        // A failing conjunct before the pin: the scan errors first.
        vec![
            eq(v.clone(), lit(Value::Int(0))),
            eq(k.clone(), lit(Value::Int(3))),
        ],
        vec![eq(v, lit(Value::Int(0))), eq(k.clone(), lit(Value::Null))],
        // Contradictory pins.
        vec![eq(k.clone(), lit(Value::Int(3))), eq(k, lit(Value::Int(4)))],
    ];
    for conjuncts in cases {
        check_query(&db, conjuncts);
    }
}

#[test]
fn pinned_selects_read_only_the_pinned_rows() {
    let db = directed_db();
    let k = ScalarExpr::col(0);
    let d = ScalarExpr::col(2);
    // 20 rows have k = 3; the residual runs on those only.
    let pinned = evals(
        &db,
        vec![
            eq(lit(Value::Int(3)), k.clone()),
            ScalarExpr::cmp(CmpOp::GtEq, d.clone(), lit(Value::Int(0))),
        ],
    );
    assert_eq!(pinned, 20 * 3, "one residual (3 evals) per pinned row");
    // The widened Int pin on the indexed Double column: no evals.
    assert_eq!(evals(&db, vec![eq(d, lit(Value::Int(2)))]), 0);
    // A Double literal on the Int column is not a pin: full scan.
    assert_eq!(evals(&db, vec![eq(k, lit(Value::Double(3.0)))]), 200 * 3);
}

#[test]
fn c3_state_probe_reads_through_the_registration_key() {
    // Example 4.4: another student's grades in a course the user takes
    // are valid only while the user's registration exists — a C3 probe
    // of `registered` pinned on both key columns.
    let uni = fgac_workload::university::build(fgac_workload::university::UniversityConfig {
        students: 2000,
        courses: 50,
        ..Default::default()
    })
    .unwrap();
    let student = uni.student(0);
    let (_, course) = uni
        .registrations
        .iter()
        .find(|(s, _)| s == &student)
        .unwrap();
    let sql = format!("select * from grades where course_id = '{course}'");
    let session = Session::new(student.clone());
    let validator = fgac_core::Validator::new(uni.engine.database(), uni.engine.grants());
    faults::arm("exec::eval", Fault::ErrorOnNth(u64::MAX));
    let report = validator.check_sql(&session, &sql).unwrap();
    let evals = faults::hits("exec::eval");
    faults::disarm_all();
    assert_eq!(report.verdict, Verdict::Conditional);
    let registered = uni
        .engine
        .database()
        .table(&Ident::new("registered"))
        .unwrap()
        .len();
    assert!(
        evals < 10,
        "the probe evaluated {evals} expressions over {registered} registrations"
    );
}

/// `t(k, v, d, w)` with the same 60 rows on both engines: `indexed`
/// keys `(k, v)` and gets a `d` index from a self inclusion dependency;
/// `plain` has no key, so every victim search scans.
fn dml_engines(rng: &mut StdRng) -> (Engine, Engine) {
    let columns = "k int not null, v varchar not null, d double, w int";
    let mut indexed = Engine::new();
    indexed
        .admin_script(&format!(
            "create table t ({columns}, primary key (k, v));
             create inclusion dependency d_self on t (d) references t (d);"
        ))
        .unwrap();
    let mut plain = Engine::new();
    plain
        .admin_script(&format!("create table t ({columns});"))
        .unwrap();
    let rows: Vec<Row> = (0..60)
        .map(|i| {
            let d = match rng.gen_range(0..5) {
                0 => Value::Null,
                1 => Value::Double(0.5),
                k => Value::Double((k - 2) as f64),
            };
            let w = if rng.gen_range(0..4) == 0 {
                Value::Null
            } else {
                Value::Int(rng.gen_range(-1..4))
            };
            Row(vec![Value::Int(i % 6), Value::Str(format!("v{}", i % 10)), d, w])
        })
        .collect();
    let conditions = [
        "k <> 3",
        "w is null or w < 2",
        "d >= 0.5",
        "k / w > 0",
        "old(k) = new(k)",
        "v <> 'v7'",
    ];
    let mut grants = Vec::new();
    for action in ["delete", "update"] {
        for _ in 0..rng.gen_range(1..3) {
            let cond = conditions[rng.gen_range(0..conditions.len())];
            grants.push(format!("authorize {action} on t where {cond}"));
        }
    }
    for e in [&mut indexed, &mut plain] {
        e.admin_load(&Ident::new("t"), rows.clone()).unwrap();
        for g in &grants {
            e.grant_update_sql("u", g).unwrap();
        }
    }
    (indexed, plain)
}

/// A random `WHERE` clause: pins on the indexed columns in either
/// orientation, widened and mismatched literals, NULL, and conjuncts
/// that can fail.
fn dml_filter(rng: &mut StdRng) -> String {
    let conjuncts: Vec<String> = (0..rng.gen_range(1..4))
        .map(|_| {
            match rng.gen_range(0..12) {
                0 | 1 => format!("k = {}", rng.gen_range(0..7)),
                2 => format!("{} = k", rng.gen_range(0..7)),
                3 | 4 => format!("v = 'v{}'", rng.gen_range(0..11)),
                5 => format!("d = {}", rng.gen_range(-1..3)),
                6 => "d = 0.5".into(),
                7 => "k = 1.0".into(),
                8 => "k = 'x'".into(),
                9 => format!("w / (k - {}) >= 0", rng.gen_range(0..6)),
                10 => "d = null".into(),
                _ => format!("w < {}", rng.gen_range(0..4)),
            }
        })
        .collect();
    conjuncts.join(" and ")
}

fn dml_stmt(rng: &mut StdRng) -> String {
    let filter = dml_filter(rng);
    match rng.gen_range(0..3) {
        0 => format!("delete from t where {filter}"),
        1 => format!("update t set w = w + 1 where {filter}"),
        _ => format!("update t set k = k + 1, d = 2 where {filter}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dml_victims_and_first_error_match_the_scan(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut indexed, mut plain) = dml_engines(&mut rng);
        let s = Session::new("u");
        for _ in 0..6 {
            let sql = dml_stmt(&mut rng);
            let got = indexed.execute(&s, &sql).map(|r| r.affected());
            let want = plain.execute(&s, &sql).map(|r| r.affected());
            prop_assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "{}",
                sql
            );
            let t = Ident::new("t");
            prop_assert_eq!(
                indexed.database().table(&t).unwrap().rows(),
                plain.database().table(&t).unwrap().rows(),
                "{}",
                sql
            );
        }
    }
}

/// Evaluations one user statement performs, counted by the `exec::eval`
/// fault site armed never to fire.
fn dml_evals(e: &mut Engine, sql: &str) -> u64 {
    faults::arm("exec::eval", Fault::ErrorOnNth(u64::MAX));
    e.execute(&Session::new("u"), sql).unwrap();
    let n = faults::hits("exec::eval");
    faults::disarm_all();
    n
}

#[test]
fn pinned_dml_reads_only_the_pinned_rows() {
    let mut rng = StdRng::seed_from_u64(7);
    let (mut indexed, mut plain) = dml_engines(&mut rng);
    for e in [&mut indexed, &mut plain] {
        e.grant_update_sql("u", "authorize delete on t where k = 2").unwrap();
        e.grant_update_sql("u", "authorize update on t where k = 2").unwrap();
    }
    // Every conjunct is a pin, so the index path evaluates no filter:
    // only the pinned rows' assignments and authorizations, which the
    // scan evaluates too — on top of the filter's first comparison (3
    // evaluations) on each of the 60 rows.
    for sql in [
        "update t set w = 1 where k = 2",
        "delete from t where v = 'v2' and k = 2",
    ] {
        let pinned = dml_evals(&mut indexed, sql);
        let scanned = dml_evals(&mut plain, sql);
        assert!(
            pinned + 60 * 3 <= scanned,
            "{sql}: {pinned} evaluations through the index, {scanned} scanning"
        );
    }
}
