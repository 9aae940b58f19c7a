//! Statement undo journal against snapshot restore, under injected
//! faults.
//!
//! Random multi-row INSERT / UPDATE / DELETE statements run on a
//! durable engine, through the user path and the admin path. Before
//! each one a fault site is armed to fail — or, separately, to panic —
//! on its Nth hit: `storage::insert`, `exec::insert_row`,
//! `exec::update_row`, `exec::delete_row`, `exec::eval`, or a WAL
//! append failure (`wal::append`). Whenever a statement fails, the
//! journal rollback must equal restoring a `snapshot_table` copy taken
//! before it:
//!
//! * the rows of every table, in order, and every `Table::lookup`
//!   result over the key domain;
//! * `state_fingerprint()` and `data_version`;
//! * the state recovered from the WAL.
//!
//! A statement that commits is mirrored on an in-memory shadow engine,
//! so after every statement the live engine equals the shadow: a
//! rollback undoes its own statement and nothing committed before it.
//!
//! Gated on the `fault-injection` feature, which the root crate's self
//! dev-dependency enables for test builds.
#![cfg(feature = "fault-injection")]

use fgac::prelude::*;
use fgac::storage::{Database, TableSnapshot};
use fgac::types::faults::{self, Fault};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const TABLES: [&str; 2] = ["students", "grades"];
const STUDENTS: [&str; 4] = ["11", "12", "13", "14"];
const COURSES: usize = 8;

const SETUP: &str = "
    create table students (student_id varchar not null, name varchar not null,
        primary key (student_id));
    create table grades (student_id varchar not null, course_id varchar not null,
        grade int, primary key (student_id, course_id),
        foreign key (student_id) references students (student_id));
    insert into students values ('11', 'ann'), ('12', 'bob'), ('13', 'cam');
    insert into grades values ('11', 'c0', 50), ('11', 'c1', 60), ('11', 'c2', 70),
        ('12', 'c0', 40), ('12', 'c3', 90), ('13', 'c1', 65), ('11', 'c4', 0);
";

const GRANTS: [&str; 3] = [
    "authorize insert on grades where student_id = $user_id",
    "authorize update on grades where old(student_id) = $user_id and student_id = $user_id",
    "authorize delete on grades where student_id = $user_id",
];

const SITES: [&str; 6] = [
    "storage::insert",
    "exec::insert_row",
    "exec::update_row",
    "exec::delete_row",
    "exec::eval",
    "wal::append",
];

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "fgac-undo-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Disarms all faults when dropped, so a failed assertion cannot leave
/// a fault armed for code that runs during unwinding.
struct Disarm;
impl Drop for Disarm {
    fn drop(&mut self) {
        faults::disarm_all();
    }
}

/// Runs `f` with a silent panic hook: the injected panics are expected.
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

fn opts() -> DurabilityOptions {
    DurabilityOptions {
        sync_on_commit: false,
        snapshot_every: 0,
    }
}

fn setup(e: &mut Engine) {
    e.admin_script(SETUP).unwrap();
    for sql in GRANTS {
        for user in STUDENTS {
            e.grant_update_sql(user, sql).unwrap();
        }
    }
}

/// One statement, for a user session or the admin path.
#[derive(Debug, Clone)]
struct Stmt {
    user: Option<&'static str>,
    sql: String,
}

fn run(e: &mut Engine, stmt: &Stmt) -> fgac::types::Result<()> {
    match stmt.user {
        Some(user) => e.execute(&Session::new(user), &stmt.sql).map(|_| ()),
        None => e.admin_script(&stmt.sql),
    }
}

fn course(rng: &mut StdRng) -> String {
    format!("c{}", rng.gen_range(0..COURSES))
}

/// A random multi-row statement. Keys come from a small domain, so
/// duplicate keys, missing foreign-key parents, unauthorized rows and
/// division by zero fail some statements on their own, mid-statement.
fn random_stmt(rng: &mut StdRng) -> Stmt {
    let user = STUDENTS[rng.gen_range(0..STUDENTS.len())];
    let sql = match rng.gen_range(0..9u32) {
        0..=2 => {
            let rows: Vec<String> = (0..rng.gen_range(1..5))
                .map(|_| {
                    let who = if rng.gen_range(0..6) == 0 {
                        STUDENTS[rng.gen_range(0..STUDENTS.len())]
                    } else {
                        user
                    };
                    format!("('{who}', '{}', {})", course(rng), rng.gen_range(0..100))
                })
                .collect();
            format!("insert into grades values {}", rows.join(", "))
        }
        3 => format!(
            "update grades set grade = grade + {} where student_id = '{user}'",
            rng.gen_range(1..5)
        ),
        4 => format!(
            "update grades set course_id = '{}' where student_id = '{user}' and course_id = '{}'",
            course(rng),
            course(rng)
        ),
        5 => format!(
            "update grades set grade = 100 / (grade - {}) where grade >= {}",
            rng.gen_range(0..60),
            rng.gen_range(0..80)
        ),
        6 => format!(
            "delete from grades where student_id = '{user}' and grade < {}",
            rng.gen_range(0..100)
        ),
        7 => format!(
            "delete from grades where student_id = '{user}' and course_id = '{}'",
            course(rng)
        ),
        _ => format!(
            "delete from grades where grade >= {}",
            rng.gen_range(40..100)
        ),
    };
    Stmt {
        user: (rng.gen_range(0..3) != 0).then_some(user),
        sql,
    }
}

/// Every `Table::lookup` over the key domain, for each indexed column
/// list and each prefix of it.
fn lookups(db: &Database, table: &str) -> Vec<Option<Vec<usize>>> {
    let t = db.table(&Ident::new(table)).unwrap();
    let students: Vec<Value> = STUDENTS.iter().map(|s| Value::Str((*s).into())).collect();
    let courses: Vec<Value> = (0..COURSES).map(|c| Value::Str(format!("c{c}"))).collect();
    let mut out = Vec::new();
    for cols in db.index_columns(&Ident::new(table)) {
        for s in &students {
            out.push(t.lookup(&[(cols[0], s)]));
            if cols.len() > 1 {
                for c in &courses {
                    out.push(t.lookup(&[(cols[0], s), (cols[1], c)]));
                }
            }
        }
    }
    out
}

/// `snapshot_table` of every table.
fn snapshots(e: &Engine) -> Vec<TableSnapshot> {
    TABLES
        .iter()
        .map(|t| e.database().snapshot_table(&Ident::new(*t)).unwrap())
        .collect()
}

/// Asserts that the live engine, after a failed statement, equals the
/// pre-statement snapshots restored onto a copy of its database.
fn assert_rolled_back(e: &Engine, snaps: &[TableSnapshot], fp: &[u8], version: u64, what: &str) {
    let mut reference = e.database().clone();
    for snap in snaps {
        reference.restore_table(snap.clone()).unwrap();
    }
    for table in TABLES {
        let name = Ident::new(table);
        assert_eq!(
            e.database().table(&name).unwrap().rows(),
            reference.table(&name).unwrap().rows(),
            "[{what}] {table} rows differ from the snapshot restore"
        );
        assert_eq!(
            lookups(e.database(), table),
            lookups(&reference, table),
            "[{what}] {table} lookups differ from the snapshot restore"
        );
    }
    assert_eq!(e.state_fingerprint(), fp, "[{what}] fingerprint changed");
    assert_eq!(e.data_version(), version, "[{what}] data version bumped");
}

/// Drops the live engine without closing it (a crash) and recovers it
/// from its directory; the recovered state must equal the live one.
fn crash_and_recover(e: Engine, dir: &PathBuf, what: &str) -> Engine {
    let fp = e.state_fingerprint();
    drop(e);
    let (recovered, _) = Engine::open_with(dir, opts()).unwrap();
    assert_eq!(
        recovered.state_fingerprint(),
        fp,
        "[{what}] WAL-recovered state differs from the live engine"
    );
    recovered
}

fn run_seed(seed: u64, panics: bool) -> (usize, usize) {
    let _guard = Disarm;
    let dir = tmp_dir(&format!("{seed}-{panics}"));
    let (mut live, _) = Engine::open_with(&dir, opts()).unwrap();
    setup(&mut live);
    let mut shadow = Engine::new();
    setup(&mut shadow);
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut committed, mut failed) = (0, 0);
    for i in 0..120 {
        let stmt = random_stmt(&mut rng);
        let site = SITES[rng.gen_range(0..SITES.len())];
        // A statement appends one WAL record: fail that one, after
        // every row change is in.
        let nth = if site == "wal::append" {
            1
        } else {
            rng.gen_range(1..6)
        };
        // The WAL append sits outside the statement's panic boundary
        // and only ever fails.
        let fault = if panics && site != "wal::append" {
            Fault::PanicOnNth(nth)
        } else {
            Fault::ErrorOnNth(nth)
        };
        let what = format!("seed={seed} #{i} {site}@{nth} {fault:?} {stmt:?}");
        let snaps = snapshots(&live);
        let fp = live.state_fingerprint();
        let version = live.data_version();

        faults::arm(site, fault);
        let outcome = with_quiet_panics(|| run(&mut live, &stmt));
        faults::disarm_all();

        match outcome {
            Ok(()) => {
                committed += 1;
                run(&mut shadow, &stmt).unwrap_or_else(|e| {
                    panic!("[{what}] committed on the live engine, failed on the shadow: {e}")
                });
            }
            Err(err) => {
                failed += 1;
                if panics && matches!(err, Error::Internal(_)) {
                    assert!(
                        site == "wal::append" || format!("{err}").contains("panicked"),
                        "[{what}] {err}"
                    );
                }
                assert_rolled_back(&live, &snaps, &fp, version, &what);
            }
        }
        assert_eq!(
            live.state_fingerprint(),
            shadow.state_fingerprint(),
            "[{what}] live engine differs from the committed statements"
        );
        if i % 3 == 2 {
            live = crash_and_recover(live, &dir, &what);
        }
    }
    drop(crash_and_recover(live, &dir, "final"));
    let _ = std::fs::remove_dir_all(&dir);
    (committed, failed)
}

#[test]
fn injected_errors_roll_back_exactly_as_a_snapshot_restore() {
    for seed in [1, 2, 3] {
        let (committed, failed) = run_seed(seed, false);
        assert!(
            committed > 10 && failed > 10,
            "seed {seed}: {committed} committed, {failed} failed"
        );
    }
}

#[test]
fn injected_panics_roll_back_exactly_as_a_snapshot_restore() {
    for seed in [4, 5, 6] {
        let (committed, failed) = run_seed(seed, true);
        assert!(
            committed > 10 && failed > 10,
            "seed {seed}: {committed} committed, {failed} failed"
        );
    }
}

/// A committed statement, then one whose WAL append fails after it has
/// updated and deleted rows: only the second is undone, in memory and
/// in the log.
#[test]
fn a_failed_commit_undoes_only_its_own_statement() {
    let _guard = Disarm;
    let dir = tmp_dir("directed");
    let (mut e, _) = Engine::open_with(&dir, opts()).unwrap();
    setup(&mut e);
    let s = Session::new("11");
    e.execute(
        &s,
        "insert into grades values ('11', 'c5', 55), ('11', 'c6', 66)",
    )
    .unwrap();
    let after_first = snapshots(&e);
    let (fp, version) = (e.state_fingerprint(), e.data_version());

    for sql in [
        "update grades set grade = grade + 1, course_id = 'c7' where student_id = '11' and course_id = 'c5'",
        "delete from grades where student_id = '11' and grade >= 50",
        "insert into grades values ('11', 'c7', 1), ('11', 'c3', 2)",
    ] {
        faults::arm("wal::append", Fault::ErrorOnNth(1));
        let err = e.execute(&s, sql).unwrap_err();
        faults::disarm_all();
        assert!(matches!(err, Error::Internal(_)), "{sql}: {err:?}");
        assert_rolled_back(&e, &after_first, &fp, version, sql);
    }
    let grades = e.database().table(&Ident::new("grades")).unwrap();
    assert!(grades.contains_key(&[0, 1], &["11".into(), "c5".into()]));
    assert!(grades.contains_key(&[0, 1], &["11".into(), "c6".into()]));

    let e = crash_and_recover(e, &dir, "directed");
    assert_eq!(e.data_version(), version);
    drop(e);
    let _ = std::fs::remove_dir_all(&dir);
}
