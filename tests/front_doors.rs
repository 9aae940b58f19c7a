//! Every front door admits and runs a statement the same way.
//!
//! `Engine::execute`, `Engine::execute_at`, `SharedEngine::execute` and
//! `Engine::execute_prepared` share one admit step and one read runner
//! / writer. These tests pin that: one statement gives the same rows,
//! or the same error variant and message, whichever door it enters by
//! — the security semantics may not depend on how a request arrives.

use fgac::prelude::*;
use fgac_core::SharedEngine;
use std::sync::mpsc;
use std::time::Duration;

/// The paper's schema; user 11 holds MyGrades, MyRegistrations and
/// CoStudentGrades and may register themself for courses.
fn engine() -> Engine {
    let mut e = Engine::new();
    e.admin_script(
        "
        create table students (
            student_id varchar not null, name varchar not null,
            type varchar not null, primary key (student_id));
        create table registered (
            student_id varchar not null, course_id varchar not null,
            primary key (student_id, course_id));
        create table grades (
            student_id varchar not null, course_id varchar not null,
            grade int, primary key (student_id, course_id));

        create authorization view MyGrades as
            select * from grades where student_id = $user_id;
        create authorization view MyRegistrations as
            select * from registered where student_id = $user_id;
        create authorization view CoStudentGrades as
            select grades.* from grades, registered
            where registered.student_id = $user_id
              and grades.course_id = registered.course_id;

        insert into students values
            ('11', 'ann', 'FullTime'), ('12', 'bob', 'PartTime');
        insert into registered values ('11', 'cs101'), ('12', 'cs101');
        insert into grades values
            ('11', 'cs101', 90), ('12', 'cs101', 70), ('12', 'cs202', 80);
        ",
    )
    .unwrap();
    for v in ["mygrades", "myregistrations", "costudentgrades"] {
        e.grant_view("11", v).unwrap();
    }
    e.grant_update_sql(
        "11",
        "authorize insert on registered where student_id = $user_id",
    )
    .unwrap();
    e
}

/// A response or error, rendered with its variant and message.
fn outcome(r: Result<EngineResponse>) -> String {
    format!("{r:?}")
}

/// The grid: one of each statement class the user path distinguishes.
const GRID: &[&str] = &[
    // Accepted (unconditional) and denied queries.
    "select grade from grades where student_id = '11'",
    "select * from grades",
    // Conditionally valid (C3): 11 is registered in cs101.
    "select * from grades where course_id = 'cs101'",
    "explain authorization select * from grades where course_id = 'cs101'",
    "analyze policy for 11",
    "analyze policy for 12",
    "analyze flow",
    // Authorized and unauthorized DML.
    "insert into registered values ('11', 'cs202')",
    "insert into grades values ('11', 'cs202', 100)",
    "create table t (a int)",
    // Parse error and bind error.
    "selec * from grades",
    "select * from nosuchtable",
];

#[test]
fn every_front_door_gives_the_same_outcome() {
    let s = Session::new("11");
    for sql in GRID {
        let reference = outcome(engine().execute(&s, sql));
        assert_eq!(
            outcome(engine().execute_at(&s, sql, None)),
            reference,
            "execute_at: {sql}"
        );
        let shared = SharedEngine::new(engine());
        assert_eq!(
            outcome(shared.execute(&s, sql)),
            reference,
            "SharedEngine: {sql}"
        );
        let mut e = engine();
        if let Ok(p) = e.prepare(sql) {
            assert_eq!(
                outcome(e.execute_prepared(&s, &p)),
                reference,
                "prepared: {sql}"
            );
        }
        if sql.starts_with("select") {
            let check = engine().check(&s, sql);
            match (&check, engine().execute(&s, sql)) {
                (Ok(report), Ok(_)) => assert!(report.is_valid(), "check: {sql}"),
                (Ok(report), Err(e)) => {
                    assert!(!report.is_valid(), "check: {sql}");
                    assert!(e.is_unauthorized(), "check: {sql}: {e:?}");
                }
                (Err(c), Err(e)) => assert_eq!(format!("{c:?}"), format!("{e:?}"), "check: {sql}"),
                (Err(c), Ok(_)) => panic!("check errs but execute accepts: {sql}: {c:?}"),
            }
        }
    }
}

#[test]
fn the_grid_covers_rows_denials_and_errors() {
    // Guards the equivalence test against a grid that silently
    // degenerates (say, every statement failing to parse).
    let s = Session::new("11");
    let outcomes: Vec<_> = GRID.iter().map(|sql| engine().execute(&s, sql)).collect();
    assert_eq!(outcomes[0].as_ref().unwrap().rows().unwrap().rows.len(), 1);
    assert!(outcomes[1].as_ref().unwrap_err().is_unauthorized());
    assert_eq!(outcomes[2].as_ref().unwrap().rows().unwrap().rows.len(), 2);
    let explain = outcomes[3].as_ref().unwrap().rows().unwrap();
    assert_eq!(explain.rows[0].get(2), &Value::Str("conditional".into()));
    assert!(outcomes[4].is_ok());
    assert!(outcomes[5].as_ref().unwrap_err().is_unauthorized());
    assert!(outcomes[6].is_ok());
    assert_eq!(outcomes[7].as_ref().unwrap().affected(), Some(1));
    assert!(outcomes[8].as_ref().unwrap_err().is_unauthorized());
    match &outcomes[9] {
        Err(Error::Unauthorized(m)) => assert_eq!(m, "DDL requires the admin interface"),
        other => panic!("DDL: {other:?}"),
    }
    assert!(
        matches!(outcomes[10], Err(Error::Parse(_))),
        "{:?}",
        outcomes[10]
    );
    assert!(outcomes[11].is_err());
}

#[test]
fn shared_dml_is_parsed_and_looked_up_once() {
    let shared = SharedEngine::new(engine());
    let s = Session::new("11");
    let (hits, misses) = shared.with_read(|e| e.plan_cache().stats());
    let n = shared
        .execute(&s, "insert into registered values ('11', 'cs202')")
        .unwrap();
    assert_eq!(n.affected(), Some(1));
    assert_eq!(
        shared.with_read(|e| e.plan_cache().stats()),
        (hits, misses + 1),
        "one INSERT is one plan-cache miss"
    );
}

#[test]
fn shared_ddl_is_rejected_without_the_write_lock() {
    let shared = SharedEngine::new(engine());
    let s = Session::new("11");
    let (version, epoch) = (shared.data_version(), shared.policy_epoch());
    // Hold a read guard while another thread sends DDL: rejecting it
    // must not wait for the write lock.
    let (tx, rx) = mpsc::channel();
    let (rejected, sender) = shared.with_read(|_| {
        let (shared, s) = (shared.clone(), s.clone());
        let sender =
            std::thread::spawn(move || tx.send(shared.execute(&s, "create table t (a int)")));
        (rx.recv_timeout(Duration::from_secs(10)), sender)
    });
    sender.join().unwrap().ok();
    match rejected {
        Ok(Err(Error::Unauthorized(m))) => assert_eq!(m, "DDL requires the admin interface"),
        other => panic!("expected the DDL rejection under a held read guard, got {other:?}"),
    }
    assert_eq!(shared.data_version(), version);
    assert_eq!(shared.policy_epoch(), epoch);
}
