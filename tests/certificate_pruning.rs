//! A cached accept's certificate holds only the goal's derivation, so
//! warm revalidation after a revoke depends on exactly the views that
//! derivation uses: revoking any other view leaves the accept served
//! warm, revoking one it uses forces a cold re-proof.

use fgac::prelude::*;

/// User 11 holds MyGrades, MyRegistrations and CoStudentGrades.
fn engine() -> Engine {
    let mut e = Engine::new();
    e.admin_script(
        "
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

        insert into registered values ('11', 'cs101'), ('12', 'cs101');
        insert into grades values ('11', 'cs101', 90), ('12', 'cs101', 70);
        ",
    )
    .unwrap();
    for v in ["mygrades", "myregistrations", "costudentgrades"] {
        e.grant_view("11", v).unwrap();
    }
    e
}

const OWN_GRADES: &str = "select grade from grades where student_id = '11'";

fn warm(report: &ValidityReport) -> bool {
    report
        .rules
        .iter()
        .any(|r| r.contains("certificate revalidated"))
}

#[test]
fn certificate_names_only_the_views_its_derivation_uses() {
    let e = engine();
    let report = e.certify(&Session::new("11"), OWN_GRADES).unwrap();
    let cert = report.certificate.unwrap();
    let views: Vec<String> = cert
        .steps
        .iter()
        .filter_map(|s| s.view.as_ref().map(|v| v.to_string()))
        .collect();
    assert_eq!(views, vec!["mygrades"], "{:#?}", cert.steps);
}

#[test]
fn revoking_an_unused_view_keeps_the_accept_warm() {
    let mut e = engine();
    let s = Session::new("11");
    assert!(e.check(&s, OWN_GRADES).unwrap().is_valid());

    e.revoke_view("11", "myregistrations").unwrap();
    let report = e.check(&s, OWN_GRADES).unwrap();
    assert!(report.is_valid());
    assert!(
        warm(&report),
        "expected warm revalidation: {:?}",
        report.rules
    );
    let stats = e.cache().snapshot();
    assert_eq!((stats.revalidation_hits, stats.revalidation_misses), (1, 0));
}

#[test]
fn revoking_a_used_view_forces_a_cold_reproof() {
    let mut e = engine();
    let s = Session::new("11");
    assert!(e.check(&s, OWN_GRADES).unwrap().is_valid());

    e.revoke_view("11", "mygrades").unwrap();
    let report = e.check(&s, OWN_GRADES).unwrap();
    assert!(
        !warm(&report),
        "the derivation used mygrades: {:?}",
        report.rules
    );
    assert!(!report
        .rules
        .iter()
        .any(|r| r.contains("validity cache hit")));
    let stats = e.cache().snapshot();
    assert_eq!((stats.revalidation_hits, stats.revalidation_misses), (0, 1));
}
