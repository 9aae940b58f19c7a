//! Pins the cold prover's observable output. Every check here records
//! its verdict, rule trace, DAG size, views considered and C3 probe
//! count; `tests/data/prover_equivalence.txt` holds the expected lines.
//! A change to how the prover reaches its fixpoint (fewer expansion
//! passes, semi-naive strengthening rounds, pruned certificates) must
//! leave every line unchanged.
//!
//! The inputs are the e2ebench `cold_admission` policy (the paper's four
//! student views, eight grade-band views and a course catalog view)
//! under `university_mix` for several students, and every shipped
//! corpus in `examples/policies` under a generated query set.
//!
//! Every accept's certificate must also verify and hold only the goal's
//! derivation: each non-goal step is a premise of a later step.

use fgac::analyze::{check_certificate, CheckerOptions};
use fgac::core::nontruman::c3_probe_count;
use fgac::prelude::*;
use fgac::workload::querygen::{synthetic_view_family, university_mix};
use fgac::workload::{datagen, UniversityConfig};
use std::collections::BTreeSet;
use std::path::PathBuf;

const EXPECTED: &str = include_str!("data/prover_equivalence.txt");

/// One line per check: source, principal, SQL, then the pinned fields.
/// Also verifies each accept's certificate.
fn record(out: &mut Vec<String>, source: &str, engine: &Engine, principal: &str, sql: &str) {
    let session = Session::new(principal);
    let probes_before = c3_probe_count();
    let line = match Validator::new(engine.database(), engine.grants()).check_sql(&session, sql) {
        Ok(report) => {
            let probes = c3_probe_count() - probes_before;
            if let Some(mut cert) = report.certificate.clone() {
                let policy = engine.certificate_policy();
                cert.policy_epoch = policy.policy_epoch;
                let diags = check_certificate(&cert, &policy, &CheckerOptions::default());
                assert!(diags.is_empty(), "{source} {principal} `{sql}`: {diags:?}");
                assert_no_dead_steps(&cert, &format!("{source} {principal} `{sql}`"));
            }
            format!(
                "{:?}\t{}/{}\t{}\t{}\t{}",
                report.verdict,
                report.dag_stats.eq_nodes,
                report.dag_stats.op_nodes,
                report.views_considered,
                probes,
                report.rules.join(" | ")
            )
        }
        Err(e) => format!("error: {e}"),
    };
    out.push(format!("{source}\t{principal}\t{sql}\t{line}").replace('\n', " "));
}

/// Each non-goal step is cited as a premise by some later step.
fn assert_no_dead_steps(cert: &Certificate, what: &str) {
    let n = cert.steps.len();
    let mut cited = vec![false; n];
    for (i, step) in cert.steps.iter().enumerate() {
        for &p in &step.premises {
            assert!(p < i, "{what}: step {i} cites later step {p}");
            cited[p] = true;
        }
    }
    for (i, used) in cited.iter().enumerate().take(n.saturating_sub(1)) {
        assert!(used, "{what}: step {i} is not on the goal's derivation");
    }
}

/// The `cold_admission` policy over a small university, with every
/// template of one cold session for each of several students.
fn cold_admission(out: &mut Vec<String>) {
    let config = UniversityConfig {
        students: 40,
        courses: 12,
        seed: 1,
        ..UniversityConfig::default()
    };
    let uni = fgac::workload::university::build(config).unwrap();
    let mut engine = uni.engine;
    for (name, body) in synthetic_view_family(8) {
        engine.admin_script(&body).unwrap();
        engine.grant_view("student", &name).unwrap();
    }
    engine
        .admin_script(
            "create authorization view coursecatalog as select course_id, name from courses",
        )
        .unwrap();
    engine.grant_view("student", "coursecatalog").unwrap();

    for i in [0, 1, 7, 18, 33] {
        let student = datagen::student_id(i);
        let regs: Vec<&String> = uni
            .registrations
            .iter()
            .filter(|(s, _)| *s == student)
            .map(|(_, c)| c)
            .collect();
        let reg = regs[i % regs.len()].clone();
        let unreg = (0..config.courses)
            .map(datagen::course_id)
            .find(|c| !regs.contains(&c))
            .unwrap();
        let mut sqls: Vec<String> = university_mix(&student, &reg, &unreg)
            .into_iter()
            .map(|q| q.sql)
            .collect();
        sqls.push(format!(
            "select name from courses where course_id = '{}'",
            datagen::course_id(i % config.courses)
        ));
        for sql in sqls {
            record(out, "cold_admission", &engine, &student, &sql);
        }
    }
}

/// The statements of a `.sql` file, comments stripped.
fn statements(text: &str) -> Vec<String> {
    let body: String = text
        .lines()
        .map(|l| l.split("--").next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join(" ");
    body.split(';')
        .map(|s| s.split_whitespace().collect::<Vec<_>>().join(" "))
        .filter(|s| !s.is_empty())
        .collect()
}

/// Every shipped policy corpus: each principal it names checks a full
/// scan of every table, the body of every authorization view, and the
/// corpus's certification workload when one exists.
fn corpora(out: &mut Vec<String>) {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples");
    for corpus in [
        "university",
        "bank",
        "healthcare",
        "defective-university",
        "defective-healthcare",
    ] {
        let policy = std::fs::read_to_string(root.join(format!("policies/{corpus}.sql"))).unwrap();
        let mut engine = Engine::new();
        engine.admin_script(&policy).unwrap();

        let mut sqls: Vec<String> = engine
            .database()
            .catalog()
            .tables()
            .map(|t| format!("select * from {}", t.name))
            .collect();
        sqls.sort();
        let mut views: Vec<String> = engine
            .database()
            .catalog()
            .views()
            .filter(|v| v.authorization)
            .map(|v| fgac::sql::printer::print_query(&v.query))
            .collect();
        views.sort();
        sqls.extend(views);
        if let Ok(workload) = std::fs::read_to_string(root.join(format!("workloads/{corpus}.sql")))
        {
            sqls.extend(statements(&workload));
        }

        let grants = engine.grants();
        let principals: BTreeSet<String> = grants
            .view_grants()
            .keys()
            .chain(grants.constraint_grants().keys())
            .chain(grants.role_memberships().keys())
            .cloned()
            .collect();
        for principal in &principals {
            for sql in &sqls {
                record(out, corpus, &engine, principal, sql);
            }
        }
    }
}

#[test]
fn cold_checks_match_the_pinned_derivations() {
    let mut actual = Vec::new();
    cold_admission(&mut actual);
    corpora(&mut actual);
    let expected: Vec<&str> = EXPECTED.lines().collect();
    for (i, (a, e)) in actual.iter().zip(&expected).enumerate() {
        assert_eq!(a, e, "line {} of tests/data/prover_equivalence.txt", i + 1);
    }
    assert_eq!(actual.len(), expected.len(), "number of pinned checks");
}
