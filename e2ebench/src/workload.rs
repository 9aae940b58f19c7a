//! The four workloads: their sizes, set-up, generated request streams
//! and the expected outcome of every generated request.

use fgac_core::{Engine, SharedEngine, Verdict};
use fgac_server::{AdminOp, Request};
use fgac_types::{Ident, Result};
use fgac_workload::querygen::{synthetic_view_family, university_mix};
use fgac_workload::{datagen, University, UniversityConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmReads,
    ColdAdmission,
    WriteMix,
    PolicyChurn,
}

pub const ALL: [Workload; 4] = [
    Workload::WarmReads,
    Workload::ColdAdmission,
    Workload::WriteMix,
    Workload::PolicyChurn,
];

/// Full size for measurement runs; small for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

/// Every size knob of a workload, printed in the report header.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub students: usize,
    pub courses: usize,
    /// Authorization views the `student` role holds.
    pub granted_views: usize,
    /// Distinct principals issuing user-session requests.
    pub principals: usize,
    /// One request in `write_every` is a write (0: read-only).
    pub write_every: usize,
    /// One policy change on the admin connection per this many
    /// completed reads (0: none).
    pub churn_every: u64,
    /// Requests per client session (one connection per session).
    pub session_ops: usize,
}

impl Sizes {
    pub fn describe(&self) -> String {
        format!(
            "students={} courses={} granted_views={} principals={} write_share={} churn_every={} session_ops={}",
            self.students,
            self.courses,
            self.granted_views,
            self.principals,
            if self.write_every == 0 {
                "0".to_string()
            } else {
                format!("1/{}", self.write_every)
            },
            if self.churn_every == 0 {
                "0".to_string()
            } else {
                format!("1/{}_reads", self.churn_every)
            },
            self.session_ops,
        )
    }
}

/// The paper's four student-role views (granted by `University::build`).
const PAPER_STUDENT_VIEWS: usize = 4;
/// Row-restricted band views added on `cold_admission`.
const BAND_VIEWS: usize = 8;
/// The view `policy_churn` revokes and re-grants; no request reads it.
pub const CHURN_VIEW: &str = "feesstatus";
/// Admin principal of the server (its `ServerConfig` default).
pub const ADMIN: &str = "admin";

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmReads => "warm_reads",
            Workload::ColdAdmission => "cold_admission",
            Workload::WriteMix => "write_mix",
            Workload::PolicyChurn => "policy_churn",
        }
    }

    pub fn sizes(self, scale: Scale) -> Sizes {
        let small = scale == Scale::Small;
        let (big, little) = if small { (200, 100) } else { (10_000, 1_000) };
        match self {
            Workload::WarmReads => Sizes {
                students: big,
                courses: if small { 20 } else { 200 },
                granted_views: PAPER_STUDENT_VIEWS,
                principals: if small { 4 } else { 16 },
                write_every: 0,
                churn_every: 0,
                session_ops: 36,
            },
            Workload::ColdAdmission => Sizes {
                students: little,
                courses: if small { 20 } else { 200 },
                granted_views: PAPER_STUDENT_VIEWS + BAND_VIEWS + 1,
                principals: little,
                write_every: 0,
                churn_every: 0,
                session_ops: TEMPLATES_COLD,
            },
            Workload::WriteMix => Sizes {
                students: big,
                courses: if small { 20 } else { 200 },
                granted_views: PAPER_STUDENT_VIEWS,
                principals: if small { 8 } else { 64 },
                write_every: 20,
                churn_every: 0,
                session_ops: 40,
            },
            Workload::PolicyChurn => Sizes {
                students: little,
                courses: if small { 20 } else { 200 },
                granted_views: PAPER_STUDENT_VIEWS + 1,
                principals: if small { 4 } else { 16 },
                write_every: 0,
                churn_every: 64,
                session_ops: 36,
            },
        }
    }

    pub fn is_durable(self) -> bool {
        self == Workload::WriteMix
    }

    pub fn primed(self) -> bool {
        self != Workload::ColdAdmission
    }
}

/// The nine `university_mix` templates plus the catalog lookup.
const TEMPLATES_COLD: usize = 10;

/// What kind of operation a request is, for the per-kind metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
    PolicyChange,
}

/// The outcome a request must produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// Accepted, with exactly this many result rows.
    Rows(usize),
    /// Rejected by the validity check.
    Denied,
    /// DML affecting exactly this many tuples.
    Affected(u64),
    /// Admin operation applied.
    Applied,
}

#[derive(Debug, Clone)]
pub struct Op {
    pub kind: Kind,
    pub request: Request,
    pub expect: Expect,
}

impl Op {
    pub fn sql(&self) -> Option<&str> {
        match &self.request {
            Request::Query { sql, .. } => Some(sql),
            _ => None,
        }
    }
}

/// One client session: a connection opened as `principal` that sends
/// `ops` in order.
#[derive(Debug, Clone)]
pub struct SessionPlan {
    pub principal: String,
    pub ops: Vec<Op>,
}

/// Ground truth from the generated data, for the oracle.
#[derive(Debug, Default)]
pub struct Truth {
    /// Student → grades of the student's graded registrations.
    grades: HashMap<String, Vec<i64>>,
    /// Course → number of graded rows.
    course_rows: HashMap<String, usize>,
    /// Student → registered courses at set-up.
    registered: HashMap<String, Vec<String>>,
    courses: usize,
}

impl Truth {
    fn new(uni: &University) -> Truth {
        let mut t = Truth {
            courses: uni.config.courses,
            ..Truth::default()
        };
        for (s, c, g) in &uni.graded {
            t.grades.entry(s.clone()).or_default().push(*g);
            *t.course_rows.entry(c.clone()).or_default() += 1;
        }
        for (s, c) in &uni.registrations {
            t.registered.entry(s.clone()).or_default().push(c.clone());
        }
        t
    }

    fn own_rows(&self, student: &str) -> usize {
        self.grades.get(student).map_or(0, Vec::len)
    }

    fn own_rows_above(&self, student: &str, floor: i64) -> usize {
        self.grades
            .get(student)
            .map_or(0, |g| g.iter().filter(|&&x| x > floor).count())
    }

    fn course_rows(&self, course: &str) -> usize {
        self.course_rows.get(course).copied().unwrap_or(0)
    }

    fn registered(&self, student: &str) -> &[String] {
        self.registered.get(student).map_or(&[], Vec::as_slice)
    }

    fn unregistered_course(&self, student: &str, rng: &mut StdRng) -> String {
        let regs = self.registered(student);
        loop {
            let c = datagen::course_id(rng.gen_range(0..self.courses));
            if !regs.contains(&c) {
                return c;
            }
        }
    }
}

/// The nine paper-mix requests of `student`, each with its expected
/// outcome: accepts carry the row count the generated data implies.
fn mix_ops(truth: &Truth, student: &str, reg: &str, unreg: &str) -> Vec<Op> {
    university_mix(student, reg, unreg)
        .into_iter()
        .map(|q| {
            let expect = if q.expected == Verdict::Invalid {
                Expect::Denied
            } else {
                Expect::Rows(match q.label {
                    "own grades (U1)" | "own grades projection (U2)" => truth.own_rows(student),
                    "own good grades (subsumption)" => truth.own_rows_above(student, 80),
                    "registered course grades (Example 4.4, C3)" => truth.course_rows(reg),
                    // Aggregates without GROUP BY: one row.
                    _ => 1,
                })
            };
            read(q.sql, expect)
        })
        .collect()
}

fn read(sql: String, expect: Expect) -> Op {
    Op {
        kind: Kind::Read,
        request: Request::Query {
            sql,
            deadline_ms: None,
        },
        expect,
    }
}

fn write(sql: String) -> Op {
    Op {
        kind: Kind::Write,
        request: Request::Query {
            sql,
            deadline_ms: None,
        },
        expect: Expect::Affected(1),
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Picks `k` distinct students of `0..students`.
fn pick_students(students: usize, k: usize, rng: &mut StdRng) -> Vec<String> {
    datagen::distinct_indexes(rng, students, k.min(students))
        .into_iter()
        .map(datagen::student_id)
        .collect()
}

/// A fully set-up workload: the shared engine, ground truth and the
/// principals whose sessions the load generator drives.
pub struct Fixture {
    pub workload: Workload,
    pub sizes: Sizes,
    pub engine: SharedEngine,
    pub truth: Arc<Truth>,
    /// Session principals; connection `c` drives those at `i % conns == c`.
    pub principals: Vec<String>,
    /// Durable directory (`write_mix`), removed on drop.
    pub dir: Option<PathBuf>,
    pub seed: u64,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Builds data and policy (and the WAL on `write_mix`), then primes the
/// working set where the workload is meant to run warm. Starting the
/// server is the caller's part of set-up.
pub fn setup(workload: Workload, scale: Scale, seed: u64, work_dir: &Path) -> Result<Fixture> {
    let sizes = workload.sizes(scale);
    let uni = fgac_workload::university::build(UniversityConfig {
        students: sizes.students,
        courses: sizes.courses,
        seed,
        ..UniversityConfig::default()
    })?;
    let truth = Arc::new(Truth::new(&uni));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E55_1045);
    let mut engine = uni.engine;
    // In seed order; on `cold_admission` that is every student, each
    // visited once, so no (principal, query) pair repeats in a run.
    let principals = pick_students(sizes.students, sizes.principals, &mut rng);
    let mut dir = None;
    match workload {
        Workload::WarmReads => {}
        Workload::ColdAdmission => {
            for (name, body) in synthetic_view_family(BAND_VIEWS) {
                engine.admin_script(&body)?;
                engine.grant_view("student", &name)?;
            }
            engine.admin_script(
                "create authorization view coursecatalog as select course_id, name from courses",
            )?;
            engine.grant_view("student", "coursecatalog")?;
        }
        Workload::WriteMix => {
            for p in &principals {
                engine.grant_update_sql(
                    p,
                    "authorize insert on registered where student_id = $user_id",
                )?;
                engine.grant_update_sql(
                    p,
                    "authorize delete on registered where student_id = $user_id",
                )?;
            }
            let path = work_dir.join(format!(
                "wal-{}-{}-{}",
                workload.name(),
                std::process::id(),
                next_dir_id()
            ));
            let _ = std::fs::remove_dir_all(&path);
            engine = copy_into_durable(&engine, &path)?;
            dir = Some(path);
        }
        Workload::PolicyChurn => {
            engine.admin_script(&format!(
                "create authorization view {CHURN_VIEW} as \
                 select * from feespaid where student_id = $user_id"
            ))?;
            engine.grant_view("student", CHURN_VIEW)?;
        }
    }
    let fixture = Fixture {
        workload,
        sizes,
        engine: SharedEngine::new(engine),
        truth,
        principals,
        dir,
        seed,
    };
    if workload.primed() {
        prime(&fixture);
    }
    Ok(fixture)
}

fn next_dir_id() -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// The `write_mix` durability level: the default (one buffered WAL
/// write per commit, no fsync) with snapshots off.
pub const DURABILITY: fgac_core::DurabilityOptions = fgac_core::DurabilityOptions {
    sync_on_commit: false,
    snapshot_every: 0,
};

/// Replays an in-memory engine's tables and grants into a fresh durable
/// engine at `dir`, opened at [`DURABILITY`].
fn copy_into_durable(src: &Engine, dir: &Path) -> Result<Engine> {
    let (mut e, _) = Engine::open_with(dir, DURABILITY)?;
    e.admin_script(fgac_workload::university::UNIVERSITY_DDL)?;
    let db = src.database();
    for name in ["students", "courses", "registered", "grades", "feespaid"] {
        let t = Ident::new(name);
        let rows = db.table_required(&t)?.rows().to_vec();
        e.admin_load(&t, rows)?;
    }
    let g = src.grants();
    for (p, views) in g.view_grants() {
        for v in views {
            e.grant_view(p, v.as_str())?;
        }
    }
    for (p, cs) in g.constraint_grants() {
        for c in cs {
            e.grant_constraint(p, c.as_str())?;
        }
    }
    for (p, auths) in g.update_grants() {
        for a in auths {
            let sql = fgac_sql::print_statement(&fgac_sql::Statement::Authorize(a.clone()));
            e.grant_update_sql(p, &sql)?;
        }
    }
    for (u, roles) in g.role_memberships() {
        for r in roles {
            e.add_role(u, r)?;
        }
    }
    Ok(e)
}

/// Runs every read of the working set once in-process so the timed
/// window starts with warm plan, validity and compiled caches.
fn prime(f: &Fixture) {
    for stream in streams(f, 1) {
        for plan in stream.working_set() {
            let session = fgac_core::Session::new(plan.principal.clone());
            for sql in plan.ops.iter().filter_map(Op::sql) {
                // Denials are expected outcomes here, not set-up errors.
                let _ = f.engine.execute(&session, sql);
            }
        }
    }
}

/// Per-principal fixed choices (registered and unregistered courses),
/// drawn once so every session of a principal repeats the same texts.
#[derive(Debug, Clone)]
struct PrincipalMix {
    student: String,
    ops: Vec<Op>,
}

/// One connection's request stream.
pub struct Stream {
    workload: Workload,
    sizes: Sizes,
    truth: Arc<Truth>,
    mixes: Vec<PrincipalMix>,
    next: usize,
    rng: StdRng,
    /// `write_mix`: registrations this stream inserted and has not yet
    /// deleted, per student.
    inserted: HashMap<String, Vec<String>>,
    ops_sent: u64,
}

/// Splits the fixture's principals over `conns` request streams.
pub fn streams(f: &Fixture, conns: usize) -> Vec<Stream> {
    let mut rng = StdRng::seed_from_u64(f.seed ^ 0xC0FF_EE00);
    let mixes: Vec<PrincipalMix> = f
        .principals
        .iter()
        .map(|s| principal_mix(f.workload, &f.truth, s, &mut rng))
        .collect();
    (0..conns)
        .map(|c| Stream {
            workload: f.workload,
            sizes: f.sizes,
            truth: Arc::clone(&f.truth),
            mixes: mixes
                .iter()
                .enumerate()
                .filter(|(i, _)| i % conns == c)
                .map(|(_, m)| m.clone())
                .collect(),
            next: 0,
            rng: StdRng::seed_from_u64(f.seed.wrapping_mul(31).wrapping_add(c as u64 + 1)),
            inserted: HashMap::new(),
            ops_sent: 0,
        })
        .collect()
}

fn principal_mix(w: Workload, truth: &Truth, student: &str, rng: &mut StdRng) -> PrincipalMix {
    let regs = truth.registered(student).to_vec();
    let reg = regs[rng.gen_range(0..regs.len())].clone();
    let unreg = truth.unregistered_course(student, rng);
    let ops = match w {
        Workload::WarmReads | Workload::PolicyChurn => mix_ops(truth, student, &reg, &unreg),
        Workload::ColdAdmission => {
            let mut ops = mix_ops(truth, student, &reg, &unreg);
            let course = datagen::course_id(rng.gen_range(0..truth.courses));
            ops.push(read(
                format!("select name from courses where course_id = '{course}'"),
                Expect::Rows(1),
            ));
            ops
        }
        Workload::WriteMix => {
            // Own-grades reads plus C3 reads of two registered courses.
            let mix = mix_ops(truth, student, &reg, &unreg);
            let mut ops = vec![mix[0].clone(), mix[5].clone()];
            if let Some(other) = regs.iter().find(|c| **c != reg) {
                ops.push(mix_ops(truth, student, other, &unreg)[5].clone());
            }
            ops
        }
    };
    PrincipalMix {
        student: student.to_string(),
        ops,
    }
}

impl Stream {
    /// The next session, or `None` once a `cold_admission` stream has
    /// sent every (principal, query) pair it owns.
    pub fn next_session(&mut self) -> Option<SessionPlan> {
        if self.mixes.is_empty() {
            return None;
        }
        if self.workload == Workload::ColdAdmission && self.next >= self.mixes.len() {
            return None;
        }
        let mix = self.mixes[self.next % self.mixes.len()].clone();
        self.next += 1;
        let mut ops = Vec::with_capacity(self.sizes.session_ops);
        match self.workload {
            Workload::ColdAdmission => {
                ops = mix.ops;
                shuffle(&mut ops, &mut self.rng);
            }
            _ => {
                while ops.len() < self.sizes.session_ops {
                    self.ops_sent += 1;
                    let write_due = self.sizes.write_every > 0
                        && self.ops_sent.is_multiple_of(self.sizes.write_every as u64);
                    if write_due {
                        ops.push(self.write_op(&mix.student));
                    } else {
                        let i = self.rng.gen_range(0..mix.ops.len());
                        ops.push(mix.ops[i].clone());
                    }
                }
            }
        }
        Some(SessionPlan {
            principal: mix.student,
            ops,
        })
    }

    /// Every principal's reads once (priming and probe passes).
    pub fn working_set(&self) -> Vec<SessionPlan> {
        self.mixes
            .iter()
            .map(|m| SessionPlan {
                principal: m.student.clone(),
                ops: m.ops.clone(),
            })
            .collect()
    }

    /// Up to `n` reads whose texts no session of this stream sends:
    /// course averages (public through AvgGrades) of courses outside
    /// each principal's mix, so admission starts at the parser.
    pub fn fresh_reads(&mut self, n: usize) -> Vec<(String, Op)> {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let mix = &self.mixes[i % self.mixes.len()];
            let course = datagen::course_id(self.rng.gen_range(0..self.truth.courses));
            let sql = format!("select avg(grade) from grades where course_id = '{course}'");
            if mix.ops.iter().all(|o| o.sql() != Some(sql.as_str())) {
                out.push((mix.student.clone(), read(sql, Expect::Rows(1))));
            }
        }
        out
    }

    /// Alternates per student: insert a registration for a course the
    /// student is not in, then delete it, so table size stays constant.
    pub fn write_op(&mut self, student: &str) -> Op {
        let pending = self.inserted.entry(student.to_string()).or_default();
        if let Some(course) = pending.pop() {
            return write(format!(
                "delete from registered where student_id = '{student}' and course_id = '{course}'"
            ));
        }
        let course = self.truth.unregistered_course(student, &mut self.rng);
        pending.push(course.clone());
        write(format!(
            "insert into registered values ('{student}', '{course}')"
        ))
    }
}

/// The admin stream of `policy_churn`: revoke, then re-grant, the
/// unused view from the student role, once per `every` completed reads.
/// Pacing by reads rather than by the clock keeps the share of reads
/// that meet a freshly swept cache fixed; under a wall-clock rate a
/// slower machine would also face more churn per read.
pub struct ChurnStream {
    pub every: u64,
    granted: bool,
}

impl ChurnStream {
    pub fn new(sizes: &Sizes) -> Option<ChurnStream> {
        (sizes.churn_every > 0).then_some(ChurnStream {
            every: sizes.churn_every,
            granted: true,
        })
    }

    pub fn next_op(&mut self) -> Op {
        let (principal, view) = ("student".to_string(), CHURN_VIEW.to_string());
        let op = if self.granted {
            AdminOp::RevokeView { principal, view }
        } else {
            AdminOp::GrantView { principal, view }
        };
        self.granted = !self.granted;
        Op {
            kind: Kind::PolicyChange,
            request: Request::Admin(op),
            expect: Expect::Applied,
        }
    }
}
