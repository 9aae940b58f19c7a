//! The traced run: per-layer metrics from an in-process replay.
//!
//! One set-up, then three phases against the same engine:
//!
//! 1. **Server split.** The workload's request stream alternates
//!    between the loopback server and in-process
//!    [`fgac_core::SharedEngine::execute`]: both halves sample the same
//!    distribution, so the difference of their medians is the server's
//!    share of a request.
//! 2. **Replay.** The stream continues in-process, one request at a
//!    time, through the public call of each layer in the order the
//!    engine makes them, taking the same path the engine would: plan
//!    cache hit or parse/bind/normalize, validity-cache hit,
//!    certificate revalidation or cold proof (compiled fast path, then
//!    the Non-Truman validator), execution. Writes replay the DML
//!    layers (snapshot, authorize-and-apply, WAL append) on a copy of
//!    the database with a scratch WAL, and are then applied to the real
//!    engine outside the trace so later reads see the new state. Each
//!    layer call is a span: request id, name, start, end, parent.
//! 3. **Probes.** Layers the workload's own requests never reach (no
//!    writes, no policy changes, no cold proofs) are measured by a few
//!    probe requests at the end, marked as probes. A metric comes from
//!    the replay when the replay produced samples for it and from the
//!    probes otherwise; the report says which.
//!
//! Spans stay in memory and are written to
//! `.bench_work/traces/<workload>-seed<seed>.spans.jsonl` at the end.

use crate::drive::{self, judge, judge_engine, Verdict};
use crate::report::{Metric, Report};
use crate::stats::Samples;
use crate::workload::{self, ChurnStream, Expect, Kind, Op, Scale, Stream};
use crate::{Args, Failure};
use fgac_core::nontruman::c3_probe_count;
use fgac_core::{
    compiled, CacheOutcome, CachedPlan, CheckOptions, Engine, EngineResponse, Grants, Session,
    SharedEngine, UpdateAuthorizer, Validator, ValidityCache, Verdict as Validity,
};
use fgac_server::frame::{decode_header, encode_frame, verify_payload, HEADER_LEN};
use fgac_server::{AdminOp, Request, Response};
use fgac_sql::Statement;
use fgac_storage::Database;
use fgac_types::{Error, Result};
use fgac_wal::{WalRecord, WalStore};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shares of `--seconds` for the server split and the replay; the
/// probes take what they need after that.
const SPLIT_SHARE: f64 = 0.3;
const REPLAY_SHARE: f64 = 0.6;
/// Probe sizes: write pairs, and reads replayed after each probe change.
const PROBE_WRITE_PAIRS: usize = 8;
const PROBE_READS: usize = 64;
/// Authorization view the probe phase grants and revokes.
const PROBE_VIEW: &str = "probeview";

#[derive(Debug, Clone)]
struct Span {
    req: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    probe: bool,
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    probe: bool,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, req: u32, name: &'static str, parent: Option<u32>) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            req,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            probe: self.probe,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, id: u32) {
        let end = self.now();
        self.spans[id as usize].end_ns = end;
    }

    /// A leaf span around `f`.
    fn leaf<R>(&mut self, req: u32, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
        let id = self.open(req, name, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"req\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"probe\": {}}}",
                s.req, s.name, s.start_ns, s.end_ns, s.probe
            )?;
        }
        out.flush()
    }
}

/// Counts taken at the layer boundaries, kept apart for replay and
/// probe requests.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    plan_lookups: u64,
    plan_hits: u64,
    validity_lookups: u64,
    validity_hits: u64,
    revalidations: u64,
    revalidated: u64,
    checks: u64,
    fastpath_hits: u64,
    compiles: u64,
    views_considered: u64,
    c3_probes: u64,
    dag_eq: u64,
    dag_op: u64,
    result_rows: u64,
    rows_cloned: u64,
    writes: u64,
    wal_bytes: u64,
    table_rows: u64,
    changes: u64,
    invalidated: u64,
}

/// The DML layers on a private copy of the database, with a scratch
/// WAL: the engine's own write path offers no layer-level entry points.
struct DmlStack {
    db: Database,
    grants: Grants,
    wal: WalStore,
    dir: PathBuf,
}

impl Drop for DmlStack {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl DmlStack {
    fn new(e: &Engine, dir: PathBuf) -> Result<DmlStack> {
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = e.database().clone();
        db.set_delta_recording(true);
        Ok(DmlStack {
            db,
            grants: e.grants().clone(),
            wal: WalStore::create(&dir)?,
            dir,
        })
    }
}

struct Replay {
    engine: SharedEngine,
    tracer: Tracer,
    /// `[replay, probe]`.
    counts: [Counts; 2],
    dml: DmlStack,
    next_req: u32,
    requests: u64,
}

impl Replay {
    fn counts(&mut self) -> &mut Counts {
        &mut self.counts[usize::from(self.tracer.probe)]
    }

    fn new_request(&mut self) -> (u32, u32) {
        let req = self.next_req;
        self.next_req += 1;
        if !self.tracer.probe {
            self.requests += 1;
        }
        (req, self.tracer.open(req, "request", None))
    }

    /// The request's trip through the frame codec: client encode,
    /// server header check, payload check and decode.
    fn decode_request(&mut self, req: u32, root: u32, request: &Request) -> Result<()> {
        self.tracer.leaf(req, "server.frame_codec", root, || {
            let (kind, payload) = request.to_frame();
            let (kind, payload) = frame_roundtrip(kind, &payload)?;
            Request::from_frame(kind, &payload).map(|_| ())
        })
    }

    /// The reply's trip: the server turns the result into a response
    /// and frames it, the client checks and decodes it.
    fn encode_reply(&mut self, req: u32, root: u32, outcome: &Outcome) -> Result<()> {
        self.tracer.leaf(req, "server.frame_codec", root, || {
            let (kind, payload) = outcome.response().to_frame();
            let (kind, payload) = frame_roundtrip(kind, &payload)?;
            Response::from_frame(kind, &payload).map(|_| ())
        })
    }

    /// Replays one request and judges its outcome.
    fn request(&mut self, principal: &str, op: &Op) -> Result<Verdict> {
        let (req, root) = self.new_request();
        self.decode_request(req, root, &op.request)?;
        let session = Session::new(principal);
        let outcome = match (&op.kind, &op.request) {
            (Kind::Read, Request::Query { sql, .. }) => {
                let engine = self.engine.clone();
                let parent = self.tracer.open(req, "engine.read", Some(root));
                let r = engine.with_read(|e| self.read(e, req, parent, &session, sql));
                self.tracer.close(parent);
                Outcome::Engine(r)
            }
            (Kind::Write, Request::Query { sql, .. }) => {
                Outcome::Engine(self.write(req, root, &session, sql))
            }
            (Kind::PolicyChange, Request::Admin(admin)) => {
                Outcome::Admin(self.change(req, root, admin))
            }
            _ => return Err(Error::Execution(format!("unexpected replay op {op:?}"))),
        };
        self.encode_reply(req, root, &outcome)?;
        self.tracer.close(root);
        let verdict = judge(op, &outcome.response());
        // Writes reach the real engine after the trace closes, so later
        // reads see their effect (data version, C3 re-proofs).
        if let (Kind::Write, Request::Query { sql, .. }) = (&op.kind, &op.request) {
            let real = judge_engine(op, &self.engine.execute(&session, sql));
            if verdict == Verdict::Correct {
                return Ok(real);
            }
        }
        Ok(verdict)
    }

    /// The engine's read path, layer by layer.
    fn read(
        &mut self,
        e: &Engine,
        req: u32,
        parent: u32,
        session: &Session,
        sql: &str,
    ) -> Result<EngineResponse> {
        let params = session.params();
        let t = &mut self.tracer;
        let hit = t.leaf(req, "plancache.get", parent, || {
            e.plan_cache().get(sql, params)
        });
        let c = &mut self.counts[usize::from(t.probe)];
        c.plan_lookups += 1;
        let plan = match hit {
            Some(p) => {
                c.plan_hits += 1;
                p
            }
            None => {
                let stmt = t.leaf(req, "sql.parse", parent, || fgac_sql::parse_statement(sql))?;
                let Statement::Query(q) = stmt else {
                    return Err(Error::Execution(format!("not a query: {sql}")));
                };
                let catalog = e.database().catalog();
                let bound = t.leaf(req, "algebra.bind", parent, || {
                    fgac_algebra::bind_query(catalog, &q, params)
                })?;
                let normalized = t.leaf(req, "algebra.normalize", parent, || {
                    fgac_algebra::normalize(&bound.plan)
                });
                t.leaf(req, "plancache.insert", parent, || {
                    let validity_fp = ValidityCache::fingerprint_in_session(&normalized, params);
                    let mut deps = fgac_core::invalidation::query_dependencies(catalog, &q);
                    deps.extend(normalized.scanned_tables());
                    let plan = Arc::new(CachedPlan {
                        bound,
                        normalized,
                        validity_fp,
                        deps,
                    });
                    e.plan_cache().insert(sql, params, plan.clone());
                    plan
                })
            }
        };
        let verdict = self.admit(e, req, parent, session, &plan)?;
        if verdict == Validity::Invalid {
            return Err(Error::Unauthorized(
                "query rejected by the validity check".into(),
            ));
        }
        let cloned = fgac_exec::rows_cloned();
        let rows = self.tracer.leaf(req, "exec.execute", parent, || {
            fgac_exec::execute_bound(e.database(), &plan.bound)
        })?;
        let c = self.counts();
        c.rows_cloned += fgac_exec::rows_cloned().saturating_sub(cloned);
        c.result_rows += rows.len() as u64;
        Ok(EngineResponse::Rows(fgac_exec::QueryResult {
            names: plan.bound.output_names.clone(),
            rows,
        }))
    }

    /// Validity cache, then revalidation or a cold proof.
    fn admit(
        &mut self,
        e: &Engine,
        req: u32,
        parent: u32,
        session: &Session,
        plan: &CachedPlan,
    ) -> Result<Validity> {
        let user = session.user();
        let fp = plan.validity_fp;
        let outcome = self.tracer.leaf(req, "validity.lookup", parent, || {
            e.cache()
                .lookup(user, fp, e.data_version(), e.policy_epoch())
        });
        self.counts().validity_lookups += 1;
        match outcome {
            CacheOutcome::Hit(v) => {
                self.counts().validity_hits += 1;
                return Ok(v);
            }
            CacheOutcome::Stale { verdict, cert } => {
                self.counts().revalidations += 1;
                let diags = self.tracer.leaf(req, "analyze.revalidate", parent, || {
                    fgac_analyze::revalidate_certificate(
                        &cert,
                        &e.certificate_policy(),
                        &fgac_analyze::CheckerOptions {
                            budget: CheckOptions::default().budget,
                        },
                    )
                });
                if diags.is_empty() {
                    self.counts().revalidated += 1;
                    e.cache().revalidated(user, fp, e.policy_epoch());
                    return Ok(verdict);
                }
                e.cache().evict_stale(user, fp);
            }
            CacheOutcome::Miss => {}
        }
        self.cold_check(e, req, parent, session, plan)
    }

    fn cold_check(
        &mut self,
        e: &Engine,
        req: u32,
        parent: u32,
        session: &Session,
        plan: &CachedPlan,
    ) -> Result<Validity> {
        let compiles = compiled::compile_count();
        let id = self.tracer.open(req, "compiled.principal", Some(parent));
        let caps = e.compiled_policies().principal(
            e.policy_epoch(),
            session.user(),
            e.database().catalog(),
            e.grants(),
        );
        self.tracer.close(id);
        if compiled::compile_count() > compiles {
            self.tracer.spans[id as usize].name = "compiled.compile";
            self.counts().compiles += 1;
        }
        let (fast, c3) = (compiled::fastpath_hit_count(), c3_probe_count());
        let checked = self.tracer.leaf(req, "nontruman.check", parent, || {
            Validator::new(e.database(), e.grants())
                .with_options(CheckOptions::default())
                .with_compiled(caps)
                .check_plan(session, &plan.normalized)
        });
        let c = self.counts();
        c.checks += 1;
        c.fastpath_hits += compiled::fastpath_hit_count().saturating_sub(fast);
        c.c3_probes += c3_probe_count().saturating_sub(c3);
        let mut report = match checked {
            Ok(r) => r,
            // Exhaustion denies and is never cached, as in the engine.
            Err(Error::ResourceExhausted(_)) => return Ok(Validity::Invalid),
            Err(err) => return Err(err),
        };
        c.views_considered += report.views_considered as u64;
        c.dag_eq += report.dag_stats.eq_nodes as u64;
        c.dag_op += report.dag_stats.op_nodes as u64;
        if let Some(cert) = &mut report.certificate {
            cert.policy_epoch = e.policy_epoch();
        }
        let cert = report.certificate.take().map(Arc::new);
        self.tracer.leaf(req, "validity.store", parent, || {
            e.cache().store(
                session.user(),
                plan.validity_fp,
                e.data_version(),
                e.policy_epoch(),
                report.verdict,
                cert,
            )
        });
        Ok(report.verdict)
    }

    /// The DML layers on the private stack.
    fn write(
        &mut self,
        req: u32,
        root: u32,
        session: &Session,
        sql: &str,
    ) -> Result<EngineResponse> {
        let parent = self.tracer.open(req, "engine.write", Some(root));
        let out = self.write_layers(req, parent, session, sql);
        self.tracer.close(parent);
        out
    }

    fn write_layers(
        &mut self,
        req: u32,
        parent: u32,
        session: &Session,
        sql: &str,
    ) -> Result<EngineResponse> {
        let t = &mut self.tracer;
        let stmt = t.leaf(req, "sql.parse", parent, || fgac_sql::parse_statement(sql))?;
        let table = match &stmt {
            Statement::Insert(i) => i.table.clone(),
            Statement::Delete(d) => d.table.clone(),
            _ => return Err(Error::Execution(format!("not an insert or delete: {sql}"))),
        };
        let s = &mut self.dml;
        let undo = t.leaf(req, "storage.snapshot_table", parent, || {
            s.db.snapshot_table(&table)
        })?;
        let n = t.leaf(req, "updates.dml", parent, || {
            let auth = UpdateAuthorizer::new(&s.grants);
            match &stmt {
                Statement::Insert(i) => auth.insert(&mut s.db, session, i),
                Statement::Delete(d) => auth.delete(&mut s.db, session, d),
                _ => Ok(0),
            }
        })?;
        let before = s.wal.len_bytes();
        t.leaf(req, "wal.append", parent, || {
            let deltas = s.db.take_deltas();
            s.wal.append(&WalRecord::Dml { deltas }, false)
        })?;
        let (bytes, rows) = (s.wal.len_bytes() - before, undo.len() as u64);
        t.leaf(req, "storage.undo_drop", parent, || drop(undo));
        let c = self.counts();
        c.writes += 1;
        c.wal_bytes += bytes;
        c.table_rows += rows;
        Ok(EngineResponse::Affected(n))
    }

    /// A grant or revoke under the writer lock, with its sweep.
    fn change(&mut self, req: u32, root: u32, op: &AdminOp) -> Result<()> {
        let before = self.engine.with_read(|e| e.cache().invalidated_entries());
        let engine = self.engine.clone();
        let applied = self.tracer.leaf(req, "invalidation.change", root, || {
            engine.with_write(|e| match op {
                AdminOp::GrantView { principal, view } => e.grant_view(principal, view),
                AdminOp::RevokeView { principal, view } => e.revoke_view(principal, view),
                other => Err(Error::Execution(format!("unexpected admin op {other:?}"))),
            })
        });
        let after = self.engine.with_read(|e| e.cache().invalidated_entries());
        let c = self.counts();
        c.changes += 1;
        c.invalidated += after.saturating_sub(before);
        applied
    }
}

/// Frames `payload`, then checks and unframes it as the receiving side
/// does, returning the kind and the payload.
fn frame_roundtrip(kind: u8, payload: &[u8]) -> Result<(u8, Vec<u8>)> {
    let mut bytes = encode_frame(kind, payload)?;
    let header: &[u8; HEADER_LEN] = bytes[..HEADER_LEN]
        .try_into()
        .map_err(|_| Error::Corrupt("short frame".into()))?;
    let h = decode_header(header)?;
    let body = bytes.split_off(HEADER_LEN);
    verify_payload(&h, &body)?;
    Ok((h.kind, body))
}

/// What a replayed request produced, before the server turns it into a
/// response.
enum Outcome {
    Engine(Result<EngineResponse>),
    Admin(Result<()>),
}

impl Outcome {
    /// The server's response for this outcome (`server::execute`).
    fn response(&self) -> Response {
        match self {
            Outcome::Engine(r) => drive::engine_response(r),
            Outcome::Admin(Ok(())) => Response::Ok("policy change applied".into()),
            Outcome::Admin(Err(e)) => fgac_server::response_for_error(e),
        }
    }
}

pub fn run_traced(args: &Args, scale: Scale, work: &Path) -> std::result::Result<Report, Failure> {
    let running = crate::start(args, scale, work)?;
    let f = &running.fixture;
    let seconds = args.seconds;
    let conns = crate::CONNECTIONS;
    let mut streams = workload::streams(f, conns);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut note_failure = |v: &Verdict| -> std::result::Result<(), Failure> {
        attempted += 1;
        match v {
            Verdict::Correct => Ok(()),
            Verdict::Failed(m) => {
                failed += 1;
                eprintln!("e2ebench: failed request: {m}");
                Ok(())
            }
            Verdict::WrongfulAccept(m) => Err(Failure::WrongfulAccept(m.clone())),
        }
    };

    // Phase 1: server split. Each read runs in-process in the state the
    // workload leaves it (the `shared.execute` sample), then through the
    // server, then in-process again in the same (now warm) state: the
    // last two differ only by the server path. Writes run once.
    let split_end = Instant::now() + Duration::from_secs_f64(seconds * SPLIT_SHARE);
    let mut shared_execute = Vec::new();
    let mut via_server = Vec::new();
    let mut server_overhead = Vec::new();
    let mut turn = 0usize;
    let in_process = |principal: &str, op: &Op| {
        let t = Instant::now();
        let result = f
            .engine
            .execute(&Session::new(principal), op.sql().unwrap_or_default());
        (t.elapsed().as_secs_f64() * 1e6, judge_engine(op, &result))
    };
    'split: while Instant::now() < split_end {
        let Some(plan) = streams[turn % conns].next_session() else {
            break;
        };
        turn += 1;
        let mut client = drive::connect(running.server.local_addr(), &plan.principal)?;
        for op in &plan.ops {
            if Instant::now() >= split_end {
                let _ = client.bye();
                break 'split;
            }
            let (us, v) = in_process(&plan.principal, op);
            shared_execute.push(us);
            note_failure(&v)?;
            if op.kind == Kind::Read {
                let (server_us, resp) = drive::timed_call(&mut client, op);
                note_failure(&judge(op, &resp?))?;
                let (warm_us, v) = in_process(&plan.principal, op);
                note_failure(&v)?;
                via_server.push(server_us);
                server_overhead.push(server_us - warm_us);
            }
        }
        let _ = client.bye();
    }
    let shed = {
        let mut admin = drive::connect(running.server.local_addr(), workload::ADMIN)?;
        let m = admin.metrics()?;
        let _ = admin.bye();
        m.into_iter()
            .find(|(k, _)| k == "resp_shed")
            .map_or(0, |(_, v)| v)
    };

    // Phase 2: replay.
    let dml_dir = work.join(format!("trace-wal-{}", std::process::id()));
    let dml = f.engine.with_read(|e| DmlStack::new(e, dml_dir))?;
    let mut replay = Replay {
        engine: f.engine.clone(),
        tracer: Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            probe: false,
        },
        counts: [Counts::default(); 2],
        dml,
        next_req: 0,
        requests: 0,
    };
    let mut churn = ChurnStream::new(&f.sizes);
    let replay_end = Instant::now() + Duration::from_secs_f64(seconds * REPLAY_SHARE);
    let mut replayed_ops = 0u64;
    'replay: while Instant::now() < replay_end {
        let Some(plan) = streams[turn % conns].next_session() else {
            break;
        };
        turn += 1;
        for op in &plan.ops {
            if Instant::now() >= replay_end {
                break 'replay;
            }
            if let Some(c) = churn
                .as_mut()
                .filter(|c| replayed_ops % c.every == c.every - 1)
            {
                let v = replay.request(workload::ADMIN, &c.next_op())?;
                note_failure(&v)?;
            }
            let v = replay.request(&plan.principal, op)?;
            note_failure(&v)?;
            replayed_ops += 1;
        }
    }

    // Phase 3: probes for layers the replay did not reach.
    replay.tracer.probe = true;
    let replayed = replay.counts[0];
    if replayed.writes == 0 {
        probe_writes(&mut replay, &mut streams[0], f, &mut note_failure)?;
    }
    if replayed.changes == 0 {
        probe_changes(&mut replay, &streams[0], &mut note_failure)?;
    }
    if replayed.plan_hits == replayed.plan_lookups {
        for (principal, op) in streams[0].fresh_reads(PROBE_READS) {
            let v = replay.request(&principal, &op)?;
            note_failure(&v)?;
        }
    }
    replay.tracer.probe = false;

    let trace_dir = work.join("traces");
    std::fs::create_dir_all(&trace_dir)?;
    let path = trace_dir.join(format!(
        "{}-seed{}.spans.jsonl",
        args.workload.name(),
        args.seed
    ));
    replay.tracer.write_jsonl(&path)?;

    let Replay {
        tracer,
        counts,
        requests,
        ..
    } = replay;
    let running_server = running.server;
    running_server.finish()?;
    drop(running.fixture);

    let mut r = Report::new(attempted, failed, true);
    let split = Split {
        via_server: Samples::new(via_server),
        overhead: Samples::new(server_overhead),
        shared_execute: Samples::new(shared_execute),
        shed,
    };
    layer_metrics(&mut r, &tracer, &counts, requests, &split);
    r.header.push(format!(
        "spans={} written to {} (replayed requests={requests})",
        tracer.spans.len(),
        path.display()
    ));
    Ok(r)
}

type NoteFailure<'a> = dyn FnMut(&Verdict) -> std::result::Result<(), Failure> + 'a;

/// Insert-then-delete pairs through the DML layers of the private stack
/// only: the workload's engine stays read-only.
fn probe_writes(
    replay: &mut Replay,
    stream: &mut Stream,
    f: &workload::Fixture,
    note: &mut NoteFailure<'_>,
) -> std::result::Result<(), Failure> {
    let Some(student) = f.principals.first() else {
        return Ok(());
    };
    let auth = match fgac_sql::parse_statement(
        "authorize delete on registered where student_id = $user_id",
    )? {
        Statement::Authorize(a) => a,
        _ => {
            return Err(Failure::Other(
                "authorize statement did not parse as one".into(),
            ))
        }
    };
    replay.dml.grants.grant_update(student.clone(), auth);
    let session = Session::new(student.clone());
    for _ in 0..PROBE_WRITE_PAIRS * 2 {
        let op = stream.write_op(student);
        let (req, root) = replay.new_request();
        let sql = op.sql().unwrap_or_default().to_string();
        let result = replay.write(req, root, &session, &sql);
        replay.tracer.close(root);
        note(&judge_engine(&op, &result))?;
    }
    Ok(())
}

/// Grants, then revokes, a fresh view to the student role, each change
/// followed by a pass over the start of the working set: the pass meets
/// stale accepts (revalidation) and dropped denials (cold proofs with
/// recompiled capabilities).
fn probe_changes(
    replay: &mut Replay,
    stream: &Stream,
    note: &mut NoteFailure<'_>,
) -> std::result::Result<(), Failure> {
    replay.engine.with_write(|e| {
        e.admin_script(&format!(
            "create authorization view {PROBE_VIEW} as \
             select * from feespaid where student_id = $user_id"
        ))
    })?;
    let reads: Vec<(String, Op)> = stream
        .working_set()
        .into_iter()
        .flat_map(|p| {
            let principal = p.principal;
            p.ops.into_iter().map(move |op| (principal.clone(), op))
        })
        .take(PROBE_READS)
        .collect();
    for grant in [true, false] {
        let (principal, view) = ("student".to_string(), PROBE_VIEW.to_string());
        let change = Op {
            kind: Kind::PolicyChange,
            request: Request::Admin(if grant {
                AdminOp::GrantView { principal, view }
            } else {
                AdminOp::RevokeView { principal, view }
            }),
            expect: Expect::Applied,
        };
        let v = replay.request(workload::ADMIN, &change)?;
        note(&v)?;
        for (principal, op) in &reads {
            let v = replay.request(principal, op)?;
            note(&v)?;
        }
    }
    Ok(())
}

/// Span-duration samples of `name` in microseconds, from the replay
/// when it has any and from the probes otherwise.
fn durations(t: &Tracer, name: &str) -> (Samples, &'static str) {
    let pick = |probe: bool| -> Vec<f64> {
        t.spans
            .iter()
            .filter(|s| s.name == name && s.probe == probe)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    };
    let replayed = Samples::new(pick(false));
    if replayed.is_empty() {
        (Samples::new(pick(true)), "probe")
    } else {
        (replayed, "replay")
    }
}

/// Per-request sum of the spans named `name` (a request decodes and
/// encodes one frame each).
fn per_request_sum(t: &Tracer, name: &str) -> Samples {
    let mut by_req: std::collections::BTreeMap<u32, f64> = Default::default();
    for s in t.spans.iter().filter(|s| s.name == name && !s.probe) {
        *by_req.entry(s.req).or_default() += (s.end_ns - s.start_ns) as f64 / 1e3;
    }
    Samples::new(by_req.into_values().collect())
}

/// Share of replayed request time covered by leaf layer spans.
fn coverage(t: &Tracer) -> f64 {
    let mut is_parent = vec![false; t.spans.len()];
    for s in &t.spans {
        if let Some(p) = s.parent {
            is_parent[p as usize] = true;
        }
    }
    let (mut covered, mut total) = (0u64, 0u64);
    for (i, s) in t.spans.iter().enumerate().filter(|(_, s)| !s.probe) {
        let d = s.end_ns - s.start_ns;
        if s.parent.is_none() {
            total += d;
        } else if !is_parent[i] {
            covered += d;
        }
    }
    covered as f64 / total.max(1) as f64
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// `name` = `num / den`, reported with `den` as its sample count.
fn push_ratio(r: &mut Report, name: &str, unit: &'static str, num: u64, den: u64, note: String) {
    r.push(Metric::new(name, unit, ratio(num, den), den as usize).with_note(note));
}

/// A count taken at a layer boundary.
fn push_count(r: &mut Report, name: &str, n: u64, src: &str) {
    r.push(Metric::new(name, "count", n as f64, 1).with_note(src));
}

/// What the server split measured.
struct Split {
    via_server: Samples,
    /// Per read: client latency minus the warm in-process latency.
    overhead: Samples,
    shared_execute: Samples,
    shed: u64,
}

fn layer_metrics(r: &mut Report, t: &Tracer, counts: &[Counts; 2], requests: u64, split: &Split) {
    // Counts come from the replay when it reached the layer (its base
    // count is non-zero), from the probes otherwise.
    let pick = |base: fn(&Counts) -> u64| -> (&Counts, &'static str) {
        if base(&counts[0]) > 0 || base(&counts[1]) == 0 {
            (&counts[0], "replay")
        } else {
            (&counts[1], "probe")
        }
    };
    let timed = |r: &mut Report, metric: &str, span: &str| {
        let (s, src) = durations(t, span);
        let tail = s
            .tail()
            .map_or(String::new(), |(p, v)| format!(", p{p}={v:.1}"));
        let p50 = s.median().unwrap_or(0.0);
        r.push(Metric::new(metric, "us", p50, s.len()).with_note(format!("p50 from {src}{tail}")));
    };

    let overhead = split.overhead.median().unwrap_or(0.0);
    let client_p50 = split.via_server.median().unwrap_or(0.0);
    r.push(
        Metric::new(
            "server.overhead_p50_us",
            "us",
            overhead,
            split.overhead.len(),
        )
        .with_note(format!(
            "p50 of client minus warm in-process latency per read; client p50 {client_p50:.1}"
        )),
    );
    let codec = per_request_sum(t, "server.frame_codec");
    let codec_p50 = codec.median().unwrap_or(0.0);
    r.push(
        Metric::new("server.frame_codec_us", "us", codec_p50, codec.len())
            .with_note("p50 per request, request + reply"),
    );
    push_count(
        r,
        "server.resp_shed",
        split.shed,
        "server METRICS after the split",
    );
    let engine_p50 = split.shared_execute.median().unwrap_or(0.0);
    let n = split.shared_execute.len();
    r.push(Metric::new("shared.execute_p50_us", "us", engine_p50, n));

    let (c, src) = pick(|c| c.plan_lookups);
    push_ratio(
        r,
        "plancache.hit_ratio",
        "ratio",
        c.plan_hits,
        c.plan_lookups,
        src.into(),
    );
    push_count(r, "plancache.lookups", c.plan_lookups, src);
    timed(r, "sql.parse_us", "sql.parse");
    timed(r, "algebra.bind_us", "algebra.bind");
    timed(r, "algebra.normalize_us", "algebra.normalize");

    let (c, src) = pick(|c| c.validity_lookups);
    push_ratio(
        r,
        "validity.hit_ratio",
        "ratio",
        c.validity_hits,
        c.validity_lookups,
        src.into(),
    );
    push_count(r, "validity.lookups", c.validity_lookups, src);
    let (c, src) = pick(|c| c.revalidations);
    let note = src.to_string();
    push_ratio(
        r,
        "validity.revalidation_ratio",
        "ratio",
        c.revalidated,
        c.revalidations,
        note,
    );
    push_count(r, "validity.revalidations", c.revalidations, src);
    let (c, src) = pick(|c| c.changes);
    let note = src.to_string();
    push_ratio(
        r,
        "validity.invalidated_per_change",
        "count",
        c.invalidated,
        c.changes,
        note,
    );
    push_count(r, "policy.changes", c.changes, src);

    let (c, src) = pick(|c| c.checks);
    push_ratio(
        r,
        "compiled.fastpath_hit_ratio",
        "ratio",
        c.fastpath_hits,
        c.checks,
        src.into(),
    );
    push_count(r, "compiled.fastpath_checks", c.checks, src);
    push_count(r, "compiled.compiles", c.compiles, src);
    timed(r, "compiled.compile_us", "compiled.compile");
    timed(r, "nontruman.check_us", "nontruman.check");
    let mean = format!("mean per check, {src}");
    push_ratio(
        r,
        "nontruman.views_considered",
        "count",
        c.views_considered,
        c.checks,
        mean.clone(),
    );
    push_ratio(
        r,
        "nontruman.c3_probes_per_check",
        "count",
        c.c3_probes,
        c.checks,
        mean.clone(),
    );
    push_ratio(
        r,
        "optimizer.dag_eq_nodes",
        "count",
        c.dag_eq,
        c.checks,
        mean.clone(),
    );
    push_ratio(
        r,
        "optimizer.dag_op_nodes",
        "count",
        c.dag_op,
        c.checks,
        mean,
    );
    timed(r, "analyze.revalidate_us", "analyze.revalidate");
    timed(r, "invalidation.change_us", "invalidation.change");

    timed(r, "exec.execute_us", "exec.execute");
    let (c, src) = pick(|c| c.result_rows);
    let note = src.to_string();
    push_ratio(
        r,
        "exec.rows_cloned_per_result_row",
        "ratio",
        c.rows_cloned,
        c.result_rows,
        note,
    );
    push_count(r, "exec.result_rows", c.result_rows, src);

    timed(r, "storage.snapshot_table_us", "storage.snapshot_table");
    let (c, src) = pick(|c| c.writes);
    let note = format!("mean target-table rows, {src}");
    push_ratio(
        r,
        "storage.table_rows",
        "count",
        c.table_rows,
        c.writes,
        note,
    );
    timed(r, "updates.dml_us", "updates.dml");
    timed(r, "wal.append_us", "wal.append");
    push_ratio(
        r,
        "wal.bytes_per_write",
        "bytes",
        c.wal_bytes,
        c.writes,
        src.into(),
    );

    r.push(
        Metric::new("trace.coverage", "ratio", coverage(t), requests as usize)
            .with_note("leaf span time / request span time, replay only"),
    );
    push_count(r, "trace.requests", requests, "replay");
}
