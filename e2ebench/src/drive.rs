//! The closed-loop load generator and the correctness oracle.
//!
//! Each connection is a [`Client`] that sends its next request only
//! after it has decoded the reply to the previous one. Latency is timed
//! at the client, from encoding the request to decoding the reply.

use crate::workload::{ChurnStream, Expect, Kind, Op, SessionPlan, Stream};
use fgac_server::{Client, Response};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Per-read socket bound: a wedged server surfaces as a failure.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// How often the admin connection checks whether a change is due.
const CHURN_POLL: Duration = Duration::from_millis(1);

/// How one request ended, judged against its expected outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    Correct,
    /// Wrong status, wrong row count, or an operational refusal.
    Failed(String),
    /// A request the policy must reject was answered: a security
    /// failure that ends the run.
    WrongfulAccept(String),
}

/// Judges `resp` against `op.expect`.
pub fn judge(op: &Op, resp: &Response) -> Verdict {
    let what = || format!("{:?} expected {:?}", op.request, op.expect);
    match (&op.expect, resp) {
        (Expect::Denied, Response::Rows { .. } | Response::Affected(_)) => {
            Verdict::WrongfulAccept(format!("{} but the server answered {resp:?}", what()))
        }
        (Expect::Denied, Response::Denied(_)) => Verdict::Correct,
        (Expect::Rows(n), Response::Rows { rows, .. }) if rows.len() == *n => Verdict::Correct,
        (Expect::Affected(n), Response::Affected(m)) if n == m => Verdict::Correct,
        (Expect::Applied, Response::Ok(_)) => Verdict::Correct,
        _ => Verdict::Failed(format!("{} but got {}", what(), short(resp))),
    }
}

/// The response the server sends for an engine result.
pub fn engine_response(result: &fgac_types::Result<fgac_core::EngineResponse>) -> Response {
    match result {
        Ok(r) => match r.rows() {
            Some(q) => Response::Rows {
                names: q.names.clone(),
                rows: q.rows.clone(),
            },
            None => Response::Affected(r.affected().unwrap_or(0) as u64),
        },
        Err(e) => fgac_server::response_for_error(e),
    }
}

/// Judges an in-process engine result like [`judge`] judges a reply.
pub fn judge_engine(op: &Op, result: &fgac_types::Result<fgac_core::EngineResponse>) -> Verdict {
    judge(op, &engine_response(result))
}

fn short(resp: &Response) -> String {
    match resp {
        Response::Rows { rows, .. } => format!("{} rows", rows.len()),
        other => format!("{other:?}"),
    }
}

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: Kind,
    pub us: f64,
    pub ok: bool,
    /// Completion time, seconds since the window opened.
    pub at_s: f64,
}

/// What one connection observed.
#[derive(Debug, Default)]
pub struct ConnLog {
    start: Option<Instant>,
    pub samples: Vec<Sample>,
    pub failures: Vec<String>,
    pub wrongful: Option<String>,
}

impl ConnLog {
    fn new(start: Instant) -> ConnLog {
        ConnLog {
            start: Some(start),
            ..ConnLog::default()
        }
    }

    fn record(&mut self, op: &Op, us: f64, verdict: Verdict) {
        let ok = verdict == Verdict::Correct;
        let at_s = self.at_s();
        self.samples.push(Sample {
            kind: op.kind,
            us,
            ok,
            at_s,
        });
        match verdict {
            Verdict::Correct => {}
            Verdict::Failed(m) => {
                if self.failures.len() < 8 {
                    self.failures.push(m);
                }
            }
            Verdict::WrongfulAccept(m) => self.wrongful = Some(m),
        }
    }

    fn at_s(&self) -> f64 {
        self.start.map_or(0.0, |t| t.elapsed().as_secs_f64())
    }

    fn fail_transport(&mut self, kind: Kind, us: f64, msg: String) {
        let at_s = self.at_s();
        self.samples.push(Sample {
            kind,
            us,
            ok: false,
            at_s,
        });
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }
}

/// Sends `op` and times it at the client.
pub fn timed_call(client: &mut Client, op: &Op) -> (f64, fgac_types::Result<Response>) {
    let t = Instant::now();
    let resp = client.call(&op.request);
    (t.elapsed().as_secs_f64() * 1e6, resp)
}

pub fn connect(addr: SocketAddr, principal: &str) -> fgac_types::Result<Client> {
    let mut client = Client::connect(addr, IO_TIMEOUT)?;
    match client.hello(principal)? {
        Response::Ok(_) => Ok(client),
        other => Err(fgac_types::Error::Execution(format!(
            "HELLO as {principal} answered {other:?}"
        ))),
    }
}

/// Drives one connection's stream until `deadline` or `stop`.
pub fn run_sessions(
    addr: SocketAddr,
    mut stream: Stream,
    deadline: Instant,
    start: Instant,
    stop: &AtomicBool,
    reads_done: &AtomicU64,
) -> ConnLog {
    let mut log = ConnLog::new(start);
    while Instant::now() < deadline && !stop.load(Ordering::Acquire) {
        let Some(SessionPlan { principal, ops }) = stream.next_session() else {
            break;
        };
        let mut client = match connect(addr, &principal) {
            Ok(c) => c,
            Err(e) => {
                log.fail_transport(Kind::Read, 0.0, format!("connect as {principal}: {e}"));
                continue;
            }
        };
        for op in &ops {
            if Instant::now() >= deadline || stop.load(Ordering::Acquire) {
                break;
            }
            let (us, resp) = timed_call(&mut client, op);
            match resp {
                Ok(resp) => log.record(op, us, judge(op, &resp)),
                Err(e) => log.fail_transport(op.kind, us, format!("transport: {e}")),
            }
            // A pacing count for the admin connection; it publishes no
            // other data.
            reads_done.fetch_add(1, Ordering::Relaxed);
            if log.wrongful.is_some() {
                stop.store(true, Ordering::Release);
                return log;
            }
        }
        let _ = client.bye();
    }
    log
}

/// Drives the admin connection: one policy change each time the
/// readers have completed `churn.every` more requests.
pub fn run_churn(
    addr: SocketAddr,
    mut churn: ChurnStream,
    deadline: Instant,
    start: Instant,
    stop: &AtomicBool,
    reads_done: &AtomicU64,
) -> ConnLog {
    let mut log = ConnLog::new(start);
    let mut client = match connect(addr, crate::workload::ADMIN) {
        Ok(c) => c,
        Err(e) => {
            log.fail_transport(Kind::PolicyChange, 0.0, format!("admin connect: {e}"));
            return log;
        }
    };
    let mut due = churn.every;
    'changes: loop {
        while reads_done.load(Ordering::Relaxed) < due {
            if Instant::now() >= deadline || stop.load(Ordering::Acquire) {
                break 'changes;
            }
            std::thread::sleep(CHURN_POLL);
        }
        due += churn.every;
        let op = churn.next_op();
        let (us, resp) = timed_call(&mut client, &op);
        match resp {
            Ok(resp) => log.record(&op, us, judge(&op, &resp)),
            Err(e) => log.fail_transport(op.kind, us, format!("transport: {e}")),
        }
    }
    let _ = client.bye();
    log
}

/// Everything the timed window produced.
#[derive(Debug, Default)]
pub struct LoadResult {
    pub samples: Vec<Sample>,
    pub failures: Vec<String>,
    pub wrongful: Option<String>,
    pub elapsed_s: f64,
}

/// Runs the closed loop: one thread per stream plus an admin thread
/// when `churn` is set, all against the server at `addr`.
pub fn run_load(
    addr: SocketAddr,
    streams: Vec<Stream>,
    churn: Option<ChurnStream>,
    window: Duration,
) -> LoadResult {
    let stop = AtomicBool::new(false);
    let reads_done = AtomicU64::new(0);
    let start = Instant::now();
    let deadline = start + window;
    let logs: Vec<ConnLog> = std::thread::scope(|s| {
        let (stop, reads_done) = (&stop, &reads_done);
        let mut handles: Vec<_> = streams
            .into_iter()
            .map(|st| s.spawn(move || run_sessions(addr, st, deadline, start, stop, reads_done)))
            .collect();
        if let Some(churn) = churn {
            handles
                .push(s.spawn(move || run_churn(addr, churn, deadline, start, stop, reads_done)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("load connection thread panicked"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut out = LoadResult {
        elapsed_s,
        ..LoadResult::default()
    };
    for log in logs {
        out.samples.extend(log.samples);
        out.failures.extend(log.failures);
        if out.wrongful.is_none() {
            out.wrongful = log.wrongful;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_server::Request;

    fn op(expect: Expect) -> Op {
        Op {
            kind: Kind::Read,
            request: Request::Query {
                sql: "select grade from grades".into(),
                deadline_ms: None,
            },
            expect,
        }
    }

    #[test]
    fn only_an_answered_denial_is_a_wrongful_accept() {
        let rows = Response::Rows {
            names: vec![],
            rows: vec![],
        };
        assert!(matches!(
            judge(&op(Expect::Denied), &rows),
            Verdict::WrongfulAccept(_)
        ));
        assert!(matches!(
            judge(&op(Expect::Denied), &Response::Affected(1)),
            Verdict::WrongfulAccept(_)
        ));
        let denied = Response::Denied("not covered".into());
        assert_eq!(judge(&op(Expect::Denied), &denied), Verdict::Correct);
        assert!(matches!(
            judge(&op(Expect::Denied), &Response::Timeout("deadline".into())),
            Verdict::Failed(_)
        ));
        assert_eq!(judge(&op(Expect::Rows(0)), &rows), Verdict::Correct);
        assert!(matches!(
            judge(&op(Expect::Rows(1)), &rows),
            Verdict::Failed(_)
        ));
        assert!(matches!(
            judge(&op(Expect::Rows(0)), &Response::Shed("busy".into())),
            Verdict::Failed(_)
        ));
    }
}
