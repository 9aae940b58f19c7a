//! A concurrently shareable engine: many reader sessions, one writer.
//!
//! The paper places fine-grained access control *inside* the DBMS so it
//! can serve many concurrently connected principals; this module is the
//! seam that makes the single-threaded [`Engine`] safe to share. The
//! split follows the engine's own mutability structure:
//!
//! * **Every statement is admitted under the shared read lock** — the
//!   engine's one admit step: plan-cache lookup, parse on a miss, and
//!   classification. Read-only statements — queries, `EXPLAIN
//!   AUTHORIZATION`, session-scoped `ANALYZE POLICY|FLOW` — then run
//!   through the read runner under that same lock, against the
//!   epoch-versioned catalog/grants; the plan and validity caches use
//!   interior mutability (sharded locks + atomic counters), so
//!   concurrent readers admit in parallel. DDL is rejected at
//!   admission without ever taking the write lock.
//! * **Writes** — DML, plus the admin path's DDL, grants/revocations
//!   and role changes — serialize through the **single writer** path
//!   (`&mut Engine`), which holds exclusivity across the WAL commit
//!   points. DML reaches it already parsed, after the read guard is
//!   released; the writer re-checks the closed-engine and deadline
//!   gates, then runs the DML commit path. A grant or
//!   revocation therefore bumps the policy epoch and clears the caches
//!   *while no reader holds a verdict in its hands*: any check that
//!   started before the write completed under the old grants (correct —
//!   it raced the revocation and could legitimately have run first), and
//!   any check that starts after sees the new epoch and a cold cache. No
//!   stale verdict is ever served across an epoch bump.
//!
//! Fail-closed under updates (Guarnieri et al.'s requirement that the
//! security semantics hold while grants churn) falls out of this
//! structure: the epoch bump and cache clear happen inside the writer's
//! critical section.

use crate::engine::{parse_statement, Admitted, Engine, EngineResponse};
use crate::session::Session;
use fgac_types::Result;
use parking_lot::RwLock;
use std::sync::Arc;
use std::time::Instant;

/// A cheaply cloneable handle to one engine shared by many threads.
///
/// Created from a fully set-up [`Engine`] (schema, grants, durability);
/// every clone refers to the same underlying engine. Statement routing
/// is automatic: read-only statements run under the shared read lock,
/// everything else under the exclusive write lock.
#[derive(Clone)]
pub struct SharedEngine {
    inner: Arc<RwLock<Engine>>,
}

impl SharedEngine {
    pub fn new(engine: Engine) -> Self {
        SharedEngine {
            inner: Arc::new(RwLock::new(engine)),
        }
    }

    /// Executes one statement for `session`, routing it to the shared
    /// read path or the exclusive write path as needed.
    pub fn execute(&self, session: &Session, sql: &str) -> Result<EngineResponse> {
        self.execute_at(session, sql, None)
    }

    /// [`SharedEngine::execute`] under a per-request wall-clock
    /// deadline, threaded into the validity check's budget meter (see
    /// [`Engine::execute_at`]). The deadline is honored on both paths:
    /// a request that spent its whole allowance queueing for the write
    /// lock is denied fail-closed before it executes.
    pub fn execute_at(
        &self,
        session: &Session,
        sql: &str,
        deadline: Option<Instant>,
    ) -> Result<EngineResponse> {
        let stmt = {
            let engine = self.inner.read();
            match engine.admit(session, sql, parse_statement, deadline)? {
                Admitted::Write(stmt) => stmt,
                read => return engine.run_read(session, read, deadline),
            }
        };
        // DML: the read guard is released above (never upgraded), and
        // the already-parsed statement goes to the writer, which
        // re-checks the deadline — waiting for the write lock may have
        // consumed the remaining allowance.
        self.inner.write().run_write(session, &stmt, deadline)
    }

    /// Runs `f` under the shared read lock.
    pub fn with_read<R>(&self, f: impl FnOnce(&Engine) -> R) -> R {
        f(&self.inner.read())
    }

    /// Runs `f` under the exclusive write lock (the admin/writer path:
    /// DDL, grants, revocations, bulk loads).
    pub fn with_write<R>(&self, f: impl FnOnce(&mut Engine) -> R) -> R {
        f(&mut self.inner.write())
    }

    /// Shuts the engine down: takes the write lock (so every in-flight
    /// statement has finished), fsyncs the WAL, and marks the engine
    /// closed. Subsequent statements on any clone return a clean error;
    /// a second close reports double-close (see [`Engine::close`]).
    pub fn close(&self) -> Result<()> {
        self.inner.write().close()
    }

    pub fn is_closed(&self) -> bool {
        self.inner.read().is_closed()
    }

    pub fn policy_epoch(&self) -> u64 {
        self.inner.read().policy_epoch()
    }

    pub fn data_version(&self) -> u64 {
        self.inner.read().data_version()
    }
}

impl std::fmt::Debug for SharedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedEngine").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole point of SharedEngine: the engine crosses threads.
    #[test]
    fn shared_engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedEngine>();
        assert_send_sync::<Engine>();
    }

    fn shared() -> SharedEngine {
        let mut e = Engine::new();
        e.admin_script(
            "create table grades (student_id varchar not null, course_id varchar not null, \
               grade int, primary key (student_id, course_id));
             create authorization view MyGrades as \
               select * from grades where student_id = $user_id;
             insert into grades values ('11', 'cs101', 90), ('12', 'cs101', 70);",
        )
        .unwrap();
        e.grant_view("11", "mygrades").unwrap();
        SharedEngine::new(e)
    }

    #[test]
    fn read_path_serves_queries_and_write_path_serves_dml() {
        let s = shared();
        let sess = Session::new("11");
        let q = "select grade from grades where student_id = '11'";
        let r = s.execute(&sess, q).unwrap();
        assert_eq!(r.rows().unwrap().rows.len(), 1);
        // DML routes to the writer.
        s.with_write(|e| {
            e.grant_update_sql("11", "authorize insert on grades where student_id = $user_id")
        })
        .unwrap();
        let n = s
            .execute(&sess, "insert into grades values ('11', 'cs102', 80)")
            .unwrap();
        assert_eq!(n.affected(), Some(1));
    }

    #[test]
    fn revocation_between_executions_denies() {
        let s = shared();
        let sess = Session::new("11");
        let q = "select grade from grades where student_id = '11'";
        s.execute(&sess, q).unwrap();
        let before = s.policy_epoch();
        s.with_write(|e| e.revoke_view("11", "mygrades")).unwrap();
        assert!(s.policy_epoch() > before);
        let err = s.execute(&sess, q).unwrap_err();
        assert!(err.is_unauthorized(), "got {err:?}");
    }

    #[test]
    fn close_makes_every_clone_refuse_cleanly() {
        let s = shared();
        let clone = s.clone();
        s.close().unwrap();
        assert!(clone.is_closed());
        let err = clone
            .execute(&Session::new("11"), "select grade from grades")
            .unwrap_err();
        assert!(
            matches!(err, fgac_types::Error::Unsupported(_)),
            "got {err:?}"
        );
        let err = s.close().unwrap_err();
        assert!(
            err.to_string().contains("double close"),
            "double close must be a clean, distinguishable error: {err}"
        );
    }
}
