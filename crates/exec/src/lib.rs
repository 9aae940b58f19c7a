//! # fgac-exec
//!
//! Query execution over [`fgac_storage::Database`] with SQL multiset
//! semantics and three-valued logic.
//!
//! In the Non-Truman model the *original* query executes unmodified once
//! validated (Section 4); in the Truman model the *rewritten* query
//! executes. Both paths land here. Conditional-validity checking (rule
//! C3a condition 3) also calls into the executor to probe whether the
//! instantiated view-remainder `v_r` is non-empty on the current state.
//!
//! Operators: filter, duplicate-preserving project, distinct, hash /
//! nested-loop join (picked per predicate shape), hash aggregate, sort +
//! limit for presentation. Scans are *borrowed* ([`execute_plan_cow`]):
//! the leaf returns the table's own row slice and operators clone rows
//! only when they must produce owned data, so a selective query pays
//! O(|result|) clones rather than O(|table|). The [`rows_cloned`]
//! counter makes that cost observable to tests and benches. Selects
//! that pin an indexed key with literals read only the pinned rows
//! through the table's index, keeping scan order; UPDATE and DELETE
//! find their victims the same way ([`matching_rows`]).

mod access;
mod dml;
mod eval;
mod exec;
mod pushdown;

pub use access::matching_rows;
pub use dml::{
    audit_inclusion, bind_filter, bind_update, deleted_positions, execute_delete, execute_insert,
    execute_update, insert_all_atomic, insert_rows, updated_rows, DmlOutcome,
};
pub use eval::{eval, eval_predicate};
pub use exec::{
    execute_bound, execute_plan, execute_plan_cow, reset_rows_cloned, rows_cloned, run_query_sql,
    QueryResult,
};
pub use pushdown::push_selections;
