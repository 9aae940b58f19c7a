//! Algebraic equivalence rules applied during DAG expansion.
//!
//! Each rule inspects one operation node (or one equivalence class) and
//! adds alternative operation nodes *into the same equivalence class*,
//! exactly as the paper describes: "Applying an equivalence rule to an
//! operation node results in an alternative equivalent expression, which
//! is added as another child of the parent equivalence node" (Section
//! 5.6.1).
//!
//! All rules are multiset-sound. Column references are positional, so
//! rules that reorder inputs remap offsets explicitly (join commutativity
//! wraps the swapped join in a permutation projection to preserve output
//! column order).
//!
//! Every rule reports how many of its applications *changed* the DAG —
//! created an operation node or merged two classes, as measured by
//! [`Dag::changes`]. Re-applying a rule at a fixpoint reports 0; that is
//! what lets [`crate::expand`] stop there.

mod aggregate;
mod join;
mod project;
mod select;
mod subsume;

pub use aggregate::{agg_select_commute, global_agg_to_grouped};
pub use join::{join_associate, join_commute};
pub use project::{project_select_transpose, select_project_transpose};
pub use select::select_push_into_join;
pub use subsume::{aggregate_rollup, selection_subsumption};

use crate::dag::{Dag, OpId};

/// Applies every structural (per-operation) rule to `op`. Returns how
/// many rule applications changed the DAG.
pub fn apply_structural(dag: &mut Dag, op: OpId) -> usize {
    let mut changed = 0;
    changed += join_commute(dag, op) as usize;
    changed += join_associate(dag, op);
    changed += select_push_into_join(dag, op);
    changed += project_select_transpose(dag, op);
    changed += select_project_transpose(dag, op);
    changed += agg_select_commute(dag, op);
    changed += global_agg_to_grouped(dag, op);
    changed
}

/// Shared helper: the lowest and highest column offsets a conjunct
/// references, if any.
pub(crate) fn col_range(e: &fgac_algebra::ScalarExpr) -> Option<(usize, usize)> {
    let cols = e.referenced_cols();
    match (cols.first(), cols.last()) {
        (Some(&lo), Some(&hi)) => Some((lo, hi)),
        _ => None,
    }
}
