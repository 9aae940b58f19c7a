//! Validity marking (Section 5.6.2).
//!
//! "The root equivalence nodes for all views are marked as valid. The
//! following rules are applied bottom-up to the DAG:
//!   1. An equivalence node is marked as valid if any of its children
//!      operation nodes is marked as valid.
//!   2. An operation node is marked as valid if all its children
//!      equivalence nodes are marked as valid."
//!
//! A `Scan` operation has no children and would be vacuously valid, so
//! scans are explicitly *never* valid through propagation — a base table
//! is visible only if some authorization view class (e.g. `SELECT * FROM
//! t`, whose normalized plan *is* the scan) is marked directly.

use crate::dag::{Dag, EqId, Operator};
use std::collections::{HashMap, HashSet};

/// Why a class became valid — the marking's provenance, kept so an
/// acceptance can name the view roots it ultimately rests on.
#[derive(Debug, Clone)]
enum Why {
    /// Marked directly as root `i` of the `mark_valid` root list.
    Root(usize),
    /// Marked directly outside the root list (U3/C3 derivations, probe
    /// inserts); carries no root index.
    Direct,
    /// Marked by propagation through an operation node whose children
    /// are these (canonical) classes.
    Op(Vec<EqId>),
}

/// The set of equivalence classes inferred computable from the marked
/// roots.
#[derive(Debug, Clone, Default)]
pub struct Marking {
    valid: HashSet<EqId>,
    why: HashMap<EqId, Why>,
}

impl Marking {
    /// True if the class is marked valid.
    pub fn is_valid(&self, dag: &Dag, class: EqId) -> bool {
        self.valid.contains(&dag.find(class))
    }

    /// Marks a class valid directly (used by U3/C3 derivations, which
    /// justify validity outside the bottom-up propagation).
    pub fn mark(&mut self, dag: &Dag, class: EqId) {
        let c = dag.find(class);
        if self.valid.insert(c) {
            self.why.insert(c, Why::Direct);
        }
    }

    /// Marks a class valid as root number `index` (of the root list
    /// passed to [`mark_valid`]), so provenance can name it later.
    pub fn mark_root(&mut self, dag: &Dag, class: EqId, index: usize) {
        let c = dag.find(class);
        self.valid.insert(c);
        // A root annotation wins over a plain Direct mark: it carries
        // strictly more information.
        match self.why.get(&c) {
            Some(Why::Root(_)) => {}
            _ => {
                self.why.insert(c, Why::Root(index));
            }
        }
    }

    /// Number of valid classes.
    pub fn len(&self) -> usize {
        self.valid.len()
    }

    pub fn is_empty(&self) -> bool {
        self.valid.is_empty()
    }

    /// What the validity of `class` transitively rests on, in one walk
    /// of the provenance: the indices (into the `mark_valid` root list)
    /// of the roots it reaches, and the directly-marked (non-root)
    /// classes — the U3/C3-derived marks, whose justification lives
    /// outside the DAG propagation. Both sorted and deduped; both empty
    /// when the class is not valid.
    pub fn support(&self, dag: &Dag, class: EqId) -> (Vec<usize>, Vec<EqId>) {
        let start = dag.find(class);
        let (mut roots, mut marks) = (Vec::new(), Vec::new());
        if !self.valid.contains(&start) {
            return (roots, marks);
        }
        let mut seen: HashSet<EqId> = HashSet::new();
        let mut stack = vec![start];
        while let Some(c) = stack.pop() {
            if !seen.insert(c) {
                continue;
            }
            match self.why.get(&c) {
                Some(Why::Root(i)) => roots.push(*i),
                Some(Why::Direct) => marks.push(c),
                Some(Why::Op(children)) => {
                    for &ch in children {
                        stack.push(dag.find(ch));
                    }
                }
                None => {}
            }
        }
        roots.sort_unstable();
        roots.dedup();
        marks.sort_unstable();
        marks.dedup();
        (roots, marks)
    }

    /// Re-canonicalizes the marking after DAG mutations and re-runs the
    /// propagation to a fixpoint.
    pub fn propagate(&mut self, dag: &Dag) {
        // Re-canonicalize ids (merges may have changed representatives).
        self.valid = self.valid.iter().map(|&e| dag.find(e)).collect();
        let old_why = std::mem::take(&mut self.why);
        for (c, why) in old_why {
            let canon = dag.find(c);
            // On a merge collision prefer the root annotation, then any
            // existing entry (provenance only needs one justification).
            match (self.why.get(&canon), &why) {
                (Some(Why::Root(_)), _) => {}
                (Some(_), Why::Root(_)) | (None, _) => {
                    self.why.insert(canon, why);
                }
                (Some(_), _) => {}
            }
        }
        loop {
            let mut changed = false;
            for op_id in dag.all_ops() {
                let node = dag.op(op_id);
                if matches!(node.op, Operator::Scan { .. }) {
                    continue;
                }
                let class = dag.find(node.class);
                if self.valid.contains(&class) {
                    continue;
                }
                if node
                    .children
                    .iter()
                    .all(|&c| self.valid.contains(&dag.find(c)))
                {
                    self.valid.insert(class);
                    self.why.insert(
                        class,
                        Why::Op(node.children.iter().map(|&c| dag.find(c)).collect()),
                    );
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }
}

/// Marks the given roots (instantiated authorization view classes) valid
/// and propagates bottom-up. This implements inference rules **U1** and
/// **U2** (equivalently **C1**/**C2** when conditional roots are
/// included).
pub fn mark_valid(dag: &Dag, roots: &[EqId]) -> Marking {
    let mut m = Marking::default();
    for (i, &r) in roots.iter().enumerate() {
        m.mark_root(dag, r, i);
    }
    m.propagate(dag);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::{expand, ExpandOptions};
    use fgac_algebra::{Plan, ScalarExpr};
    use fgac_types::{Column, DataType, Schema};

    fn grades() -> Plan {
        Plan::scan(
            "grades",
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("course_id", DataType::Str),
                Column::new("grade", DataType::Int),
            ]),
        )
    }

    fn my_grades() -> Plan {
        // σ_{student_id='11'}(grades) — instantiated MyGrades.
        grades().select(vec![ScalarExpr::eq(
            ScalarExpr::col(0),
            ScalarExpr::lit("11"),
        )])
    }

    #[test]
    fn query_matching_view_is_valid() {
        // Section 5.2: "select grade from Grades where student-id='11'"
        // is a projection of the instantiated MyGrades.
        let mut dag = Dag::new();
        let query = my_grades().project(vec![ScalarExpr::col(2)]);
        let q = dag.insert_plan(&query);
        let v = dag.insert_plan(&my_grades());
        let marking = mark_valid(&dag, &[v]);
        assert!(marking.is_valid(&dag, q));
    }

    #[test]
    fn scan_is_not_vacuously_valid() {
        let mut dag = Dag::new();
        let q = dag.insert_plan(&grades());
        let v = dag.insert_plan(&my_grades());
        let marking = mark_valid(&dag, &[v]);
        // The raw scan must NOT be valid from a selection view.
        assert!(!marking.is_valid(&dag, q));
    }

    #[test]
    fn whole_table_view_authorizes_scan() {
        let mut dag = Dag::new();
        let q = dag.insert_plan(&grades());
        let v = dag.insert_plan(&grades()); // view body: select * from grades
        let marking = mark_valid(&dag, &[v]);
        assert!(marking.is_valid(&dag, q));
    }

    #[test]
    fn expression_over_two_views_is_valid() {
        // U2 with n=2: join of two valid views.
        let mut dag = Dag::new();
        let reg = Plan::scan(
            "registered",
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("course_id", DataType::Str),
            ]),
        );
        let v1 = my_grades();
        let v2 = reg.clone().select(vec![ScalarExpr::eq(
            ScalarExpr::col(0),
            ScalarExpr::lit("11"),
        )]);
        let query = v1.clone().join(
            v2.clone(),
            vec![ScalarExpr::eq(ScalarExpr::col(1), ScalarExpr::col(4))],
        );
        let q = dag.insert_plan(&query);
        let r1 = dag.insert_plan(&v1);
        let r2 = dag.insert_plan(&v2);
        let marking = mark_valid(&dag, &[r1, r2]);
        assert!(marking.is_valid(&dag, q));
    }

    #[test]
    fn stronger_selection_validates_through_subsumption() {
        // Query σ_{sid='11' ∧ grade>90}(grades); view σ_{sid='11'}(grades).
        // Needs the subsumption derivation added by expansion.
        let mut dag = Dag::new();
        let query = grades().select(vec![
            ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit("11")),
            ScalarExpr::cmp(fgac_algebra::CmpOp::Gt, ScalarExpr::col(2), ScalarExpr::lit(90)),
        ]);
        let q = dag.insert_plan(&query);
        let v = dag.insert_plan(&my_grades());
        expand(&mut dag, &ExpandOptions::default());
        let marking = mark_valid(&dag, &[v]);
        assert!(marking.is_valid(&dag, q));
    }

    #[test]
    fn provenance_names_the_supporting_roots() {
        // Join of two valid views: the query's provenance must reach
        // both roots, and only those.
        let mut dag = Dag::new();
        let reg = Plan::scan(
            "registered",
            Schema::new(vec![
                Column::new("student_id", DataType::Str),
                Column::new("course_id", DataType::Str),
            ]),
        );
        let v1 = my_grades();
        let v2 = reg.select(vec![ScalarExpr::eq(
            ScalarExpr::col(0),
            ScalarExpr::lit("11"),
        )]);
        let unrelated = grades().select(vec![ScalarExpr::eq(
            ScalarExpr::col(0),
            ScalarExpr::lit("99"),
        )]);
        let query = v1.clone().join(
            v2.clone(),
            vec![ScalarExpr::eq(ScalarExpr::col(1), ScalarExpr::col(4))],
        );
        let q = dag.insert_plan(&query);
        let r1 = dag.insert_plan(&v1);
        let r2 = dag.insert_plan(&v2);
        let r3 = dag.insert_plan(&unrelated);
        let marking = mark_valid(&dag, &[r1, r2, r3]);
        assert!(marking.is_valid(&dag, q));
        assert_eq!(marking.support(&dag, q), (vec![0, 1], vec![]));
        // An invalid class has no support.
        let lone = dag.insert_plan(&grades());
        assert_eq!(marking.support(&dag, lone), (vec![], vec![]));
    }

    #[test]
    fn unrelated_selection_stays_invalid() {
        let mut dag = Dag::new();
        let query = grades().select(vec![ScalarExpr::eq(
            ScalarExpr::col(0),
            ScalarExpr::lit("12"), // someone else's grades
        )]);
        let q = dag.insert_plan(&query);
        let v = dag.insert_plan(&my_grades());
        expand(&mut dag, &ExpandOptions::default());
        let marking = mark_valid(&dag, &[v]);
        assert!(!marking.is_valid(&dag, q));
    }
}
