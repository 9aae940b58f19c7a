//! Projection/selection transposition.

use crate::dag::{Dag, OpId, Operator};
use fgac_algebra::{normalize_conjuncts, substitute_cols, ScalarExpr};

/// `π_e(σ_p(X))  ≡  σ_p'(π_e(X))` — valid when every column `p`
/// references survives the projection as a plain column (so `p` can be
/// re-expressed over the projected row).
///
/// This lets selections climb above projections so they can match
/// selections over (projected) authorization views.
pub fn project_select_transpose(dag: &mut Dag, op_id: OpId) -> usize {
    let node = dag.op(op_id).clone();
    let Operator::Project { exprs } = &node.op else {
        return 0;
    };
    let class = dag.class_of(op_id);
    let child = node.children[0];

    let mut added = 0;
    let members: Vec<OpId> = dag.ops_of(child).to_vec();
    for member in members {
        let inner = dag.op(member).clone();
        let Operator::Select { conjuncts } = &inner.op else {
            continue;
        };
        let below = inner.children[0];
        // Remap each conjunct through the projection: Col(i) -> Col(k)
        // where exprs[k] == Col(i).
        let mut remapped = Vec::with_capacity(conjuncts.len());
        let mut ok = true;
        'conj: for c in conjuncts {
            let mut mapping = std::collections::BTreeMap::new();
            for i in c.referenced_cols() {
                match exprs.iter().position(|e| e == &ScalarExpr::Col(i)) {
                    Some(k) => {
                        mapping.insert(i, k);
                    }
                    None => {
                        ok = false;
                        break 'conj;
                    }
                }
            }
            remapped.push(c.map_cols(&|i| mapping[&i]));
        }
        if !ok {
            continue;
        }
        let before = dag.changes();
        let projected = dag.add_op(
            Operator::Project {
                exprs: exprs.clone(),
            },
            vec![below],
            None,
        );
        dag.add_op(
            Operator::Select {
                conjuncts: normalize_conjuncts(&remapped),
            },
            vec![projected],
            Some(class),
        );
        added += (dag.changes() != before) as usize;
    }
    added
}

/// `σ_p(π_e(X))  ≡  π_e(σ_{p∘e}(X))` — always valid: substitute the
/// projection expressions into the predicate.
pub fn select_project_transpose(dag: &mut Dag, op_id: OpId) -> usize {
    let node = dag.op(op_id).clone();
    let Operator::Select { conjuncts } = &node.op else {
        return 0;
    };
    let class = dag.class_of(op_id);
    let child = node.children[0];

    let mut added = 0;
    let members: Vec<OpId> = dag.ops_of(child).to_vec();
    for member in members {
        let inner = dag.op(member).clone();
        let Operator::Project { exprs } = &inner.op else {
            continue;
        };
        let below = inner.children[0];
        let pushed: Vec<ScalarExpr> =
            conjuncts.iter().map(|c| substitute_cols(c, exprs)).collect();
        let before = dag.changes();
        let selected = dag.add_op(
            Operator::Select {
                conjuncts: normalize_conjuncts(&pushed),
            },
            vec![below],
            None,
        );
        dag.add_op(
            Operator::Project {
                exprs: exprs.clone(),
            },
            vec![selected],
            Some(class),
        );
        added += (dag.changes() != before) as usize;
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_algebra::Plan;
    use fgac_types::{Column, DataType, Schema};

    fn scan(t: &str) -> Plan {
        Plan::scan(
            t,
            Schema::new(vec![
                Column::new("x", DataType::Int),
                Column::new("y", DataType::Int),
                Column::new("z", DataType::Int),
            ]),
        )
    }

    #[test]
    fn project_over_select_lifts_predicate() {
        let mut dag = Dag::new();
        let p = scan("t")
            .select(vec![ScalarExpr::eq(ScalarExpr::col(2), ScalarExpr::lit(5))])
            .project(vec![ScalarExpr::col(2), ScalarExpr::col(0)]);
        let root = dag.insert_plan(&p);
        let proj_op = dag.ops_of(root)[0];
        assert_eq!(project_select_transpose(&mut dag, proj_op), 1);
        // New member: Select over Project with remapped offset 2 -> 0.
        let found = dag.ops_of(root).iter().any(|&o| {
            matches!(
                &dag.op(o).op,
                Operator::Select { conjuncts }
                    if conjuncts == &vec![ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit(5))]
            )
        });
        assert!(found);
    }

    #[test]
    fn project_dropping_predicate_column_blocks_lift() {
        let mut dag = Dag::new();
        let p = scan("t")
            .select(vec![ScalarExpr::eq(ScalarExpr::col(2), ScalarExpr::lit(5))])
            .project(vec![ScalarExpr::col(0)]);
        let root = dag.insert_plan(&p);
        let proj_op = dag.ops_of(root)[0];
        assert_eq!(project_select_transpose(&mut dag, proj_op), 0);
    }

    #[test]
    fn select_over_project_pushes_down() {
        let mut dag = Dag::new();
        let p = scan("t")
            .project(vec![ScalarExpr::col(1)])
            .select(vec![ScalarExpr::eq(ScalarExpr::col(0), ScalarExpr::lit(9))]);
        let root = dag.insert_plan(&p);
        let sel_op = dag.ops_of(root)[0];
        assert_eq!(select_project_transpose(&mut dag, sel_op), 1);
        let found = dag.ops_of(root).iter().any(|&o| {
            matches!(&dag.op(o).op, Operator::Project { .. })
        });
        assert!(found);
    }
}
