//! Aggregation-related rules.

use crate::dag::{Dag, OpId, Operator};
use fgac_algebra::{normalize_conjuncts, CmpOp, ScalarExpr};

/// `σ_p(γ_{G,aggs}(X))  ≡  γ_{G,aggs}(σ_p'(X))` when `p` references only
/// group-by output columns that are plain input columns. Selections on
/// group keys commute with grouping.
pub fn agg_select_commute(dag: &mut Dag, op_id: OpId) -> usize {
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
        let Operator::Aggregate { group_by, aggs } = &inner.op else {
            continue;
        };
        let below = inner.children[0];
        // Every referenced output column must be a group column.
        let ok = conjuncts
            .iter()
            .flat_map(|c| c.referenced_cols())
            .all(|i| i < group_by.len());
        if !ok {
            continue;
        }
        // Remap through the group-by expressions.
        let pushed: Vec<ScalarExpr> = conjuncts
            .iter()
            .map(|c| {
                c.transform(&|e| match e {
                    ScalarExpr::Col(i) => Some(group_by[*i].clone()),
                    _ => None,
                })
            })
            .collect();
        let before = dag.changes();
        let selected = dag.add_op(
            Operator::Select {
                conjuncts: normalize_conjuncts(&pushed),
            },
            vec![below],
            None,
        );
        dag.add_op(
            Operator::Aggregate {
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            },
            vec![selected],
            Some(class),
        );
        added += (dag.changes() != before) as usize;
    }
    added
}

/// Rewrites a *global* aggregate over a key-instantiating selection as a
/// selection over a *grouped* aggregate:
///
/// `γ_{[],aggs}(σ_{c=k}(X))  ≈  π_aggs(σ_{g=k}(γ_{[c],aggs}(X)))`
///
/// This is the classic aggregate/view-matching derivation ([14, 26, 28])
/// that lets `SELECT avg(grade) FROM Grades WHERE course_id='CS101'` be
/// answered from the `AvgGrades` authorization view (Example 4.1).
///
/// **Deviation note (documented in DESIGN.md):** the two sides differ on
/// states where no row matches `c=k` — the left yields one row of NULL
/// aggregates, the right yields zero rows. Following the paper's
/// Example 4.1 (and the cited aggregate-rewriting literature, which
/// resolves the mismatch with outer joins), we treat them as equivalent.
pub fn global_agg_to_grouped(dag: &mut Dag, op_id: OpId) -> usize {
    let node = dag.op(op_id).clone();
    let Operator::Aggregate { group_by, aggs } = &node.op else {
        return 0;
    };
    if !group_by.is_empty() {
        return 0;
    }
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
        // Every conjunct must instantiate a column: Col(i) = constant.
        let mut keys: Vec<(usize, ScalarExpr)> = Vec::new();
        let mut ok = true;
        for c in conjuncts {
            match c {
                ScalarExpr::Cmp { op: CmpOp::Eq, left, right } => {
                    match (&**left, &**right) {
                        (ScalarExpr::Col(i), k)
                            if matches!(k, ScalarExpr::Lit(_) | ScalarExpr::AccessParam(_)) =>
                        {
                            keys.push((*i, k.clone()));
                        }
                        _ => {
                            ok = false;
                            break;
                        }
                    }
                }
                _ => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok || keys.is_empty() {
            continue;
        }
        keys.sort_by_key(|(i, _)| *i);
        keys.dedup_by_key(|(i, _)| *i);

        // Grouped aggregate keyed on the instantiated columns.
        let before = dag.changes();
        let grouped = dag.add_op(
            Operator::Aggregate {
                group_by: keys.iter().map(|(i, _)| ScalarExpr::Col(*i)).collect(),
                aggs: aggs.clone(),
            },
            vec![below],
            None,
        );
        // Selection pinning the group keys (over the grouped output).
        let pins: Vec<ScalarExpr> = keys
            .iter()
            .enumerate()
            .map(|(out, (_, k))| ScalarExpr::eq(ScalarExpr::Col(out), k.clone()))
            .collect();
        let selected = dag.add_op(
            Operator::Select {
                conjuncts: normalize_conjuncts(&pins),
            },
            vec![grouped],
            None,
        );
        // Project away the keys, keeping only the aggregates.
        let proj: Vec<ScalarExpr> = (0..aggs.len())
            .map(|j| ScalarExpr::Col(keys.len() + j))
            .collect();
        dag.add_op(Operator::Project { exprs: proj }, vec![selected], Some(class));
        added += (dag.changes() != before) as usize;
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_algebra::{AggExpr, AggFunc, Plan};
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

    fn avg_grade() -> AggExpr {
        AggExpr {
            func: AggFunc::Avg,
            arg: Some(ScalarExpr::col(2)),
            distinct: false,
        }
    }

    #[test]
    fn select_on_group_key_commutes() {
        let mut dag = Dag::new();
        // σ_{course='cs101'}(γ_{course}(grades))
        let p = grades()
            .aggregate(vec![ScalarExpr::col(1)], vec![avg_grade()])
            .select(vec![ScalarExpr::eq(
                ScalarExpr::col(0),
                ScalarExpr::lit("cs101"),
            )]);
        let root = dag.insert_plan(&p);
        let sel = dag.ops_of(root)[0];
        assert_eq!(agg_select_commute(&mut dag, sel), 1);
        let has_agg_member = dag
            .ops_of(root)
            .iter()
            .any(|&o| matches!(dag.op(o).op, Operator::Aggregate { .. }));
        assert!(has_agg_member);
    }

    #[test]
    fn selection_on_aggregate_output_does_not_commute() {
        let mut dag = Dag::new();
        // σ_{avg > 50}(γ_{course}(grades)) — references agg column 1.
        let p = grades()
            .aggregate(vec![ScalarExpr::col(1)], vec![avg_grade()])
            .select(vec![ScalarExpr::cmp(
                CmpOp::Gt,
                ScalarExpr::col(1),
                ScalarExpr::lit(50),
            )]);
        let root = dag.insert_plan(&p);
        let sel = dag.ops_of(root)[0];
        assert_eq!(agg_select_commute(&mut dag, sel), 0);
    }

    #[test]
    fn global_aggregate_becomes_grouped() {
        let mut dag = Dag::new();
        // γ_{[],avg}(σ_{course='cs101'}(grades)) — Example 4.1's q1.
        let p = grades()
            .select(vec![ScalarExpr::eq(
                ScalarExpr::col(1),
                ScalarExpr::lit("cs101"),
            )])
            .aggregate(vec![], vec![avg_grade()]);
        let root = dag.insert_plan(&p);
        let agg = dag
            .ops_of(root)
            .iter()
            .copied()
            .find(|&o| matches!(dag.op(o).op, Operator::Aggregate { .. }))
            .unwrap();
        assert_eq!(global_agg_to_grouped(&mut dag, agg), 1);
        // The class now also contains a Project member.
        let has_proj = dag
            .ops_of(root)
            .iter()
            .any(|&o| matches!(dag.op(o).op, Operator::Project { .. }));
        assert!(has_proj);
    }
}
