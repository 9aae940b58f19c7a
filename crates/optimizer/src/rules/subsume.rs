//! Subsumption derivations (Section 5.6.1): "allow a selection to be
//! evaluated from a weaker selection or a coarse-grained aggregation from
//! a finer-grained one".

use crate::dag::{Dag, EqId, OpId, Operator};
use fgac_algebra::implication::implies;
use fgac_algebra::{AggExpr, AggFunc, ScalarExpr};
use std::collections::HashSet;

/// Selection subsumption: if `σ_p(E)` and `σ_q(E)` both exist over the
/// same class `E` and `p ⟹ q`, then `σ_p(E) = σ_p(σ_q(E))`, so the class
/// of `σ_p(E)` gains the member `σ_p(class-of σ_q(E))`.
///
/// This is what lets a query's *stronger* selection be answered from an
/// authorization view's *weaker* one.
///
/// `decided` holds the `(σ_p, σ_q)` operation pairs already settled by
/// an earlier call on the same DAG; they are skipped. That is exact:
/// an operation's predicate never changes, and once `σ_p(σ_q(E))` is in
/// `σ_p(E)`'s class, hash-consing keeps it there through any later
/// merge, so re-deriving it would be a no-op.
///
/// Returns the number of derivations that changed the DAG.
pub fn selection_subsumption(
    dag: &mut Dag,
    class: EqId,
    decided: &mut HashSet<(OpId, OpId)>,
) -> usize {
    let arity = dag.arity(class);
    let canon = dag.find(class);
    // The distinct Select parents of this class.
    let selects: Vec<OpId> = dag
        .parents_of(class)
        .iter()
        .copied()
        .filter(|&p| {
            let node = dag.op(p);
            // Skip parents via a different child slot.
            dag.find(node.children[0]) == canon && matches!(node.op, Operator::Select { .. })
        })
        .collect();
    let mut added = 0;
    for &p_op in &selects {
        for &q_op in &selects {
            if p_op == q_op || !decided.insert((p_op, q_op)) {
                continue;
            }
            let (Operator::Select { conjuncts: p }, Operator::Select { conjuncts: q }) =
                (&dag.op(p_op).op, &dag.op(q_op).op)
            else {
                continue;
            };
            if p == q || !implies(p, q, arity) {
                continue;
            }
            // σ_p(E) can be computed as σ_p over σ_q(E).
            let p_class = dag.class_of(p_op);
            let q_class = dag.class_of(q_op);
            if p_class == q_class {
                continue;
            }
            let p = p.clone();
            let before = dag.changes();
            dag.add_op(
                Operator::Select { conjuncts: p },
                vec![q_class],
                Some(p_class),
            );
            added += (dag.changes() != before) as usize;
        }
    }
    added
}

/// Aggregate rollup: a coarser aggregation computed from a finer one over
/// the same input, `γ_{G1}(E)` from `γ_{G2}(E)` when `G1 ⊆ G2` and every
/// aggregate re-aggregates (COUNT→SUM of counts, SUM→SUM of sums,
/// MIN→MIN of mins, MAX→MAX of maxes). DISTINCT aggregates and AVG do
/// not re-aggregate and block the derivation.
pub fn aggregate_rollup(dag: &mut Dag, class: EqId) -> usize {
    // Collect Aggregate parents of this class.
    let mut aggs: Vec<(OpId, Vec<ScalarExpr>, Vec<AggExpr>)> = Vec::new();
    for &p in dag.parents_of(class) {
        let node = dag.op(p);
        if dag.find(node.children[0]) != dag.find(class) {
            continue;
        }
        if let Operator::Aggregate { group_by, aggs: a } = &node.op {
            aggs.push((p, group_by.clone(), a.clone()));
        }
    }
    let mut added = 0;
    for (coarse_op, g1, a1) in &aggs {
        for (fine_op, g2, a2) in &aggs {
            if coarse_op == fine_op {
                continue;
            }
            // G1 must be a strict subset of G2.
            if g1.len() >= g2.len() || !g1.iter().all(|g| g2.contains(g)) {
                continue;
            }
            // Each coarse aggregate must re-aggregate from a fine one.
            let mut re_aggs = Vec::with_capacity(a1.len());
            let mut ok = true;
            for a in a1 {
                if a.distinct {
                    ok = false;
                    break;
                }
                let (want_fine, re_func) = match a.func {
                    AggFunc::CountStar => (
                        AggExpr {
                            func: AggFunc::CountStar,
                            arg: None,
                            distinct: false,
                        },
                        AggFunc::Sum,
                    ),
                    AggFunc::Count => (a.clone(), AggFunc::Sum),
                    AggFunc::Sum => (a.clone(), AggFunc::Sum),
                    AggFunc::Min => (a.clone(), AggFunc::Min),
                    AggFunc::Max => (a.clone(), AggFunc::Max),
                    AggFunc::Avg => {
                        ok = false;
                        break;
                    }
                };
                let Some(pos) = a2.iter().position(|f| f == &want_fine) else {
                    ok = false;
                    break;
                };
                re_aggs.push(AggExpr {
                    func: re_func,
                    arg: Some(ScalarExpr::Col(g2.len() + pos)),
                    distinct: false,
                });
            }
            if !ok {
                continue;
            }
            // Coarse group keys, as offsets into the fine output.
            let mut key_cols = Vec::with_capacity(g1.len());
            for g in g1 {
                let pos = g2.iter().position(|f| f == g).expect("subset checked");
                key_cols.push(ScalarExpr::Col(pos));
            }
            let coarse_class = dag.class_of(*coarse_op);
            let fine_class = dag.class_of(*fine_op);
            let before = dag.changes();
            dag.add_op(
                Operator::Aggregate {
                    group_by: key_cols,
                    aggs: re_aggs,
                },
                vec![fine_class],
                Some(coarse_class),
            );
            added += (dag.changes() != before) as usize;
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgac_algebra::{CmpOp, Plan};
    use fgac_types::{Column, DataType, Schema};

    fn scan() -> Plan {
        Plan::scan(
            "t",
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Int),
            ]),
        )
    }

    #[test]
    fn stronger_selection_derives_from_weaker() {
        let mut dag = Dag::new();
        let base = dag.insert_plan(&scan());
        // q: σ_{a=5}, view: σ_{a>0}.
        let strong = dag.insert_plan(&scan().select(vec![ScalarExpr::eq(
            ScalarExpr::col(0),
            ScalarExpr::lit(5),
        )]));
        let weak = dag.insert_plan(&scan().select(vec![ScalarExpr::cmp(
            CmpOp::Gt,
            ScalarExpr::col(0),
            ScalarExpr::lit(0),
        )]));
        let n = selection_subsumption(&mut dag, base, &mut HashSet::new());
        assert_eq!(n, 1);
        // The strong class gained a member whose child is the weak class.
        let derived = dag.ops_of(strong).iter().any(|&o| {
            let node = dag.op(o);
            matches!(node.op, Operator::Select { .. })
                && dag.find(node.children[0]) == dag.find(weak)
        });
        assert!(derived);
    }

    #[test]
    fn incomparable_selections_do_not_derive() {
        let mut dag = Dag::new();
        let base = dag.insert_plan(&scan());
        dag.insert_plan(&scan().select(vec![ScalarExpr::eq(
            ScalarExpr::col(0),
            ScalarExpr::lit(5),
        )]));
        dag.insert_plan(&scan().select(vec![ScalarExpr::eq(
            ScalarExpr::col(1),
            ScalarExpr::lit(7),
        )]));
        assert_eq!(selection_subsumption(&mut dag, base, &mut HashSet::new()), 0);
    }

    #[test]
    fn coarse_aggregate_rolls_up_from_fine() {
        let mut dag = Dag::new();
        let base = dag.insert_plan(&scan());
        let count = AggExpr {
            func: AggFunc::CountStar,
            arg: None,
            distinct: false,
        };
        // Fine: group by (a, b); coarse: group by (a).
        let fine = dag.insert_plan(&scan().aggregate(
            vec![ScalarExpr::col(0), ScalarExpr::col(1)],
            vec![count.clone()],
        ));
        let coarse =
            dag.insert_plan(&scan().aggregate(vec![ScalarExpr::col(0)], vec![count.clone()]));
        assert_eq!(aggregate_rollup(&mut dag, base), 1);
        let derived = dag.ops_of(coarse).iter().any(|&o| {
            let node = dag.op(o);
            matches!(&node.op, Operator::Aggregate { aggs, .. }
                if aggs.iter().all(|a| a.func == AggFunc::Sum))
                && dag.find(node.children[0]) == dag.find(fine)
        });
        assert!(derived);
    }

    #[test]
    fn avg_blocks_rollup() {
        let mut dag = Dag::new();
        let base = dag.insert_plan(&scan());
        let avg = AggExpr {
            func: AggFunc::Avg,
            arg: Some(ScalarExpr::col(1)),
            distinct: false,
        };
        dag.insert_plan(&scan().aggregate(
            vec![ScalarExpr::col(0), ScalarExpr::col(1)],
            vec![avg.clone()],
        ));
        dag.insert_plan(&scan().aggregate(vec![ScalarExpr::col(0)], vec![avg]));
        assert_eq!(aggregate_rollup(&mut dag, base), 0);
    }
}
