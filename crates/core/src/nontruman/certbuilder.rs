//! Step accumulator for validity certificates.
//!
//! The validator threads a [`CertBuilder`] through `check_plan`: every
//! rule application (U1 view instantiation, U2 match/restrict/compose,
//! U3 expansion, C3 probe, dependent join) pushes a [`Step`] and gets
//! back its index, which later steps cite as premises. The builder also
//! remembers which step justified each directly-marked DAG class and
//! which step backs each view root, so a DAG-propagation acceptance can
//! name its supporting premises via [`Marking`] provenance.
//!
//! Only the goal's derivation survives [`CertBuilder::take`]: steps the
//! goal's premise chains never reach (restrictions, compositions and
//! views that led nowhere) are pruned.
//!
//! When disabled (`CheckOptions::emit_certificates == false`) every
//! method is a no-op and `push` returns a dummy index, so the validator
//! logic stays branch-free.

use fgac_analyze::Step;
use fgac_optimizer::{Dag, EqId, Marking};

pub(crate) struct CertBuilder {
    enabled: bool,
    steps: Vec<Step>,
    /// Directly-marked DAG classes (U3 cores, matcher hits) and the
    /// step that justified each. Looked up through `dag.find` so later
    /// merges don't orphan the provenance.
    class_steps: Vec<(EqId, usize)>,
    /// Step index backing each view root, in `mark_valid` root order.
    root_steps: Vec<usize>,
}

impl CertBuilder {
    pub fn new(enabled: bool) -> Self {
        CertBuilder {
            enabled,
            steps: Vec::new(),
            class_steps: Vec::new(),
            root_steps: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Appends a step and returns its index (0 when disabled).
    pub fn push(&mut self, step: Step) -> usize {
        if !self.enabled {
            return 0;
        }
        self.steps.push(step);
        self.steps.len() - 1
    }

    /// Appends a step backing the next view root (root order must match
    /// the root list handed to `mark_valid`).
    pub fn push_root(&mut self, step: Step) -> usize {
        let idx = self.push(step);
        self.root_steps.push(idx);
        idx
    }

    /// Records that `class` was directly marked valid because of `step`.
    pub fn note_class(&mut self, dag: &Dag, class: EqId, step: usize) {
        if self.enabled {
            self.class_steps.push((dag.find(class), step));
        }
    }

    fn step_for_class(&self, dag: &Dag, class: EqId) -> Option<usize> {
        let canon = dag.find(class);
        self.class_steps
            .iter()
            .rev()
            .find(|&&(c, _)| dag.find(c) == canon)
            .map(|&(_, s)| s)
    }

    /// Premise steps supporting `class`'s validity: the view roots and
    /// directly-marked classes the marking's provenance reaches.
    pub fn supports(&self, dag: &Dag, marking: &Marking, class: EqId) -> Vec<usize> {
        if !self.enabled {
            return Vec::new();
        }
        let (roots, marks) = marking.support(dag, class);
        let mut out: Vec<usize> = roots
            .into_iter()
            .filter_map(|i| self.root_steps.get(i).copied())
            .collect();
        for c in marks {
            if let Some(s) = self.step_for_class(dag, c) {
                out.push(s);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Consumes the builder, yielding the goal's derivation: the last
    /// (goal) step and every step its premise chains reach, in recording
    /// order with premises renumbered. Steps recorded on paths that did
    /// not lead to the goal are dropped, so a certificate names only the
    /// views and constraints its verdict depends on. Steps are moved,
    /// never cloned.
    pub fn take(mut self) -> Vec<Step> {
        const DEAD: usize = usize::MAX;
        // Mark the closure: premises always cite earlier steps, so one
        // backward sweep from the goal reaches every live step.
        let mut index = vec![DEAD; self.steps.len()];
        if let Some(goal) = index.last_mut() {
            *goal = 0;
        }
        for i in (0..index.len()).rev() {
            if index[i] != DEAD {
                for &p in &self.steps[i].premises {
                    debug_assert!(p < i, "step {i} cites a later step {p}");
                    index[p] = 0;
                }
            }
        }
        // Number the live steps, drop the rest, renumber premises.
        for (kept, slot) in index.iter_mut().filter(|s| **s != DEAD).enumerate() {
            *slot = kept;
        }
        let mut i = 0;
        self.steps.retain(|_| {
            i += 1;
            index[i - 1] != DEAD
        });
        for step in &mut self.steps {
            for p in &mut step.premises {
                *p = index[*p];
            }
        }
        self.steps
    }
}
