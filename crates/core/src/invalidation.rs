//! Dependency-tracked policy-change invalidation.
//!
//! Before this module, every grant, revoke, role change, or DDL bumped
//! the global `policy_epoch` and cold-started every cache admission
//! reads at once — the plan cache, the sharded validity cache, and the
//! compiled capability snapshots. Under server traffic with frequent
//! policy churn that is a recurring p99 cliff: one revocation for one
//! principal re-proves every other principal's working set from
//! scratch.
//!
//! A [`PolicyDelta`] describes *what actually changed*, and
//! [`PolicyDelta::affects`] answers the only question the caches need:
//! "could this change alter the effective grant set of user `u`?" The
//! engine applies a change by bumping the epoch as before (the epoch
//! remains the global version stamp certificates are minted under) and
//! then sweeping each cache with the delta:
//!
//! * validity-cache entries of **unaffected** principals are restamped
//!   to the new epoch — still fresh, no recheck;
//! * affected ACCEPT entries that carry a validity certificate are left
//!   at their mint epoch — *stale*, eligible for cheap warm
//!   revalidation ([`fgac_analyze::revalidate_certificate`]) on next
//!   lookup;
//! * affected entries without a certificate (and cached denials, which
//!   a grant may legitimately flip) are dropped;
//! * plan-cache entries are keyed by the relation/view names they were
//!   bound against and are invalidated only by DDL that introduces a
//!   colliding name — grants never change binding;
//! * compiled [`crate::PrincipalCaps`] snapshots of unaffected
//!   principals survive (compilation is a pure function of the catalog
//!   and that principal's grants, neither of which changed for them).
//!
//! **Safety.** Every sweep runs inside the writer's critical section
//! (`&mut Engine` / the [`crate::SharedEngine`] write lock), so a
//! reader observes either the pre-change caches with the pre-change
//! grants or the post-change caches with the post-change grants, never
//! a mix. Restamping only ever applies to entries stamped with the
//! *pre-change* epoch: an entry already left stale by an earlier
//! affecting change keeps its old stamp and still must pass
//! revalidation before it serves again. Anything doubtful — a missing
//! certificate, a failed or budget-exhausted revalidation — falls
//! closed to a full cold check.

use crate::grants::Grants;
use fgac_sql::Query;
use fgac_storage::Catalog;
use fgac_types::Ident;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

// Process-wide churn observability, following the compiled fast path's
// counter pattern: monotone, relaxed, never a correctness input.
static POLICY_CHANGES: AtomicU64 = AtomicU64::new(0);
static FULL_INVALIDATIONS: AtomicU64 = AtomicU64::new(0);

/// Policy/schema changes applied through dependency-tracked
/// invalidation (all engines).
pub fn policy_change_count() -> u64 {
    POLICY_CHANGES.load(Ordering::Relaxed)
}

/// Changes that fell back to a full cold-start sweep (recovery, or an
/// explicit [`PolicyDelta::Full`]) — all engines.
pub fn full_invalidation_count() -> u64 {
    FULL_INVALIDATIONS.load(Ordering::Relaxed)
}

pub(crate) fn note_policy_change() {
    POLICY_CHANGES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_full_invalidation() {
    FULL_INVALIDATIONS.fetch_add(1, Ordering::Relaxed);
}

/// One policy or schema change, in just enough detail to decide which
/// cached admission state it can possibly touch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyDelta {
    /// An authorization view was granted to a principal (directly or by
    /// delegation).
    GrantView { principal: String, view: Ident },
    /// An authorization view was revoked from a principal.
    RevokeView { principal: String, view: Ident },
    /// An integrity constraint was made visible to a principal.
    GrantConstraint { principal: String, name: Ident },
    /// A user was added to a role: only that user's effective set moves.
    AddRole { user: String },
    /// `CREATE [AUTHORIZATION] VIEW`: a new name exists, but until it is
    /// granted it is in nobody's effective set.
    NewView { view: Ident },
    /// `CREATE TABLE`: a pure catalog extension. Existing verdicts
    /// quantify over the relations they mention and stay sound.
    NewTable { table: Ident },
    /// A new inclusion dependency: invisible until granted.
    NewConstraint { name: Ident },
    /// Shape unknown — invalidate everything (recovery uses this).
    Full,
}

impl PolicyDelta {
    /// Could this change alter `user`'s *effective* grant set (direct
    /// grants plus role-inherited ones)? `true` means the user's cached
    /// verdicts may no longer match a cold check and must be dropped or
    /// revalidated; `false` means they provably still would.
    pub fn affects(&self, grants: &Grants, user: &str) -> bool {
        match self {
            PolicyDelta::GrantView { principal, .. }
            | PolicyDelta::RevokeView { principal, .. }
            | PolicyDelta::GrantConstraint { principal, .. } => {
                user == principal
                    || grants
                        .role_memberships()
                        .get(user)
                        .is_some_and(|roles| roles.contains(principal))
            }
            PolicyDelta::AddRole { user: u } => user == u,
            // A freshly created view/table/constraint is granted to no
            // one: no effective set moves until a later grant (which
            // arrives as its own delta).
            PolicyDelta::NewView { .. }
            | PolicyDelta::NewTable { .. }
            | PolicyDelta::NewConstraint { .. } => false,
            PolicyDelta::Full => true,
        }
    }

    /// The catalog name this change introduces, if any — the only kind
    /// of change that can alter how an existing SQL text *binds* (name
    /// resolution / view expansion), and therefore the only kind that
    /// touches the plan cache.
    pub fn introduced_name(&self) -> Option<&Ident> {
        match self {
            PolicyDelta::NewView { view } => Some(view),
            PolicyDelta::NewTable { table } => Some(table),
            _ => None,
        }
    }
}

/// The catalog names a query's binding depends on: every name in a FROM
/// clause (tables *and* views, joins included), recursing through view
/// definitions — a cached plan embeds expanded view bodies, so it reads
/// every view on the expansion path and every base table underneath.
pub fn query_dependencies(catalog: &Catalog, query: &Query) -> BTreeSet<Ident> {
    let mut deps = BTreeSet::new();
    collect_query(catalog, query, &mut deps, 0);
    deps
}

/// View definitions can nest; the binder enforces its own expansion
/// limits, so a runaway here would indicate a cycle the binder already
/// rejected. Depth-capped defensively all the same.
const MAX_VIEW_DEPTH: usize = 32;

fn collect_query(catalog: &Catalog, query: &Query, deps: &mut BTreeSet<Ident>, depth: usize) {
    for tref in &query.from {
        collect_name(catalog, &tref.name, deps, depth);
        for join in &tref.joins {
            collect_name(catalog, &join.table, deps, depth);
        }
    }
}

fn collect_name(catalog: &Catalog, name: &Ident, deps: &mut BTreeSet<Ident>, depth: usize) {
    if !deps.insert(name.clone()) || depth >= MAX_VIEW_DEPTH {
        return;
    }
    if let Some(def) = catalog.view(name) {
        collect_query(catalog, &def.query, deps, depth + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grants() -> Grants {
        let mut g = Grants::new();
        g.grant_view("alice", "v1");
        g.grant_view("student", "v2");
        g.add_role("bob", "student");
        g
    }

    #[test]
    fn grant_and_revoke_affect_principal_and_role_members() {
        let g = grants();
        let d = PolicyDelta::RevokeView {
            principal: "alice".into(),
            view: Ident::new("v1"),
        };
        assert!(d.affects(&g, "alice"));
        assert!(!d.affects(&g, "bob"));
        let role = PolicyDelta::GrantView {
            principal: "student".into(),
            view: Ident::new("v3"),
        };
        // Bob inherits through the role; Alice does not hold it.
        assert!(role.affects(&g, "bob"));
        assert!(!role.affects(&g, "alice"));
        // The role principal itself is affected too.
        assert!(role.affects(&g, "student"));
    }

    #[test]
    fn add_role_affects_only_that_user() {
        let g = grants();
        let d = PolicyDelta::AddRole { user: "carol".into() };
        assert!(d.affects(&g, "carol"));
        assert!(!d.affects(&g, "alice"));
        assert!(!d.affects(&g, "bob"));
    }

    #[test]
    fn pure_schema_changes_affect_nobody() {
        let g = grants();
        for d in [
            PolicyDelta::NewTable { table: Ident::new("t") },
            PolicyDelta::NewView { view: Ident::new("v") },
            PolicyDelta::NewConstraint { name: Ident::new("c") },
        ] {
            assert!(!d.affects(&g, "alice"));
            assert!(!d.affects(&g, "bob"));
        }
        assert!(PolicyDelta::Full.affects(&g, "anyone"));
    }

    #[test]
    fn introduced_names_cover_binding_changes_only() {
        assert_eq!(
            PolicyDelta::NewTable { table: Ident::new("t") }
                .introduced_name()
                .map(|i| i.as_str()),
            Some("t")
        );
        assert_eq!(
            PolicyDelta::NewView { view: Ident::new("v") }
                .introduced_name()
                .map(|i| i.as_str()),
            Some("v")
        );
        assert!(PolicyDelta::GrantView {
            principal: "u".into(),
            view: Ident::new("v"),
        }
        .introduced_name()
        .is_none());
        assert!(PolicyDelta::Full.introduced_name().is_none());
    }

    #[test]
    fn query_dependencies_recurse_through_views() {
        let mut c = Catalog::new();
        c.add_table(
            "base",
            fgac_types::Schema::new(vec![fgac_types::Column::new(
                "a",
                fgac_types::DataType::Int,
            )]),
            None,
        )
        .unwrap();
        let fgac_sql::Statement::CreateView(v) =
            fgac_sql::parse_statement("create view outer_v as select a from base").unwrap()
        else {
            panic!("not a view");
        };
        c.add_view(fgac_storage::ViewDef {
            name: v.name,
            authorization: v.authorization,
            query: v.query,
        })
        .unwrap();
        let q = fgac_sql::parse_query("select a from outer_v").unwrap();
        let deps = query_dependencies(&c, &q);
        assert!(deps.contains(&Ident::new("outer_v")));
        assert!(deps.contains(&Ident::new("base")));
    }
}
