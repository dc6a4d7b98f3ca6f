//! # dvm-algebra — the bag algebra `BA`
//!
//! The query language of *"Algorithms for Deferred View Maintenance"*
//! (Section 2): flat bags of tuples under selection `σ`, projection `Π`,
//! duplicate elimination `ε`, additive union `⊎`, monus `∸`, and product
//! `×`, with the derived operations `EXCEPT`, `min`, and `max`.
//!
//! Layers:
//!
//! * [`expr`] — the logical AST with fluent constructors;
//! * [`predicate`] — quantifier-free predicates over named columns;
//! * [`infer`] — schema inference and compilation to positional plans;
//! * [`plan`] / [`eval`](mod@eval) — physical plans evaluated against pinned catalog
//!   state, snapshots, or plain maps;
//! * [`simplify`](mod@simplify) — `φ`-propagation and constant folding (what keeps
//!   incremental queries small);
//! * [`subst`] — general and factored substitutions, whose two readings are
//!   the paper's `FUTURE(T,Q)` and `PAST(L,Q)`.

#![warn(missing_docs)]

pub mod aggregate;
pub mod display;
pub mod error;
pub mod eval;
pub mod explain;
pub mod expr;
pub mod infer;
pub mod plan;
pub mod plan_opt;
pub mod predicate;
pub mod simplify;
pub mod subst;
pub mod testgen;

pub use aggregate::{group_aggregate_bag, group_entry, AggCall, AggFunc, GroupAggregateState};
pub use error::{AlgebraError, Result};
pub use eval::{
    eval, eval_in_catalog, eval_pair, eval_reference, probed_scans, BagSource, PinnedState,
    SharedPlans,
};
pub use explain::{explain_plan, explain_plan_shared, explain_query};
pub use expr::Expr;
pub use infer::{compile, compile_unoptimized, infer_schema, CompiledQuery, SchemaProvider};
pub use plan::Plan;
pub use plan_opt::{fuse, FusedOp, FusedPlan, FusedSource};
pub use predicate::{col, lit, lit_str, CmpOp, ColRef, Operand, Predicate};
pub use simplify::simplify;
pub use subst::{FactoredSubstitution, Substitution};
