//! `EXPLAIN`: render physical plans as indented operator trees.
//!
//! Useful for inspecting what the optimizer did — in particular whether a
//! view definition's products became hash joins and where predicates were
//! pushed (the difference between a usable refresh and a cross-product
//! blow-up).

use crate::eval::SharedPlans;
use crate::infer::CompiledQuery;
use crate::plan::{PhysPredicate, Plan};
use std::fmt::Write as _;

/// Render a plan as an indented tree, one operator per line.
pub fn explain_plan(plan: &Plan) -> String {
    explain_plan_shared(plan, &SharedPlans::default())
}

/// [`explain_plan`] for one plan of a `(▼, ▲)` pair: an operator whose
/// result the pair computes once is marked `[shared #slot]`, a join side
/// whose hash build it computes once `[shared build #slot]` (used when that
/// side is the one built).
pub fn explain_plan_shared(plan: &Plan, shared: &SharedPlans) -> String {
    let mut out = String::new();
    render(plan, 0, shared, &mut out);
    out
}

/// Render a compiled query: output schema, then the plan tree.
pub fn explain_query(q: &CompiledQuery) -> String {
    format!("schema: {}\n{}", q.schema, explain_plan(&q.plan))
}

fn render(plan: &Plan, depth: usize, shared: &SharedPlans, out: &mut String) {
    let pad = "  ".repeat(depth);
    let head = |out: &mut String, label: std::fmt::Arguments<'_>| {
        write!(out, "{pad}{label}").unwrap();
        if let Some(slot) = shared.slot_of(plan, false) {
            write!(out, "  [shared #{slot}]").unwrap();
        }
        if let Some(slot) = shared.slot_of(plan, true) {
            write!(out, "  [shared build #{slot}]").unwrap();
        }
        out.push('\n');
    };
    match plan {
        Plan::Scan(name) => head(out, format_args!("Scan {name}")),
        Plan::Literal(bag) => {
            let (tuples, distinct) = (bag.len(), bag.distinct_len());
            head(
                out,
                format_args!("Literal [{tuples} tuples, {distinct} distinct]"),
            );
        }
        Plan::Filter(pred, _) => head(out, format_args!("Filter {}", render_pred(pred))),
        Plan::Project(cols, _) => {
            let cols: Vec<String> = cols.iter().map(|c| format!("#{c}")).collect();
            head(out, format_args!("Project [{}]", cols.join(", ")));
        }
        Plan::DupElim(_) => head(out, format_args!("DupElim (ε)")),
        Plan::Union(..) => head(out, format_args!("Union (⊎)")),
        Plan::Monus(..) => head(out, format_args!("Monus (∸)")),
        Plan::Product(..) => head(out, format_args!("Product (×)")),
        Plan::MinIntersect(..) => head(out, format_args!("MinIntersect (min)")),
        Plan::MaxUnion(..) => head(out, format_args!("MaxUnion (max)")),
        Plan::Except(..) => head(out, format_args!("Except")),
        Plan::HashJoin {
            left_keys,
            right_keys,
            residual,
            ..
        } => {
            let keys: Vec<String> = left_keys
                .iter()
                .zip(right_keys)
                .map(|(l, r)| format!("#{l}=#{r}"))
                .collect();
            let residual_s = match residual {
                PhysPredicate::Const(true) => String::new(),
                p => format!(" residual: {}", render_pred(p)),
            };
            let keys = keys.join(", ");
            head(out, format_args!("HashJoin on [{keys}]{residual_s}"));
        }
        Plan::GroupAggregate { keys, aggs, .. } => {
            let keys: Vec<String> = keys.iter().map(|k| format!("#{k}")).collect();
            let aggs: Vec<String> = aggs
                .iter()
                .map(|(func, arg)| match arg {
                    None => "count(*)".to_string(),
                    Some(i) => format!("{func}(#{i})"),
                })
                .collect();
            head(
                out,
                format_args!(
                    "GroupAggregate (γ) by [{}] computing [{}]",
                    keys.join(", "),
                    aggs.join(", ")
                ),
            );
        }
    }
    for input in plan.inputs() {
        render(input, depth + 1, shared, out);
    }
}

/// Render a compiled predicate with `#i` column positions.
pub fn render_pred(p: &PhysPredicate) -> String {
    use crate::plan::PhysOperand;
    fn operand(o: &PhysOperand) -> String {
        match o {
            PhysOperand::Col(i) => format!("#{i}"),
            PhysOperand::Const(v) => v.to_string(),
        }
    }
    match p {
        PhysPredicate::Const(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        PhysPredicate::Cmp(l, op, r) => format!("{} {op} {}", operand(l), operand(r)),
        PhysPredicate::And(a, b) => format!("({} AND {})", render_pred(a), render_pred(b)),
        PhysPredicate::Or(a, b) => format!("({} OR {})", render_pred(a), render_pred(b)),
        PhysPredicate::Not(a) => format!("NOT ({})", render_pred(a)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::infer::compile;
    use crate::predicate::{col, lit, Predicate};
    use dvm_storage::{Schema, ValueType};
    use std::collections::HashMap;

    fn provider() -> HashMap<String, Schema> {
        let mut m = HashMap::new();
        m.insert(
            "r".to_string(),
            Schema::from_pairs(&[("a", ValueType::Int), ("b", ValueType::Int)]),
        );
        m.insert(
            "s".to_string(),
            Schema::from_pairs(&[("b", ValueType::Int), ("c", ValueType::Int)]),
        );
        m
    }

    #[test]
    fn join_renders_as_hash_join() {
        let p = provider();
        let e = Expr::table("r")
            .alias("r")
            .product(Expr::table("s").alias("s"))
            .select(Predicate::eq(col("r.b"), col("s.b")).and(Predicate::gt(col("r.a"), lit(1i64))))
            .project(["a", "c"]);
        let q = compile(&e, &p).unwrap();
        let text = explain_query(&q);
        assert!(text.contains("schema: (a: INT, c: INT)"), "{text}");
        assert!(text.contains("HashJoin on [#1=#0]"), "{text}");
        assert!(text.contains("Filter #0 > 1"), "{text}");
        assert!(text.contains("Scan r"), "{text}");
        assert!(text.contains("Scan s"), "{text}");
        // indentation: scans are deeper than the join
        let join_line = text.lines().find(|l| l.contains("HashJoin")).unwrap();
        let scan_line = text.lines().find(|l| l.contains("Scan r")).unwrap();
        assert!(
            scan_line.chars().take_while(|c| *c == ' ').count()
                > join_line.chars().take_while(|c| *c == ' ').count()
        );
    }

    #[test]
    fn set_ops_and_literals_render() {
        let p = provider();
        let e = Expr::table("r")
            .union(Expr::empty(Schema::from_pairs(&[
                ("a", ValueType::Int),
                ("b", ValueType::Int),
            ])))
            .monus(Expr::table("r").dedup());
        let q = compile(&e, &p).unwrap();
        let text = explain_plan(&q.plan);
        assert!(text.contains("Monus (∸)"));
        assert!(text.contains("Union (⊎)"));
        assert!(text.contains("Literal [0 tuples, 0 distinct]"));
        assert!(text.contains("DupElim (ε)"));
    }

    #[test]
    fn predicates_render_with_positions() {
        let p = PhysPredicate::Not(Box::new(PhysPredicate::Or(
            Box::new(PhysPredicate::Const(false)),
            Box::new(PhysPredicate::Cmp(
                crate::plan::PhysOperand::Col(2),
                crate::predicate::CmpOp::Le,
                crate::plan::PhysOperand::Const(dvm_storage::Value::str("x")),
            )),
        )));
        assert_eq!(render_pred(&p), "NOT ((FALSE OR #2 <= 'x'))");
    }
}
