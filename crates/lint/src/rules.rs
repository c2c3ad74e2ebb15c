//! The R1–R7 rule engine: a single linear pass over the stripped token
//! stream, tracking `impl`/`fn` nesting so context-scoped rules (policy
//! purity, hot-loop allocation) fire only where the contract applies.
//!
//! Path scoping uses workspace-relative paths with `/` separators; the
//! caller normalizes. Every rule is deny-by-default — suppression goes
//! through `// uni-lint: allow(RULE, reason)` handled in [`crate`], not
//! here.

use crate::lexer::{Directive, Lexed, Tok};

/// One rule's identity card (the table README renders).
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    pub id: &'static str,
    pub name: &'static str,
    pub summary: &'static str,
}

pub const RULES: [Rule; 12] = [
    Rule {
        id: "R1",
        name: "no-nested-vec",
        summary: "Vec<Vec<..>> in the hot crates (geometry/scene/renderers) — use FlatMat or a flat buffer + offsets",
    },
    Rule {
        id: "R2",
        name: "no-raw-threads",
        summary: "std::thread::{spawn,scope,Builder} outside uni-parallel — band math must stay thread-count-invariant",
    },
    Rule {
        id: "R3",
        name: "total-cmp-floats",
        summary: "partial_cmp on float keys — use f32::total_cmp / f64::total_cmp for a total, deterministic order",
    },
    Rule {
        id: "R4",
        name: "no-wall-clock-in-policy",
        summary: "Instant/SystemTime in schedulers, SchedulePolicy impls, or microops accounting — schedule-order facts only",
    },
    Rule {
        id: "R5",
        name: "no-unordered-iteration",
        summary: "HashMap/HashSet in scheduling/accounting/delivery paths — use BTreeMap/BTreeSet or an explicit sort",
    },
    Rule {
        id: "R6",
        name: "policy-purity",
        summary: "interior mutability, statics, or env reads inside a SchedulePolicy impl — policies are pure functions",
    },
    Rule {
        id: "R7",
        name: "no-alloc-in-hot-loop",
        summary: "allocation (Vec::new/vec!/to_vec/collect/Box::new/..) inside a `// uni-lint: hot` function",
    },
    Rule {
        id: "R8",
        name: "transitive-hot-alloc",
        summary: "allocation anywhere in the call tree under a `// uni-lint: hot` fn — the diagnostic carries the call chain",
    },
    Rule {
        id: "R9",
        name: "determinism-taint",
        summary: "wall clocks / unordered maps in anything reachable from a SchedulePolicy impl or a RenderServer method",
    },
    Rule {
        id: "R10",
        name: "lock-order",
        summary: "Mutex acquisition-order cycles, or a guard held across Ticket::wait / lane submission",
    },
    Rule {
        id: "R11",
        name: "baseline-ratchet",
        summary: "finding or suppression not in the committed lint-baseline.json — debt can only ratchet down",
    },
    Rule {
        id: "R12",
        name: "no-libm-transcendental-in-hot",
        summary: "libm sin/cos/sin_cos/tan/exp/ln/powf in a `// uni-lint: hot` fn or anything reachable from one — use uni_geometry::fmath",
    },
];

pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id.eq_ignore_ascii_case(id))
}

/// A rule hit before allow-directive filtering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawDiag {
    pub rule: &'static str,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScopeKind {
    Block,
    Impl { policy: bool },
    Fn { hot: bool },
}

/// Which rule families a file's path puts it in scope for.
#[derive(Debug, Clone, Copy)]
struct PathScope {
    /// R1: crates/{geometry,scene,renderers}/src.
    hot_crate: bool,
    /// R2 exemption: uni-parallel owns the raw threads.
    parallel_crate: bool,
    /// R4: any sched.rs, or microops (accounting).
    scheduling: bool,
    /// R5: engine + microops (scheduling/accounting/delivery).
    ordered_iteration: bool,
}

impl PathScope {
    fn of(path: &str) -> Self {
        let in_dir = |p: &str| path.starts_with(p);
        Self {
            hot_crate: in_dir("crates/geometry/src")
                || in_dir("crates/scene/src")
                || in_dir("crates/renderers/src"),
            parallel_crate: in_dir("crates/parallel/"),
            scheduling: in_scheduling_scope(path),
            ordered_iteration: in_ordered_scope(path),
        }
    }
}

/// R4's path scope: any sched.rs, or microops (accounting). R9 skips
/// sites here — the intra rule already reports them.
pub(crate) fn in_scheduling_scope(path: &str) -> bool {
    let file = path.rsplit('/').next().unwrap_or(path);
    file == "sched.rs" || path.starts_with("crates/microops/src")
}

/// R5's path scope: engine + microops (scheduling/accounting/delivery).
/// R9 skips sites here — the intra rule already reports them.
pub(crate) fn in_ordered_scope(path: &str) -> bool {
    path.starts_with("crates/engine/src") || path.starts_with("crates/microops/src")
}

/// Float methods that resolve to the host libm (R12). Frame paths use
/// `uni_geometry::fmath` instead, whose bits do not depend on the libm
/// variant the loader picks.
pub(crate) const LIBM_TRANSCENDENTALS: [&str; 7] =
    ["sin", "cos", "sin_cos", "tan", "exp", "ln", "powf"];

/// Whether the token at `i` is a libm transcendental method call
/// (`x.exp(`) under the R12 pattern.
pub(crate) fn libm_call_token(toks: &[Tok], i: usize) -> bool {
    let text = |j: usize| toks.get(j).map(|t| t.text.as_str()).unwrap_or("");
    i > 0 && text(i - 1) == "." && text(i + 1) == "(" && LIBM_TRANSCENDENTALS.contains(&text(i))
}

/// Whether the token at `i` is an allocation site under the R7 pattern.
/// Shared with R8 so "alloc" means the same thing inside a hot fn and
/// two calls below one.
pub(crate) fn alloc_token(toks: &[Tok], i: usize) -> bool {
    let text = |j: usize| toks.get(j).map(|t| t.text.as_str()).unwrap_or("");
    match text(i) {
        "Vec" | "Box" | "String" => text(i + 1) == "::" && text(i + 2) == "new",
        "vec" | "format" => text(i + 1) == "!",
        "to_vec" | "collect" | "to_string" | "with_capacity" => true,
        _ => false,
    }
}

/// Idents R4 (and R9, transitively) treat as wall-clock/date sources.
pub(crate) const WALL_CLOCK: [&str; 4] = ["Instant", "SystemTime", "UNIX_EPOCH", "DateTime"];
/// Interior-mutability / ambient-state idents R6 denies in policies.
const IMPURE: [&str; 8] = [
    "Cell", "RefCell", "Mutex", "RwLock", "OnceLock", "OnceCell", "LazyLock", "LazyCell",
];

pub fn check(path: &str, lexed: &Lexed) -> Vec<RawDiag> {
    let scope = PathScope::of(path);
    let toks = &lexed.tokens;
    let mut hot_lines: Vec<u32> = lexed
        .directives
        .iter()
        .filter_map(|d| match d {
            Directive::Hot { line } => Some(*line),
            _ => None,
        })
        .collect();
    hot_lines.reverse(); // pop() yields them in source order

    let mut diags = Vec::new();
    let mut scopes: Vec<ScopeKind> = Vec::new();
    let mut pending_impl: Option<bool> = None;
    let mut pending_fn: Option<bool> = None;
    // Bracket/paren depth so `;` inside `[u8; 4]` or default args does
    // not cancel a pending fn body.
    let mut grouping_depth = 0i64;

    let in_policy = |scopes: &[ScopeKind]| {
        scopes
            .iter()
            .any(|s| matches!(s, ScopeKind::Impl { policy: true }))
    };
    let in_hot = |scopes: &[ScopeKind]| {
        scopes
            .iter()
            .any(|s| matches!(s, ScopeKind::Fn { hot: true }))
    };

    let text = |i: usize| toks.get(i).map(|t| t.text.as_str()).unwrap_or("");

    for i in 0..toks.len() {
        let tok = &toks[i];
        let t = tok.text.as_str();
        match t {
            "(" | "[" => grouping_depth += 1,
            ")" | "]" => grouping_depth -= 1,
            "{" => {
                let kind = if let Some(hot) = pending_fn.take() {
                    ScopeKind::Fn { hot }
                } else if let Some(policy) = pending_impl.take() {
                    ScopeKind::Impl { policy }
                } else {
                    ScopeKind::Block
                };
                scopes.push(kind);
            }
            "}" => {
                scopes.pop();
            }
            ";" if grouping_depth == 0 => {
                // A bodyless `fn` declaration (trait method signature).
                pending_fn = None;
            }
            "impl" if !type_position(i, toks) => {
                // Scan the impl header (up to its `{`) for the policy
                // trait.
                let mut policy = false;
                for j in i + 1..toks.len() {
                    match text(j) {
                        "{" | ";" => break,
                        "SchedulePolicy" => policy = true,
                        _ => {}
                    }
                }
                pending_impl = Some(policy);
            }
            // `fn(` is a function-pointer type, not an item.
            "fn" if text(i + 1) != "(" => {
                let mut hot = false;
                while hot_lines.last().is_some_and(|&l| l <= tok.line) {
                    hot_lines.pop();
                    hot = true;
                }
                pending_fn = Some(hot);
            }
            _ => {}
        }

        // ---- pattern rules ----

        if scope.hot_crate && t == "Vec" && text(i + 1) == "<" && text(i + 2) == "Vec" {
            diags.push(diag(
                "R1",
                tok,
                "nested Vec<Vec<..>> in a hot crate: use uni_geometry::FlatMat or a flat buffer with segment offsets",
            ));
        }

        if !scope.parallel_crate
            && t == "thread"
            && text(i + 1) == "::"
            && matches!(text(i + 2), "spawn" | "scope" | "Builder")
        {
            diags.push(diag(
                "R2",
                tok,
                "raw std::thread use outside uni-parallel: go through par_bands/par_indices/LanePool so thread-count invariance holds",
            ));
        }

        if t == "partial_cmp" {
            diags.push(diag(
                "R3",
                tok,
                "partial_cmp orders floats partially (NaN breaks determinism): use f32::total_cmp / f64::total_cmp",
            ));
        }

        if (scope.scheduling || in_policy(&scopes)) && WALL_CLOCK.contains(&t) {
            diags.push(diag(
                "R4",
                tok,
                "wall-clock source in scheduling/accounting code: deadlines and metrics are schedule-order facts, never lane-timing facts",
            ));
        }

        if scope.ordered_iteration && (t == "HashMap" || t == "HashSet") {
            diags.push(diag(
                "R5",
                tok,
                "unordered container in a scheduling/accounting/delivery path: iteration order leaks into served state — use BTreeMap/BTreeSet or sort explicitly",
            ));
        }

        if in_policy(&scopes) {
            let impure = IMPURE.contains(&t)
                || t.starts_with("Atomic")
                || t == "thread_local"
                || (t == "static" && text(i + 1) == "mut")
                || (t == "env" && text(i + 1) == "::" && text(i + 2).starts_with("var"));
            if impure {
                diags.push(diag(
                    "R6",
                    tok,
                    "impure state inside a SchedulePolicy impl: policies must be pure functions of (PolicyContext, &[SessionView])",
                ));
            }
        }

        if in_hot(&scopes) && alloc_token(toks, i) {
            diags.push(diag(
                "R7",
                tok,
                "allocation inside a `// uni-lint: hot` function: hot loops borrow pooled buffers and scratch arenas, steady-state frames allocate nothing",
            ));
        }
    }
    diags
}

fn diag(rule: &'static str, tok: &Tok, message: &str) -> RawDiag {
    RawDiag {
        rule,
        line: tok.line,
        col: tok.col,
        message: format!("{message} (found `{}`)", tok.text),
    }
}

/// Whether the `impl` at `i` is type-position (`-> impl Trait`,
/// `x: impl Trait`) rather than an item.
fn type_position(i: usize, toks: &[Tok]) -> bool {
    let Some(prev) = i.checked_sub(1).and_then(|p| toks.get(p)) else {
        return false;
    };
    matches!(
        prev.text.as_str(),
        "-" | ">" | ":" | "(" | "," | "<" | "+" | "=" | "&" | "dyn"
    ) || prev.text == "->"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ids(path: &str, src: &str) -> Vec<&'static str> {
        check(path, &lex(src)).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn r1_scoped_to_hot_crates() {
        let src = "struct S { x: Vec<Vec<f32>> }";
        assert_eq!(ids("crates/scene/src/nn.rs", src), ["R1"]);
        assert_eq!(ids("crates/bench/src/lib.rs", src), Vec::<&str>::new());
    }

    #[test]
    fn r2_exempts_uni_parallel() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(ids("crates/core/src/sched.rs", src), ["R2"]);
        assert_eq!(ids("crates/parallel/src/lib.rs", src), Vec::<&str>::new());
    }

    #[test]
    fn r4_fires_in_policy_impls_anywhere() {
        let src = "impl SchedulePolicy for P { fn pick(&self) { let t = Instant::now(); } }";
        assert_eq!(ids("crates/other/src/lib.rs", src), ["R4"]);
        // Outside any scheduling scope, Instant is fine.
        assert_eq!(
            ids(
                "crates/other/src/lib.rs",
                "fn f() { let t = Instant::now(); }"
            ),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn r6_scope_ends_with_the_impl_block() {
        let src =
            "impl SchedulePolicy for P { fn pick(&self) {} }\nfn free() { let m = Mutex::new(0); }";
        assert_eq!(ids("crates/x/src/lib.rs", src), Vec::<&str>::new());
        let src = "impl SchedulePolicy for P { fn pick(&self) { let m = Mutex::new(0); } }";
        assert_eq!(ids("crates/x/src/lib.rs", src), ["R6"]);
    }

    #[test]
    fn r7_requires_the_hot_marker() {
        let cold = "fn f() { let v = Vec::new(); }";
        assert_eq!(ids("crates/x/src/lib.rs", cold), Vec::<&str>::new());
        let hot = "// uni-lint: hot\nfn f() { let v = Vec::new(); }";
        assert_eq!(ids("crates/x/src/lib.rs", hot), ["R7"]);
        // Closures inside a hot fn inherit the context.
        let closure = "// uni-lint: hot\nfn f() { g(|| { h.collect() }); }";
        assert_eq!(ids("crates/x/src/lib.rs", closure), ["R7"]);
        // The next fn after the marked one is cold again.
        let next = "// uni-lint: hot\nfn f() {}\nfn g() { let v = vec![1]; }";
        assert_eq!(ids("crates/x/src/lib.rs", next), Vec::<&str>::new());
    }

    #[test]
    fn return_position_impl_is_not_an_impl_block() {
        let src = "fn f() -> impl Iterator<Item = u32> { let m = Mutex::new(0); (0..3) }";
        assert_eq!(ids("crates/x/src/lib.rs", src), Vec::<&str>::new());
    }
}
