//! Workspace call-graph construction and the interprocedural rules.
//!
//! PR 7's rules look at one function body at a time; the serving
//! contract does not. A `SchedulePolicy::pick` that calls a helper that
//! calls `Instant::now()` is just as non-deterministic as one that reads
//! the clock inline, and a `// uni-lint: hot` render loop that calls an
//! allocating helper two frames of inlining away still allocates per
//! frame. This module builds a whole-workspace call graph from the
//! stripped token stream — `fn` definitions with their `impl` context,
//! call sites resolved by name with impl-context disambiguation,
//! *conservative on ambiguity* (an ambiguous name links to every
//! same-named candidate) — and runs three rules over it:
//!
//! - **R8 transitive-hot**: R7's no-allocation contract propagated from
//!   every hot function through all workspace callees, diagnostics
//!   carrying the full call chain (`render_rows -> helper -> vec!`).
//! - **R9 determinism taint**: wall-clock reads and unordered-map use
//!   flagged in any function reachable from a `SchedulePolicy` impl or
//!   a `RenderServer` method, not just inside the path-scoped modules
//!   R4/R5 watch.
//! - **R10 lock-order**: a Mutex acquisition graph (lexical guard
//!   scopes, interprocedural edges through calls made under a held
//!   guard); cycles are denied, as is holding any guard across
//!   `Ticket::wait` or lane submission (`submit`/`submit_at`).
//! - **R12 no-libm-transcendental-in-hot**: libm `sin`/`cos`/`exp`/...
//!   method calls in every hot function and everything R8's reach finds
//!   below one, so frame bits do not depend on the host's libm.
//!
//! The graph is name-based, not type-checked: a method call resolves to
//! every workspace method of that name unless the receiver is `self` or
//! the call is `Type::`-qualified. That over-approximates reachability,
//! which is the safe direction for every rule here.

use crate::lexer::{Directive, Lexed, Tok};
use crate::rules::{self, RawDiag};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A source location plus the offending token, for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    pub line: u32,
    pub col: u32,
    pub what: String,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub name: String,
    /// `Type` in `Type::name(..)` (or `Self`); `None` for bare and
    /// method calls.
    pub qualifier: Option<String>,
    /// `receiver.name(..)`.
    pub method: bool,
    /// `self.name(..)` — resolvable against the surrounding impl.
    pub self_recv: bool,
    pub line: u32,
    pub col: u32,
}

/// A `receiver.lock()` acquisition.
#[derive(Debug, Clone)]
pub struct LockUse {
    /// The last identifier of the receiver chain (`self.state.lock()`
    /// -> `state`). Locks with the same field name unify into one graph
    /// node — conservative for cycle detection.
    pub lock: String,
    pub line: u32,
    pub col: u32,
}

/// A blocking boundary: `.wait(` on a ticket or `.submit(`/`.submit_at(`
/// lane submission.
#[derive(Debug, Clone)]
pub struct WaitUse {
    pub what: String,
    pub line: u32,
    pub col: u32,
}

/// One `fn` item (free function, inherent/trait-impl method, or trait
/// default method) with everything the interprocedural rules need.
#[derive(Debug, Clone)]
pub struct FnDef {
    pub file: usize,
    pub name: String,
    /// Surrounding `impl Type` / `trait Type` block, if any.
    pub impl_type: Option<String>,
    /// `Trait` in `impl Trait for Type`; for trait declarations the
    /// trait's own name.
    pub impl_trait: Option<String>,
    pub line: u32,
    pub col: u32,
    /// Carries a `// uni-lint: hot` marker (R7 already covers it).
    pub hot: bool,
    pub calls: Vec<CallSite>,
    /// R7-pattern allocation sites in this body.
    pub allocs: Vec<Site>,
    /// libm transcendental method calls (R12 pattern) in this body.
    pub libm_calls: Vec<Site>,
    /// Wall-clock idents (R4 pattern) in this body.
    pub wall_clocks: Vec<Site>,
    /// `HashMap`/`HashSet` idents (R5 pattern) in this body.
    pub unordered: Vec<Site>,
    /// Every lock acquisition in this body.
    pub locks: Vec<LockUse>,
    /// Every blocking boundary in this body.
    pub waits: Vec<WaitUse>,
    /// (held lock, acquired lock) pairs observed lexically in-body.
    pub lock_edges: Vec<(String, LockUse)>,
    /// Blocking boundaries reached while a guard was held.
    pub waits_under_lock: Vec<(String, WaitUse)>,
    /// Calls made while a guard was held: (held lock, index into
    /// `calls`).
    pub calls_under_lock: Vec<(String, usize)>,
}

impl FnDef {
    /// `Type::name` for methods, bare `name` for free functions — the
    /// spelling diagnostics print in call chains.
    pub fn display(&self) -> String {
        match &self.impl_type {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Every file's function definitions, indexed for name resolution.
#[derive(Debug, Default)]
pub struct Workspace {
    pub files: Vec<String>,
    pub fns: Vec<FnDef>,
}

impl Workspace {
    /// Registers `path` and extracts its function definitions.
    pub fn index_file(&mut self, path: &str, lexed: &Lexed) {
        let file = self.files.len();
        self.files.push(path.to_string());
        extract(file, lexed, &mut self.fns);
    }

    pub fn fn_named(&self, name: &str) -> Vec<usize> {
        (0..self.fns.len())
            .filter(|&i| self.fns[i].name == name)
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Extraction: one linear pass per file, tracking impl/fn nesting, guard
// scopes, and call/alloc/taint/lock sites.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Scope {
    Block,
    Impl {
        ty: Option<String>,
        trait_: Option<String>,
    },
    Fn {
        id: usize,
        guard_base: usize,
    },
}

#[derive(Debug)]
struct Guard {
    lock: String,
    /// `let`-bound variable name, when the guard is the whole RHS — lets
    /// `drop(var)` release it early.
    var: Option<String>,
    /// Brace depth at acquisition; the guard dies when the block closes.
    brace: usize,
    /// Expression temporary: dies at the statement's `;` instead.
    stmt_scoped: bool,
}

/// Keywords that look like `ident (` but are never calls.
const NOT_CALLS: [&str; 14] = [
    "if", "while", "for", "match", "return", "loop", "fn", "in", "as", "move", "where", "unsafe",
    "else", "let",
];

fn extract(file: usize, lexed: &Lexed, fns: &mut Vec<FnDef>) {
    let toks = &lexed.tokens;
    let text = |i: usize| toks.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let mut hot_lines: Vec<u32> = lexed
        .directives
        .iter()
        .filter_map(|d| match d {
            Directive::Hot { line } => Some(*line),
            _ => None,
        })
        .collect();
    hot_lines.reverse(); // pop() yields source order

    let mut scopes: Vec<Scope> = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    let mut pending_impl: Option<(Option<String>, Option<String>)> = None;
    let mut pending_fn: Option<usize> = None;
    let mut grouping_depth = 0i64;
    let mut brace_depth = 0usize;
    // `let`-statement tracking for guard scoping.
    let mut stmt_let: Option<Option<String>> = None; // Some(var) once `let [mut] var =` seen

    for i in 0..toks.len() {
        let tok = &toks[i];
        let t = tok.text.as_str();
        match t {
            "(" | "[" => grouping_depth += 1,
            ")" | "]" => grouping_depth -= 1,
            "{" => {
                brace_depth += 1;
                stmt_let = None;
                let scope = if let Some(id) = pending_fn.take() {
                    Scope::Fn {
                        id,
                        guard_base: guards.len(),
                    }
                } else if let Some((ty, trait_)) = pending_impl.take() {
                    Scope::Impl { ty, trait_ }
                } else {
                    Scope::Block
                };
                scopes.push(scope);
            }
            "}" => {
                brace_depth = brace_depth.saturating_sub(1);
                stmt_let = None;
                guards.retain(|g| g.brace <= brace_depth);
                scopes.pop();
            }
            ";" if grouping_depth == 0 => {
                pending_fn = None;
                stmt_let = None;
                guards.retain(|g| !(g.stmt_scoped && g.brace == brace_depth));
            }
            ";" => {
                guards.retain(|g| !(g.stmt_scoped && g.brace == brace_depth));
            }
            "let" if text(i + 1) != "else" => {
                // `if let` / `while let` conditions never bind a guard
                // for the enclosing block.
                let conditional = i > 0 && matches!(text(i - 1), "if" | "while");
                if !conditional {
                    let mut j = i + 1;
                    if text(j) == "mut" {
                        j += 1;
                    }
                    let var = (text(j + 1) == "=" || text(j + 1) == ":")
                        .then(|| text(j).to_string())
                        .filter(|v| !v.is_empty());
                    stmt_let = Some(var);
                }
            }
            "trait" if text(i + 1) != "=" => {
                let name = text(i + 1);
                if !name.is_empty() {
                    pending_impl = Some((Some(name.to_string()), Some(name.to_string())));
                }
            }
            "impl" if !type_position(i, toks) => {
                pending_impl = Some(parse_impl_header(i, toks));
            }
            "fn" if text(i + 1) != "(" => {
                let name = text(i + 1).to_string();
                let mut hot = false;
                while hot_lines.last().is_some_and(|&l| l <= tok.line) {
                    hot_lines.pop();
                    hot = true;
                }
                let (impl_type, impl_trait) = scopes
                    .iter()
                    .rev()
                    .find_map(|s| match s {
                        Scope::Impl { ty, trait_ } => Some((ty.clone(), trait_.clone())),
                        _ => None,
                    })
                    .unwrap_or((None, None));
                fns.push(FnDef {
                    file,
                    name,
                    impl_type,
                    impl_trait,
                    line: tok.line,
                    col: tok.col,
                    hot,
                    calls: Vec::new(),
                    allocs: Vec::new(),
                    libm_calls: Vec::new(),
                    wall_clocks: Vec::new(),
                    unordered: Vec::new(),
                    locks: Vec::new(),
                    waits: Vec::new(),
                    lock_edges: Vec::new(),
                    waits_under_lock: Vec::new(),
                    calls_under_lock: Vec::new(),
                });
                pending_fn = Some(fns.len() - 1);
            }
            _ => {}
        }

        // Everything below attaches to the innermost enclosing fn.
        let Some((fn_id, guard_base)) = scopes.iter().rev().find_map(|s| match s {
            Scope::Fn { id, guard_base } => Some((*id, *guard_base)),
            _ => None,
        }) else {
            continue;
        };

        // Allocation / taint sites (same matchers the intra rules use).
        if rules::alloc_token(toks, i) {
            fns[fn_id].allocs.push(site(tok));
        }
        if rules::libm_call_token(toks, i) {
            fns[fn_id].libm_calls.push(site(tok));
        }
        if rules::WALL_CLOCK.contains(&t) {
            fns[fn_id].wall_clocks.push(site(tok));
        }
        if t == "HashMap" || t == "HashSet" {
            fns[fn_id].unordered.push(site(tok));
        }

        // `drop(var)` releases a named guard early.
        if t == "drop" && text(i + 1) == "(" {
            let var = text(i + 2);
            guards.retain(|g| g.var.as_deref() != Some(var));
        }

        let held: Vec<String> = guards[guard_base.min(guards.len())..]
            .iter()
            .map(|g| g.lock.clone())
            .collect();

        // Lock acquisition: `receiver.lock(`.
        if t == "lock" && text(i + 1) == "(" && i > 0 && text(i - 1) == "." {
            let lock = receiver_name(i, toks);
            let use_ = LockUse {
                lock: lock.clone(),
                line: tok.line,
                col: tok.col,
            };
            for h in &held {
                fns[fn_id].lock_edges.push((h.clone(), use_.clone()));
            }
            fns[fn_id].locks.push(use_);
            let stmt_scoped = !guard_is_block_scoped(i, toks, stmt_let.is_some());
            guards.push(Guard {
                lock,
                var: if stmt_scoped {
                    None
                } else {
                    stmt_let.clone().flatten()
                },
                brace: brace_depth,
                stmt_scoped,
            });
            continue;
        }

        // Blocking boundaries: ticket waits and lane submissions.
        if matches!(t, "wait" | "submit" | "submit_at")
            && text(i + 1) == "("
            && i > 0
            && text(i - 1) == "."
        {
            let wu = WaitUse {
                what: t.to_string(),
                line: tok.line,
                col: tok.col,
            };
            for h in &held {
                fns[fn_id].waits_under_lock.push((h.clone(), wu.clone()));
            }
            fns[fn_id].waits.push(wu);
            // fall through: `.wait(` is also a call site (Ticket::wait is
            // a workspace fn), so transitive analysis sees it either way.
        }

        // Call sites.
        if let Some(call) = call_at(i, toks) {
            let idx = fns[fn_id].calls.len();
            for h in &held {
                fns[fn_id].calls_under_lock.push((h.clone(), idx));
            }
            fns[fn_id].calls.push(call);
        }
    }
}

fn site(tok: &Tok) -> Site {
    Site {
        line: tok.line,
        col: tok.col,
        what: tok.text.clone(),
    }
}

/// Whether the `impl` at `i` is type-position rather than an item
/// (mirrors the intra-rule tracker).
fn type_position(i: usize, toks: &[Tok]) -> bool {
    let Some(prev) = i.checked_sub(1).and_then(|p| toks.get(p)) else {
        return false;
    };
    matches!(
        prev.text.as_str(),
        "-" | ">" | ":" | "(" | "," | "<" | "+" | "=" | "&" | "dyn"
    ) || prev.text == "->"
}

/// Parses `impl [<..>] [Trait for] Type [<..>] {` into (type, trait).
fn parse_impl_header(i: usize, toks: &[Tok]) -> (Option<String>, Option<String>) {
    let text = |j: usize| toks.get(j).map(|t| t.text.as_str()).unwrap_or("");
    let mut j = i + 1;
    // Skip the generic parameter list.
    if text(j) == "<" {
        let mut depth = 0i64;
        while j < toks.len() {
            match text(j) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                "{" => return (None, None),
                _ => {}
            }
            j += 1;
        }
    }
    // First path: either the type (inherent impl) or the trait.
    let first = last_path_segment(&mut j, toks);
    // Skip any `<..>` on the path.
    skip_generics(&mut j, toks);
    if text(j) == "for" {
        j += 1;
        while matches!(text(j), "&" | "dyn" | "mut") {
            j += 1;
        }
        let ty = last_path_segment(&mut j, toks);
        (ty, first)
    } else {
        (first, None)
    }
}

/// Reads a `a::b::C` path at `j`, returning its final segment.
fn last_path_segment(j: &mut usize, toks: &[Tok]) -> Option<String> {
    let text = |j: usize| toks.get(j).map(|t| t.text.as_str()).unwrap_or("");
    let mut last = None;
    loop {
        let t = text(*j);
        if t.is_empty()
            || !t
                .chars()
                .next()
                .is_some_and(|c| c == '_' || c.is_alphabetic())
        {
            break;
        }
        last = Some(t.to_string());
        *j += 1;
        skip_generics(j, toks);
        if text(*j) == "::" {
            *j += 1;
        } else {
            break;
        }
    }
    last
}

fn skip_generics(j: &mut usize, toks: &[Tok]) {
    let text = |j: usize| toks.get(j).map(|t| t.text.as_str()).unwrap_or("");
    if text(*j) != "<" {
        return;
    }
    let mut depth = 0i64;
    while *j < toks.len() {
        match text(*j) {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    *j += 1;
                    return;
                }
            }
            "{" | ";" => return,
            _ => {}
        }
        *j += 1;
    }
}

/// The last identifier of the receiver chain ending at the `.` before
/// token `i` (`self.state.lock` -> `state`, `cells[i].lock` -> `cells`).
fn receiver_name(i: usize, toks: &[Tok]) -> String {
    let text = |j: usize| toks.get(j).map(|t| t.text.as_str()).unwrap_or("");
    let mut j = i.saturating_sub(2); // skip the `.`
    if text(j) == "]" {
        let mut depth = 0i64;
        while j > 0 {
            match text(j) {
                "]" => depth += 1,
                "[" => {
                    depth -= 1;
                    if depth == 0 {
                        j = j.saturating_sub(1);
                        break;
                    }
                }
                _ => {}
            }
            j -= 1;
        }
    }
    if text(j) == ")" {
        // `foo().lock()` — no stable field name; use the call's name.
        let mut depth = 0i64;
        while j > 0 {
            match text(j) {
                ")" => depth += 1,
                "(" => {
                    depth -= 1;
                    if depth == 0 {
                        j = j.saturating_sub(1);
                        break;
                    }
                }
                _ => {}
            }
            j -= 1;
        }
    }
    let name = text(j);
    if name
        .chars()
        .next()
        .is_some_and(|c| c == '_' || c.is_alphabetic())
    {
        name.to_string()
    } else {
        "<expr>".to_string()
    }
}

/// Whether the `.lock()` at `i` is the whole RHS of a `let` statement
/// (modulo `.expect(..)`/`.unwrap()`): then the guard lives to the end
/// of the block, otherwise to the end of the statement.
fn guard_is_block_scoped(i: usize, toks: &[Tok], in_let_stmt: bool) -> bool {
    if !in_let_stmt {
        return false;
    }
    let text = |j: usize| toks.get(j).map(|t| t.text.as_str()).unwrap_or("");
    let mut j = i + 1; // at `(`
    loop {
        // Skip the balanced call parens.
        let mut depth = 0i64;
        while j < toks.len() {
            match text(j) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if text(j) == "." && matches!(text(j + 1), "expect" | "unwrap") && text(j + 2) == "(" {
            j += 2;
            continue;
        }
        break;
    }
    text(j) == ";"
}

/// Recognizes a call site at token `i`, if any.
fn call_at(i: usize, toks: &[Tok]) -> Option<CallSite> {
    let tok = toks.get(i)?;
    let t = tok.text.as_str();
    if !t
        .chars()
        .next()
        .is_some_and(|c| c == '_' || c.is_alphabetic())
        || NOT_CALLS.contains(&t)
    {
        return None;
    }
    let text = |j: usize| toks.get(j).map(|t| t.text.as_str()).unwrap_or("");
    // `name!(..)` macros are not calls; `fn name(` is a definition.
    if text(i + 1) == "!" || (i > 0 && text(i - 1) == "fn") {
        return None;
    }
    // Allow a turbofish between the name and the parens.
    let mut j = i + 1;
    if text(j) == "::" && text(j + 1) == "<" {
        j += 1;
        skip_generics(&mut j, toks);
    }
    if text(j) != "(" {
        return None;
    }
    let (method, self_recv, qualifier) = if i > 0 && text(i - 1) == "." {
        let recv = receiver_name(i, toks);
        (true, recv == "self", None)
    } else if i >= 2 && text(i - 1) == "::" {
        // Qualified: the segment right before the final `::`. A closing
        // `>` means a generic path (`Foo::<T>::new`); walk to its open.
        let mut q = i - 2;
        if text(q) == ">" {
            let mut depth = 0i64;
            while q > 0 {
                match text(q) {
                    ">" => depth += 1,
                    "<" => {
                        depth -= 1;
                        if depth == 0 {
                            q = q.saturating_sub(1);
                            break;
                        }
                    }
                    _ => {}
                }
                q -= 1;
            }
            if text(q) == "::" {
                q = q.saturating_sub(1);
            }
        }
        (false, false, Some(text(q).to_string()))
    } else {
        (false, false, None)
    };
    Some(CallSite {
        name: t.to_string(),
        qualifier,
        method,
        self_recv,
        line: tok.line,
        col: tok.col,
    })
}

// ---------------------------------------------------------------------------
// Resolution + reachability
// ---------------------------------------------------------------------------

/// Name-resolution index over a [`Workspace`].
pub struct CallGraph<'a> {
    ws: &'a Workspace,
    methods: BTreeMap<&'a str, Vec<usize>>,
    free: BTreeMap<&'a str, Vec<usize>>,
}

/// Method names shared with std (slices, iterators, options, atomics,
/// str). Resolving a bare `recv.iter()` against every workspace `iter`
/// would wire the graph to unrelated types through the std prelude, so
/// calls through these names resolve only when the receiver is `self`
/// (same-impl match) or the call is `Type::`-qualified. Blocking
/// boundaries (`wait`/`submit`) are deliberately absent: those must stay
/// conservative.
const STD_SHADOWED: [&str; 36] = [
    "iter",
    "iter_mut",
    "into_iter",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "clone",
    "next",
    "parse",
    "load",
    "store",
    "swap",
    "take",
    "clear",
    "extend",
    "contains",
    "last",
    "first",
    "drain",
    "fill",
    "split_at",
    "chunks",
    "windows",
    "zip",
    "map",
    "filter",
    "fold",
    "rev",
    "min",
    "max",
    "find",
];

impl<'a> CallGraph<'a> {
    pub fn build(ws: &'a Workspace) -> Self {
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in ws.fns.iter().enumerate() {
            if f.impl_type.is_some() {
                methods.entry(&f.name).or_default().push(i);
            } else {
                free.entry(&f.name).or_default().push(i);
            }
        }
        Self { ws, methods, free }
    }

    /// Resolves one call site to every plausible workspace callee.
    /// Conservative: ambiguity links to all candidates; unknown names
    /// (std/core) resolve to nothing.
    pub fn resolve(&self, caller: usize, call: &CallSite) -> Vec<usize> {
        let fns = &self.ws.fns;
        let name = call.name.as_str();
        if let Some(q) = &call.qualifier {
            let ty = if q == "Self" {
                fns[caller].impl_type.clone()
            } else {
                Some(q.clone())
            };
            let typed: Vec<usize> = self
                .methods
                .get(name)
                .map(|c| {
                    c.iter()
                        .copied()
                        .filter(|&i| fns[i].impl_type == ty)
                        .collect()
                })
                .unwrap_or_default();
            if !typed.is_empty() {
                return typed;
            }
            // `module::free_fn(..)` — the qualifier was a module path.
            return self.free.get(name).cloned().unwrap_or_default();
        }
        if call.method {
            if call.self_recv {
                if let Some(ty) = &fns[caller].impl_type {
                    let own: Vec<usize> = self
                        .methods
                        .get(name)
                        .map(|c| {
                            c.iter()
                                .copied()
                                .filter(|&i| fns[i].impl_type.as_ref() == Some(ty))
                                .collect()
                        })
                        .unwrap_or_default();
                    if !own.is_empty() {
                        return own;
                    }
                }
            }
            if STD_SHADOWED.contains(&name) {
                return Vec::new();
            }
            return self.methods.get(name).cloned().unwrap_or_default();
        }
        self.free.get(name).cloned().unwrap_or_default()
    }

    /// BFS from `seeds`, returning each reachable fn's BFS parent (the
    /// seed maps to `None`) — the spine diagnostics print as a chain.
    /// Seeds are visited in order, neighbors in call-site order, so the
    /// chain reported for a given fn is deterministic.
    pub fn reach(&self, seeds: &[usize]) -> BTreeMap<usize, Option<usize>> {
        let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &s in seeds {
            if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(s) {
                e.insert(None);
                queue.push_back(s);
            }
        }
        while let Some(f) = queue.pop_front() {
            let calls = self.ws.fns[f].calls.clone();
            for call in &calls {
                for callee in self.resolve(f, call) {
                    if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(callee) {
                        e.insert(Some(f));
                        queue.push_back(callee);
                    }
                }
            }
        }
        parent
    }

    /// Renders the BFS spine from a seed down to `f`.
    pub fn chain(&self, parent: &BTreeMap<usize, Option<usize>>, f: usize) -> String {
        let mut names = vec![self.ws.fns[f].display()];
        let mut cur = f;
        while let Some(Some(p)) = parent.get(&cur) {
            names.push(self.ws.fns[*p].display());
            cur = *p;
        }
        names.reverse();
        names.join(" -> ")
    }

    /// Transitive closure helpers for the lock rules: every lock name
    /// acquired, and whether any blocking boundary is crossed, in `f` or
    /// anything it can call.
    fn transitive_lock_facts(&self) -> (Vec<BTreeSet<String>>, Vec<bool>) {
        let n = self.ws.fns.len();
        let mut locks: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
        let mut waits: Vec<bool> = vec![false; n];
        for (i, f) in self.ws.fns.iter().enumerate() {
            locks[i].extend(f.locks.iter().map(|l| l.lock.clone()));
            waits[i] = !f.waits.is_empty();
        }
        // Fixpoint over the (small) workspace graph; conservative on
        // recursion by construction.
        loop {
            let mut changed = false;
            for i in 0..n {
                let calls = self.ws.fns[i].calls.clone();
                for call in &calls {
                    for callee in self.resolve(i, call) {
                        if callee == i {
                            continue;
                        }
                        let add: Vec<String> = locks[callee]
                            .iter()
                            .filter(|l| !locks[i].contains(*l))
                            .cloned()
                            .collect();
                        if !add.is_empty() {
                            locks[i].extend(add);
                            changed = true;
                        }
                        if waits[callee] && !waits[i] {
                            waits[i] = true;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        (locks, waits)
    }
}

// ---------------------------------------------------------------------------
// The interprocedural rules
// ---------------------------------------------------------------------------

/// A raw diagnostic tagged with the file it belongs to.
pub struct WorkspaceDiag {
    pub file: usize,
    pub diag: RawDiag,
}

pub fn check_workspace(ws: &Workspace) -> Vec<WorkspaceDiag> {
    let graph = CallGraph::build(ws);
    let mut out = Vec::new();
    check_r8(ws, &graph, &mut out);
    check_r9(ws, &graph, &mut out);
    check_r10(ws, &graph, &mut out);
    check_r12(ws, &graph, &mut out);
    out
}

/// Hot fns in source order: the seeds of R8 and R12.
fn hot_seeds(ws: &Workspace) -> Vec<usize> {
    let mut seeds: Vec<usize> = (0..ws.fns.len()).filter(|&i| ws.fns[i].hot).collect();
    seeds.sort_by_key(|&i| (ws.fns[i].file, ws.fns[i].line));
    seeds
}

/// R8: allocation anywhere in the call tree under a hot fn. Sites inside
/// hot-marked fns are R7's to report (including its suppressions).
fn check_r8(ws: &Workspace, graph: &CallGraph, out: &mut Vec<WorkspaceDiag>) {
    let seeds = hot_seeds(ws);
    if seeds.is_empty() {
        return;
    }
    let reach = graph.reach(&seeds);
    for &f in reach.keys() {
        let def = &ws.fns[f];
        // Hot fns are R7's (including its suppressions); the parallel
        // crate owns the threaded dispatch layer whose per-dispatch
        // O(workers) allocations are the documented exception (mirrors
        // the R2 exemption; `steady_state_alloc` enforces the dynamic
        // bound).
        if def.hot || ws.files[def.file].starts_with("crates/parallel/") {
            continue;
        }
        let chain = graph.chain(&reach, f);
        for a in &def.allocs {
            out.push(WorkspaceDiag {
                file: def.file,
                diag: RawDiag {
                    rule: "R8",
                    line: a.line,
                    col: a.col,
                    message: format!(
                        "allocation in a fn reachable from a `// uni-lint: hot` fn: {chain} -> {} — the whole hot call tree must borrow scratch, not allocate; fix the helper (and mark it hot) or audited-suppress",
                        a.what
                    ),
                },
            });
        }
    }
}

/// R12: libm transcendentals in a hot fn or anything reachable from
/// one. Unlike R8 this covers the hot fns themselves: there is no
/// intra-function twin.
fn check_r12(ws: &Workspace, graph: &CallGraph, out: &mut Vec<WorkspaceDiag>) {
    let seeds = hot_seeds(ws);
    if seeds.is_empty() {
        return;
    }
    let reach = graph.reach(&seeds);
    for &f in reach.keys() {
        let def = &ws.fns[f];
        let chain = graph.chain(&reach, f);
        for s in &def.libm_calls {
            out.push(WorkspaceDiag {
                file: def.file,
                diag: RawDiag {
                    rule: "R12",
                    line: s.line,
                    col: s.col,
                    message: format!(
                        "libm `{}` on a frame path: {chain} -> {} — its bits depend on the host libm; use uni_geometry::fmath, hoist it out of the per-sample loop, or audited-suppress",
                        s.what, s.what
                    ),
                },
            });
        }
    }
}

/// R9: determinism taint. Wall clocks and unordered maps in anything
/// reachable from a `SchedulePolicy` impl or a `RenderServer` method,
/// except where the path-scoped intra rules (R4/R5) or the policy-impl
/// scope already report the same site.
fn check_r9(ws: &Workspace, graph: &CallGraph, out: &mut Vec<WorkspaceDiag>) {
    let mut seeds: Vec<usize> = (0..ws.fns.len())
        .filter(|&i| {
            ws.fns[i].impl_trait.as_deref() == Some("SchedulePolicy")
                || ws.fns[i].impl_type.as_deref() == Some("RenderServer")
        })
        .collect();
    seeds.sort_by_key(|&i| (ws.fns[i].file, ws.fns[i].line));
    if seeds.is_empty() {
        return;
    }
    let reach = graph.reach(&seeds);
    for &f in reach.keys() {
        let def = &ws.fns[f];
        let path = &ws.files[def.file];
        let chain = graph.chain(&reach, f);
        let policy_scope = def.impl_trait.as_deref() == Some("SchedulePolicy");
        if !rules::in_scheduling_scope(path) && !policy_scope {
            for s in &def.wall_clocks {
                out.push(WorkspaceDiag {
                    file: def.file,
                    diag: RawDiag {
                        rule: "R9",
                        line: s.line,
                        col: s.col,
                        message: format!(
                            "wall-clock source reachable from the serving contract: {chain} -> {} — delivery, accounting, and deadline metrics are schedule-order facts; thread sim-time through PolicyContext instead",
                            s.what
                        ),
                    },
                });
            }
        }
        if !rules::in_ordered_scope(path) {
            for s in &def.unordered {
                out.push(WorkspaceDiag {
                    file: def.file,
                    diag: RawDiag {
                        rule: "R9",
                        line: s.line,
                        col: s.col,
                        message: format!(
                            "unordered container reachable from the serving contract: {chain} -> {} — iteration order would leak into served state; use BTreeMap/BTreeSet or sort explicitly",
                            s.what
                        ),
                    },
                });
            }
        }
    }
}

/// R10: the lock graph. Denies acquisition-order cycles and guards held
/// across blocking boundaries, both directly and through calls.
fn check_r10(ws: &Workspace, graph: &CallGraph, out: &mut Vec<WorkspaceDiag>) {
    let any_locks = ws.fns.iter().any(|f| !f.locks.is_empty());
    if !any_locks {
        return;
    }
    let (trans_locks, trans_waits) = graph.transitive_lock_facts();

    // Edge set: held -> acquired, with the first site that witnesses it.
    let mut edges: BTreeMap<(String, String), (usize, u32, u32, String)> = BTreeMap::new();
    let mut witness = |from: &str, to: &str, file: usize, line: u32, col: u32, via: String| {
        edges
            .entry((from.to_string(), to.to_string()))
            .or_insert((file, line, col, via));
    };

    for (i, f) in ws.fns.iter().enumerate() {
        for (held, lu) in &f.lock_edges {
            witness(held, &lu.lock, f.file, lu.line, lu.col, f.display());
        }
        for (held, call_idx) in &f.calls_under_lock {
            let call = &f.calls[*call_idx];
            for callee in graph.resolve(i, call) {
                for acquired in &trans_locks[callee] {
                    witness(
                        held,
                        acquired,
                        f.file,
                        call.line,
                        call.col,
                        format!("{} -> {}", f.display(), ws.fns[callee].display()),
                    );
                }
            }
        }

        // Guards held across a blocking boundary.
        let mut reported: BTreeSet<(String, u32, u32)> = BTreeSet::new();
        for (held, wu) in &f.waits_under_lock {
            if reported.insert((held.clone(), wu.line, wu.col)) {
                out.push(WorkspaceDiag {
                    file: f.file,
                    diag: RawDiag {
                        rule: "R10",
                        line: wu.line,
                        col: wu.col,
                        message: format!(
                            "lock `{held}` held across `{}` in {} — blocking on a lane while holding a guard can deadlock the pool; drop the guard first",
                            wu.what,
                            f.display()
                        ),
                    },
                });
            }
        }
        for (held, call_idx) in &f.calls_under_lock {
            let call = &f.calls[*call_idx];
            for callee in graph.resolve(i, call) {
                if trans_waits[callee] && reported.insert((held.clone(), call.line, call.col)) {
                    out.push(WorkspaceDiag {
                        file: f.file,
                        diag: RawDiag {
                            rule: "R10",
                            line: call.line,
                            col: call.col,
                            message: format!(
                                "lock `{held}` held across a call that blocks on a lane ({} -> {}) — drop the guard before waiting/submitting",
                                f.display(),
                                ws.fns[callee].display()
                            ),
                        },
                    });
                }
            }
        }
    }

    // Cycle detection over the edge set (iterative DFS, deterministic
    // node order). Every cycle is reported once, at its lexicographically
    // first witness site.
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
    }
    let mut color: BTreeMap<&str, u8> = BTreeMap::new(); // 0 new, 1 open, 2 done
    let mut reported_cycles: BTreeSet<String> = BTreeSet::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        if color.get(start).copied().unwrap_or(0) != 0 {
            continue;
        }
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut path: Vec<&str> = vec![start];
        color.insert(start, 1);
        while let Some((node, idx)) = stack.last_mut() {
            let node = *node;
            let next = adj.get(node).and_then(|n| n.get(*idx)).copied();
            *idx += 1;
            match next {
                Some(to) => match color.get(to).copied().unwrap_or(0) {
                    0 => {
                        color.insert(to, 1);
                        stack.push((to, 0));
                        path.push(to);
                    }
                    1 => {
                        // Found a cycle: the path from `to` to `node`.
                        let pos = path.iter().position(|&n| n == to).unwrap_or(0);
                        let cycle: Vec<&str> = path[pos..].to_vec();
                        // Canonical rotation for dedup.
                        let min = cycle
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, n)| **n)
                            .map(|(i, _)| i)
                            .unwrap_or(0);
                        let mut canon: Vec<&str> = Vec::with_capacity(cycle.len());
                        for k in 0..cycle.len() {
                            canon.push(cycle[(min + k) % cycle.len()]);
                        }
                        let key = canon.join("->");
                        if reported_cycles.insert(key) {
                            let mut display = canon.clone();
                            display.push(canon[0]);
                            // Witness: the lexicographically first edge of
                            // the cycle.
                            let mut best: Option<&(usize, u32, u32, String)> = None;
                            for k in 0..canon.len() {
                                let e = (
                                    canon[k].to_string(),
                                    canon[(k + 1) % canon.len()].to_string(),
                                );
                                if let Some(w) = edges.get(&e) {
                                    let better = match best {
                                        None => true,
                                        Some(b) => (w.0, w.1, w.2) < (b.0, b.1, b.2),
                                    };
                                    if better {
                                        best = Some(w);
                                    }
                                }
                            }
                            if let Some((file, line, col, via)) = best {
                                out.push(WorkspaceDiag {
                                    file: *file,
                                    diag: RawDiag {
                                        rule: "R10",
                                        line: *line,
                                        col: *col,
                                        message: format!(
                                            "lock-order cycle {} (witnessed in {via}) — all guards must be acquired in one global order",
                                            display.join(" -> ")
                                        ),
                                    },
                                });
                            }
                        }
                    }
                    _ => {}
                },
                None => {
                    color.insert(node, 2);
                    stack.pop();
                    path.pop();
                }
            }
        }
    }
}
