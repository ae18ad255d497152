//! The lint catalog: repo-specific rules the compiler cannot express.
//!
//! | Rule | Name                   | Guards                                                  |
//! |------|------------------------|---------------------------------------------------------|
//! | L1   | determinism            | no wall-clock or entropy sources, no hash-ordered maps   |
//! | L2   | level-arithmetic       | no raw `+`/`-`/`as` on level values outside `mis::levels`|
//! | L3   | panic-freedom          | no `unwrap`/`expect`/`panic!`/indexing in protocol paths, the snapshot codec, and everything they transitively call |
//! | L4   | rng-discipline         | all entropy flows through `beeping::rng`; no duplicate `aux_rng` purpose streams |
//! | L5   | concurrency-discipline | no `static mut`; sync primitives only in sanctioned modules; `unsafe` requires `// SAFETY:` |
//! | L6   | cast-audit             | no truncating `as` casts to narrow integer types         |
//!
//! Rules run on token streams ([`crate::lexer`]) with structural context
//! from [`crate::parse`]: `#[cfg(test)]`/`#[test]` regions are exempt
//! (tests may use whatever they like). L3 seeds from the protocol hot-path
//! roots (`transmit`, `receive`, `step`, the `resumable` tick path, and
//! every function of the harness snapshot codec — its decoder consumes
//! untrusted bytes and must return typed errors, never panic) and
//! propagates through the workspace call graph ([`crate::callgraph`]), so a
//! panic two calls below `step` is still a finding.

use std::collections::BTreeMap;

use crate::callgraph::{CallGraph, DefId};
use crate::lexer::{tokenize, Token, TokenKind};
use crate::parse::{index_file, FileIndex, PurposeArg};

/// Identifier of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RuleId {
    /// Determinism: forbid entropy/time sources and hash-ordered containers.
    L1,
    /// Level arithmetic: forbid raw arithmetic on level values.
    L2,
    /// Panic-freedom: forbid panicking constructs in protocol hot paths and
    /// everything reachable from them.
    L3,
    /// RNG discipline: all entropy through `beeping::rng`; unique purposes.
    L4,
    /// Concurrency discipline: sanctioned sync primitives only; `// SAFETY:`.
    L5,
    /// Cast audit: no truncating `as` casts to narrow integer types.
    L6,
}

impl RuleId {
    /// Short machine name (`L1`…).
    pub fn name(self) -> &'static str {
        match self {
            RuleId::L1 => "L1",
            RuleId::L2 => "L2",
            RuleId::L3 => "L3",
            RuleId::L4 => "L4",
            RuleId::L5 => "L5",
            RuleId::L6 => "L6",
        }
    }

    /// Human-readable rule title.
    pub fn title(self) -> &'static str {
        match self {
            RuleId::L1 => "determinism",
            RuleId::L2 => "level-arithmetic",
            RuleId::L3 => "panic-freedom",
            RuleId::L4 => "rng-discipline",
            RuleId::L5 => "concurrency-discipline",
            RuleId::L6 => "cast-audit",
        }
    }

    /// Every rule, in catalog order.
    pub fn all() -> [RuleId; 6] {
        [RuleId::L1, RuleId::L2, RuleId::L3, RuleId::L4, RuleId::L5, RuleId::L6]
    }
}

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule that fired.
    pub rule: RuleId,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// What is wrong and what to use instead.
    pub message: String,
    /// The trimmed source line, for display and allowlist matching.
    pub snippet: String,
}

/// One source file queued for a workspace lint pass.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Raw source text.
    pub source: String,
    /// Rules in scope for this file (usually [`rules_for`]).
    pub rules: Vec<RuleId>,
}

/// Which rules apply to a workspace-relative path (forward slashes).
///
/// The scope is part of the lint contract (documented in DESIGN.md §7):
///
/// - **L1** covers the crates whose behavior must be a pure function of the
///   seed: `beeping`, `mis`, `baselines` and the graph generators get the
///   full catalog (entropy, wall clocks, hash containers). Every *other*
///   crate's `src/` gets the wall-clock subset only (`Instant`/`SystemTime`)
///   — timing goes through `telemetry::Stopwatch`, so the `telemetry` crate
///   itself is the single sanctioned home of wall clocks and is exempt.
/// - **L2** covers the crates that manipulate levels; `mis/src/levels.rs`
///   *is* the sanctioned arithmetic and is exempt.
/// - **L3** covers every crate that implements protocol hot paths, plus the
///   harness snapshot codec: a crashed run's only way back is its snapshot,
///   so loading one — arbitrary bytes after disk corruption — must produce
///   a typed `SnapshotError`, never a panic. Reachable callees are checked
///   wherever they live, even in crates outside this scope.
/// - **L4/L5/L6** cover every crate's `src/` tree: RNG, concurrency and
///   cast discipline are workspace-wide. `beeping/src/rng.rs` and the
///   graph-generator seeding chokepoint are the sanctioned homes of RNG
///   construction and are exempt from L4.
pub fn rules_for(path: &str) -> Vec<RuleId> {
    let mut rules = Vec::new();
    let protocol_crate = path.starts_with("crates/beeping/src/")
        || path.starts_with("crates/mis/src/")
        || path.starts_with("crates/baselines/src/");
    if protocol_crate
        || path.starts_with("crates/graphs/src/generators/")
        || wall_clock_scope_only(path)
    {
        rules.push(RuleId::L1);
    }
    if (path.starts_with("crates/mis/src/") || path.starts_with("crates/baselines/src/"))
        && path != "crates/mis/src/levels.rs"
    {
        rules.push(RuleId::L2);
    }
    if protocol_crate || is_snapshot_codec(path) {
        rules.push(RuleId::L3);
    }
    if workspace_src(path) {
        if !l4_sanctioned(path) {
            rules.push(RuleId::L4);
        }
        rules.push(RuleId::L5);
        rules.push(RuleId::L6);
    }
    rules
}

/// Any crate's `src/` tree — the scope of the workspace-wide disciplines
/// (L4/L5/L6). Test and fixture trees stay out of scope.
fn workspace_src(path: &str) -> bool {
    path.starts_with("crates/") && path.contains("/src/")
}

/// The sanctioned homes of RNG construction: `beeping::rng` (the seeding
/// vocabulary itself) and the graph generators' `rng_from_seed` chokepoint
/// (`graphs` sits below `beeping` in the dependency order, so it cannot
/// call into it).
fn l4_sanctioned(path: &str) -> bool {
    path == "crates/beeping/src/rng.rs" || path == "crates/graphs/src/generators/mod.rs"
}

/// Modules sanctioned to own sync primitives (threads, locks, atomics):
///
/// - `harness::supervisor` — the watchdog thread around a supervised run;
/// - `beeping::par` — the parallel scatter kernel (DESIGN.md §8). Its
///   parallelism is pure data decomposition over `std::thread::scope` with
///   word-aligned disjoint `&mut` splits — no locks, no atomics — and its
///   bit-identity to the sequential engines is pinned by the
///   `engine_differential` proptests at several thread counts.
fn l5_sync_sanctioned(path: &str) -> bool {
    path == "crates/harness/src/supervisor.rs" || path == "crates/beeping/src/par.rs"
}

/// The harness snapshot codec, where *every* function is an L3 hot path:
/// the decoder is handed whatever bytes survived a crash, so `unwrap`,
/// panicking macros and unchecked indexing are all banned throughout (use
/// slice patterns and `.get()`; see `harness::snapshot`).
fn is_snapshot_codec(path: &str) -> bool {
    path == "crates/harness/src/snapshot.rs"
}

/// Paths where L1 enforces only its wall-clock subset (`Instant`,
/// `SystemTime`): crate sources outside the full-determinism scope of
/// [`rules_for`]. The `telemetry` crate is exempt — it wraps the wall clock
/// behind `Stopwatch`/`PhaseTimer` precisely so nothing else has to touch
/// `std::time` — and fixture/test trees (no `/src/` segment) stay out of
/// scope entirely.
fn wall_clock_scope_only(path: &str) -> bool {
    path.starts_with("crates/")
        && path.contains("/src/")
        && !path.starts_with("crates/telemetry/src/")
        && !path.starts_with("crates/beeping/src/")
        && !path.starts_with("crates/mis/src/")
        && !path.starts_with("crates/baselines/src/")
        && !path.starts_with("crates/graphs/src/generators/")
}

/// One file, tokenized and structurally indexed, ready for rule passes.
struct Prepared<'a> {
    path: &'a str,
    rules: &'a [RuleId],
    tokens: Vec<Token>,
    lines: Vec<&'a str>,
    index: FileIndex,
}

/// Runs every in-scope rule over `files`, including the workspace-level
/// passes (transitive L3 panic-freedom, L4 purpose-collision detection)
/// that need all files at once. Findings come back sorted by
/// (file, line, col, rule).
pub fn check_workspace(files: &[SourceFile]) -> Vec<Finding> {
    let prepared: Vec<Prepared> = files
        .iter()
        .map(|f| {
            let tokens = tokenize(&f.source);
            let index = index_file(&tokens);
            Prepared {
                path: &f.path,
                rules: &f.rules,
                tokens,
                lines: f.source.lines().collect(),
                index,
            }
        })
        .collect();
    let mut findings = Vec::new();
    for p in &prepared {
        for &rule in p.rules {
            match rule {
                RuleId::L1 => check_determinism(p, &mut findings),
                RuleId::L2 => check_level_arithmetic(p, &mut findings),
                RuleId::L3 => {} // workspace pass below
                RuleId::L4 => check_rng_discipline(p, &mut findings),
                RuleId::L5 => check_concurrency_discipline(p, &mut findings),
                RuleId::L6 => check_cast_audit(p, &mut findings),
            }
        }
    }
    check_panic_freedom(&prepared, &mut findings);
    check_purpose_collisions(&prepared, &mut findings);
    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    findings
}

fn snippet(lines: &[&str], line: u32) -> String {
    lines.get(line as usize - 1).map_or(String::new(), |l| l.trim().to_string())
}

fn push(
    findings: &mut Vec<Finding>,
    rule: RuleId,
    file: &str,
    tok: &Token,
    lines: &[&str],
    message: String,
) {
    findings.push(Finding {
        rule,
        file: file.to_string(),
        line: tok.line,
        col: tok.col,
        message,
        snippet: snippet(lines, tok.line),
    });
}

/// L1: sources of nondeterminism. `HashMap`/`HashSet` are banned outright
/// (not merely their iteration): std's hasher is randomly keyed per
/// instance, so any escape of their order — iteration, debug printing,
/// `extend` — silently breaks bit-reproducibility per seed. Use `BTreeMap`/
/// `BTreeSet` or sorted `Vec`s.
///
/// On [`wall_clock_scope_only`] paths (driver crates like `experiments` or
/// `analysis`) only the wall-clock bans apply: those crates may keep hash
/// containers for reporting, but raw `Instant`/`SystemTime` must be replaced
/// with `telemetry::Stopwatch` so timing stays observational.
fn check_determinism(p: &Prepared, findings: &mut Vec<Finding>) {
    const WALL_CLOCK: &[(&str, &str)] = &[
        ("Instant", "wall clocks are nondeterministic; use telemetry::Stopwatch or rounds"),
        ("SystemTime", "wall clocks are nondeterministic; use telemetry::Stopwatch or rounds"),
    ];
    const BANNED: &[(&str, &str)] = &[
        ("thread_rng", "seed a Pcg64Mcg via beeping::rng instead of OS entropy"),
        ("from_entropy", "seed a Pcg64Mcg via beeping::rng instead of OS entropy"),
        ("OsRng", "seed a Pcg64Mcg via beeping::rng instead of OS entropy"),
        ("Instant", "wall clocks are nondeterministic; use telemetry::Stopwatch or rounds"),
        ("SystemTime", "wall clocks are nondeterministic; use telemetry::Stopwatch or rounds"),
        ("HashMap", "hash order is randomly keyed per process; use BTreeMap or a sorted Vec"),
        ("HashSet", "hash order is randomly keyed per process; use BTreeSet or a sorted Vec"),
    ];
    let banned: &[(&str, &str)] = if wall_clock_scope_only(p.path) { WALL_CLOCK } else { BANNED };
    for (i, tok) in p.tokens.iter().enumerate() {
        if p.index.in_test[i] || tok.kind != TokenKind::Ident {
            continue;
        }
        if let Some((name, why)) = banned.iter().find(|(name, _)| tok.text == *name) {
            push(findings, RuleId::L1, p.path, tok, &p.lines, format!("use of `{name}`: {why}"));
        }
        // `rand::random` draws from the thread-local entropy RNG.
        if !wall_clock_scope_only(p.path)
            && tok.is_ident("rand")
            && p.tokens.get(i + 1).is_some_and(|t| t.is_punct("::"))
            && p.tokens.get(i + 2).is_some_and(|t| t.is_ident("random"))
        {
            push(
                findings,
                RuleId::L1,
                p.path,
                tok,
                &p.lines,
                "use of `rand::random`: draws from thread-local OS entropy; \
                 use the simulation's seeded streams"
                    .to_string(),
            );
        }
    }
}

/// Identifiers treated as level values by L2.
fn is_level_ident(t: &Token) -> bool {
    t.kind == TokenKind::Ident
        && (t.text == "level"
            || t.text == "lmax"
            || t.text == "ell"
            || t.text == "l"
            || t.text.ends_with("_level")
            || t.text.ends_with("_lmax"))
}

const ARITH: &[&str] = &["+", "-", "+=", "-="];

/// L2: raw arithmetic on level values. Every `ℓ` transition must go through
/// the saturating helpers in `mis::levels` so the state space `[-ℓmax, ℓmax]`
/// can never be left; a bare `level + 1` reintroduces exactly the overflow
/// the paper's fault model excludes.
fn check_level_arithmetic(p: &Prepared, findings: &mut Vec<Finding>) {
    let mut reported: Option<(u32, u32)> = None;
    for (i, tok) in p.tokens.iter().enumerate() {
        if p.index.in_test[i] {
            continue;
        }
        let fires = if tok.kind == TokenKind::Punct && ARITH.contains(&tok.text.as_str()) {
            // `level + …`, `… - lmax`, unary `-lmax`.
            p.tokens.get(i.wrapping_sub(1)).is_some_and(is_level_ident)
                || p.tokens.get(i + 1).is_some_and(is_level_ident)
        } else if tok.is_ident("as") {
            // `lmax as i64` — casts silently truncate corrupted values
            // instead of clamping them.
            p.tokens.get(i.wrapping_sub(1)).is_some_and(is_level_ident)
        } else {
            false
        };
        if fires && reported != Some((tok.line, tok.col)) {
            reported = Some((tok.line, tok.col));
            push(
                findings,
                RuleId::L2,
                p.path,
                tok,
                &p.lines,
                format!(
                    "raw `{}` on a level value: route transitions through the \
                     saturating helpers in mis::levels (update_level, clamp_level, …)",
                    tok.text
                ),
            );
        }
    }
}

/// Names that make a non-test `fn` an L3 root in any L3-scoped file.
fn is_hot_name(name: &str) -> bool {
    matches!(name, "transmit" | "receive" | "step")
}

/// Marks tokens inside `assert!`/`debug_assert!`-family macro arguments.
/// The assert family is L3-exempt wholesale — it documents model violations
/// — so an `.unwrap()` inside `debug_assert_eq!(…)` arguments is exempt
/// with it (it evaluates under the same debug-only, programming-error
/// regime as the assertion itself).
fn mark_assert_regions(tokens: &[Token]) -> Vec<bool> {
    const ASSERT_MACROS: &[&str] =
        &["assert", "assert_eq", "assert_ne", "debug_assert", "debug_assert_eq", "debug_assert_ne"];
    let n = tokens.len();
    let mut in_assert = vec![false; n];
    let mut i = 0;
    while i < n {
        if tokens[i].kind == TokenKind::Ident
            && ASSERT_MACROS.contains(&tokens[i].text.as_str())
            && tokens.get(i + 1).is_some_and(|t| t.is_punct("!"))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct("(") || t.is_punct("["))
        {
            let mut depth = 0usize;
            let mut j = i + 2;
            while j < n {
                if tokens[j].is_punct("(") || tokens[j].is_punct("[") {
                    depth += 1;
                } else if tokens[j].is_punct(")") || tokens[j].is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                in_assert[j] = true;
                j += 1;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    in_assert
}

/// L3 (workspace pass): panic-freedom, transitively. A panic inside
/// `transmit`/`receive`/`step` — or anything they call — takes down the
/// whole simulated network on a single node's bad state, the opposite of
/// self-stabilization, where arbitrary state must be *recovered from*.
///
/// Roots: every non-test `fn` named `transmit`/`receive`/`step` in an
/// L3-scoped file, the `resumable` run's `tick` (the supervised hot loop),
/// and every function of the snapshot codec. The call graph then propagates
/// hotness into every reachable callee, wherever it lives; transitive
/// findings carry the call chain from the root.
///
/// `assert!`/`debug_assert!` stay allowed: they document model violations
/// (programming errors), not state corruption. Slice indexing is checked
/// only at the roots where the index can come from untrusted data:
/// `transmit`/`receive` (per-node paths) and the snapshot codec (arbitrary
/// bytes after a crash); the simulator's `step` owns its index ranges, and
/// transitive callees are covered for panics, not indexing.
fn check_panic_freedom(prepared: &[Prepared], findings: &mut Vec<Finding>) {
    const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
    let indexes: Vec<&FileIndex> = prepared.iter().map(|p| &p.index).collect();
    let graph = CallGraph::build(&indexes);
    let mut roots: Vec<DefId> = Vec::new();
    for (fi, p) in prepared.iter().enumerate() {
        if !p.rules.contains(&RuleId::L3) {
            continue;
        }
        let codec = is_snapshot_codec(p.path);
        for (di, def) in p.index.fns.iter().enumerate() {
            if def.in_test {
                continue;
            }
            let hot = codec
                || is_hot_name(&def.bare)
                || (def.bare == "tick" && p.path == "crates/mis/src/resumable.rs");
            if hot {
                roots.push((fi, di));
            }
        }
    }
    let reach = graph.reachable(&indexes, &roots);
    for (fi, p) in prepared.iter().enumerate() {
        let in_assert = mark_assert_regions(&p.tokens);
        for (i, tok) in p.tokens.iter().enumerate() {
            if p.index.in_test[i] || in_assert[i] {
                continue;
            }
            let Some(di) = p.index.enclosing[i] else { continue };
            let Some(chain) = reach.get(&(fi, di)) else { continue };
            let def = &p.index.fns[di];
            let is_root = chain.len() == 1;
            let via = || {
                if is_root {
                    format!("protocol hot path `{}`", def.bare)
                } else {
                    format!("`{}`, reachable from hot path via `{}`", def.bare, chain.join(" → "))
                }
            };
            // `self.expect(…)` calling a method the enclosing impl type
            // defines is a domain helper, not `Option::expect` — the graph
            // pulls its body into the hot set instead of flagging the call.
            let own_method_call =
                || {
                    p.tokens.get(i.wrapping_sub(2)).is_some_and(|t| t.is_ident("self"))
                        && def.qualified.as_deref().and_then(|q| q.split_once("::")).is_some_and(
                            |(ty, _)| graph.has_qualified(&format!("{ty}::{}", tok.text)),
                        )
                };
            if (tok.is_ident("unwrap") || tok.is_ident("expect"))
                && p.tokens.get(i.wrapping_sub(1)).is_some_and(|t| t.is_punct("."))
                && p.tokens.get(i + 1).is_some_and(|t| t.is_punct("("))
                && !own_method_call()
            {
                push(
                    findings,
                    RuleId::L3,
                    p.path,
                    tok,
                    &p.lines,
                    format!(
                        "`.{}()` in {}: a corrupted state must not panic the \
                         network; handle the None/Err arm explicitly",
                        tok.text,
                        via()
                    ),
                );
            }
            if tok.kind == TokenKind::Ident
                && PANIC_MACROS.contains(&tok.text.as_str())
                && p.tokens.get(i + 1).is_some_and(|t| t.is_punct("!"))
            {
                push(
                    findings,
                    RuleId::L3,
                    p.path,
                    tok,
                    &p.lines,
                    format!(
                        "`{}!` in {}: self-stabilization requires recovering \
                         from arbitrary state, not panicking on it",
                        tok.text,
                        via()
                    ),
                );
            }
            let untrusted_index_path = is_root
                && (is_snapshot_codec(p.path)
                    || matches!(def.bare.as_str(), "transmit" | "receive"));
            if untrusted_index_path
                && tok.is_punct("[")
                && p.tokens.get(i.wrapping_sub(1)).is_some_and(|t| {
                    // `let [a, b] = …` is a slice *pattern* (compile-checked,
                    // cannot panic) and `for x in [..]` iterates an array
                    // literal — neither is an index expression.
                    (t.kind == TokenKind::Ident && !t.is_ident("let") && !t.is_ident("in"))
                        || t.is_punct("]")
                        || t.is_punct(")")
                })
            {
                push(
                    findings,
                    RuleId::L3,
                    p.path,
                    tok,
                    &p.lines,
                    "slice indexing in a per-node protocol path can panic on a \
                     corrupted index; use `.get()` or iterate"
                        .to_string(),
                );
            }
        }
    }
}

/// L4 (per-file half): ad-hoc RNG construction outside `beeping::rng`.
/// Every generator in the workspace derives from the master seed through
/// the purpose-separated SplitMix64 streams in `beeping::rng`; a stray
/// `seed_from_u64(42)` forks an unregistered stream whose draws silently
/// correlate with (or diverge from) the recorded trajectory.
fn check_rng_discipline(p: &Prepared, findings: &mut Vec<Finding>) {
    const BANNED: &[&str] =
        &["seed_from_u64", "from_seed", "from_rng", "SeedableRng", "StdRng", "SmallRng"];
    for (i, tok) in p.tokens.iter().enumerate() {
        if p.index.in_test[i] || tok.kind != TokenKind::Ident {
            continue;
        }
        if BANNED.contains(&tok.text.as_str()) {
            push(
                findings,
                RuleId::L4,
                p.path,
                tok,
                &p.lines,
                format!(
                    "use of `{}` outside beeping::rng: all entropy must flow through \
                     beeping::rng::{{node_rng, node_rngs, aux_rng, pcg_from_state}}",
                    tok.text
                ),
            );
        }
        // Direct generator construction: `Pcg64Mcg::new(…)` /
        // `Pcg64Mcg::from_state(…)` (the latter is also caught above when
        // written as a bare associated call).
        if tok.is_ident("Pcg64Mcg")
            && p.tokens.get(i + 1).is_some_and(|t| t.is_punct("::"))
            && p.tokens.get(i + 2).is_some_and(|t| t.is_ident("new") || t.is_ident("from_state"))
            && p.tokens.get(i + 3).is_some_and(|t| t.is_punct("(") || t.is_punct("::"))
        {
            push(
                findings,
                RuleId::L4,
                p.path,
                tok,
                &p.lines,
                "direct `Pcg64Mcg` construction: derive generators from the master \
                 seed via beeping::rng (node_rng, aux_rng, pcg_from_state)"
                    .to_string(),
            );
        }
    }
}

/// L4 (workspace half): duplicate `aux_rng` purpose streams. `aux_rng(seed,
/// purpose)` keys an independent SplitMix64 stream by `purpose`; two call
/// sites using the same value under *different* purpose constants (or raw
/// literals) believe they own independent randomness but draw the same
/// sequence — a silent cross-contamination of fault/churn/adversary streams.
/// Named constants are resolved through the workspace `const NAME: u64`
/// table, so one shared constant used from several files is (correctly) a
/// single purpose.
fn check_purpose_collisions(prepared: &[Prepared], findings: &mut Vec<Finding>) {
    let mut consts: BTreeMap<&str, u64> = BTreeMap::new();
    for p in prepared {
        for (name, &value) in &p.index.consts {
            consts.insert(name, value);
        }
    }
    // value → purpose key → first site per key (file idx, line, col).
    #[allow(clippy::type_complexity)]
    let mut by_value: BTreeMap<u64, BTreeMap<String, Vec<(usize, u32, u32)>>> = BTreeMap::new();
    for (fi, p) in prepared.iter().enumerate() {
        if !p.rules.contains(&RuleId::L4) {
            continue;
        }
        for call in &p.index.aux_calls {
            if call.in_test {
                continue;
            }
            let (value, key) = match &call.arg {
                PurposeArg::Literal(v) => (*v, format!("literal at {}:{}", p.path, call.line)),
                PurposeArg::Named(name) => match consts.get(name.as_str()) {
                    Some(&v) => (v, format!("const {name}")),
                    None => continue, // not in the u64 const table: unresolvable
                },
                PurposeArg::Opaque => continue,
            };
            by_value
                .entry(value)
                .or_default()
                .entry(key)
                .or_default()
                .push((fi, call.line, call.col));
        }
    }
    for (value, keys) in &by_value {
        if keys.len() < 2 {
            continue;
        }
        let names: Vec<&str> = keys.keys().map(String::as_str).collect();
        for (key, sites) in keys {
            let others: Vec<&str> = names.iter().filter(|&&n| n != key).copied().collect();
            for &(fi, line, col) in sites {
                let p = &prepared[fi];
                findings.push(Finding {
                    rule: RuleId::L4,
                    file: p.path.to_string(),
                    line,
                    col,
                    message: format!(
                        "aux_rng purpose {value:#x} ({key}) collides with {}: colliding \
                         purposes draw the *same* stream; give each purpose a unique \
                         constant in a shared table",
                        others.join(", ")
                    ),
                    snippet: snippet(&p.lines, line),
                });
            }
        }
    }
}

/// L5: concurrency discipline, ahead of the parallel scatter engine.
/// `static mut` is flagged unconditionally (tests included — it is UB-prone
/// everywhere). Sync primitives are confined to sanctioned modules
/// ([`l5_sync_sanctioned`]) so determinism-bearing code cannot grow ad-hoc
/// threading; and every `unsafe` must carry a `// SAFETY:` comment on the
/// preceding line (the lexer drops comments, so this check reads the raw
/// source lines).
fn check_concurrency_discipline(p: &Prepared, findings: &mut Vec<Finding>) {
    const SYNC: &[&str] = &[
        "Mutex",
        "RwLock",
        "Condvar",
        "Barrier",
        "OnceLock",
        "LazyLock",
        "JoinHandle",
        "mpsc",
        "AtomicBool",
        "AtomicU8",
        "AtomicU16",
        "AtomicU32",
        "AtomicU64",
        "AtomicUsize",
        "AtomicI8",
        "AtomicI16",
        "AtomicI32",
        "AtomicI64",
        "AtomicIsize",
        "AtomicPtr",
        "rayon",
        "crossbeam",
    ];
    let sanctioned = l5_sync_sanctioned(p.path);
    for (i, tok) in p.tokens.iter().enumerate() {
        if tok.is_ident("static") && p.tokens.get(i + 1).is_some_and(|t| t.is_ident("mut")) {
            push(
                findings,
                RuleId::L5,
                p.path,
                tok,
                &p.lines,
                "`static mut` is unsynchronized shared state — instant UB under the \
                 parallel engine; use an atomic in a sanctioned module or pass state \
                 explicitly"
                    .to_string(),
            );
            continue;
        }
        if p.index.in_test[i] || tok.kind != TokenKind::Ident {
            continue;
        }
        if !sanctioned
            && (SYNC.contains(&tok.text.as_str())
                || (tok.is_ident("thread")
                    && p.tokens.get(i + 1).is_some_and(|t| t.is_punct("::"))
                    && p.tokens.get(i + 2).is_some_and(|t| {
                        t.is_ident("spawn") || t.is_ident("scope") || t.is_ident("Builder")
                    })))
        {
            push(
                findings,
                RuleId::L5,
                p.path,
                tok,
                &p.lines,
                format!(
                    "use of `{}` outside sanctioned concurrency modules \
                     (harness::supervisor, beeping::par): threads and shared-state \
                     primitives may only live behind an audited boundary so the \
                     EngineMode bit-identity contract survives parallelism",
                    tok.text
                ),
            );
        }
        if tok.is_ident("unsafe") {
            let prev_line = (tok.line as usize).checked_sub(2).and_then(|ix| p.lines.get(ix));
            if !prev_line.is_some_and(|l| l.contains("SAFETY:")) {
                push(
                    findings,
                    RuleId::L5,
                    p.path,
                    tok,
                    &p.lines,
                    "`unsafe` without a `// SAFETY:` comment on the preceding line: \
                     every unsafe block must state the invariant that makes it sound"
                        .to_string(),
                );
            }
        }
    }
}

/// L6: truncating `as` casts. On the supported 64-bit targets, casts *to*
/// `u64`/`i64`/`u128`/`usize` from the workspace's integer vocabulary are
/// value-preserving, so only the narrow targets are flagged — a token-level
/// analyzer cannot see the source type, and this asymmetric policy keeps
/// the rule useful without type inference (documented in DESIGN.md §7.1).
/// Use `T::try_from` with explicit overflow handling, `T::from` where the
/// source is provably narrower, or an allowlist entry with a bounds
/// justification.
fn check_cast_audit(p: &Prepared, findings: &mut Vec<Finding>) {
    const NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];
    for (i, tok) in p.tokens.iter().enumerate() {
        if p.index.in_test[i] || !tok.is_ident("as") {
            continue;
        }
        let Some(target) = p.tokens.get(i + 1) else { continue };
        if target.kind == TokenKind::Ident && NARROW.contains(&target.text.as_str()) {
            push(
                findings,
                RuleId::L6,
                p.path,
                tok,
                &p.lines,
                format!(
                    "`as {}` can silently truncate: use `{}::try_from` with explicit \
                     overflow handling (or `{}::from` when the source is provably \
                     narrower), or allowlist with a bounds justification",
                    target.text, target.text, target.text
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str, rules: &[RuleId]) -> Vec<Finding> {
        check_workspace(&[SourceFile {
            path: path.to_string(),
            source: src.to_string(),
            rules: rules.to_vec(),
        }])
    }

    fn run2(files: &[(&str, &str, &[RuleId])]) -> Vec<Finding> {
        let files: Vec<SourceFile> = files
            .iter()
            .map(|(path, src, rules)| SourceFile {
                path: path.to_string(),
                source: src.to_string(),
                rules: rules.to_vec(),
            })
            .collect();
        check_workspace(&files)
    }

    #[test]
    fn scope_mapping() {
        assert_eq!(
            rules_for("crates/mis/src/algorithm1.rs"),
            vec![RuleId::L1, RuleId::L2, RuleId::L3, RuleId::L4, RuleId::L5, RuleId::L6]
        );
        assert_eq!(
            rules_for("crates/mis/src/levels.rs"),
            vec![RuleId::L1, RuleId::L3, RuleId::L4, RuleId::L5, RuleId::L6]
        );
        assert_eq!(
            rules_for("crates/graphs/src/generators/random.rs"),
            vec![RuleId::L1, RuleId::L4, RuleId::L5, RuleId::L6]
        );
        // The generator seeding chokepoint is L4-sanctioned; so is rng.rs.
        assert_eq!(
            rules_for("crates/graphs/src/generators/mod.rs"),
            vec![RuleId::L1, RuleId::L5, RuleId::L6]
        );
        assert_eq!(
            rules_for("crates/beeping/src/rng.rs"),
            vec![RuleId::L1, RuleId::L3, RuleId::L5, RuleId::L6]
        );
        // Driver/analysis crates get the wall-clock-only L1 subset plus the
        // workspace-wide disciplines.
        assert_eq!(
            rules_for("crates/graphs/src/graph.rs"),
            vec![RuleId::L1, RuleId::L4, RuleId::L5, RuleId::L6]
        );
        assert_eq!(
            rules_for("crates/experiments/src/scale.rs"),
            vec![RuleId::L1, RuleId::L4, RuleId::L5, RuleId::L6]
        );
        assert_eq!(
            rules_for("crates/beeping/src/sim.rs"),
            vec![RuleId::L1, RuleId::L3, RuleId::L4, RuleId::L5, RuleId::L6]
        );
        // Telemetry is the sanctioned wall-clock home (no L1) but still gets
        // the workspace disciplines; tests/fixtures are out of scope.
        assert_eq!(
            rules_for("crates/telemetry/src/lib.rs"),
            vec![RuleId::L4, RuleId::L5, RuleId::L6]
        );
        assert_eq!(rules_for("crates/lint/tests/fixtures/l1_determinism.rs"), Vec::<RuleId>::new());
        // The snapshot codec gets panic-freedom on top of the wall-clock
        // subset; the rest of the harness crate is a driver.
        assert_eq!(
            rules_for("crates/harness/src/snapshot.rs"),
            vec![RuleId::L1, RuleId::L3, RuleId::L4, RuleId::L5, RuleId::L6]
        );
        assert_eq!(
            rules_for("crates/harness/src/supervisor.rs"),
            vec![RuleId::L1, RuleId::L4, RuleId::L5, RuleId::L6]
        );
    }

    #[test]
    fn l3_covers_every_fn_of_the_snapshot_codec() {
        let codec = "crates/harness/src/snapshot.rs";
        // Any function in the codec is a hot path — helper names included.
        let f = run(codec, "fn parse_header(x: Option<u8>) -> u8 { x.unwrap() }", &[RuleId::L3]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("parse_header"));
        // Indexing fires too: decode input is whatever survived the crash.
        assert_eq!(run(codec, "fn decode(b: &[u8]) -> u8 { b[0] }", &[RuleId::L3]).len(), 1);
        // But the same helpers outside the codec stay cold.
        let cold = run("crates/harness/src/supervisor.rs", "fn f() { x.unwrap(); }", &[RuleId::L3]);
        assert!(cold.is_empty());
    }

    #[test]
    fn l3_slice_patterns_are_not_indexing() {
        let codec = "crates/harness/src/snapshot.rs";
        let src = "fn decode(pair: &[u8]) -> u8 { let [a, b] = pair else { return 0 }; *a }";
        assert!(run(codec, src, &[RuleId::L3]).is_empty());
        let arr = "fn decode() -> u8 { let mut t = 0; for x in [1, 2] { t += x; } t }";
        assert!(run(codec, arr, &[RuleId::L3]).is_empty());
        // An actual index expression right after a `let` binding still fires.
        let idx = "fn decode(pair: &[u8]) -> u8 { let a = pair[0]; a }";
        assert_eq!(run(codec, idx, &[RuleId::L3]).len(), 1);
    }

    #[test]
    fn wall_clock_subset_outside_core_scope() {
        let clock = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        // Driver crate: Instant flagged (twice — use + call), hash maps not.
        let f = run("crates/experiments/src/perf.rs", clock, &[RuleId::L1]);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("telemetry::Stopwatch"));
        let hash = "fn f() { let m = std::collections::HashMap::new(); }";
        assert!(run("crates/experiments/src/perf.rs", hash, &[RuleId::L1]).is_empty());
        // Telemetry is never handed L1 by rules_for; core scope still bans
        // the full catalog elsewhere.
        assert!(!rules_for("crates/telemetry/src/lib.rs").contains(&RuleId::L1));
        assert_eq!(run("crates/beeping/src/sim.rs", hash, &[RuleId::L1]).len(), 1);
    }

    #[test]
    fn l1_flags_hash_containers_and_entropy() {
        let src = "use std::collections::HashMap;\nfn f() { let r = thread_rng(); }\n";
        let f = run("x.rs", src, &[RuleId::L1]);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].line, 1);
        assert!(f[0].message.contains("HashMap"));
        assert_eq!(f[1].line, 2);
    }

    #[test]
    fn l1_ignores_tests_comments_strings() {
        let src = "// HashMap is fine here\nfn f() { let s = \"HashSet\"; }\n\
                   #[cfg(test)]\nmod tests { use std::collections::HashMap; }\n";
        assert!(run("x.rs", src, &[RuleId::L1]).is_empty());
    }

    #[test]
    fn l2_flags_raw_level_arithmetic() {
        let src = "fn f(level: i32, lmax: i32) -> i32 { level + 1 }\n";
        let f = run("x.rs", src, &[RuleId::L2]);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("saturating helpers"));
    }

    #[test]
    fn l2_flags_casts_and_unary_minus() {
        assert_eq!(run("x.rs", "fn f() { g(lmax as i64); }", &[RuleId::L2]).len(), 1);
        assert_eq!(run("x.rs", "fn f() { g(-lmax); }", &[RuleId::L2]).len(), 1);
    }

    #[test]
    fn l2_allows_comparisons_and_other_idents() {
        assert!(run("x.rs", "fn f() { if l < lmax { g(count + 1); } }", &[RuleId::L2]).is_empty());
    }

    #[test]
    fn l3_fires_only_in_hot_paths() {
        let hot = "fn receive(&self) { x.unwrap(); }";
        let cold = "fn helper() { x.unwrap(); }";
        assert_eq!(run("x.rs", hot, &[RuleId::L3]).len(), 1);
        assert!(run("x.rs", cold, &[RuleId::L3]).is_empty());
    }

    #[test]
    fn l3_flags_panics_and_indexing() {
        let src = "fn transmit(&self) { panic!(\"boom\"); let y = xs[i]; }";
        let f = run("x.rs", src, &[RuleId::L3]);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn l3_allows_asserts_and_array_literals() {
        let src = "fn step(&mut self) { assert!(ok, \"bad\"); let a = [0; 4]; }";
        assert!(run("x.rs", src, &[RuleId::L3]).is_empty());
    }

    #[test]
    fn l3_nested_fn_scoping() {
        // A hot-path name nested in a cold fn is a root of its own; the cold
        // outer fn stays cold (it never calls the inner one).
        let src = "fn outer() { fn receive() { a.unwrap(); } b.unwrap(); }";
        let f = run("x.rs", src, &[RuleId::L3]);
        assert_eq!(f.len(), 1);
        assert!(f[0].snippet.contains("a.unwrap"));
    }

    #[test]
    fn test_attribute_exempts_following_fn() {
        let src = "#[test]\nfn step() { x.unwrap(); }\nfn receive() { y.unwrap(); }";
        let f = run("x.rs", src, &[RuleId::L3]);
        assert_eq!(f.len(), 1);
        assert!(f[0].snippet.contains("y.unwrap"));
    }

    #[test]
    fn l3_transitive_through_the_call_graph() {
        // The panic sits two edges below `step`, in a *different file*.
        let f = run2(&[
            ("a.rs", "fn step() { helper_a(); }", &[RuleId::L3]),
            ("b.rs", "fn helper_a() { helper_b(); }\nfn helper_b() { x.unwrap(); }", &[RuleId::L3]),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].file, "b.rs");
        assert!(f[0].message.contains("step → helper_a → helper_b"), "{}", f[0].message);
    }

    #[test]
    fn l3_transitive_ignores_test_callees_and_uncalled_fns() {
        let f = run2(&[
            ("a.rs", "fn step() { helper(); }", &[RuleId::L3]),
            (
                "b.rs",
                "fn helper() {}\nfn lonely() { x.unwrap(); }\n\
                 #[cfg(test)]\nmod t { fn helper2() { y.unwrap(); } }",
                &[RuleId::L3],
            ),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn l3_transitive_skips_indexing_in_callees() {
        // Indexing is a root-only check: callees own their index ranges.
        let f = run2(&[
            ("a.rs", "fn step() { helper(); }", &[RuleId::L3]),
            ("b.rs", "fn helper(xs: &[u8]) -> u8 { xs[0] }", &[RuleId::L3]),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn l3_tick_is_a_root_only_in_resumable() {
        let hot = run("crates/mis/src/resumable.rs", "fn tick() { x.unwrap(); }", &[RuleId::L3]);
        assert_eq!(hot.len(), 1);
        let cold = run("crates/mis/src/runner.rs", "fn tick() { x.unwrap(); }", &[RuleId::L3]);
        assert!(cold.is_empty());
    }

    #[test]
    fn l4_flags_adhoc_seeding() {
        let src = "fn f(seed: u64) { let r = Pcg64Mcg::seed_from_u64(seed); }";
        let f = run("crates/experiments/src/x.rs", src, &[RuleId::L4]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("beeping::rng"));
        let direct = "fn f() { let r = Pcg64Mcg::new(1, 2); }";
        assert_eq!(run("crates/experiments/src/x.rs", direct, &[RuleId::L4]).len(), 1);
        // Tests may seed however they like.
        let test = "#[cfg(test)]\nmod t { fn f() { Pcg64Mcg::seed_from_u64(7); } }";
        assert!(run("crates/experiments/src/x.rs", test, &[RuleId::L4]).is_empty());
    }

    #[test]
    fn l4_flags_duplicate_literal_purposes() {
        let src = "fn a(s: u64) { aux_rng(s, 0xADA); }\nfn b(s: u64) { aux_rng(s, 0xADA); }";
        let f = run("crates/mis/src/x.rs", src, &[RuleId::L4]);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("collide"));
    }

    #[test]
    fn l4_shared_const_is_one_purpose() {
        // One constant used from two files is a single stream — no collision.
        let f = run2(&[
            (
                "a.rs",
                "pub const FAULT_RNG_PURPOSE: u64 = 0xFA17;\n\
                 fn a(s: u64) { aux_rng(s, FAULT_RNG_PURPOSE); }",
                &[RuleId::L4],
            ),
            ("b.rs", "fn b(s: u64) { aux_rng(s, FAULT_RNG_PURPOSE); }", &[RuleId::L4]),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn l4_two_consts_same_value_collide() {
        let src = "const A: u64 = 7;\nconst B: u64 = 7;\n\
                   fn a(s: u64) { aux_rng(s, A); }\nfn b(s: u64) { aux_rng(s, B); }";
        let f = run("crates/mis/src/x.rs", src, &[RuleId::L4]);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("const A") || f[0].message.contains("const B"));
    }

    #[test]
    fn l5_flags_static_mut_everywhere_even_tests() {
        let src = "#[cfg(test)]\nmod t { static mut COUNT: u32 = 0; }";
        assert_eq!(run("crates/mis/src/x.rs", src, &[RuleId::L5]).len(), 1);
    }

    #[test]
    fn l5_sync_primitives_only_in_sanctioned_modules() {
        let src = "use std::sync::Mutex;\nfn f() { std::thread::spawn(|| {}); }";
        let f = run("crates/mis/src/x.rs", src, &[RuleId::L5]);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(run("crates/harness/src/supervisor.rs", src, &[RuleId::L5]).is_empty());
        assert!(run("crates/beeping/src/par.rs", src, &[RuleId::L5]).is_empty());
    }

    #[test]
    fn l5_scoped_threads_count_as_threading() {
        // `thread::scope` is how the parallel engine spawns — unsanctioned
        // modules must not get a pass just because they avoid `spawn`.
        let src = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }";
        let f = run("crates/mis/src/x.rs", src, &[RuleId::L5]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("thread"));
        assert!(run("crates/beeping/src/par.rs", src, &[RuleId::L5]).is_empty());
    }

    #[test]
    fn l5_unsafe_requires_safety_comment() {
        let bare = "fn f() {\n    unsafe { core() }\n}";
        let f = run("crates/mis/src/x.rs", bare, &[RuleId::L5]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("SAFETY"));
        let documented =
            "fn f() {\n    // SAFETY: core() has no preconditions here.\n    unsafe { core() }\n}";
        assert!(run("crates/mis/src/x.rs", documented, &[RuleId::L5]).is_empty());
    }

    #[test]
    fn l6_flags_narrowing_casts_only() {
        let src = "fn f(x: u64) -> u32 { x as u32 }";
        let f = run("crates/graphs/src/x.rs", src, &[RuleId::L6]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("try_from"));
        // Widening/same-width casts on 64-bit targets are not flagged.
        let wide = "fn f(x: u32) -> u64 { x as u64 + (x as usize as u64) }";
        assert!(run("crates/graphs/src/x.rs", wide, &[RuleId::L6]).is_empty());
        // Tests are exempt.
        let test = "#[test]\nfn t() { let x = 7u64 as u32; }";
        assert!(run("crates/graphs/src/x.rs", test, &[RuleId::L6]).is_empty());
    }
}
