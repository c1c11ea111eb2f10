//! The project rules and the engine that runs them over the item-aware
//! source model.
//!
//! Every violation is span-precise (`file:line:col`) and every rule is
//! suppressible in-source with `// xcheck-allow(rule-id): reason` on the
//! offending line or the line above (file-level rules accept the
//! directive anywhere in the file). Suppressions are themselves policed:
//! one without a reason, or one that suppresses nothing, is a violation
//! of `suppression-hygiene`.

use crate::lexer::{DirectiveKind, SpannedTok, Tok};
use crate::model::{ItemKind, SourceModel};
use crate::walk::SourceFile;

/// Crates whose non-test code must be panic-free (wire/hot paths, the
/// simulation engine the figures depend on, and the recorder/algebra
/// substrates under them).
const PANIC_FREE_CRATES: [&str; 9] = [
    "wirecrypto",
    "rekeymsg",
    "rse",
    "netsim",
    "grouprekey",
    "keytree",
    "rekeyproto",
    "obs",
    "gf256",
];

/// Files in which `as` casts to narrower integer types are forbidden
/// (the GF(2^8) code the erasure coder runs — field, interpolation rows,
/// bulk kernel — where a silent truncation corrupts algebra instead of
/// crashing).
const NO_TRUNCATING_CAST_FILES: [&str; 3] = [
    "crates/gf256/src/field.rs",
    "crates/gf256/src/lagrange.rs",
    "crates/gf256/src/bulk.rs",
];

/// Crates whose entire `pub` surface must carry doc comments.
const DOCUMENTED_CRATES: [&str; 6] = [
    "keytree",
    "rse",
    "netsim",
    "grouprekey",
    "rekeyproto",
    "obs",
];

/// Crates whose outputs (snapshots, packets, figures, metrics) must not
/// depend on `HashMap`/`HashSet` iteration order.
const DETERMINISM_CRATES: [&str; 4] = ["keytree", "rekeymsg", "grouprekey", "bench"];

/// Integer types an `as` cast may truncate into.
const NARROW_INT_TYPES: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// Iterator-producing methods on unordered collections.
const UNORDERED_ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Iterator adapters that preserve the order question (walk through
/// them to find the consumer).
const ORDER_NEUTRAL_ADAPTERS: [&str; 7] = [
    "copied",
    "cloned",
    "map",
    "filter",
    "filter_map",
    "flatten",
    "flat_map",
];

/// Consumers whose result does not depend on iteration order.
const ORDER_INSENSITIVE_CONSUMERS: [&str; 9] = [
    "count",
    "sum",
    "product",
    "all",
    "any",
    "min",
    "max",
    "min_by_key",
    "max_by_key",
];

/// Collection types that are acceptable `collect()` sinks for unordered
/// iteration: either unordered themselves or self-ordering.
const ORDER_SAFE_SINKS: [&str; 5] = ["HashMap", "HashSet", "BTreeMap", "BTreeSet", "BinaryHeap"];

/// Atomic memory orderings that require a written justification.
const JUSTIFY_ORDERINGS: [&str; 2] = ["Relaxed", "SeqCst"];

/// All atomic memory orderings (for the inventory).
const ALL_ORDERINGS: [&str; 5] = ["Relaxed", "SeqCst", "Acquire", "Release", "AcqRel"];

/// Allocation-smell method calls inside `no_alloc` functions.
const ALLOC_METHODS: [&str; 6] = [
    "to_vec",
    "to_string",
    "to_owned",
    "collect",
    "push_str",
    "into_boxed_slice",
];

/// Constructors that allocate (or exist to pre-allocate) on collection
/// and smart-pointer types.
const ALLOC_CTOR_TYPES: [&str; 9] = [
    "Vec", "String", "Box", "Rc", "Arc", "HashMap", "HashSet", "BTreeMap", "VecDeque",
];

/// Static description of one rule, for `--list-rules` and the report.
pub struct RuleInfo {
    /// Stable machine-readable rule id.
    pub id: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// Which crates/files the rule applies to.
    pub scope: &'static str,
}

const R_NO_PANIC: usize = 0;
const R_UNSAFE: usize = 1;
const R_CAST: usize = 2;
const R_DOCS: usize = 3;
const R_TODO: usize = 4;
const R_DETERMINISM: usize = 5;
const R_ATOMICS: usize = 6;
const R_NO_ALLOC: usize = 7;
const R_SUPPRESSION: usize = 8;

/// The fixed rule table, in report order.
pub const RULES: [RuleInfo; 9] = [
    RuleInfo {
        id: "no-unwrap-in-wire-crates",
        description: "no `.unwrap()` / `.expect()` in non-test code",
        scope: "wirecrypto, rekeymsg, rse, netsim, grouprekey, keytree, rekeyproto, obs, gf256",
    },
    RuleInfo {
        id: "forbid-unsafe-code",
        description: "`#![forbid(unsafe_code)]` present in every crate root",
        scope: "all crate roots",
    },
    RuleInfo {
        id: "no-truncating-cast-in-gf256",
        description: "no `as` casts to narrower integer types in the GF(2^8) field, interpolation and bulk-kernel code",
        scope: "crates/gf256/src/field.rs, crates/gf256/src/lagrange.rs, crates/gf256/src/bulk.rs",
    },
    RuleInfo {
        id: "documented-pub-api",
        description: "every `pub` item carries a doc comment",
        scope: "keytree, rse, netsim, grouprekey, rekeyproto, obs",
    },
    RuleInfo {
        id: "no-todo-or-unimplemented",
        description: "no `todo!` / `unimplemented!` anywhere, tests included",
        scope: "workspace",
    },
    RuleInfo {
        id: "determinism-unordered-iter",
        description: "no HashMap/HashSet iteration feeding ordered outputs unless sorted, \
                      order-insensitive, or collected into an order-safe sink",
        scope: "keytree, rekeymsg, grouprekey, bench",
    },
    RuleInfo {
        id: "atomics-ordering-justified",
        description: "every `Ordering::Relaxed` / `Ordering::SeqCst` site carries an \
                      `// xcheck-ordering: <why>` justification",
        scope: "workspace (non-test code)",
    },
    RuleInfo {
        id: "no-alloc-static",
        description: "functions marked `// xcheck: no_alloc` contain no statically visible \
                      allocation (dynamically pinned to 0 allocs by the xcheck-rt harness)",
        scope: "functions marked `// xcheck: no_alloc`",
    },
    RuleInfo {
        id: "suppression-hygiene",
        description: "every `xcheck-allow` directive has a non-empty reason and suppresses a \
                      real violation",
        scope: "workspace",
    },
];

/// One rule violation at a source location.
pub struct Violation {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
    /// Human-readable description of this occurrence.
    pub message: String,
}

/// A used `xcheck-allow` suppression, recorded for the report.
pub struct Suppression {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the directive.
    pub line: u32,
    /// The suppressed rule id.
    pub rule: String,
    /// The stated reason.
    pub reason: String,
}

/// One `Ordering::*` site for the atomics inventory.
pub struct AtomicSite {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
    /// The ordering variant (`Relaxed`, `SeqCst`, ...).
    pub ordering: String,
    /// The `// xcheck-ordering:` justification, if present.
    pub justification: Option<String>,
}

/// One `// xcheck: no_alloc` mark for the inventory.
pub struct NoAllocMark {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the marked function.
    pub line: u32,
    /// Qualified function name (`Type::method` or bare name).
    pub function: String,
}

/// A rule's identity and its collected violations.
pub struct RuleReport {
    /// Stable machine-readable rule id.
    pub id: &'static str,
    /// One-line description for the human report.
    pub description: &'static str,
    /// Which crates/files the rule applies to.
    pub scope: &'static str,
    /// All violations, in path/line order.
    pub violations: Vec<Violation>,
}

/// The outcome of a full lint run.
pub struct Outcome {
    /// Per-rule reports, in fixed rule order.
    pub rules: Vec<RuleReport>,
    /// Every suppression that fired, with its reason.
    pub suppressions: Vec<Suppression>,
    /// Inventory of all atomic-ordering sites in non-test code.
    pub atomics: Vec<AtomicSite>,
    /// Inventory of all `no_alloc`-marked functions.
    pub no_alloc_marks: Vec<NoAllocMark>,
}

impl Outcome {
    /// Total violations across all rules.
    pub fn total_violations(&self) -> usize {
        self.rules.iter().map(|r| r.violations.len()).sum()
    }
}

/// One `xcheck-allow` directive with its match state.
struct Allow {
    line: u32,
    rule: String,
    reason: String,
    used: bool,
}

/// Per-file context threaded through the rules.
struct FileCtx<'a> {
    model: SourceModel<'a>,
    allows: Vec<Allow>,
}

impl<'a> FileCtx<'a> {
    fn new(file: &'a SourceFile) -> FileCtx<'a> {
        let model = SourceModel::build(file);
        let allows = model
            .directives
            .iter()
            .filter(|d| !model.line_in_test(d.line))
            .filter_map(|d| match &d.kind {
                DirectiveKind::Allow { rule, reason } => Some(Allow {
                    line: d.line,
                    rule: rule.clone(),
                    reason: reason.clone(),
                    used: false,
                }),
                _ => None,
            })
            .collect();
        FileCtx { model, allows }
    }

    fn rel_path(&self) -> &str {
        &self.model.file.rel_path
    }

    /// Records a violation at `line:col` unless an `xcheck-allow` for the
    /// rule sits on the same line or the line above.
    fn emit(&mut self, out: &mut Outcome, rule: usize, line: u32, col: u32, message: String) {
        let rule_id = RULES[rule].id;
        let file = self.rel_path().to_string();
        let allow = self
            .allows
            .iter_mut()
            .find(|a| a.rule == rule_id && (a.line == line || a.line + 1 == line));
        if let Some(allow) = allow {
            allow.used = true;
            out.suppressions.push(Suppression {
                file,
                line: allow.line,
                rule: allow.rule.clone(),
                reason: allow.reason.clone(),
            });
            return;
        }
        out.rules[rule].violations.push(Violation {
            file,
            line,
            col,
            message,
        });
    }

    /// Like [`Self::emit`], but for file-level rules: an allow anywhere in the
    /// file suppresses the violation.
    fn emit_file_level(&mut self, out: &mut Outcome, rule: usize, message: String) {
        let rule_id = RULES[rule].id;
        let file = self.rel_path().to_string();
        let allow = self.allows.iter_mut().find(|a| a.rule == rule_id);
        if let Some(allow) = allow {
            allow.used = true;
            out.suppressions.push(Suppression {
                file,
                line: allow.line,
                rule: allow.rule.clone(),
                reason: allow.reason.clone(),
            });
            return;
        }
        out.rules[rule].violations.push(Violation {
            file,
            line: 1,
            col: 1,
            message,
        });
    }

    /// Flushes suppression-hygiene findings once every other rule ran.
    fn finish(mut self, out: &mut Outcome) {
        let file = self.rel_path().to_string();
        for allow in self.allows.drain(..) {
            if allow.reason.is_empty() {
                out.rules[R_SUPPRESSION].violations.push(Violation {
                    file: file.clone(),
                    line: allow.line,
                    col: 1,
                    message: format!(
                        "`xcheck-allow({})` has no reason; write `: <why>` after it",
                        allow.rule
                    ),
                });
            } else if !allow.used {
                out.rules[R_SUPPRESSION].violations.push(Violation {
                    file: file.clone(),
                    line: allow.line,
                    col: 1,
                    message: format!(
                        "`xcheck-allow({})` suppresses nothing on this or the next line; \
                         remove the stale directive",
                        allow.rule
                    ),
                });
            }
        }
    }
}

/// Runs every rule over the scanned sources.
pub fn run_all(sources: &[SourceFile]) -> Outcome {
    let mut out = Outcome {
        rules: RULES
            .iter()
            .map(|info| RuleReport {
                id: info.id,
                description: info.description,
                scope: info.scope,
                violations: Vec::new(),
            })
            .collect(),
        suppressions: Vec::new(),
        atomics: Vec::new(),
        no_alloc_marks: Vec::new(),
    };

    for source in sources {
        let mut ctx = FileCtx::new(source);

        if PANIC_FREE_CRATES.contains(&source.crate_name.as_str()) {
            check_no_panic_helpers(&mut ctx, &mut out);
        }
        if source.is_crate_root {
            check_forbid_unsafe(&mut ctx, &mut out);
        }
        if NO_TRUNCATING_CAST_FILES.contains(&source.rel_path.as_str()) {
            check_no_truncating_cast(&mut ctx, &mut out);
        }
        if DOCUMENTED_CRATES.contains(&source.crate_name.as_str()) {
            check_pub_docs(&mut ctx, &mut out);
        }
        check_no_todo(&mut ctx, &mut out);
        if DETERMINISM_CRATES.contains(&source.crate_name.as_str()) {
            check_determinism(&mut ctx, &mut out);
        }
        check_atomics(&mut ctx, &mut out);
        check_no_alloc_static(&mut ctx, &mut out);

        ctx.finish(&mut out);
    }

    out
}

fn ident_at(toks: &[SpannedTok], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(name)) => Some(name.as_str()),
        _ => None,
    }
}

fn punct_at(toks: &[SpannedTok], i: usize) -> Option<char> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Punct(c)) => Some(*c),
        _ => None,
    }
}

/// Index one past the matching closer for the opener at `open`.
fn skip_balanced(toks: &[SpannedTok], open: usize, opener: char, closer: char) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        match punct_at(toks, i) {
            Some(c) if c == opener => depth += 1,
            Some(c) if c == closer => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// `.unwrap(` / `.expect(` token triples outside `#[cfg(test)]` regions.
fn check_no_panic_helpers(ctx: &mut FileCtx<'_>, out: &mut Outcome) {
    let sites: Vec<(u32, u32, String)> = {
        let toks = &ctx.model.toks;
        toks.windows(3)
            .filter_map(|window| {
                let [dot, name, paren] = window else {
                    return None;
                };
                let Tok::Ident(method) = &name.tok else {
                    return None;
                };
                (dot.tok == Tok::Punct('.')
                    && paren.tok == Tok::Punct('(')
                    && (method == "unwrap" || method == "expect")
                    && !ctx.model.line_in_test(name.line))
                .then(|| (name.line, name.col, method.clone()))
            })
            .collect()
    };
    for (line, col, method) in sites {
        ctx.emit(
            out,
            R_NO_PANIC,
            line,
            col,
            format!("`.{method}()` in non-test code; return a typed error instead"),
        );
    }
}

/// Crate roots must open with `#![forbid(unsafe_code)]`.
fn check_forbid_unsafe(ctx: &mut FileCtx<'_>, out: &mut Outcome) {
    let has_forbid = ctx
        .model
        .file
        .text
        .lines()
        .map(|line| line.split_whitespace().collect::<String>())
        .any(|compact| compact == "#![forbid(unsafe_code)]");
    if !has_forbid {
        ctx.emit_file_level(
            out,
            R_UNSAFE,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        );
    }
}

/// `as u8`-style narrowing casts outside test code.
fn check_no_truncating_cast(ctx: &mut FileCtx<'_>, out: &mut Outcome) {
    let sites: Vec<(u32, u32, String)> = {
        let toks = &ctx.model.toks;
        toks.windows(2)
            .filter_map(|window| {
                let [kw, target] = window else { return None };
                let (Tok::Ident(kw_name), Tok::Ident(target_name)) = (&kw.tok, &target.tok) else {
                    return None;
                };
                (kw_name == "as"
                    && NARROW_INT_TYPES.contains(&target_name.as_str())
                    && !ctx.model.line_in_test(kw.line))
                .then(|| (kw.line, kw.col, target_name.clone()))
            })
            .collect()
    };
    for (line, col, target) in sites {
        ctx.emit(
            out,
            R_CAST,
            line,
            col,
            format!("truncating `as {target}` cast; use `try_from`/`from` so narrowing is checked"),
        );
    }
}

/// `pub` items (outside test code) must be preceded by a `///` doc
/// comment, possibly with attributes or xcheck directive comments in
/// between.
fn check_pub_docs(ctx: &mut FileCtx<'_>, out: &mut Outcome) {
    let lines: Vec<&str> = ctx.model.file.text.lines().collect();
    let sites: Vec<(u32, u32, String)> = ctx
        .model
        .items
        .iter()
        .filter(|item| item.is_pub && item.kind != ItemKind::Impl)
        .filter(|item| !ctx.model.line_in_test(item.line))
        .filter(|item| {
            let mut above = item.line as usize - 1;
            while above > 0 {
                above -= 1;
                let prev = lines.get(above).map(|l| l.trim_start()).unwrap_or("");
                if prev.starts_with("#[")
                    || prev.starts_with("#!")
                    || prev
                        .trim_start_matches('/')
                        .trim_start()
                        .starts_with("xcheck")
                {
                    continue;
                }
                return !(prev.starts_with("///") || prev.starts_with("#[doc"));
            }
            true
        })
        .map(|item| (item.line, item.col, item.qual.clone()))
        .collect();
    for (line, col, qual) in sites {
        ctx.emit(
            out,
            R_DOCS,
            line,
            col,
            format!("undocumented public item `{qual}`"),
        );
    }
}

/// `todo!` / `unimplemented!` anywhere, test code included.
fn check_no_todo(ctx: &mut FileCtx<'_>, out: &mut Outcome) {
    let sites: Vec<(u32, u32, String)> = {
        let toks = &ctx.model.toks;
        toks.windows(2)
            .filter_map(|window| {
                let [name, bang] = window else { return None };
                let Tok::Ident(macro_name) = &name.tok else {
                    return None;
                };
                (bang.tok == Tok::Punct('!')
                    && (macro_name == "todo" || macro_name == "unimplemented"))
                    .then(|| (name.line, name.col, macro_name.clone()))
            })
            .collect()
    };
    for (line, col, name) in sites {
        ctx.emit(
            out,
            R_TODO,
            line,
            col,
            format!("`{name}!` left in the tree"),
        );
    }
}

/// How an unordered-iteration candidate site resolves.
enum IterVerdict {
    /// Order cannot reach an output: order-insensitive consumer or an
    /// order-safe `collect()` sink.
    Exempt,
    /// Order can leak; flag it (message names the offending chain end).
    Flag(&'static str),
}

/// Determinism: unordered-container iteration feeding ordered outputs.
fn check_determinism(ctx: &mut FileCtx<'_>, out: &mut Outcome) {
    let unordered = collect_unordered_names(&ctx.model);
    let mut sites: Vec<(u32, u32, String)> = Vec::new();
    {
        let toks = &ctx.model.toks;

        // Pattern A: `name.iter()`, `x.field.keys()`, ... — method calls
        // that produce an iterator over an unordered container.
        for m in 0..toks.len() {
            let Some(method) = ident_at(toks, m) else {
                continue;
            };
            if !UNORDERED_ITER_METHODS.contains(&method)
                || punct_at(toks, m + 1) != Some('(')
                || punct_at(toks, m.wrapping_sub(1)) != Some('.')
            {
                continue;
            }
            let Some(receiver) = ident_at(toks, m.wrapping_sub(2)) else {
                continue;
            };
            if !unordered.contains(&receiver.to_string()) || ctx.model.line_in_test(toks[m].line) {
                continue;
            }
            if let IterVerdict::Flag(why) = classify_chain(toks, m + 1) {
                sites.push((
                    toks[m].line,
                    toks[m].col,
                    format!(
                        "`{receiver}.{method}()` iterates an unordered container and {why}; \
                         sort first, use an ordered type, or suppress with a reason"
                    ),
                ));
            }
        }

        // Pattern B: `for pat in &name {` — direct for-loops over an
        // unordered binding (no method call in the iterated expression).
        for f in 0..toks.len() {
            if ident_at(toks, f) != Some("for") || ctx.model.line_in_test(toks[f].line) {
                continue;
            }
            let Some(site) = classify_for_loop(toks, f, &unordered) else {
                continue;
            };
            sites.push((
                toks[f].line,
                toks[f].col,
                format!(
                    "`for ... in {site}` iterates an unordered container in arbitrary order; \
                     sort first, use an ordered type, or suppress with a reason"
                ),
            ));
        }

        // Pattern C: `sink.extend(&name)` — extending an ordered sink
        // straight from an unordered container reference.
        for e in 0..toks.len() {
            if ident_at(toks, e) != Some("extend")
                || punct_at(toks, e.wrapping_sub(1)) != Some('.')
                || punct_at(toks, e + 1) != Some('(')
                || ctx.model.line_in_test(toks[e].line)
            {
                continue;
            }
            let mut a = e + 2;
            while matches!(punct_at(toks, a), Some('&')) || ident_at(toks, a) == Some("mut") {
                a += 1;
            }
            let Some(arg) = ident_at(toks, a) else {
                continue;
            };
            if punct_at(toks, a + 1) == Some(')') && unordered.contains(&arg.to_string()) {
                sites.push((
                    toks[e].line,
                    toks[e].col,
                    format!(
                        "`.extend(&{arg})` pulls from an unordered container in arbitrary order; \
                         sort first, use an ordered type, or suppress with a reason"
                    ),
                ));
            }
        }
    }
    for (line, col, message) in sites {
        ctx.emit(out, R_DETERMINISM, line, col, message);
    }
}

/// Names bound to `HashMap`/`HashSet` values in this file: struct
/// fields, `let` bindings, and function parameters. File-global — a
/// name that is unordered anywhere is treated as unordered everywhere,
/// which errs on the side of flagging.
fn collect_unordered_names(model: &SourceModel<'_>) -> Vec<String> {
    let toks = &model.toks;
    let mut names: Vec<String> = Vec::new();
    let mut add = |name: &str| {
        if !name.is_empty() && !names.iter().any(|n| n == name) {
            names.push(name.to_string());
        }
    };

    // Struct fields and fn params: `name : ...HashMap...` up to the
    // next `,` / `)` / `}` at group depth 0.
    for item in &model.items {
        let ranges: Vec<(usize, usize)> = match item.kind {
            ItemKind::Struct | ItemKind::Enum => item.body.map(|r| vec![r]).unwrap_or_default(),
            ItemKind::Fn => vec![item.sig],
            _ => Vec::new(),
        };
        for (start, end) in ranges {
            let mut i = start;
            while i + 1 < end {
                if ident_at(toks, i).is_some()
                    && punct_at(toks, i + 1) == Some(':')
                    && punct_at(toks, i + 2) != Some(':')
                    && punct_at(toks, i.wrapping_sub(1)) != Some(':')
                {
                    let name = ident_at(toks, i).unwrap_or("").to_string();
                    let mut j = i + 2;
                    let mut depth = 0i32;
                    let mut has_unordered = false;
                    while j < end {
                        match &toks[j].tok {
                            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                            Tok::Punct(')') | Tok::Punct(']') => {
                                if depth == 0 {
                                    break;
                                }
                                depth -= 1;
                            }
                            Tok::Punct(',') if depth == 0 => break,
                            Tok::Punct('{') | Tok::Punct('}') | Tok::Punct(';') => break,
                            Tok::Punct('=') => break,
                            Tok::Ident(id) if id == "HashMap" || id == "HashSet" => {
                                has_unordered = true;
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    if has_unordered {
                        add(&name);
                    }
                    i = j;
                    continue;
                }
                i += 1;
            }
        }
    }

    // `let [mut] name ... ;` statements whose tokens mention
    // HashMap/HashSet anywhere before the `;`.
    let mut i = 0;
    while i < toks.len() {
        if ident_at(toks, i) == Some("let") {
            let mut n = i + 1;
            if ident_at(toks, n) == Some("mut") {
                n += 1;
            }
            if let Some(name) = ident_at(toks, n) {
                let mut j = n + 1;
                let mut has_unordered = false;
                while j < toks.len() && punct_at(toks, j) != Some(';') {
                    if matches!(ident_at(toks, j), Some("HashMap") | Some("HashSet")) {
                        has_unordered = true;
                    }
                    j += 1;
                }
                if has_unordered {
                    let name = name.to_string();
                    if !names.contains(&name) {
                        names.push(name);
                    }
                }
                i = j;
                continue;
            }
        }
        i += 1;
    }

    names
}

/// Classifies the iterator chain starting at the `(` of the producing
/// method call: walks order-neutral adapters to the consumer.
fn classify_chain(toks: &[SpannedTok], open_paren: usize) -> IterVerdict {
    let mut close = skip_balanced(toks, open_paren, '(', ')');
    loop {
        if punct_at(toks, close) != Some('.') {
            // Chain ends without a consumer (e.g. a bare `for x in
            // m.keys()` loop body follows): order leaks.
            return IterVerdict::Flag("its order reaches the surrounding expression");
        }
        let Some(next) = ident_at(toks, close + 1) else {
            return IterVerdict::Flag("its order reaches the surrounding expression");
        };
        let mut call = close + 2;
        // Optional turbofish on the adapter/consumer.
        let turbofish = (punct_at(toks, call), punct_at(toks, call + 1)) == (Some(':'), Some(':'));
        let mut sink_is_safe = false;
        if turbofish {
            let mut k = call + 2;
            if punct_at(toks, k) == Some('<') {
                let end = skip_angle(toks, k);
                for t in &toks[k..end.min(toks.len())] {
                    if let Tok::Ident(id) = &t.tok {
                        if ORDER_SAFE_SINKS.contains(&id.as_str()) {
                            sink_is_safe = true;
                        }
                    }
                }
                k = end;
            }
            call = k;
        }
        if punct_at(toks, call) != Some('(') {
            return IterVerdict::Flag("its order reaches the surrounding expression");
        }
        if ORDER_NEUTRAL_ADAPTERS.contains(&next) {
            close = skip_balanced(toks, call, '(', ')');
            continue;
        }
        if ORDER_INSENSITIVE_CONSUMERS.contains(&next) {
            return IterVerdict::Exempt;
        }
        if next == "collect" {
            if sink_is_safe || let_annotation_is_order_safe(toks, open_paren) {
                return IterVerdict::Exempt;
            }
            if sorted_soon_after(toks, skip_balanced(toks, call, '(', ')')) {
                return IterVerdict::Exempt;
            }
            return IterVerdict::Flag("collects into an order-sensitive sink without sorting");
        }
        return IterVerdict::Flag("feeds an order-sensitive consumer");
    }
}

/// Index one past a balanced `<...>` group opening at `open`, treating
/// the `>` of `->` as not a closer.
fn skip_angle(toks: &[SpannedTok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        match punct_at(toks, i) {
            Some('<') => depth += 1,
            Some('>') if punct_at(toks, i.wrapping_sub(1)) != Some('-') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// Whether the enclosing `let` statement's type annotation names an
/// order-safe sink (`let x: HashMap<_, _> = m.iter()...collect()`).
fn let_annotation_is_order_safe(toks: &[SpannedTok], site: usize) -> bool {
    let mut i = site;
    while i > 0 {
        i -= 1;
        match &toks[i].tok {
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => return false,
            Tok::Ident(id) if ORDER_SAFE_SINKS.contains(&id.as_str()) => return true,
            _ => {}
        }
    }
    false
}

/// Whether a `sort*` call appears between the end of this statement and
/// the end of the next one (`let mut v: Vec<_> = ...collect();
/// v.sort_unstable();`).
fn sorted_soon_after(toks: &[SpannedTok], from: usize) -> bool {
    let mut i = from;
    let mut semis = 0;
    while i < toks.len() && semis < 2 {
        if punct_at(toks, i) == Some(';') {
            semis += 1;
        } else if ident_at(toks, i).is_some_and(|id| id.starts_with("sort")) {
            return true;
        }
        i += 1;
    }
    false
}

/// If the `for` loop at token `f` iterates a plain unordered binding
/// (no function calls in the iterated expression), returns the
/// rendered expression.
fn classify_for_loop(toks: &[SpannedTok], f: usize, unordered: &[String]) -> Option<String> {
    // Find `in` at group depth 0 (patterns may contain `(a, b)`).
    let mut i = f + 1;
    let mut depth = 0i32;
    let in_idx = loop {
        match toks.get(i).map(|t| &t.tok)? {
            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            Tok::Punct('{') | Tok::Punct(';') => return None,
            Tok::Ident(id) if id == "in" && depth == 0 => break i,
            _ => {}
        }
        i += 1;
    };
    // The iterated expression: tokens until the body `{` at depth 0.
    let mut j = in_idx + 1;
    let mut expr: Vec<&Tok> = Vec::new();
    let mut depth = 0i32;
    loop {
        match toks.get(j).map(|t| &t.tok)? {
            Tok::Punct('(') => return None, // method/fn call: pattern A's job
            Tok::Punct('{') if depth == 0 => break,
            Tok::Punct('[') => {
                depth += 1;
                expr.push(&toks[j].tok);
            }
            Tok::Punct(']') => {
                depth -= 1;
                expr.push(&toks[j].tok);
            }
            t => expr.push(t),
        }
        j += 1;
    }
    let last_ident = expr.iter().rev().find_map(|t| match t {
        Tok::Ident(id) if id != "mut" => Some(id.clone()),
        _ => None,
    })?;
    if !unordered.contains(&last_ident) {
        return None;
    }
    let rendered: String = expr
        .iter()
        .map(|t| match t {
            Tok::Ident(id) => id.clone(),
            Tok::Punct(c) => c.to_string(),
        })
        .collect();
    Some(rendered)
}

/// Atomics audit: inventory every `Ordering::*` site; `Relaxed` and
/// `SeqCst` must carry an `// xcheck-ordering: <why>` justification.
fn check_atomics(ctx: &mut FileCtx<'_>, out: &mut Outcome) {
    struct Site {
        line: u32,
        col: u32,
        ordering: String,
        justification: Option<String>,
    }
    let mut sites: Vec<Site> = Vec::new();
    {
        let toks = &ctx.model.toks;
        for i in 0..toks.len() {
            if ident_at(toks, i) != Some("Ordering")
                || punct_at(toks, i + 1) != Some(':')
                || punct_at(toks, i + 2) != Some(':')
            {
                continue;
            }
            let Some(variant) = ident_at(toks, i + 3) else {
                continue;
            };
            if !ALL_ORDERINGS.contains(&variant) || ctx.model.line_in_test(toks[i].line) {
                continue;
            }
            let line = toks[i].line;
            let justification = ctx.model.directives.iter().find_map(|d| match &d.kind {
                DirectiveKind::OrderingJustification { reason }
                    if d.line == line || d.line + 1 == line =>
                {
                    Some(reason.clone())
                }
                _ => None,
            });
            sites.push(Site {
                line,
                col: toks[i].col,
                ordering: variant.to_string(),
                justification,
            });
        }
    }

    let mut flagged_lines: Vec<u32> = Vec::new();
    for site in &sites {
        if JUSTIFY_ORDERINGS.contains(&site.ordering.as_str())
            && site.justification.is_none()
            && !flagged_lines.contains(&site.line)
        {
            flagged_lines.push(site.line);
        }
    }
    for line in flagged_lines {
        let (col, ordering) = sites
            .iter()
            .find(|s| s.line == line)
            .map(|s| (s.col, s.ordering.clone()))
            .unwrap_or((1, String::new()));
        ctx.emit(
            out,
            R_ATOMICS,
            line,
            col,
            format!(
                "`Ordering::{ordering}` without an `// xcheck-ordering: <why>` justification \
                 on this or the previous line"
            ),
        );
    }

    let file = ctx.rel_path().to_string();
    out.atomics.extend(sites.into_iter().map(|s| AtomicSite {
        file: file.clone(),
        line: s.line,
        col: s.col,
        ordering: s.ordering,
        justification: s.justification,
    }));
}

/// Hot-path allocation: `// xcheck: no_alloc` marks must attach to a
/// function, and the function body must be free of allocation smells.
fn check_no_alloc_static(ctx: &mut FileCtx<'_>, out: &mut Outcome) {
    let mark_lines: Vec<u32> = ctx
        .model
        .directives
        .iter()
        .filter(|d| d.kind == DirectiveKind::NoAllocMark)
        .map(|d| d.line)
        .collect();
    let mut sites: Vec<(u32, u32, String)> = Vec::new();
    for mark_line in mark_lines {
        let marked = ctx
            .model
            .items
            .iter()
            .filter(|item| item.kind == ItemKind::Fn)
            .filter(|item| item.line > mark_line && item.line <= mark_line + 4)
            .min_by_key(|item| item.line)
            .cloned();
        let Some(function) = marked else {
            sites.push((
                mark_line,
                1,
                "`// xcheck: no_alloc` is not followed by a function within 4 lines".to_string(),
            ));
            continue;
        };
        out.no_alloc_marks.push(NoAllocMark {
            file: ctx.rel_path().to_string(),
            line: function.line,
            function: function.qual.clone(),
        });
        let Some((body_start, body_end)) = function.body else {
            continue;
        };
        let toks = &ctx.model.toks;
        for i in body_start..body_end {
            let Some(name) = ident_at(toks, i) else {
                continue;
            };
            let smell = if punct_at(toks, i + 1) == Some('!') && (name == "vec" || name == "format")
            {
                Some(format!("`{name}!` macro"))
            } else if punct_at(toks, i.wrapping_sub(1)) == Some('.')
                && punct_at(toks, i + 1) == Some('(')
                && ALLOC_METHODS.contains(&name)
            {
                Some(format!("`.{name}()` call"))
            } else if ALLOC_CTOR_TYPES.contains(&name)
                && punct_at(toks, i + 1) == Some(':')
                && punct_at(toks, i + 2) == Some(':')
            {
                // `Vec::new` / `String::new` do not allocate; every other
                // listed constructor does (or exists to pre-allocate).
                match ident_at(toks, i + 3) {
                    Some(ctor @ ("with_capacity" | "from")) => {
                        Some(format!("`{name}::{ctor}` constructor"))
                    }
                    Some("new") if name != "Vec" && name != "String" => {
                        Some(format!("`{name}::new` constructor"))
                    }
                    _ => None,
                }
            } else {
                None
            };
            if let Some(smell) = smell {
                sites.push((
                    toks[i].line,
                    toks[i].col,
                    format!(
                        "allocation smell ({smell}) in `no_alloc` function `{}`",
                        function.qual
                    ),
                ));
            }
        }
    }
    for (line, col, message) in sites {
        ctx.emit(out, R_NO_ALLOC, line, col, message);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(crate_name: &str, rel_path: &str, is_crate_root: bool, text: &str) -> SourceFile {
        SourceFile {
            crate_name: crate_name.to_string(),
            rel_path: rel_path.to_string(),
            is_crate_root,
            text: text.to_string(),
        }
    }

    fn rule<'o>(outcome: &'o Outcome, id: &str) -> &'o RuleReport {
        outcome.rules.iter().find(|r| r.id == id).expect("known id")
    }

    #[test]
    fn flags_unwrap_only_outside_tests_and_only_in_scoped_crates() {
        let text = "#![forbid(unsafe_code)]\n\
                    fn live() { x.unwrap(); y.expect(\"m\"); z.unwrap_or(0); }\n\
                    #[cfg(test)]\n\
                    mod tests { fn t() { x.unwrap(); } }\n";
        let outcome = run_all(&[
            file("rse", "crates/rse/src/lib.rs", true, text),
            file("bench", "crates/bench/src/lib.rs", true, text),
        ]);
        let flagged = &rule(&outcome, "no-unwrap-in-wire-crates").violations;
        assert_eq!(flagged.len(), 2, "unwrap + expect in rse only");
        assert!(flagged
            .iter()
            .all(|v| v.file.contains("rse") && v.line == 2));
        assert!(flagged.iter().all(|v| v.col > 1), "columns are tracked");
    }

    #[test]
    fn gf256_is_panic_free_scoped() {
        let text = "#![forbid(unsafe_code)]\nfn live() { x.unwrap(); }\n";
        let outcome = run_all(&[file("gf256", "crates/gf256/src/lib.rs", true, text)]);
        assert_eq!(
            rule(&outcome, "no-unwrap-in-wire-crates").violations.len(),
            1
        );
    }

    #[test]
    fn suppression_with_reason_moves_violation_to_suppressions() {
        let text = "#![forbid(unsafe_code)]\n\
                    // xcheck-allow(no-unwrap-in-wire-crates): pivot is checked non-zero above\n\
                    fn live() { x.unwrap(); }\n\
                    fn also() { y.expect(\"m\"); } // xcheck-allow(no-unwrap-in-wire-crates): same-line form\n";
        let outcome = run_all(&[file("rse", "crates/rse/src/lib.rs", true, text)]);
        assert!(rule(&outcome, "no-unwrap-in-wire-crates")
            .violations
            .is_empty());
        assert!(rule(&outcome, "suppression-hygiene").violations.is_empty());
        assert_eq!(outcome.suppressions.len(), 2);
        assert!(outcome.suppressions[0].reason.contains("pivot"));
    }

    #[test]
    fn suppressions_without_reason_or_unused_are_flagged() {
        let text = "#![forbid(unsafe_code)]\n\
                    // xcheck-allow(no-unwrap-in-wire-crates)\n\
                    fn live() { x.unwrap(); }\n\
                    // xcheck-allow(no-unwrap-in-wire-crates): nothing to suppress here\n\
                    fn clean() {}\n";
        let outcome = run_all(&[file("rse", "crates/rse/src/lib.rs", true, text)]);
        let hygiene = &rule(&outcome, "suppression-hygiene").violations;
        assert_eq!(
            hygiene.len(),
            2,
            "no-reason + stale: {:?}",
            hygiene.iter().map(|v| &v.message).collect::<Vec<_>>()
        );
        assert!(hygiene[0].message.contains("no reason"));
        assert!(hygiene[1].message.contains("suppresses nothing"));
        // The reasonless allow still suppresses (so one fix, not two).
        assert!(rule(&outcome, "no-unwrap-in-wire-crates")
            .violations
            .is_empty());
    }

    #[test]
    fn flags_missing_forbid_unsafe_and_accepts_file_level_allow() {
        let outcome = run_all(&[
            file("keytree", "crates/keytree/src/lib.rs", true, "pub mod x;\n"),
            file("keytree", "crates/keytree/src/x.rs", false, "fn f() {}\n"),
            file(
                "xcheck-rt",
                "crates/xcheck-rt/src/lib.rs",
                true,
                "//! Counting allocator.\n\
                 // xcheck-allow(forbid-unsafe-code): GlobalAlloc requires unsafe impls\n\
                 fn f() {}\n",
            ),
        ]);
        let flagged = &rule(&outcome, "forbid-unsafe-code").violations;
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].file, "crates/keytree/src/lib.rs");
        assert_eq!(outcome.suppressions.len(), 1);
    }

    #[test]
    fn flags_narrowing_casts_in_gf256_core_only() {
        let text = "#![forbid(unsafe_code)]\n\
                    fn f(c: usize) -> u32 { c as u32 }\n\
                    fn widen(c: u8) -> u64 { c as u64 }\n\
                    #[cfg(test)]\n\
                    mod tests { fn t(c: usize) -> u8 { c as u8 } }\n";
        let outcome = run_all(&[
            file("gf256", "crates/gf256/src/lagrange.rs", false, text),
            file("gf256", "crates/gf256/src/bulk.rs", false, text),
            file("gf256", "crates/gf256/src/tables.rs", false, text),
        ]);
        let flagged = &rule(&outcome, "no-truncating-cast-in-gf256").violations;
        let at: Vec<(&str, u32)> = (flagged.iter())
            .map(|v| (v.file.as_str(), v.line))
            .collect();
        let want = [
            ("crates/gf256/src/lagrange.rs", 2),
            ("crates/gf256/src/bulk.rs", 2),
        ];
        assert_eq!(
            at, want,
            "non-test narrowing casts of the scoped files only"
        );
    }

    #[test]
    fn flags_undocumented_pub_items_including_methods() {
        let text = "/// Documented.\n\
                    #[derive(Debug)]\n\
                    pub struct Ok1;\n\
                    pub struct Bare;\n\
                    pub(crate) struct Internal;\n\
                    pub use std::vec::Vec;\n\
                    impl Ok1 {\n\
                        pub fn naked(&self) {}\n\
                    }\n";
        let outcome = run_all(&[file("rse", "crates/rse/src/lib.rs", false, text)]);
        let flagged = &rule(&outcome, "documented-pub-api").violations;
        assert_eq!(
            flagged.len(),
            2,
            "{:?}",
            flagged.iter().map(|v| &v.message).collect::<Vec<_>>()
        );
        assert_eq!(flagged[0].line, 4);
        assert!(flagged[1].message.contains("Ok1::naked"));
    }

    #[test]
    fn flags_todo_everywhere_including_tests() {
        let text = "fn f() { todo!() }\n\
                    #[cfg(test)]\n\
                    mod tests { fn t() { unimplemented!() } }\n";
        let outcome = run_all(&[file("netsim", "crates/netsim/src/lib.rs", false, text)]);
        assert_eq!(
            rule(&outcome, "no-todo-or-unimplemented").violations.len(),
            2
        );
    }

    #[test]
    fn determinism_flags_order_leaking_iteration() {
        let text = "use std::collections::HashMap;\n\
                    struct S { sessions: HashMap<u32, u8> }\n\
                    fn f(s: &S, out: &mut Vec<u32>) {\n\
                        out.extend(s.sessions.iter().map(|(&k, _)| k));\n\
                        for (k, _) in &s.sessions { out.push(*k); }\n\
                    }\n";
        let outcome = run_all(&[file(
            "grouprekey",
            "crates/grouprekey/src/d.rs",
            false,
            text,
        )]);
        let flagged = &rule(&outcome, "determinism-unordered-iter").violations;
        assert_eq!(
            flagged.len(),
            2,
            "{:?}",
            flagged.iter().map(|v| &v.message).collect::<Vec<_>>()
        );
        assert_eq!(flagged[0].line, 4);
        assert_eq!(flagged[1].line, 5);
    }

    #[test]
    fn determinism_exempts_order_insensitive_and_sorted_uses() {
        let text = "use std::collections::{HashMap, HashSet};\n\
                    fn f(m: &HashMap<u32, u8>) -> bool {\n\
                        let all_ok = m.values().all(|&v| v > 0);\n\
                        let n = m.keys().count();\n\
                        let mut ids: Vec<u32> = m.keys().copied().collect();\n\
                        ids.sort_unstable();\n\
                        let index: HashMap<u32, u8> = m.iter().map(|(&k, &v)| (k, v)).collect();\n\
                        let set: HashSet<u32> = m.keys().copied().collect();\n\
                        all_ok && n > 0 && !ids.is_empty() && index.len() == set.len()\n\
                    }\n";
        let outcome = run_all(&[file("keytree", "crates/keytree/src/d.rs", false, text)]);
        let flagged = &rule(&outcome, "determinism-unordered-iter").violations;
        assert!(
            flagged.is_empty(),
            "{:?}",
            flagged
                .iter()
                .map(|v| (v.line, &v.message))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn determinism_respects_suppressions_and_ignores_out_of_scope_crates() {
        let text = "use std::collections::HashMap;\n\
                    fn f(m: &HashMap<u32, u8>, out: &mut Vec<u32>) {\n\
                        // xcheck-allow(determinism-unordered-iter): sink is re-sorted downstream\n\
                        out.extend(m.keys().copied());\n\
                    }\n";
        let outcome = run_all(&[
            file("bench", "crates/bench/src/d.rs", false, text),
            file(
                "netsim",
                "crates/netsim/src/d.rs",
                false,
                text.replace(
                    "// xcheck-allow(determinism-unordered-iter): sink is re-sorted downstream\n",
                    "",
                )
                .as_str(),
            ),
        ]);
        assert!(rule(&outcome, "determinism-unordered-iter")
            .violations
            .is_empty());
        assert_eq!(outcome.suppressions.len(), 1);
    }

    #[test]
    fn atomics_require_justification_and_are_inventoried() {
        let text = "use std::sync::atomic::{AtomicU64, Ordering};\n\
                    fn f(c: &AtomicU64) -> u64 {\n\
                        c.fetch_add(1, Ordering::Relaxed); // xcheck-ordering: pure counter\n\
                        c.load(Ordering::Acquire);\n\
                        c.load(Ordering::SeqCst)\n\
                    }\n";
        let outcome = run_all(&[file("obs", "crates/obs/src/r.rs", false, text)]);
        let flagged = &rule(&outcome, "atomics-ordering-justified").violations;
        assert_eq!(flagged.len(), 1, "only the bare SeqCst");
        assert_eq!(flagged[0].line, 5);
        assert_eq!(outcome.atomics.len(), 3, "all sites inventoried");
        assert_eq!(
            outcome.atomics[0].justification.as_deref(),
            Some("pure counter")
        );
        assert_eq!(outcome.atomics[1].ordering, "Acquire");
    }

    #[test]
    fn no_alloc_marks_are_inventoried_and_smells_flagged() {
        let text = "// xcheck: no_alloc\n\
                    fn hot(buf: &mut Vec<u8>) {\n\
                        buf.fill(0);\n\
                        let v = vec![1, 2];\n\
                        let s = x.to_vec();\n\
                        let b = Box::new(3);\n\
                        let w = Vec::new();\n\
                    }\n\
                    // xcheck: no_alloc\n\
                    const NOT_A_FN: usize = 3;\n";
        let outcome = run_all(&[file("rse", "crates/rse/src/h.rs", false, text)]);
        let flagged = &rule(&outcome, "no-alloc-static").violations;
        assert_eq!(
            flagged.len(),
            4,
            "{:?}",
            flagged
                .iter()
                .map(|v| (v.line, &v.message))
                .collect::<Vec<_>>()
        );
        assert!(flagged[3].message.contains("not followed by a function"));
        assert_eq!(outcome.no_alloc_marks.len(), 1);
        assert_eq!(outcome.no_alloc_marks[0].function, "hot");
    }

    #[test]
    fn vec_new_is_not_an_alloc_smell_but_with_capacity_is() {
        let text = "// xcheck: no_alloc\n\
                    fn hot() {\n\
                        let a: Vec<u8> = Vec::new();\n\
                        let b: Vec<u8> = Vec::with_capacity(4);\n\
                    }\n";
        let outcome = run_all(&[file("rse", "crates/rse/src/h.rs", false, text)]);
        let flagged = &rule(&outcome, "no-alloc-static").violations;
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].line, 4);
    }
}
