//! The AST-level lint pass behind `cargo xtask lint`.
//!
//! Replaces the old line-based string scanner: every library source file is
//! parsed into items with the offline `syn` shim, so the lints understand
//! block comments, raw strings, `#[cfg(test)]` scoping, and multi-line
//! constructs that defeat per-line pattern matching. Since PR 9 the passes
//! marked *interprocedural* run over the whole-workspace call graph
//! ([`crate::callgraph`]) instead of one file at a time. Each lint lives in
//! its own module:
//!
//! | module | lint |
//! |--------|------|
//! | [`banned`] | no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!`/`dbg!`/`unsafe` in library code |
//! | [`matcher`] | no public algorithm function schedules outside the `Matcher` trait (audited exemptions) |
//! | [`casts`] | no narrowing `as` casts (to sub-64-bit integers) in library code |
//! | [`must_use`] | certificate/matching/slot result types and entry points are `#[must_use]` |
//! | [`doc_tags`] | every algorithm entry point cites the paper (`Paper: …` doc tag) |
//! | [`hot_path`] | *interprocedural*: no allocation, lock acquisition, or blocking call reachable from a `#[hot_path]` root anywhere in the workspace |
//! | [`lock_order`] | every mutex is in the declared lock hierarchy; no nested acquisition, *across function boundaries included* |
//! | [`panic_free`] | *interprocedural*: no panic source reachable from a `#[panic_free]` root (daemon slot loop, wire encoder) |
//! | [`channels`] | no unbounded `mpsc::channel`; no discarded `.send(..)` results |
//!
//! Interprocedural findings can be suppressed per function with
//! `#[allow_reach(<lint>, reason = "…")]`; suppressions are audited — one
//! that suppresses nothing (or carries no reason) is itself a violation.
//! `cargo xtask lint --json` emits the machine-readable report
//! ([`report`]), and every pass's wall-clock is printed so lint-time
//! regressions are visible.
//!
//! Test code — `#[cfg(test)]` modules and items, at any nesting depth — is
//! exempt from `banned`, `casts`, `hot_path`, `lock_order`, `panic_free`,
//! and `channels`, exactly like the clippy wall's `cfg_attr` opt-outs.

pub mod banned;
pub mod casts;
pub mod channels;
pub mod doc_tags;
pub mod hot_path;
pub mod lock_order;
pub mod matcher;
pub mod must_use;
pub mod panic_free;
pub mod report;

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::callgraph::CallGraph;

/// Library crates the lint pass covers (same set the old scanner covered:
/// `wdm-alloc-count` is deliberately excluded — it is test infrastructure
/// and the one sanctioned `unsafe` impl in the workspace).
pub const LIBRARY_CRATES: [&str; 9] = [
    "wdm-core",
    "wdm-hardware",
    "wdm-interconnect",
    "wdm-sim",
    "wdm-bench",
    "wdm-serve",
    "wdm-loadgen",
    "wdm-scenario",
    "wdm-attr",
];

/// Crates parsed into the call graph *in addition to* [`LIBRARY_CRATES`],
/// so cross-crate calls into them resolve: `wdm-alloc-count` is exempt from
/// the per-file lints but its functions are still reachability targets.
pub const GRAPH_ONLY_CRATES: [&str; 1] = ["wdm-alloc-count"];

/// Directory holding the algorithm modules checked by [`matcher`],
/// [`doc_tags`], and [`must_use`]'s entry-point rule.
pub const ALGORITHMS_DIR: &str = "crates/wdm-core/src/algorithms";

/// Everything `run_passes` needs to know about the tree it lints — the
/// fixture suite swaps in miniature workspaces through this.
#[derive(Debug, Clone, Copy)]
pub struct LintConfig<'a> {
    /// Crates (under `<root>/crates/`) the per-file lints cover.
    pub crates: &'a [&'a str],
    /// Extra crates parsed only into the call graph.
    pub graph_only_crates: &'a [&'a str],
    /// Root-relative algorithms directory for the matcher/doc-tag audits.
    pub algorithms_dir: &'a str,
}

impl LintConfig<'_> {
    /// The real workspace configuration.
    pub fn workspace() -> LintConfig<'static> {
        LintConfig {
            crates: &LIBRARY_CRATES,
            graph_only_crates: &GRAPH_ONLY_CRATES,
            algorithms_dir: ALGORITHMS_DIR,
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which lint fired (short name for the report).
    pub lint: &'static str,
    /// File the violation is in.
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// What is wrong and how to fix it.
    pub message: String,
    /// For interprocedural findings: the root the offense is reachable
    /// from (`#[hot_path]`/`#[panic_free]` function display path).
    pub root_fn: Option<String>,
    /// For interprocedural findings: the witnessing call chain, root first,
    /// offender last (display paths).
    pub chain: Vec<String>,
}

impl Violation {
    /// A file-local finding (no reachability context).
    pub fn new(
        lint: &'static str,
        file: impl Into<PathBuf>,
        line: usize,
        message: impl Into<String>,
    ) -> Violation {
        Violation {
            lint,
            file: file.into(),
            line,
            message: message.into(),
            root_fn: None,
            chain: Vec::new(),
        }
    }
}

/// Wall-clock and finding count of one lint pass, for the timing table and
/// the JSON report.
#[derive(Debug, Clone)]
pub struct PassReport {
    /// Pass name.
    pub name: &'static str,
    /// Wall-clock microseconds.
    pub micros: u128,
    /// Violations this pass contributed.
    pub violations: usize,
}

/// Everything one lint run produced.
#[derive(Debug)]
pub struct LintRun {
    /// All findings, sorted by (file, line, lint).
    pub violations: Vec<Violation>,
    /// Per-pass timing/count, in execution order.
    pub passes: Vec<PassReport>,
    /// Number of source files parsed.
    pub files: usize,
}

/// A parsed source file ready for linting.
pub struct SourceFile {
    /// Path on disk.
    pub path: PathBuf,
    /// Parsed items.
    pub file: syn::File,
}

impl std::fmt::Debug for SourceFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SourceFile").field("path", &self.path).finish_non_exhaustive()
    }
}

/// Whether an item's attributes gate it to test builds (`#[cfg(test)]`,
/// `#[cfg(any(test, …))]`, `#[cfg_attr(test, …)]`, `#[test]`).
pub fn is_test_gated(attrs: &[syn::Attribute]) -> bool {
    attrs.iter().any(|a| match a.path.as_str() {
        "cfg" | "cfg_attr" => a.contains_ident("test"),
        "test" => true,
        _ => false,
    })
}

/// Context handed to per-function lint callbacks by [`walk_items`].
#[derive(Debug, Clone, Copy)]
pub struct FnCtx<'a> {
    /// The function item.
    pub fun: &'a syn::ItemFn,
    /// Inside a `#[cfg(test)]` module/item (lints exempting tests skip it).
    pub in_test: bool,
}

/// Walks every function item (free and associated) in `items`, tracking
/// test-gating, and every non-structural item's raw token stream via
/// `other`, so token-level lints also see inside macro definitions and
/// `static` initializers.
pub fn walk_items<'a>(
    items: &'a [syn::Item],
    in_test: bool,
    on_fn: &mut impl FnMut(FnCtx<'a>),
    on_other_tokens: &mut impl FnMut(&'a syn::TokenStream, bool),
) {
    for item in items {
        let gated = in_test || is_test_gated(item.attrs());
        match item {
            syn::Item::Fn(f) => on_fn(FnCtx { fun: f, in_test: gated }),
            syn::Item::Mod(m) => {
                if let Some(content) = &m.content {
                    walk_items(content, gated, on_fn, on_other_tokens);
                }
            }
            syn::Item::Impl(i) => {
                walk_items(&i.items, gated, on_fn, on_other_tokens);
            }
            syn::Item::Trait(t) => {
                walk_items(&t.items, gated, on_fn, on_other_tokens);
            }
            syn::Item::Struct(_) => {}
            syn::Item::Other(o) => on_other_tokens(&o.tokens, gated),
        }
    }
}

/// Recursively collects `.rs` files under `dir`, sorted.
pub fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Parses every source file of `crates`. Parse failures are themselves lint
/// violations (the gate must never silently skip a file it cannot read).
pub fn parse_sources(
    root: &Path,
    crates: &[&str],
    violations: &mut Vec<Violation>,
) -> Vec<SourceFile> {
    let mut sources = Vec::new();
    for krate in crates {
        let src = root.join("crates").join(krate).join("src");
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files);
        files.sort();
        for path in files {
            match std::fs::read_to_string(&path) {
                Ok(text) => match syn::parse_file(&text) {
                    Ok(file) => sources.push(SourceFile { path, file }),
                    Err(err) => violations.push(Violation::new(
                        "parse",
                        path,
                        err.line,
                        format!("cannot parse: {}", err.message),
                    )),
                },
                Err(err) => {
                    violations.push(Violation::new(
                        "parse",
                        path,
                        0,
                        format!("cannot read: {err}"),
                    ));
                }
            }
        }
    }
    sources
}

/// Runs every pass over the tree described by `cfg`, timing each one.
pub fn run_passes(root: &Path, cfg: &LintConfig<'_>) -> LintRun {
    let mut violations: Vec<Violation> = Vec::new();
    let mut passes: Vec<PassReport> = Vec::new();

    let timed = |name: &'static str,
                 violations: &mut Vec<Violation>,
                 passes: &mut Vec<PassReport>,
                 f: &mut dyn FnMut(&mut Vec<Violation>)| {
        let before = violations.len();
        let start = Instant::now();
        f(violations);
        passes.push(PassReport {
            name,
            micros: start.elapsed().as_micros(),
            violations: violations.len() - before,
        });
    };

    // Parse (lint crates + graph-only crates; parse diagnostics count for
    // the lint crates only — graph-only crates are reachability targets).
    let start = Instant::now();
    let sources = parse_sources(root, cfg.crates, &mut violations);
    let mut graph_only_diags = Vec::new();
    let graph_sources_extra = parse_sources(root, cfg.graph_only_crates, &mut graph_only_diags);
    passes.push(PassReport {
        name: "parse",
        micros: start.elapsed().as_micros(),
        violations: violations.len(),
    });

    // File-local passes.
    timed("banned", &mut violations, &mut passes, &mut |out| {
        for s in &sources {
            banned::check(s, out);
        }
    });
    timed("casts", &mut violations, &mut passes, &mut |out| {
        for s in &sources {
            casts::check(s, out);
        }
    });
    timed("must_use", &mut violations, &mut passes, &mut |out| {
        for s in &sources {
            must_use::check_types(s, out);
        }
    });
    timed("channels", &mut violations, &mut passes, &mut |out| {
        for s in &sources {
            channels::check(s, out);
        }
    });

    // The call graph: symbol + resolution passes over lint crates plus the
    // graph-only crates.
    let start = Instant::now();
    let mut graph_sources: Vec<&SourceFile> = sources.iter().collect();
    graph_sources.extend(graph_sources_extra.iter());
    let graph = CallGraph::build(&graph_sources, root);
    passes.push(PassReport {
        name: "callgraph",
        micros: start.elapsed().as_micros(),
        violations: 0,
    });

    // Interprocedural passes. `used` accumulates which suppressions fired.
    let mut used: HashSet<(usize, usize)> = HashSet::new();
    timed("hot_path", &mut violations, &mut passes, &mut |out| {
        hot_path::check(&graph, &mut used, out);
    });
    timed("lock_order", &mut violations, &mut passes, &mut |out| {
        for s in &sources {
            lock_order::check_declarations_file(s, out);
        }
        lock_order::check_fns(&graph, &mut used, out);
    });
    timed("panic_free", &mut violations, &mut passes, &mut |out| {
        panic_free::check(&graph, &mut used, out);
    });
    timed("suppression", &mut violations, &mut passes, &mut |out| {
        audit_suppressions(&graph, &used, out);
    });

    // Algorithm-directory audits.
    let algorithms_dir = root.join(cfg.algorithms_dir);
    let algorithms: Vec<&SourceFile> =
        sources.iter().filter(|s| s.path.starts_with(&algorithms_dir)).collect();
    let all: Vec<&SourceFile> = sources.iter().collect();
    let entry_points = matcher::entry_points(&algorithms, &all);
    timed("matcher", &mut violations, &mut passes, &mut |out| {
        matcher::check(&algorithms, out);
    });
    timed("doc_tags", &mut violations, &mut passes, &mut |out| {
        doc_tags::check(&entry_points, out);
    });
    timed("entry_must_use", &mut violations, &mut passes, &mut |out| {
        must_use::check_entry_fns(&entry_points, out);
    });

    violations.sort_by(|a, b| {
        (&a.file, a.line, a.lint, &a.message).cmp(&(&b.file, b.line, b.lint, &b.message))
    });
    LintRun { violations, passes, files: sources.len() }
}

/// Every `#[allow_reach(..)]` must (a) name a known interprocedural lint,
/// (b) carry a non-empty reason, and (c) have suppressed at least one
/// finding this run — an obsolete suppression is itself a violation, so
/// fixed code cannot keep its waiver.
fn audit_suppressions(graph: &CallGraph, used: &HashSet<(usize, usize)>, out: &mut Vec<Violation>) {
    const KNOWN: [&str; 3] = ["hot_path", "lock_order", "panic_free"];
    for (i, node) in graph.nodes.iter().enumerate() {
        if node.is_test {
            continue;
        }
        for (s, supp) in node.suppressions.iter().enumerate() {
            if !KNOWN.contains(&supp.lint.as_str()) {
                out.push(Violation::new(
                    "suppression",
                    node.file.clone(),
                    supp.line,
                    format!(
                        "`#[allow_reach({}, ..)]` on `{}` names no interprocedural lint \
                         (known: hot_path, lock_order, panic_free)",
                        supp.lint,
                        node.path()
                    ),
                ));
                continue;
            }
            if supp.reason.trim().is_empty() {
                out.push(Violation::new(
                    "suppression",
                    node.file.clone(),
                    supp.line,
                    format!(
                        "`#[allow_reach({}, ..)]` on `{}` has no reason — every suppression \
                         must explain why the reachability finding is acceptable",
                        supp.lint,
                        node.path()
                    ),
                ));
                continue;
            }
            if !used.contains(&(i, s)) {
                out.push(Violation::new(
                    "suppression",
                    node.file.clone(),
                    supp.line,
                    format!(
                        "unused suppression: `#[allow_reach({}, ..)]` on `{}` suppressed no \
                         finding this run — remove it (the code it excused is gone or clean)",
                        supp.lint,
                        node.path()
                    ),
                ));
            }
        }
    }
}

/// Looks for an `#[allow_reach(lint, ..)]` with a non-empty reason on any
/// node of `chain`; returns its `(node, suppression)` key when found.
pub fn find_suppression(graph: &CallGraph, chain: &[usize], lint: &str) -> Option<(usize, usize)> {
    for &n in chain {
        for (s, supp) in graph.nodes[n].suppressions.iter().enumerate() {
            if supp.lint == lint && !supp.reason.trim().is_empty() {
                return Some((n, s));
            }
        }
    }
    None
}

/// Shared driver for the reachability lints (`hot_path`, `panic_free`): for
/// every marked root in source order, collect the reachable offenses, honor
/// `#[allow_reach]` suppressions anywhere on the witnessing chain (recording
/// which ones fired in `used`), and dedup findings repeated under several
/// roots — the first root in source order keeps the finding.
pub fn reach_check(
    graph: &CallGraph,
    lint: &'static str,
    props: &[crate::callgraph::Property],
    is_root: &dyn Fn(&crate::callgraph::FnNode) -> bool,
    used: &mut HashSet<(usize, usize)>,
    message: &dyn Fn(
        &crate::callgraph::FnNode,
        &crate::callgraph::FnNode,
        &crate::callgraph::Offense,
    ) -> String,
    out: &mut Vec<Violation>,
) {
    let mut seen: HashSet<(usize, usize, String)> = HashSet::new();
    for root in 0..graph.nodes.len() {
        let root_node = &graph.nodes[root];
        if root_node.is_test || !is_root(root_node) {
            continue;
        }
        for reached in graph.reach(root, props) {
            if let Some(key) = find_suppression(graph, &reached.chain, lint) {
                used.insert(key);
                continue;
            }
            if !seen.insert((reached.node, reached.offense.line, reached.offense.what.clone())) {
                continue;
            }
            let offender = &graph.nodes[reached.node];
            out.push(Violation {
                lint,
                file: offender.file.clone(),
                line: reached.offense.line,
                message: message(root_node, offender, &reached.offense),
                root_fn: Some(root_node.path()),
                chain: graph.render_chain(&reached.chain),
            });
        }
    }
}

/// Runs the whole lint pass. Human-readable output goes to stdout normally;
/// with `json` set, the machine-readable report is printed to stdout and
/// the human diagnostics move to stderr. Returns `true` when clean.
pub fn run(root: &Path, json: bool) -> bool {
    let say = |line: &str| {
        if json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };
    say(&format!(
        "==> lint: interprocedural AST lint pass over {LIBRARY_CRATES:?} (syn + call graph)"
    ));
    let run = run_passes(root, &LintConfig::workspace());
    for v in &run.violations {
        let rel = v.file.strip_prefix(root).unwrap_or(&v.file);
        eprintln!("lint({}): {}:{}: {}", v.lint, rel.display(), v.line, v.message);
        if let Some(root_fn) = &v.root_fn {
            eprintln!("    root: {root_fn}");
        }
        if v.chain.len() > 1 {
            eprintln!("    chain: {}", v.chain.join(" -> "));
        }
    }
    for p in &run.passes {
        say(&format!(
            "lint: pass {:<14} {:>8} µs  {:>3} finding(s)",
            p.name, p.micros, p.violations
        ));
    }
    if json {
        println!("{}", report::to_json(&run, root, false));
    }
    if run.violations.is_empty() {
        say(&format!(
            "lint: {} files clean across banned/matcher/casts/must_use/doc_tags/hot_path/\
             lock_order/panic_free/channels/suppression",
            run.files
        ));
        true
    } else {
        eprintln!("lint: {} violation(s)", run.violations.len());
        false
    }
}
