//! Integration snapshots over the miniature workspaces in
//! `tests/fixtures/` (see the README there): each tree seeds one
//! violation shape, and these tests drive the full `run_passes` pipeline
//! — parse, call graph, every lint, suppression audit — through a custom
//! [`LintConfig`], pinning the diagnostics end to end. The per-pass unit
//! tests cover the scanners in isolation; this suite proves the pipeline
//! wiring (on-disk trees, cross-crate resolution, report rendering).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::PathBuf;

use xtask::lints::{report, run_passes, LintConfig, LintRun, Violation};

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("fixtures").join(name)
}

fn run_fixture(name: &str, crates: &[&str]) -> LintRun {
    let cfg = LintConfig {
        crates,
        graph_only_crates: &[],
        // No algorithms directory and no `Matcher` impls in the fixtures:
        // the matcher/doc-tag audits see an empty set and stay quiet.
        algorithms_dir: "crates/none/src/algorithms",
    };
    run_passes(&fixture_root(name), &cfg)
}

/// Findings of one lint, in report order.
fn of_lint<'a>(run: &'a LintRun, lint: &str) -> Vec<&'a Violation> {
    run.violations.iter().filter(|v| v.lint == lint).collect()
}

#[test]
fn hot_path_fixture_catches_cross_crate_allocation_two_calls_deep() {
    let run = run_fixture("hot_path", &["fix-serve", "fix-core"]);
    let hot = of_lint(&run, "hot_path");
    assert_eq!(run.violations.len(), hot.len(), "only hot_path fires: {:?}", run.violations);
    assert_eq!(hot.len(), 1, "{hot:?}");
    let v = hot[0];
    assert!(v.file.ends_with("crates/fix-core/src/mask.rs"), "{:?}", v.file);
    assert_eq!(v.line, 9, "the Vec::with_capacity line");
    assert_eq!(v.root_fn.as_deref(), Some("fix_serve::run_slot"));
    assert_eq!(
        v.chain,
        vec!["fix_serve::run_slot", "fix_core::mask::refresh", "fix_core::mask::rebuild"]
    );
    assert!(v.message.contains("allocation"), "{}", v.message);
}

#[test]
fn lock_order_fixture_catches_cross_function_nested_acquisition() {
    let run = run_fixture("lock_order", &["wdm-sim", "wdm-serve"]);
    let lock = of_lint(&run, "lock_order");
    assert_eq!(run.violations.len(), lock.len(), "only lock_order fires: {:?}", run.violations);
    assert_eq!(lock.len(), 1, "{lock:?}");
    let v = lock[0];
    assert!(v.file.ends_with("crates/wdm-sim/src/sweep_sync.rs"), "{:?}", v.file);
    assert!(
        v.message.contains("while holding `slots`") && v.message.contains("`state`"),
        "{}",
        v.message
    );
    assert_eq!(v.root_fn.as_deref(), Some("wdm_sim::sweep_sync::Cells::drain"));
    assert_eq!(
        v.chain,
        vec![
            "wdm_sim::sweep_sync::Cells::drain",
            "wdm_serve::serve_sync::poke",
            "wdm_serve::serve_sync::Shared::bump"
        ]
    );
}

#[test]
fn panic_free_fixture_catches_unreachable_and_unguarded_indexing() {
    let run = run_fixture("panic_free", &["fix-wire"]);
    let pf = of_lint(&run, "panic_free");
    assert_eq!(run.violations.len(), pf.len(), "only panic_free fires: {:?}", run.violations);
    assert_eq!(pf.len(), 2, "{pf:?}");
    // Report order is (file, line): the indexing in `header` first, the
    // `unreachable!` in `trailer` second.
    assert!(pf[0].message.contains("unguarded indexing"), "{}", pf[0].message);
    assert_eq!(pf[0].chain, vec!["fix_wire::encode", "fix_wire::header"]);
    assert!(pf[1].message.contains("unreachable!"), "{}", pf[1].message);
    assert_eq!(pf[1].chain, vec!["fix_wire::encode", "fix_wire::trailer"]);
    for v in &pf {
        assert_eq!(v.root_fn.as_deref(), Some("fix_wire::encode"));
    }
}

#[test]
fn suppression_fixture_flags_unknown_empty_and_unused() {
    let run = run_fixture("suppression", &["fix-core"]);
    let supp = of_lint(&run, "suppression");
    assert_eq!(run.violations.len(), supp.len(), "only the audit fires: {:?}", run.violations);
    assert_eq!(supp.len(), 3, "{supp:?}");
    assert!(supp[0].message.contains("names no interprocedural lint"), "{}", supp[0].message);
    assert!(supp[1].message.contains("has no reason"), "{}", supp[1].message);
    assert!(supp[2].message.contains("unused suppression"), "{}", supp[2].message);
}

#[test]
fn clean_fixture_is_quiet_and_suppression_counts_as_used() {
    let run = run_fixture("clean", &["fix-core"]);
    assert!(run.violations.is_empty(), "{:?}", run.violations);
    assert_eq!(run.files, 1);
}

/// The machine-readable report is schema-stable: byte-for-byte identical
/// (timings zeroed) to the checked-in snapshot. A diff here means the
/// schema changed — update `expected.json` AND bump/document
/// `schema_version` per the rule in `lints::report`.
#[test]
fn json_report_matches_snapshot() {
    let root = fixture_root("hot_path");
    let cfg = LintConfig {
        crates: &["fix-serve", "fix-core"],
        graph_only_crates: &[],
        algorithms_dir: "crates/none/src/algorithms",
    };
    let run = run_passes(&root, &cfg);
    let rendered = report::to_json(&run, &root, true);
    let snapshot = fixture_root("hot_path").join("expected.json");
    if std::env::var_os("UPDATE_LINT_SNAPSHOT").is_some() {
        std::fs::write(&snapshot, &rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(fixture_root("hot_path").join("expected.json")).unwrap();
    assert_eq!(rendered, expected, "lint --json schema drifted from the snapshot");
}
