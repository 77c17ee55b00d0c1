//! `#[must_use]` lint: schedule-producing results must not be silently
//! droppable.
//!
//! Two structural rules:
//!
//! 1. **Types**: the certificate-, matching-, and slot-result types are the
//!    proof objects of this workspace — computing one and ignoring it is
//!    always a bug. Their declarations must carry `#[must_use]`, which makes
//!    rustc's `unused_must_use` (denied workspace-wide) flag every ignored
//!    call site, wherever it is.
//! 2. **Entry points**: every public algorithm entry point and `Matcher`
//!    impl method must be must-use — via its own `#[must_use]` attribute, or
//!    by returning a type that already is (`Result`, or a type from rule 1).

use syn::Item;

use super::matcher::EntryPoint;
use super::{SourceFile, Violation};

/// Result types whose declarations must be `#[must_use]`.
pub const MUST_USE_TYPES: [&str; 10] = [
    "MatchingCertificate",
    "Matching",
    "ApproxOutcome",
    "RepairOutcome",
    "SlotStats",
    "SlotResult",
    "Reply",
    "SlotSummary",
    "ServerReport",
    "LoadReport",
];

/// Rule 1: type declarations.
pub fn check_types(source: &SourceFile, out: &mut Vec<Violation>) {
    check_types_in(&source.file.items, source, out);
}

fn check_types_in(items: &[Item], source: &SourceFile, out: &mut Vec<Violation>) {
    for item in items {
        match item {
            Item::Struct(s)
                if MUST_USE_TYPES.contains(&s.ident.text.as_str())
                    && !s.attrs.iter().any(|a| a.path == "must_use") =>
            {
                out.push(Violation::new(
                    "must_use",
                    source.path.clone(),
                    s.span.line,
                    format!(
                        "result type `{}` must be declared `#[must_use]` — computing and \
                             dropping it is always a bug",
                        s.ident.text
                    ),
                ));
            }
            Item::Mod(m) => {
                if let Some(content) = &m.content {
                    check_types_in(content, source, out);
                }
            }
            _ => {}
        }
    }
}

/// Rule 2: algorithm entry points.
pub fn check_entry_fns(entry_points: &[EntryPoint<'_>], out: &mut Vec<Violation>) {
    for entry in entry_points {
        let output = &entry.fun.sig.output;
        // `-> ()` (no output tokens): an `_into`-style writer whose effect
        // is the out-parameter — `#[must_use]` would misfire on every call.
        if output.trees.is_empty() {
            continue;
        }
        let explicit = entry.fun.attrs.iter().any(|a| a.path == "must_use");
        let inherent = output.contains_ident("Result")
            || MUST_USE_TYPES.iter().any(|t| output.contains_ident(t));
        if !explicit && !inherent {
            out.push(Violation::new(
                "must_use",
                entry.source.path.clone(),
                entry.fun.span.line,
                format!(
                    "entry point `{}` returns a droppable schedule — add `#[must_use]` (its \
                     return type is neither `Result` nor a must-use result type)",
                    entry.name()
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::SourceFile;
    use std::path::PathBuf;

    fn source(src: &str) -> SourceFile {
        SourceFile { path: PathBuf::from("mem.rs"), file: syn::parse_file(src).unwrap() }
    }

    #[test]
    fn undeclared_must_use_type_is_flagged() {
        let s = source("pub struct Matching { size: usize }\npub struct Unrelated {}");
        let mut out = Vec::new();
        super::check_types(&s, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("Matching"));
    }

    #[test]
    fn declared_must_use_type_passes() {
        let s = source("#[must_use]\npub struct SlotStats { granted: usize }");
        let mut out = Vec::new();
        super::check_types(&s, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn entry_point_rules() {
        let s = source(
            "pub fn a() -> Vec<Option<usize>> { vec![] }\n\
             #[must_use]\npub fn b() -> Vec<Option<usize>> { vec![] }\n\
             pub fn c() -> Result<(), Error> { Ok(()) }\n\
             pub fn d(g: &G) -> Matching { Matching }\n\
             pub fn e_into(out: &mut Vec<usize>) { out.clear(); }\n\
             impl Matcher for F { fn schedule_into(&self) -> Option<usize> { None } }\n\
             impl Matcher for G { fn schedule_into(&self) -> Result<Option<usize>, E> { todo() } }\n",
        );
        let mut out = Vec::new();
        super::check_entry_fns(&crate::lints::matcher::entry_points(&[&s], &[&s]), &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out[0].message.contains("`a`"));
        assert!(out[1].message.contains("`F::schedule_into`"));
    }
}
