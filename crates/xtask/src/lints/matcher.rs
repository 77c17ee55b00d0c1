//! `Matcher` audit: the algorithms directory schedules through one trait.
//!
//! Every per-slot scheduler is a type implementing
//! `wdm_core::algorithms::Matcher`, so one certificate
//! (`verify::certified`) covers all of them. A module-level `pub fn` under
//! the algorithms directory whose signature takes or returns a schedule
//! ([`SCHEDULE_TYPES`]) is a second entry point outside that trait, and is
//! flagged unless [`EXEMPT`] lists it with a reason.
//!
//! [`entry_points`] also feeds the `doc_tags` and `entry_must_use` audits:
//! the module-level `pub fn`s of the algorithm sources plus the methods of
//! every `impl Matcher for …` block in the linted crates. Operates on real
//! items, so indented functions, odd formatting, and `#[cfg(test)]` code are
//! classified correctly.

use syn::Visibility;

use super::{is_test_gated, SourceFile, Violation};
use crate::callgraph::symbols::impl_self_type;

/// Types whose appearance in a signature makes a function a scheduler:
/// granted assignments, or the approximation's outcome that wraps them.
pub const SCHEDULE_TYPES: [&str; 2] = ["Assignment", "ApproxOutcome"];

/// Module-level functions that take or return a schedule outside `Matcher`
/// on purpose, with the reason recorded here.
pub const EXEMPT: [(&str, &str); 4] = [
    ("validate_assignments", "is itself a validator, not a scheduler"),
    ("approx_schedule", "reports δ(u), which `Matcher` does not carry"),
    ("approx_schedule_into", "reports δ(u), which `Matcher` does not carry"),
    ("repair_schedule_into", "is stateful: it repairs the caller's previous matching in place"),
];

/// One audited entry point.
#[derive(Debug, Clone)]
pub struct EntryPoint<'a> {
    /// The file it is defined in.
    pub source: &'a SourceFile,
    /// The function item.
    pub fun: &'a syn::ItemFn,
    /// For a method of an `impl Matcher for T` block, `T`.
    pub implementor: Option<String>,
}

impl EntryPoint<'_> {
    /// `name`, or `T::name` for a `Matcher` impl method.
    pub fn name(&self) -> String {
        let name = &self.fun.sig.ident.text;
        match &self.implementor {
            Some(ty) => format!("{ty}::{name}"),
            None => name.clone(),
        }
    }
}

/// The non-test module-level `pub fn`s of `algorithms`, then the methods of
/// every non-test `impl Matcher for …` block in `everywhere`.
pub fn entry_points<'a>(
    algorithms: &[&'a SourceFile],
    everywhere: &[&'a SourceFile],
) -> Vec<EntryPoint<'a>> {
    let mut out = Vec::new();
    for &source in algorithms {
        collect(source, &source.file.items, true, &mut out);
    }
    for &source in everywhere {
        collect(source, &source.file.items, false, &mut out);
    }
    out
}

/// Walks `items` for non-test entry points: module-level `pub fn`s when
/// `free_fns` is set, `impl Matcher` methods when it is not.
fn collect<'a>(
    source: &'a SourceFile,
    items: &'a [syn::Item],
    free_fns: bool,
    out: &mut Vec<EntryPoint<'a>>,
) {
    for item in items.iter().filter(|item| !is_test_gated(item.attrs())) {
        match item {
            syn::Item::Fn(fun) if free_fns && fun.vis == Visibility::Public => {
                out.push(EntryPoint { source, fun, implementor: None });
            }
            syn::Item::Mod(m) => {
                if let Some(content) = &m.content {
                    collect(source, content, free_fns, out);
                }
            }
            syn::Item::Impl(block) if !free_fns && implements_matcher(block) => {
                let implementor = impl_self_type(&block.self_tokens);
                for inner in block.items.iter().filter(|inner| !is_test_gated(inner.attrs())) {
                    if let syn::Item::Fn(fun) = inner {
                        out.push(EntryPoint { source, fun, implementor: implementor.clone() });
                    }
                }
            }
            _ => {}
        }
    }
}

/// Whether an `impl` block is `impl … Matcher for …`: the last path segment
/// before the top-level `for` is `Matcher`.
fn implements_matcher(block: &syn::ItemImpl) -> bool {
    let trees = &block.self_tokens.trees;
    let Some(for_at) = trees.iter().position(|t| t.as_ident() == Some("for")) else {
        return false;
    };
    for_at.checked_sub(1).and_then(|i| trees.get(i)).and_then(syn::TokenTree::as_ident)
        == Some("Matcher")
}

/// Runs the `Matcher` audit over the algorithm sources.
pub fn check(sources: &[&SourceFile], out: &mut Vec<Violation>) {
    for entry in entry_points(sources, &[]) {
        let sig = &entry.fun.sig;
        let name = sig.ident.text.as_str();
        let schedules = SCHEDULE_TYPES
            .iter()
            .any(|ty| sig.inputs.stream.contains_ident(ty) || sig.output.contains_ident(ty));
        if schedules && !EXEMPT.iter().any(|(exempt, _)| *exempt == name) {
            out.push(Violation::new(
                "matcher",
                entry.source.path.clone(),
                entry.fun.span.line,
                format!(
                    "`pub fn {name}` schedules outside `Matcher` — implement `Matcher` for a \
                     scheduler type instead, or list it in `matcher::EXEMPT` with a reason"
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

    fn audit(src: &str) -> Vec<String> {
        let source = source(src);
        let mut out = Vec::new();
        super::check(&[&source], &mut out);
        out.iter().map(|v| v.message.clone()).collect()
    }

    #[test]
    fn scheduler_outside_the_trait_is_reported() {
        let msgs = audit(
            "pub fn fa_schedule(c: &Conversion) -> Result<Vec<Assignment>, Error> { todo() }\n\
             pub fn fill(out: &mut Vec<Assignment>) {}\n\
             pub fn outcome() -> ApproxOutcome { todo() }\n\
             pub fn oracle(g: &RequestGraph) -> Matching { todo() }",
        );
        assert_eq!(msgs.len(), 3, "{msgs:?}");
        assert!(msgs[0].contains("`pub fn fa_schedule`"));
        assert!(msgs[1].contains("`pub fn fill`"));
        assert!(msgs[2].contains("`pub fn outcome`"));
    }

    #[test]
    fn matcher_impls_and_private_fns_are_not_flagged() {
        let msgs = audit(
            "impl Matcher for Fa {\n    fn schedule_into(&self, out: &mut Vec<Assignment>) {}\n}\n\
             fn helper(out: &mut Vec<Assignment>) {}\n\
             pub(crate) fn inner(out: &mut Vec<Assignment>) {}",
        );
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn exempt_list_is_honored() {
        assert!(audit("pub fn validate_assignments(a: &[Assignment]) {}").is_empty());
        assert!(audit("pub fn approx_schedule() -> ApproxOutcome { todo() }").is_empty());
    }

    #[test]
    fn test_gated_fns_are_ignored() {
        assert!(audit("#[cfg(test)]\npub fn fixture(a: &[Assignment]) {}").is_empty());
    }

    #[test]
    fn entry_points_are_free_fns_and_matcher_impl_methods() {
        let algorithms = source("pub fn oracle() {}\nfn private() {}");
        let scheduler = source(
            "impl Matcher for Policy {\n    fn schedule_into(&self) {}\n}\n\
             impl<'a> algorithms::Matcher for Wrapped<'a> {\n    fn schedule_into(&self) {}\n}\n\
             impl Policy {\n    pub fn name(&self) {}\n}\n\
             impl Display for Policy {\n    fn fmt(&self) {}\n}\n\
             #[cfg(test)]\nmod tests {\n    impl Matcher for Fake {\n        fn schedule_into(&self) {}\n    }\n}",
        );
        let names: Vec<String> = super::entry_points(&[&algorithms], &[&scheduler])
            .iter()
            .map(super::EntryPoint::name)
            .collect();
        assert_eq!(names, ["oracle", "Policy::schedule_into", "Wrapped::schedule_into"]);
    }
}
