//! Paper-lemma doc-tag audit: every algorithm entry point cites the result
//! it implements.
//!
//! The reproduction's algorithms each realize a specific lemma, theorem, or
//! section of the source paper (or a named result from related work); the
//! link must live on the entry point itself, as a doc line containing
//! `Paper:` — e.g. `/// Paper: Theorem 2 (Break and First Available).` —
//! so a reader landing on any algorithm `pub fn` or `Matcher` impl method
//! ([`super::matcher::entry_points`]) can jump straight to the proof the
//! implementation is tethered to. Doc comments reach this lint as real
//! `#[doc = "…"]` attributes, so block docs and `#[doc]` spellings count
//! too.

use super::matcher::EntryPoint;
use super::Violation;

/// The tag every algorithm entry point's docs must contain.
pub const TAG: &str = "Paper:";

/// Runs the doc-tag audit over the entry points.
pub fn check(entry_points: &[EntryPoint<'_>], out: &mut Vec<Violation>) {
    for entry in entry_points {
        let tagged = entry
            .fun
            .attrs
            .iter()
            .filter_map(syn::Attribute::doc_text)
            .any(|text| text.contains(TAG));
        if !tagged {
            out.push(Violation::new(
                "doc_tags",
                entry.source.path.clone(),
                entry.fun.span.line,
                format!(
                    "entry point `{}` has no `{TAG}` doc tag — cite the lemma/theorem/section \
                     it implements, e.g. `/// {TAG} Theorem 2.`",
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

    fn audit(src: &str) -> Vec<String> {
        let source =
            SourceFile { path: PathBuf::from("mem.rs"), file: syn::parse_file(src).unwrap() };
        let mut out = Vec::new();
        super::check(&crate::lints::matcher::entry_points(&[&source], &[&source]), &mut out);
        out.iter().map(|v| v.message.clone()).collect()
    }

    #[test]
    fn untagged_entry_point_is_flagged() {
        let msgs = audit("/// Finds a maximum matching.\npub fn solve() {}");
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("solve"));
    }

    #[test]
    fn tagged_entry_point_passes() {
        let msgs =
            audit("/// Finds a maximum matching.\n///\n/// Paper: Theorem 1.\npub fn solve() {}");
        assert!(msgs.is_empty());
    }

    #[test]
    fn untagged_matcher_impl_is_flagged() {
        let msgs = audit(
            "impl Matcher for Tagged {\n    /// Paper: Theorem 1.\n    fn schedule_into(&self) {}\n}\n\
             impl Matcher for Untagged {\n    /// Schedules.\n    fn schedule_into(&self) {}\n}",
        );
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("`Untagged::schedule_into`"), "{}", msgs[0]);
    }

    #[test]
    fn private_and_impl_fns_are_not_audited() {
        let msgs = audit("fn helper() {}\nimpl X { pub fn m(&self) {} }");
        assert!(msgs.is_empty());
    }
}
