//! Banned-construct lint: `unwrap`/`expect` calls, panicking macros, debug
//! prints, and `unsafe` in library code.
//!
//! Token-tree aware, so — unlike the old string scanner — it cannot be
//! fooled by `unsafe{` (no trailing space), banned names inside block
//! comments or raw strings, or multi-line constructs; and it still sees
//! inside macro definitions and `static` initializers, which clippy's
//! expansion-time lints can miss.

use syn::{TokenStream, TokenTree};

use super::{walk_items, SourceFile, Violation};

/// Method calls banned from library code, with the recorded remedy.
const BANNED_METHODS: [(&str, &str); 2] = [
    ("unwrap", "propagate wdm_core::Error or use `let .. else { unreachable!(..) }`"),
    ("expect", "propagate wdm_core::Error or use `let .. else { unreachable!(..) }`"),
];

/// Macros banned from library code.
const BANNED_MACROS: [(&str, &str); 4] = [
    ("panic", "return an Err or use `unreachable!`/`assert!` with an invariant message"),
    ("todo", "no placeholders in library code"),
    ("unimplemented", "no placeholders in library code"),
    ("dbg", "no debug prints in library code"),
];

/// Runs the banned-construct lint over one parsed file.
pub fn check(source: &SourceFile, out: &mut Vec<Violation>) {
    // Two passes (functions, then non-fn items) so each closure gets the
    // violation sink to itself.
    walk_items(
        &source.file.items,
        false,
        &mut |ctx: super::FnCtx<'_>| {
            if ctx.in_test {
                return;
            }
            if ctx.fun.sig.is_unsafe {
                out.push(violation(
                    source,
                    ctx.fun.span.line,
                    "`unsafe fn`",
                    "the workspace forbids unsafe code",
                ));
            }
            if let Some(block) = &ctx.fun.block {
                scan_stream(source, &block.stream, out);
            }
        },
        &mut |_, _| {},
    );
    walk_items(&source.file.items, false, &mut |_| {}, &mut |tokens: &TokenStream, gated: bool| {
        if !gated {
            scan_stream(source, tokens, out);
        }
    });
    scan_unsafe_headers(&source.file.items, false, source, out);
}

/// Flags `unsafe impl` / `unsafe trait` headers, which hold their `unsafe`
/// outside any token stream the walker hands out.
fn scan_unsafe_headers(
    items: &[syn::Item],
    in_test: bool,
    source: &SourceFile,
    out: &mut Vec<Violation>,
) {
    for item in items {
        let gated = in_test || super::is_test_gated(item.attrs());
        match item {
            syn::Item::Impl(i) => {
                if i.is_unsafe && !gated {
                    out.push(violation(
                        source,
                        i.span.line,
                        "`unsafe impl`",
                        "the workspace forbids unsafe code",
                    ));
                }
                scan_unsafe_headers(&i.items, gated, source, out);
            }
            syn::Item::Trait(t) => {
                if t.is_unsafe && !gated {
                    out.push(violation(
                        source,
                        t.span.line,
                        "`unsafe trait`",
                        "the workspace forbids unsafe code",
                    ));
                }
                scan_unsafe_headers(&t.items, gated, source, out);
            }
            syn::Item::Mod(m) => {
                if let Some(content) = &m.content {
                    scan_unsafe_headers(content, gated, source, out);
                }
            }
            _ => {}
        }
    }
}

fn violation(source: &SourceFile, line: usize, what: &str, hint: &str) -> Violation {
    Violation::new("banned", source.path.clone(), line, format!("banned {what} — {hint}"))
}

/// Scans one token stream (recursing into groups) for banned constructs.
fn scan_stream(source: &SourceFile, stream: &TokenStream, out: &mut Vec<Violation>) {
    let trees = &stream.trees;
    for (i, tree) in trees.iter().enumerate() {
        match tree {
            TokenTree::Ident(ident) => {
                if ident.text == "unsafe" {
                    out.push(violation(
                        source,
                        ident.span.line,
                        "`unsafe`",
                        "the workspace forbids unsafe code",
                    ));
                }
                // `name!(…)` macro invocation.
                if trees.get(i + 1).and_then(TokenTree::as_punct) == Some('!') {
                    if let Some((name, hint)) =
                        BANNED_MACROS.iter().find(|(name, _)| *name == ident.text)
                    {
                        out.push(violation(source, ident.span.line, &format!("`{name}!`"), hint));
                    }
                }
                // `.name(…)` method call: previous token `.`, next a
                // parenthesized argument list.
                let after_dot = i > 0 && trees[i - 1].as_punct() == Some('.');
                let called = matches!(
                    trees.get(i + 1),
                    Some(TokenTree::Group(g)) if g.delimiter == syn::Delimiter::Parenthesis
                );
                if after_dot && called {
                    if let Some((name, hint)) =
                        BANNED_METHODS.iter().find(|(name, _)| *name == ident.text)
                    {
                        out.push(violation(source, ident.span.line, &format!("`.{name}()`"), hint));
                    }
                }
            }
            TokenTree::Group(g) => scan_stream(source, &g.stream, out),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{SourceFile, Violation};
    use std::path::PathBuf;

    fn lint(src: &str) -> Vec<Violation> {
        let source =
            SourceFile { path: PathBuf::from("mem.rs"), file: syn::parse_file(src).unwrap() };
        let mut out = Vec::new();
        super::check(&source, &mut out);
        out
    }

    fn lines(src: &str) -> Vec<usize> {
        lint(src).iter().map(|v| v.line).collect()
    }

    #[test]
    fn flags_banned_and_skips_test_mods() {
        let src = "fn lib() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { y.unwrap(); }\n\
                   }\n\
                   fn lib2() { panic!(\"boom\"); }\n";
        assert_eq!(lines(src), vec![1, 6]);
    }

    #[test]
    fn flags_unsafe_blocks_without_trailing_space() {
        assert_eq!(lines("fn f() { unsafe{ danger() } }"), vec![1]);
    }

    #[test]
    fn flags_unsafe_fn_and_unsafe_impl() {
        let out = lint("unsafe fn f() {}\nunsafe impl Send for X {}");
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn ignores_comments_and_raw_strings() {
        let src = "fn f() {\n\
                   /* a block comment saying x.unwrap() is banned */\n\
                   let s = r#\"also \" .unwrap() here\"#;\n\
                   let t = \"and .expect(msg) here\";\n\
                   }";
        assert_eq!(lines(src), Vec::<usize>::new());
    }

    #[test]
    fn unwrap_or_variants_are_not_flagged() {
        let src = "fn f() { x.unwrap_or(0); y.unwrap_or_else(|e| e.into_inner()); }";
        assert_eq!(lines(src), Vec::<usize>::new());
    }

    #[test]
    fn sees_inside_macro_definitions() {
        let src = "macro_rules! bad {\n    () => { $x.unwrap() };\n}";
        assert_eq!(lines(src), vec![2]);
    }

    #[test]
    fn multi_line_method_calls_are_caught() {
        // `.unwrap()` split across lines defeats any line-based matcher.
        let src = "fn f() {\n    let v = compute()\n        .\n        unwrap();\n}";
        assert_eq!(lines(src).len(), 1);
    }

    #[test]
    fn cfg_test_gated_fn_is_exempt() {
        let src = "#[cfg(test)]\nfn helper() { x.unwrap(); }";
        assert_eq!(lines(src), Vec::<usize>::new());
    }

    #[test]
    fn assert_and_unreachable_are_allowed() {
        let src = "fn f() { assert!(x > 0, \"invariant\"); unreachable!(\"covered\"); }";
        assert_eq!(lines(src), Vec::<usize>::new());
    }
}
