//! Channel-discipline lint: no unbounded channels, no silently discarded
//! sends.
//!
//! The daemon's liveness argument rests on every queue being bounded (a
//! slow consumer exerts backpressure instead of OOMing the process) and on
//! every failed send being an *observed* event (a dead receiver during
//! teardown is a typed state transition, not noise to swallow). Two rules:
//!
//! 1. `mpsc::channel()` — the unbounded constructor — is banned in library
//!    code; use `serve_sync::bounded` (loom-modeled) or
//!    `mpsc::sync_channel` with an explicit depth.
//! 2. A send result may not be discarded: `let _ = tx.send(..)`,
//!    `tx.send(..).ok()`, and `drop(tx.send(..))` are all banned. Either
//!    propagate the `SendError`, branch on it (the daemon's readers end
//!    their connection on a failed intake send), or absorb it in one
//!    audited, documented helper.

use syn::{Delimiter, TokenStream, TokenTree};

use super::{walk_items, FnCtx, SourceFile, Violation};

/// Runs the channel-discipline lint over one parsed file.
pub fn check(source: &SourceFile, out: &mut Vec<Violation>) {
    // Two passes (functions, then non-fn items) so each closure gets the
    // violation sink to itself.
    walk_items(
        &source.file.items,
        false,
        &mut |ctx: FnCtx<'_>| {
            if ctx.in_test {
                return;
            }
            if let Some(block) = &ctx.fun.block {
                check_stream(&block.stream, source, out);
            }
        },
        &mut |_, _| {},
    );
    walk_items(&source.file.items, false, &mut |_| {}, &mut |tokens: &TokenStream, gated: bool| {
        if !gated {
            check_stream(tokens, source, out);
        }
    });
}

fn violation(source: &SourceFile, line: usize, what: &str, hint: &str) -> Violation {
    Violation::new("channels", source.path.clone(), line, format!("{what} — {hint}"))
}

/// Splits top-level trees on `;`, keeping nested groups intact.
fn split_on_semi(trees: &[TokenTree]) -> Vec<&[TokenTree]> {
    let mut parts = Vec::new();
    let mut start = 0;
    for (i, tree) in trees.iter().enumerate() {
        if tree.as_punct() == Some(';') {
            parts.push(&trees[start..i]);
            start = i + 1;
        }
    }
    if start < trees.len() {
        parts.push(&trees[start..]);
    }
    parts
}

/// Whether `trees` contains a `. send ( .. )` call at any nesting depth.
fn contains_send_call(trees: &[TokenTree]) -> bool {
    for (i, tree) in trees.iter().enumerate() {
        match tree {
            TokenTree::Ident(ident) if ident.text == "send" => {
                let after_dot = i > 0 && trees[i - 1].as_punct() == Some('.');
                let called = matches!(
                    trees.get(i + 1),
                    Some(TokenTree::Group(g)) if g.delimiter == Delimiter::Parenthesis
                );
                if after_dot && called {
                    return true;
                }
            }
            TokenTree::Group(g) if contains_send_call(&g.stream.trees) => return true,
            _ => {}
        }
    }
    false
}

fn check_stream(stream: &TokenStream, source: &SourceFile, out: &mut Vec<Violation>) {
    for stmt in split_on_semi(&stream.trees) {
        // `let _ = ..send(..)..` — the discarded-result idiom.
        if let [first, second, third, rest @ ..] = stmt {
            if first.as_ident() == Some("let")
                && second.as_ident() == Some("_")
                && third.as_punct() == Some('=')
                && contains_send_call(rest)
            {
                out.push(violation(
                    source,
                    first.span().line,
                    "`let _ = ..send(..)`",
                    "a failed send is a state transition, not noise; match on the \
                     SendError or route it through one documented helper",
                ));
            }
        }
        scan_trees(stmt, source, out);
    }
}

/// Scans one statement's trees (recursing into groups) for the unbounded
/// constructor, `.send(..).ok()`, and `drop(..send(..))`.
fn scan_trees(trees: &[TokenTree], source: &SourceFile, out: &mut Vec<Violation>) {
    for (i, tree) in trees.iter().enumerate() {
        match tree {
            // `mpsc :: channel` (optionally turbofished) — unbounded.
            TokenTree::Ident(ident)
                if ident.text == "mpsc"
                    && trees.get(i + 1).and_then(TokenTree::as_punct) == Some(':')
                    && trees.get(i + 2).and_then(TokenTree::as_punct) == Some(':')
                    && trees.get(i + 3).and_then(TokenTree::as_ident) == Some("channel") =>
            {
                out.push(violation(
                    source,
                    ident.span.line,
                    "`mpsc::channel()` (unbounded)",
                    "every queue must be bounded; use serve_sync::bounded or \
                     mpsc::sync_channel with an explicit depth",
                ));
            }
            TokenTree::Ident(ident) if ident.text == "send" => {
                // `.send(..).ok()` — discards the error into a dead Option.
                let after_dot = i > 0 && trees[i - 1].as_punct() == Some('.');
                let called = matches!(
                    trees.get(i + 1),
                    Some(TokenTree::Group(g)) if g.delimiter == Delimiter::Parenthesis
                );
                let ok_chained = trees.get(i + 2).and_then(TokenTree::as_punct) == Some('.')
                    && trees.get(i + 3).and_then(TokenTree::as_ident) == Some("ok")
                    && matches!(
                        trees.get(i + 4),
                        Some(TokenTree::Group(g)) if g.delimiter == Delimiter::Parenthesis
                    );
                if after_dot && called && ok_chained {
                    out.push(violation(
                        source,
                        ident.span.line,
                        "`.send(..).ok()`",
                        "the discarded SendError hides a dead receiver; branch on the \
                         result instead",
                    ));
                }
            }
            TokenTree::Ident(ident) if ident.text == "drop" => {
                // `drop(tx.send(..))` — launder-by-drop.
                if let Some(TokenTree::Group(args)) = trees.get(i + 1) {
                    if args.delimiter == Delimiter::Parenthesis
                        && contains_send_call(&args.stream.trees)
                    {
                        out.push(violation(
                            source,
                            ident.span.line,
                            "`drop(..send(..))`",
                            "dropping the send result discards the SendError; branch \
                             on it instead",
                        ));
                    }
                }
            }
            // Brace groups (closure and block bodies) hold statements of
            // their own: re-enter through the statement splitter so the
            // `let _ = ..send(..)` rule applies inside them too.
            TokenTree::Group(g) if g.delimiter == Delimiter::Brace => {
                check_stream(&g.stream, source, out);
            }
            TokenTree::Group(g) => scan_trees(&g.stream.trees, source, out),
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

    #[test]
    fn unbounded_channel_is_flagged() {
        let src = "fn f() { let (tx, rx) = std::sync::mpsc::channel::<u32>(); }";
        let out = lint(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("unbounded"));
    }

    #[test]
    fn sync_channel_is_clean() {
        let src = "fn f() { let (tx, rx) = std::sync::mpsc::sync_channel::<u32>(64); }";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn discarded_send_is_flagged() {
        let src = "fn f() { let _ = tx.send(1); }";
        assert_eq!(lint(src).len(), 1);
    }

    #[test]
    fn bound_send_result_is_clean() {
        let src = "fn f() -> Result<(), E> {\n\
                       tx.send(1).map_err(|_| E::Gone)?;\n\
                       let sent = tx.send(2).is_ok();\n\
                       let Ok(()) = tx.send(3) else { return Err(E::Gone) };\n\
                       Ok(())\n\
                   }";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn send_ok_chain_is_flagged() {
        let src = "fn f() { tx.send(1).ok(); }";
        assert_eq!(lint(src).len(), 1);
    }

    #[test]
    fn drop_of_send_is_flagged() {
        let src = "fn f() { drop(tx.send(1)); }";
        assert_eq!(lint(src).len(), 1);
    }

    #[test]
    fn let_underscore_without_send_is_clean() {
        let src = "fn f() { let _ = h.join(); let _ = stream.set_nodelay(true); }";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn closure_bodies_are_scanned() {
        let src = "fn f() { spawn(move || { let _ = tx.send(1); }); }";
        assert_eq!(lint(src).len(), 1);
    }

    #[test]
    fn test_gated_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n\
                   fn t() { let (tx, rx) = std::sync::mpsc::channel(); let _ = tx.send(1); }\n\
                   }";
        assert!(lint(src).is_empty());
    }
}
