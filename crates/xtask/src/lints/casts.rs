//! Narrowing-cast lint: no `as` casts to sub-64-bit integer types in
//! library code.
//!
//! On this workspace's 64-bit targets, `as u64` / `as usize` / `as i64` /
//! `as f64` from the index and counter types in use are value-preserving,
//! but `as u8` … `as u32` / `as i32` silently truncate. Library code must
//! either prove the range with `TryFrom` (propagating or clamping
//! explicitly) or carry `#[allow(clippy::cast_possible_truncation)]` on the
//! function, which this lint honors as the documented opt-out.

use syn::{TokenStream, TokenTree};

use super::{walk_items, SourceFile, Violation};

/// Cast targets that can silently truncate.
const NARROW_INTS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// Runs the narrowing-cast lint over one parsed file.
pub fn check(source: &SourceFile, out: &mut Vec<Violation>) {
    // Two passes (functions, then non-fn items) so each closure gets the
    // violation sink to itself.
    walk_items(
        &source.file.items,
        false,
        &mut |ctx: super::FnCtx<'_>| {
            if ctx.in_test || has_truncation_allow(ctx.fun.attrs.as_slice()) {
                return;
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
}

/// Whether the function opts out via
/// `#[allow(clippy::cast_possible_truncation)]` (or `expect(..)` form).
fn has_truncation_allow(attrs: &[syn::Attribute]) -> bool {
    attrs.iter().any(|a| {
        matches!(a.path.as_str(), "allow" | "expect")
            && a.contains_ident("cast_possible_truncation")
    })
}

fn scan_stream(source: &SourceFile, stream: &TokenStream, out: &mut Vec<Violation>) {
    let trees = &stream.trees;
    for (i, tree) in trees.iter().enumerate() {
        match tree {
            TokenTree::Ident(ident) if ident.text == "as" => {
                let Some(target) = trees.get(i + 1).and_then(TokenTree::as_ident) else {
                    continue;
                };
                if NARROW_INTS.contains(&target) {
                    out.push(Violation::new(
                        "casts",
                        source.path.clone(),
                        ident.span.line,
                        format!(
                            "narrowing `as {target}` cast — use `{target}::try_from(..)` \
                             (propagate or clamp explicitly), or opt out with \
                             `#[allow(clippy::cast_possible_truncation)]` on the function"
                        ),
                    ));
                }
            }
            TokenTree::Group(g) => scan_stream(source, &g.stream, out),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::SourceFile;
    use std::path::PathBuf;

    fn lines(src: &str) -> Vec<usize> {
        let source =
            SourceFile { path: PathBuf::from("mem.rs"), file: syn::parse_file(src).unwrap() };
        let mut out = Vec::new();
        super::check(&source, &mut out);
        out.iter().map(|v| v.line).collect()
    }

    #[test]
    fn flags_narrowing_targets_only() {
        let src = "fn f(x: usize) {\n\
                   let a = x as u8;\n\
                   let b = x as u64;\n\
                   let c = x as f64;\n\
                   let d = x as i32;\n\
                   }";
        assert_eq!(lines(src), vec![2, 5]);
    }

    #[test]
    fn honors_the_allow_opt_out() {
        let src = "#[allow(clippy::cast_possible_truncation)]\n\
                   fn f(x: usize) -> u8 { x as u8 }";
        assert_eq!(lines(src), Vec::<usize>::new());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn t(x: usize) { let a = x as u8; } }";
        assert_eq!(lines(src), Vec::<usize>::new());
    }

    #[test]
    fn widening_word_ops_are_fine() {
        let src = "fn f(w: u64) -> usize { w.count_ones() as usize }";
        assert_eq!(lines(src), Vec::<usize>::new());
    }
}
