//! The lossless lexer: source text to a [`TokenStream`] of grouped token
//! trees.
//!
//! This layer is where the old line-based scanner's blind spots are closed
//! for good: nested `/* */` block comments, raw strings (`r#"…"#` at any
//! hash depth), byte/C strings, char literals versus lifetimes, raw
//! identifiers, and doc comments (kept, desugared to `#[doc = "…"]` tokens
//! exactly as rustc does, so the parser can treat them as attributes).

use crate::{
    Delimiter, Error, Group, Ident, LitKind, Literal, Punct, Span, TokenStream, TokenTree,
};

/// Lexes `src` into a grouped token stream. Fails on unbalanced delimiters
/// and unterminated comments/strings, with the offending line.
pub fn lex_to_stream(src: &str) -> Result<TokenStream, Error> {
    let mut lexer = Lexer { chars: src.chars().collect(), pos: 0, line: 1 };
    let mut stack: Vec<(Delimiter, Span, Vec<TokenTree>)> = Vec::new();
    let mut current: Vec<TokenTree> = Vec::new();
    while let Some(tok) = lexer.next_token()? {
        match tok {
            RawTok::Open(delimiter, span) => {
                stack.push((delimiter, span, std::mem::take(&mut current)));
            }
            RawTok::Close(delimiter, span) => {
                let Some((open_delim, open_span, parent)) = stack.pop() else {
                    return Err(Error {
                        line: span.line,
                        message: format!("unmatched closing {delimiter:?}"),
                    });
                };
                if open_delim != delimiter {
                    return Err(Error {
                        line: span.line,
                        message: format!(
                            "mismatched delimiters: {open_delim:?} opened on line {} closed as {delimiter:?}",
                            open_span.line
                        ),
                    });
                }
                let group = Group {
                    delimiter,
                    stream: TokenStream { trees: std::mem::replace(&mut current, parent) },
                    span: open_span,
                };
                current.push(TokenTree::Group(group));
            }
            RawTok::Tree(tree) => current.push(tree),
            RawTok::Doc { text, inner, span } => {
                // Desugar to `#[doc = "…"]` / `#![doc = "…"]` tokens.
                current.push(TokenTree::Punct(Punct { ch: '#', span }));
                if inner {
                    current.push(TokenTree::Punct(Punct { ch: '!', span }));
                }
                let doc_tokens = vec![
                    TokenTree::Ident(Ident { text: "doc".to_string(), span }),
                    TokenTree::Punct(Punct { ch: '=', span }),
                    TokenTree::Literal(Literal { kind: LitKind::Str, text, span }),
                ];
                current.push(TokenTree::Group(Group {
                    delimiter: Delimiter::Bracket,
                    stream: TokenStream { trees: doc_tokens },
                    span,
                }));
            }
        }
    }
    if let Some((delimiter, span, _)) = stack.pop() {
        return Err(Error {
            line: span.line,
            message: format!("unclosed {delimiter:?} opened here"),
        });
    }
    Ok(TokenStream { trees: current })
}

enum RawTok {
    Open(Delimiter, Span),
    Close(Delimiter, Span),
    Tree(TokenTree),
    Doc { text: String, inner: bool, span: Span },
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: usize,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn span(&self) -> Span {
        Span { line: self.line }
    }

    fn next_token(&mut self) -> Result<Option<RawTok>, Error> {
        loop {
            let Some(c) = self.peek(0) else { return Ok(None) };
            if c.is_whitespace() {
                self.bump();
                continue;
            }
            if c == '/' && self.peek(1) == Some('/') {
                return match self.line_comment()? {
                    Some(doc) => Ok(Some(doc)),
                    None => continue,
                };
            }
            if c == '/' && self.peek(1) == Some('*') {
                return match self.block_comment()? {
                    Some(doc) => Ok(Some(doc)),
                    None => continue,
                };
            }
            return self.lex_concrete(c).map(Some);
        }
    }

    /// Consumes `//…` to end of line. Returns the doc token for `///` and
    /// `//!` forms (`////…` is a plain comment, matching rustc).
    fn line_comment(&mut self) -> Result<Option<RawTok>, Error> {
        let span = self.span();
        self.bump();
        self.bump();
        let (is_doc, inner) = match (self.peek(0), self.peek(1)) {
            (Some('/'), Some('/')) => (false, false),
            (Some('/'), _) => (true, false),
            (Some('!'), _) => (true, true),
            _ => (false, false),
        };
        if is_doc {
            self.bump();
        }
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            self.bump();
            text.push(c);
        }
        Ok(is_doc.then_some(RawTok::Doc { text, inner, span }))
    }

    /// Consumes a (nested) `/* … */` comment. Returns the doc token for
    /// `/** … */` and `/*! … */` forms (`/***` and the empty `/**/` are
    /// plain comments, matching rustc).
    fn block_comment(&mut self) -> Result<Option<RawTok>, Error> {
        let span = self.span();
        self.bump();
        self.bump();
        let (is_doc, inner) = match (self.peek(0), self.peek(1)) {
            (Some('*'), Some('*' | '/')) => (false, false),
            (Some('*'), _) => (true, false),
            (Some('!'), _) => (true, true),
            _ => (false, false),
        };
        if is_doc {
            self.bump();
        }
        let mut depth = 1usize;
        let mut text = String::new();
        loop {
            match (self.peek(0), self.peek(1)) {
                (Some('*'), Some('/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                    text.push_str("*/");
                }
                (Some('/'), Some('*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                    text.push_str("/*");
                }
                (Some(c), _) => {
                    self.bump();
                    text.push(c);
                }
                (None, _) => {
                    return Err(Error {
                        line: span.line,
                        message: "unterminated block comment".to_string(),
                    });
                }
            }
        }
        Ok(is_doc.then_some(RawTok::Doc { text, inner, span }))
    }

    fn lex_concrete(&mut self, c: char) -> Result<RawTok, Error> {
        let span = self.span();
        match c {
            '(' | '[' | '{' => {
                self.bump();
                Ok(RawTok::Open(delimiter_of(c), span))
            }
            ')' | ']' | '}' => {
                self.bump();
                Ok(RawTok::Close(delimiter_of(c), span))
            }
            '"' => {
                let text = self.string_literal()?;
                Ok(RawTok::Tree(TokenTree::Literal(Literal { kind: LitKind::Str, text, span })))
            }
            '\'' => self.char_or_lifetime(span),
            c if c.is_ascii_digit() => {
                let text = self.number();
                Ok(RawTok::Tree(TokenTree::Literal(Literal { kind: LitKind::Num, text, span })))
            }
            c if is_ident_start(c) => self.ident_or_prefixed_literal(span),
            other => {
                self.bump();
                Ok(RawTok::Tree(TokenTree::Punct(Punct { ch: other, span })))
            }
        }
    }

    /// Consumes a `"…"` literal (opening quote at the cursor), handling
    /// escapes; returns the contents.
    fn string_literal(&mut self) -> Result<String, Error> {
        let start_line = self.line;
        self.bump();
        let mut text = String::new();
        loop {
            match self.bump() {
                Some('\\') => {
                    text.push('\\');
                    if let Some(e) = self.bump() {
                        text.push(e);
                    }
                }
                Some('"') => return Ok(text),
                Some(c) => text.push(c),
                None => {
                    return Err(Error {
                        line: start_line,
                        message: "unterminated string literal".to_string(),
                    });
                }
            }
        }
    }

    /// Consumes a raw string `r#…#"…"#…#` with `hashes` hashes; the cursor
    /// is on the opening quote. Returns the contents.
    fn raw_string_literal(&mut self, hashes: usize) -> Result<String, Error> {
        let start_line = self.line;
        self.bump();
        let mut text = String::new();
        loop {
            let Some(c) = self.bump() else {
                return Err(Error {
                    line: start_line,
                    message: "unterminated raw string literal".to_string(),
                });
            };
            if c == '"' && (0..hashes).all(|i| self.peek(i) == Some('#')) {
                for _ in 0..hashes {
                    self.bump();
                }
                return Ok(text);
            }
            text.push(c);
        }
    }

    /// Disambiguates `'a` (lifetime) from `'x'` / `'\n'` (char literal).
    fn char_or_lifetime(&mut self, span: Span) -> Result<RawTok, Error> {
        let next = self.peek(1);
        let is_char = match next {
            Some('\\') => true,
            // `'a'` is a char; `'a` followed by anything else is a lifetime.
            // `''` never occurs in valid Rust.
            Some(c) if is_ident_start(c) => self.peek(2) == Some('\''),
            Some(_) => true,
            None => false,
        };
        if !is_char {
            // Lifetime: emit the quote as punct; the ident lexes next.
            self.bump();
            return Ok(RawTok::Tree(TokenTree::Punct(Punct { ch: '\'', span })));
        }
        self.bump();
        let mut text = String::new();
        loop {
            match self.bump() {
                Some('\\') => {
                    text.push('\\');
                    if let Some(e) = self.bump() {
                        text.push(e);
                    }
                }
                Some('\'') => {
                    return Ok(RawTok::Tree(TokenTree::Literal(Literal {
                        kind: LitKind::Char,
                        text,
                        span,
                    })))
                }
                Some(c) => text.push(c),
                None => {
                    return Err(Error {
                        line: span.line,
                        message: "unterminated char literal".to_string(),
                    });
                }
            }
        }
    }

    fn number(&mut self) -> String {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                self.bump();
                text.push(c);
            } else if c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                self.bump();
                text.push('.');
            } else if (c == '+' || c == '-')
                && matches!(text.chars().last(), Some('e' | 'E'))
                && self.peek(1).is_some_and(|d| d.is_ascii_digit())
            {
                self.bump();
                text.push(c);
            } else {
                break;
            }
        }
        text
    }

    /// An identifier, or one of the literal prefixes `r"`, `r#"`, `b"`,
    /// `b'`, `br"`, `c"`, `cr"`, or a raw identifier `r#name`.
    fn ident_or_prefixed_literal(&mut self, span: Span) -> Result<RawTok, Error> {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if is_ident_continue(c) {
                self.bump();
                text.push(c);
            } else {
                break;
            }
        }
        let raw_capable = matches!(text.as_str(), "r" | "br" | "cr");
        let str_capable = matches!(text.as_str(), "b" | "c") || raw_capable;
        match self.peek(0) {
            Some('"') if str_capable => {
                let contents =
                    if raw_capable { self.raw_string_literal(0)? } else { self.string_literal()? };
                Ok(RawTok::Tree(TokenTree::Literal(Literal {
                    kind: LitKind::Str,
                    text: contents,
                    span,
                })))
            }
            Some('#') if raw_capable => {
                let mut hashes = 0;
                while self.peek(hashes) == Some('#') {
                    hashes += 1;
                }
                if self.peek(hashes) == Some('"') {
                    for _ in 0..hashes {
                        self.bump();
                    }
                    let contents = self.raw_string_literal(hashes)?;
                    Ok(RawTok::Tree(TokenTree::Literal(Literal {
                        kind: LitKind::Str,
                        text: contents,
                        span,
                    })))
                } else if text == "r" && hashes == 1 && self.peek(1).is_some_and(is_ident_start) {
                    // Raw identifier `r#name`: emit the ident without `r#`.
                    self.bump();
                    let mut name = String::new();
                    while let Some(c) = self.peek(0) {
                        if is_ident_continue(c) {
                            self.bump();
                            name.push(c);
                        } else {
                            break;
                        }
                    }
                    Ok(RawTok::Tree(TokenTree::Ident(Ident { text: name, span })))
                } else {
                    Ok(RawTok::Tree(TokenTree::Ident(Ident { text, span })))
                }
            }
            // Byte literal `b'x'` / `b'\n'`: reuse the char path.
            Some('\'') if text == "b" => self.char_or_lifetime(span),
            _ => Ok(RawTok::Tree(TokenTree::Ident(Ident { text, span }))),
        }
    }
}

fn delimiter_of(c: char) -> Delimiter {
    match c {
        '(' | ')' => Delimiter::Parenthesis,
        '[' | ']' => Delimiter::Bracket,
        _ => Delimiter::Brace,
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        let stream = lex_to_stream(src).unwrap();
        let mut out = Vec::new();
        stream.walk(&mut |t| {
            if let Some(i) = t.as_ident() {
                out.push(i.to_string());
            }
        });
        out
    }

    #[test]
    fn block_comments_are_skipped_even_nested() {
        let ids = idents("fn a() { /* x.unwrap() /* nested */ still comment */ b() }");
        assert_eq!(ids, vec!["fn", "a", "b"]);
    }

    #[test]
    fn raw_strings_hide_their_contents() {
        let ids = idents(r##"fn a() { let s = r#"x.unwrap() "quoted" "#; }"##);
        assert_eq!(ids, vec!["fn", "a", "let", "s"]);
        let ids = idents(r###"let s = r##"one "# deep"##;"###);
        assert_eq!(ids, vec!["let", "s"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let ids = idents("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(ids.contains(&"a".to_string()));
        assert!(ids.contains(&"str".to_string()));
    }

    #[test]
    fn char_literals_including_quote_and_escape() {
        let ids = idents("if c == '\"' { x() } else if c == '\\n' { y() }");
        assert_eq!(ids, vec!["if", "c", "x", "else", "if", "c", "y"]);
    }

    #[test]
    fn doc_comments_become_doc_attributes() {
        let stream = lex_to_stream("/// Paper: Lemma 2\nfn f() {}").unwrap();
        assert!(matches!(stream.trees[0], TokenTree::Punct(Punct { ch: '#', .. })));
        assert!(stream.contains_ident("doc"));
        let mut doc = None;
        stream.walk(&mut |t| {
            if let TokenTree::Literal(l) = t {
                doc = Some(l.text.clone());
            }
        });
        assert_eq!(doc.as_deref(), Some(" Paper: Lemma 2"));
    }

    #[test]
    fn unsafe_without_trailing_space_is_an_ident() {
        // The old line scanner matched the string "unsafe " and missed this.
        let ids = idents("fn f() { unsafe{ danger() } }");
        assert!(ids.contains(&"unsafe".to_string()));
    }

    #[test]
    fn unbalanced_delimiters_error_with_line() {
        let err = lex_to_stream("fn f() {\n  (\n}").unwrap_err();
        assert!(err.message.contains("mismatched") || err.message.contains("unclosed"));
    }

    #[test]
    fn raw_identifiers_drop_the_prefix() {
        assert_eq!(idents("let r#type = 1;"), vec!["let", "type"]);
    }

    #[test]
    fn byte_and_c_strings_lex_as_literals() {
        assert_eq!(
            idents(r#"let x = b"ab"; let y = c"cd"; let z = br"ef";"#),
            vec!["let", "x", "let", "y", "let", "z"]
        );
    }

    #[test]
    fn numbers_with_suffixes_and_floats() {
        assert_eq!(idents("let x = 1_000u64 + 2.5e-3f64;"), vec!["let", "x"]);
    }
}
