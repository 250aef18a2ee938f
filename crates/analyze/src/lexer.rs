//! A hand-rolled Rust tokenizer — just enough lexical fidelity for the
//! analyzer rules, with zero dependencies.
//!
//! The token stream carries line numbers and distinguishes identifiers,
//! punctuation (with the multi-char operators the rules care about fused:
//! `==`, `!=`, `->`, `=>`, `::`, `..`), integer vs float literals, strings
//! (including raw/byte strings), chars vs lifetimes. Comments are collected
//! on a side channel with an `own_line` flag so the rule engine can resolve
//! `// analyze: allow(...)` annotations.

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Operator / delimiter (multi-char ops fused).
    Punct,
    /// Integer literal (any radix, with suffix).
    Int,
    /// Float literal (`1.0`, `1.`, `2e-5`, `3f64`).
    Float,
    /// String literal (plain, raw, byte).
    Str,
    /// Char literal.
    Char,
    /// Lifetime (`'a`, `'static`, `'_`).
    Lifetime,
}

/// One token with its source line (1-based).
#[derive(Debug, Clone)]
pub struct Tok {
    /// Classification.
    pub kind: TokKind,
    /// Verbatim text (strings keep their quotes).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
}

/// One comment (line or block) with its starting line.
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line of the comment's first character.
    pub line: u32,
    /// Verbatim text including the `//` / `/*` introducer.
    pub text: String,
    /// True when no code precedes the comment on its line.
    pub own_line: bool,
}

/// Lexer output: the code token stream plus the comment side channel.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub toks: Vec<Tok>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

struct Scanner {
    chars: Vec<char>,
    i: usize,
    line: u32,
}

impl Scanner {
    fn peek(&self, k: usize) -> Option<char> {
        self.chars.get(self.i + k).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied();
        if let Some(ch) = c {
            self.i += 1;
            if ch == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn text_from(&self, start: usize) -> String {
        self.chars[start..self.i].iter().collect()
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Tokenizes `src`. Never fails: unexpected bytes degrade to single-char
/// punctuation, which is the right behavior for a linter that must keep
/// scanning past anything the compiler would reject anyway.
pub fn lex(src: &str) -> Lexed {
    let mut s = Scanner {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
    };
    let mut out = Lexed::default();
    // Line of the most recent code token's end — used for `own_line`.
    let mut last_code_line: u32 = 0;

    while let Some(c) = s.peek(0) {
        let line = s.line;
        let start = s.i;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                s.bump();
                continue;
            }
            '/' if s.peek(1) == Some('/') => {
                while let Some(ch) = s.peek(0) {
                    if ch == '\n' {
                        break;
                    }
                    s.bump();
                }
                out.comments.push(Comment {
                    line,
                    text: s.text_from(start),
                    own_line: last_code_line != line,
                });
                continue;
            }
            '/' if s.peek(1) == Some('*') => {
                s.bump();
                s.bump();
                let mut depth = 1u32;
                while depth > 0 {
                    match (s.peek(0), s.peek(1)) {
                        (Some('/'), Some('*')) => {
                            s.bump();
                            s.bump();
                            depth += 1;
                        }
                        (Some('*'), Some('/')) => {
                            s.bump();
                            s.bump();
                            depth -= 1;
                        }
                        (Some(_), _) => {
                            s.bump();
                        }
                        (None, _) => break,
                    }
                }
                out.comments.push(Comment {
                    line,
                    text: s.text_from(start),
                    own_line: last_code_line != line,
                });
                continue;
            }
            '"' => {
                lex_plain_string(&mut s);
                out.toks.push(Tok {
                    kind: TokKind::Str,
                    text: s.text_from(start),
                    line,
                });
            }
            '\'' => {
                let kind = lex_char_or_lifetime(&mut s);
                out.toks.push(Tok {
                    kind,
                    text: s.text_from(start),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let kind = lex_number(&mut s);
                out.toks.push(Tok {
                    kind,
                    text: s.text_from(start),
                    line,
                });
            }
            c if is_ident_start(c) => {
                if let Some(kind) = try_lex_prefixed_literal(&mut s) {
                    out.toks.push(Tok {
                        kind,
                        text: s.text_from(start),
                        line,
                    });
                } else {
                    while let Some(ch) = s.peek(0) {
                        if is_ident_continue(ch) {
                            s.bump();
                        } else {
                            break;
                        }
                    }
                    out.toks.push(Tok {
                        kind: TokKind::Ident,
                        text: s.text_from(start),
                        line,
                    });
                }
            }
            _ => {
                let text = lex_punct(&mut s);
                out.toks.push(Tok {
                    kind: TokKind::Punct,
                    text,
                    line,
                });
            }
        }
        last_code_line = s.line;
    }
    out
}

fn lex_plain_string(s: &mut Scanner) {
    s.bump(); // opening quote
    while let Some(c) = s.bump() {
        match c {
            '\\' => {
                s.bump();
            }
            '"' => break,
            _ => {}
        }
    }
}

/// Raw strings: caller sits on the `r` of `r"…"` / `r#"…"#…`.
fn lex_raw_string(s: &mut Scanner) {
    s.bump(); // 'r'
    let mut hashes = 0usize;
    while s.peek(0) == Some('#') {
        s.bump();
        hashes += 1;
    }
    s.bump(); // opening quote
    loop {
        match s.bump() {
            Some('"') => {
                let mut seen = 0usize;
                while seen < hashes && s.peek(0) == Some('#') {
                    s.bump();
                    seen += 1;
                }
                if seen == hashes {
                    break;
                }
            }
            Some(_) => {}
            None => break,
        }
    }
}

/// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'…'`, and `r#ident`
/// raw identifiers. Returns `None` when the scanner actually sits on a
/// plain identifier and has consumed nothing.
fn try_lex_prefixed_literal(s: &mut Scanner) -> Option<TokKind> {
    match (s.peek(0), s.peek(1)) {
        (Some('r'), Some('"')) => {
            lex_raw_string(s);
            Some(TokKind::Str)
        }
        (Some('r'), Some('#')) => {
            // Distinguish r#"raw string"# from r#raw_ident.
            let mut k = 1;
            while s.peek(k) == Some('#') {
                k += 1;
            }
            if s.peek(k) == Some('"') {
                lex_raw_string(s);
                Some(TokKind::Str)
            } else if k == 2 && s.peek(2).is_some_and(is_ident_start) {
                // Raw identifier `r#match`: one Ident token (text keeps the
                // `r#` so it can never collide with the bare keyword) —
                // splitting it would inject a phantom `fn`/`match`/`if`
                // keyword into the stream and corrupt item parsing.
                s.bump(); // 'r'
                s.bump(); // '#'
                while let Some(ch) = s.peek(0) {
                    if is_ident_continue(ch) {
                        s.bump();
                    } else {
                        break;
                    }
                }
                Some(TokKind::Ident)
            } else {
                None
            }
        }
        (Some('b'), Some('"')) => {
            s.bump(); // 'b'
            lex_plain_string(s);
            Some(TokKind::Str)
        }
        (Some('b'), Some('\'')) => {
            s.bump(); // 'b'
            s.bump(); // opening quote
            while let Some(c) = s.bump() {
                match c {
                    '\\' => {
                        s.bump();
                    }
                    '\'' => break,
                    _ => {}
                }
            }
            Some(TokKind::Char)
        }
        (Some('b'), Some('r')) => {
            let mut k = 2;
            while s.peek(k) == Some('#') {
                k += 1;
            }
            if s.peek(k) == Some('"') {
                s.bump(); // 'b'
                lex_raw_string(s);
                Some(TokKind::Str)
            } else {
                None
            }
        }
        _ => None,
    }
}

fn lex_char_or_lifetime(s: &mut Scanner) -> TokKind {
    // Sits on the opening quote.
    match (s.peek(1), s.peek(2)) {
        (Some('\\'), _) => {
            s.bump(); // quote
            s.bump(); // backslash
            s.bump(); // escaped char
            while let Some(c) = s.bump() {
                if c == '\'' {
                    break;
                }
            }
            TokKind::Char
        }
        (Some(_), Some('\'')) => {
            s.bump();
            s.bump();
            s.bump();
            TokKind::Char
        }
        (Some(c), _) if is_ident_start(c) => {
            s.bump(); // quote
            while let Some(ch) = s.peek(0) {
                if is_ident_continue(ch) {
                    s.bump();
                } else {
                    break;
                }
            }
            TokKind::Lifetime
        }
        _ => {
            s.bump();
            TokKind::Punct
        }
    }
}

fn lex_number(s: &mut Scanner) -> TokKind {
    let mut kind = TokKind::Int;
    if s.peek(0) == Some('0') && matches!(s.peek(1), Some('x' | 'o' | 'b')) {
        s.bump();
        s.bump();
        while let Some(c) = s.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                s.bump();
            } else {
                break;
            }
        }
        return TokKind::Int;
    }
    while let Some(c) = s.peek(0) {
        if c.is_ascii_digit() || c == '_' {
            s.bump();
        } else {
            break;
        }
    }
    if s.peek(0) == Some('.') {
        match s.peek(1) {
            Some(d) if d.is_ascii_digit() => {
                s.bump();
                kind = TokKind::Float;
                while let Some(c) = s.peek(0) {
                    if c.is_ascii_digit() || c == '_' {
                        s.bump();
                    } else {
                        break;
                    }
                }
            }
            Some('.') => {}                    // `1..n` range
            Some(c) if is_ident_start(c) => {} // `1.max(2)` method call
            _ => {
                s.bump(); // trailing-dot float `1.`
                kind = TokKind::Float;
            }
        }
    }
    if matches!(s.peek(0), Some('e' | 'E')) {
        let exp = match (s.peek(1), s.peek(2)) {
            (Some(d), _) if d.is_ascii_digit() => true,
            (Some('+') | Some('-'), Some(d)) if d.is_ascii_digit() => true,
            _ => false,
        };
        if exp {
            s.bump();
            if matches!(s.peek(0), Some('+' | '-')) {
                s.bump();
            }
            while let Some(c) = s.peek(0) {
                if c.is_ascii_digit() || c == '_' {
                    s.bump();
                } else {
                    break;
                }
            }
            kind = TokKind::Float;
        }
    }
    // Type suffix (`f64`, `u32`, …).
    let suffix_start = s.i;
    while let Some(c) = s.peek(0) {
        if is_ident_continue(c) {
            s.bump();
        } else {
            break;
        }
    }
    if s.chars.get(suffix_start) == Some(&'f') {
        kind = TokKind::Float;
    }
    kind
}

const FUSED: &[&str] = &[
    "..=", "==", "!=", "->", "=>", "::", "<=", ">=", "&&", "||", "..",
];

fn lex_punct(s: &mut Scanner) -> String {
    for f in FUSED {
        if f.chars().enumerate().all(|(k, c)| s.peek(k) == Some(c)) {
            for _ in 0..f.chars().count() {
                s.bump();
            }
            return (*f).to_string();
        }
    }
    s.bump().map(String::from).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .toks
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn floats_vs_ints_vs_ranges() {
        let t = kinds("1.0 2e-5 3f64 1. 4 0x1E 1..5 7.max(1) 2.5e3");
        let f: Vec<&str> = t
            .iter()
            .filter(|(k, _)| *k == TokKind::Float)
            .map(|(_, s)| s.as_str())
            .collect();
        assert_eq!(f, ["1.0", "2e-5", "3f64", "1.", "2.5e3"]);
        let ints: Vec<&str> = t
            .iter()
            .filter(|(k, _)| *k == TokKind::Int)
            .map(|(_, s)| s.as_str())
            .collect();
        assert_eq!(ints, ["4", "0x1E", "1", "5", "7", "1"]);
    }

    #[test]
    fn fused_operators_and_eq() {
        let t = kinds("a == b != c -> d => e :: f ..= g");
        let puncts: Vec<&str> = t
            .iter()
            .filter(|(k, _)| *k == TokKind::Punct)
            .map(|(_, s)| s.as_str())
            .collect();
        assert_eq!(puncts, ["==", "!=", "->", "=>", "::", "..="]);
    }

    #[test]
    fn strings_chars_lifetimes_comments() {
        let src = r####"
let s = "a // not a comment \" end";
let r = r#"raw "inner" text"#;
let c = 'x'; let esc = '\n'; let lt: &'static str = s; // trailing
// own line
"####;
        let lexed = lex(src);
        let strs: Vec<_> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .collect();
        assert_eq!(strs.len(), 2);
        assert!(strs[1].text.contains("inner"));
        assert_eq!(
            lexed
                .toks
                .iter()
                .filter(|t| t.kind == TokKind::Char)
                .count(),
            2
        );
        assert_eq!(
            lexed
                .toks
                .iter()
                .filter(|t| t.kind == TokKind::Lifetime)
                .count(),
            1 // 'static
        );
        let comments = &lexed.comments;
        assert_eq!(comments.len(), 2);
        assert!(!comments[0].own_line);
        assert!(comments[1].own_line);
    }

    #[test]
    fn line_numbers_survive_multiline_tokens() {
        let src = "let a = \"line\n1 to\n3\";\nlet b = 9;";
        let lexed = lex(src);
        let b = lexed.toks.iter().find(|t| t.text == "b").unwrap();
        assert_eq!(b.line, 4);
    }

    #[test]
    fn nested_block_comments() {
        let lexed = lex("a /* outer /* inner */ still */ b");
        assert_eq!(lexed.toks.len(), 2);
        assert_eq!(lexed.comments.len(), 1);
    }

    /// One row per lexer edge case the parser layer leans on: the source,
    /// the expected `(kind, text)` stream. Brace/quote content inside
    /// string/char literals must never leak into the punct stream, or the
    /// parser's brace matching (and with it every span computation)
    /// silently corrupts.
    #[test]
    fn edge_case_table() {
        use TokKind::*;
        let cases: &[(&str, &[(TokKind, &str)])] = &[
            // -- raw strings ------------------------------------------------
            (r###"r"plain""###, &[(Str, r###"r"plain""###)]),
            (
                r###"r#"has "quote""#"###,
                &[(Str, r###"r#"has "quote""#"###)],
            ),
            (
                r####"r##"inner "# close"##"####,
                &[(Str, r####"r##"inner "# close"##"####)],
            ),
            // A raw string ending in a backslash (the case plain-string
            // escape logic would overrun).
            (
                r###"r"tail\" x"###,
                &[(Str, r###"r"tail\""###), (Ident, "x")],
            ),
            // Raw string containing braces: still one token.
            (r###"r"{ }" y"###, &[(Str, r###"r"{ }""###), (Ident, "y")]),
            // Byte / raw-byte strings.
            (r###"b"bytes""###, &[(Str, r###"b"bytes""###)]),
            (r####"br#"raw "b""#"####, &[(Str, r####"br#"raw "b""#"####)]),
            // Raw identifiers are a single Ident (never a phantom keyword).
            ("r#match x", &[(Ident, "r#match"), (Ident, "x")]),
            ("r#fn()", &[(Ident, "r#fn"), (Punct, "("), (Punct, ")")]),
            // -- char / byte literals with braces and quotes ----------------
            ("'{'", &[(Char, "'{'")]),
            ("'}'", &[(Char, "'}'")]),
            ("'\"'", &[(Char, "'\"'")]),
            (r"'\''", &[(Char, r"'\''")]),
            (r"'\\'", &[(Char, r"'\\'")]),
            (r"'\u{7D}'", &[(Char, r"'\u{7D}'")]),
            ("b'{'", &[(Char, "b'{'")]),
            ("b'\"'", &[(Char, "b'\"'")]),
            (r"b'\''", &[(Char, r"b'\''")]),
            // Char in a match arm keeps the arrow separate.
            ("'}' =>", &[(Char, "'}'"), (Punct, "=>")]),
            // -- lifetimes stay distinct from chars -------------------------
            ("&'a T", &[(Punct, "&"), (Lifetime, "'a"), (Ident, "T")]),
            ("'static", &[(Lifetime, "'static")]),
            ("'_,", &[(Lifetime, "'_"), (Punct, ",")]),
            // -- plain strings with escapes and braces ----------------------
            (r#""a\"b" z"#, &[(Str, r#""a\"b""#), (Ident, "z")]),
            (r#""{}" w"#, &[(Str, r#""{}""#), (Ident, "w")]),
            (r#""\\" v"#, &[(Str, r#""\\""#), (Ident, "v")]),
        ];
        for (src, want) in cases {
            let got: Vec<(TokKind, String)> = kinds(src);
            let want: Vec<(TokKind, String)> =
                want.iter().map(|&(k, s)| (k, s.to_string())).collect();
            assert_eq!(got, want, "lexing {src:?}");
        }
    }

    /// Nested block comments: one comment token per table row, with the
    /// remaining code stream intact.
    #[test]
    fn block_comment_table() {
        let cases: &[(&str, usize, &[&str])] = &[
            ("/* a */ x", 1, &["x"]),
            ("/* a /* b */ c */ x", 1, &["x"]),
            ("/* a /* b /* c */ */ */ x", 1, &["x"]),
            // `/*/` opens but does not close (matches rustc).
            ("/* /*/ */ */ x", 1, &["x"]),
            // Unterminated comment swallows to EOF without panicking.
            ("x /* open", 1, &["x"]),
            // Quotes inside block comments are not string openers.
            ("/* \"unclosed */ x", 1, &["x"]),
        ];
        for (src, n_comments, code) in cases {
            let lexed = lex(src);
            assert_eq!(lexed.comments.len(), *n_comments, "comments in {src:?}");
            let idents: Vec<&str> = lexed.toks.iter().map(|t| t.text.as_str()).collect();
            assert_eq!(&idents, code, "code stream of {src:?}");
        }
    }

    /// Brace matching must survive braces hidden inside every literal form —
    /// this is the invariant the parse layer's span logic builds on.
    #[test]
    fn brace_balance_survives_literal_braces() {
        let src = r####"
fn f() {
    let a = '{';
    let b = "}}{";
    let c = r#"{"#;
    let d = b'{';
    if x { g('}'); }
}
"####;
        let lexed = lex(src);
        let mut depth = 0i64;
        for t in &lexed.toks {
            if t.kind == TokKind::Punct && t.text == "{" {
                depth += 1;
            } else if t.kind == TokKind::Punct && t.text == "}" {
                depth -= 1;
            }
            assert!(depth >= 0, "negative depth at {:?}", t);
        }
        assert_eq!(depth, 0, "unbalanced braces");
    }
}
