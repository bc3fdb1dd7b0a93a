//! A small hand-rolled Rust lexer — just enough token awareness for the
//! lint rules, with zero external dependencies (the build is offline).
//!
//! The lexer classifies source text into idents, punctuation, literals
//! (strings, raw strings, byte/C strings, chars, numbers), lifetimes and
//! comments, tracking the 1-based line of every token. It does **not**
//! parse: rules pattern-match short token sequences (`Ordering` `::`
//! `SeqCst`, `.` `unwrap` `(`, …) and use brace-depth counting for scope
//! questions. What it buys over the previous line scanner is exactness
//! about *what is code*: a keyword inside a string literal or a comment is
//! a [`TokenKind::Str`]/[`TokenKind::LineComment`] token, never an ident,
//! so rules can neither fire on prose nor be masked by it.
//!
//! Handled: line comments (`//`, `///`, `//!`), nested block comments
//! (`/* /* */ */`), string literals with escapes, raw strings `r"…"` /
//! `r#"…"#` (any hash depth, plus `br`/`cr` prefixes), byte/C strings,
//! char literals vs lifetimes (`'a'` vs `'a`), raw idents (`r#match`),
//! and numeric literals (enough to not mis-lex `0..n` ranges).

/// What a token is. Rules mostly care about `Ident`, `Punct` and the
/// comment kinds; literal kinds exist so their *content* is never scanned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (also raw idents, lexed without the `r#`).
    Ident,
    /// One punctuation character (`.`, `:`, `{`, `!`, …).
    Punct,
    /// `"…"`, `b"…"` or `c"…"` string literal, escapes handled.
    Str,
    /// `r"…"` / `r#"…"#` / `br#"…"#` raw string literal.
    RawStr,
    /// Char or byte-char literal (`'x'`, `'\n'`, `b'x'`).
    Char,
    /// Lifetime (`'a`, `'static`) — distinct from [`TokenKind::Char`].
    Lifetime,
    /// Numeric literal (integer or float, suffixes included).
    Number,
    /// `// …` comment (doc comments `///` and `//!` included).
    LineComment,
    /// `/* … */` comment, nesting handled (doc `/** … */` included).
    BlockComment,
}

/// One lexed token: kind, verbatim text, and the 1-based line where it
/// starts. Multi-line tokens (block comments, multi-line strings) keep
/// their full text; `line` is the opening line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// The exact source text of the token.
    pub text: String,
    /// 1-based line number of the token's first character.
    pub line: usize,
}

impl Token {
    /// 1-based line number of the token's *last* character (differs from
    /// [`Token::line`] only for multi-line tokens).
    pub fn end_line(&self) -> usize {
        self.line + self.text.bytes().filter(|&b| b == b'\n').count()
    }
}

/// Lexes `src` into tokens, skipping whitespace. Unterminated constructs
/// (a string or block comment running to EOF) produce a final token with
/// whatever text remains — the lexer never fails, so the lint can always
/// report *something* useful about a malformed file (rustc will reject it
/// anyway).
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    out: Vec<Token>,
}

impl Lexer<'_> {
    fn run(mut self) -> Vec<Token> {
        while self.pos < self.src.len() {
            let b = self.src[self.pos];
            match b {
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(self.pos),
                b'\'' => self.char_or_lifetime(),
                b'b' | b'c' | b'r' if self.literal_prefix() => {}
                _ if is_ident_start(b) => self.ident(),
                _ if b.is_ascii_digit() => self.number(),
                _ => {
                    let start = self.pos;
                    // Multi-byte UTF-8 (only legal in comments/strings/
                    // idents in real Rust; lumped into one punct here).
                    self.pos += utf8_len(b);
                    self.push(TokenKind::Punct, start, self.line);
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokenKind, start: usize, start_line: usize) {
        let text = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
        self.out.push(Token {
            kind,
            text,
            line: start_line,
        });
    }

    /// Handles `b"…"`, `c"…"`, `r"…"`, `r#"…"#`, `br#"…"#`, `b'x'` and raw
    /// idents `r#name`. Returns true when it consumed a literal; false
    /// leaves the caller to lex a plain ident starting with b/c/r.
    fn literal_prefix(&mut self) -> bool {
        let start = self.pos;
        let b0 = self.src[self.pos];
        // True when offset `off` starts `#*"` — the hashes-then-quote tail
        // of a raw string. (A raw *ident* like r#match has an ident char
        // after the hash instead, so this cleanly separates the two.)
        let raw_at = |off: usize| -> bool {
            let mut i = self.pos + off;
            while self.src.get(i) == Some(&b'#') {
                i += 1;
            }
            self.src.get(i) == Some(&b'"')
        };
        match b0 {
            b'r' if self.peek(1) == Some(b'"') || (self.peek(1) == Some(b'#') && raw_at(1)) => {
                self.raw_string(start, 1);
                true
            }
            b'b' | b'c' if self.peek(1) == Some(b'"') => {
                self.pos += 1;
                self.string(start);
                true
            }
            b'b' if self.peek(1) == Some(b'\'') => {
                // Byte-char literal b'x'.
                self.pos += 1;
                self.char_literal(start);
                true
            }
            b'b' | b'c'
                if self.peek(1) == Some(b'r')
                    && (self.peek(2) == Some(b'"')
                        || (self.peek(2) == Some(b'#') && raw_at(2))) =>
            {
                self.raw_string(start, 2);
                true
            }
            b'r' if self.peek(1) == Some(b'#') && self.peek(2).is_some_and(is_ident_start) => {
                // Raw ident r#match: skip the prefix, lex as ident.
                self.pos += 2;
                self.ident_from(start);
                true
            }
            _ => false,
        }
    }

    fn line_comment(&mut self) {
        let start = self.pos;
        while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
            self.pos += 1;
        }
        self.push(TokenKind::LineComment, start, self.line);
    }

    fn block_comment(&mut self) {
        let start = self.pos;
        let start_line = self.line;
        self.pos += 2;
        let mut depth = 1usize;
        while self.pos < self.src.len() && depth > 0 {
            match self.src[self.pos] {
                b'/' if self.peek(1) == Some(b'*') => {
                    depth += 1;
                    self.pos += 2;
                }
                b'*' if self.peek(1) == Some(b'/') => {
                    depth -= 1;
                    self.pos += 2;
                }
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        self.push(TokenKind::BlockComment, start, start_line);
    }

    /// Lexes a `"…"` body starting at the current `"`; `start` points at
    /// the literal's first byte (which may be a `b`/`c` prefix).
    fn string(&mut self, start: usize) {
        let start_line = self.line;
        self.pos += 1; // opening quote
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b'\\' => self.pos += 2,
                b'"' => {
                    self.pos += 1;
                    break;
                }
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        self.push(TokenKind::Str, start, start_line);
    }

    /// Lexes `r#*"…"#*` with `prefix_len` bytes of r/br/cr prefix.
    fn raw_string(&mut self, start: usize, prefix_len: usize) {
        let start_line = self.line;
        self.pos += prefix_len;
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.pos += 1;
        }
        self.pos += 1; // opening quote
        'scan: while self.pos < self.src.len() {
            match self.src[self.pos] {
                b'"' => {
                    // Need `hashes` hashes to close.
                    let mut ok = true;
                    for h in 0..hashes {
                        if self.src.get(self.pos + 1 + h) != Some(&b'#') {
                            ok = false;
                            break;
                        }
                    }
                    self.pos += 1;
                    if ok {
                        self.pos += hashes;
                        break 'scan;
                    }
                }
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        self.push(TokenKind::RawStr, start, start_line);
    }

    /// `'` starts either a char literal or a lifetime. Scan ahead: an
    /// escape (`'\…`) or a closing quote after one scalar means char; an
    /// ident run without a closing quote means lifetime.
    fn char_or_lifetime(&mut self) {
        let start = self.pos;
        if self.peek(1) == Some(b'\\') {
            self.char_literal(start);
            return;
        }
        // 'x' (any single scalar, possibly multi-byte) followed by '.
        if let Some(b1) = self.peek(1) {
            let scalar_len = utf8_len(b1);
            if self.peek(1 + scalar_len) == Some(b'\'') {
                self.char_literal(start);
                return;
            }
        }
        // Lifetime: ' + ident run.
        self.pos += 1;
        while self.pos < self.src.len() && is_ident_char(self.src[self.pos]) {
            self.pos += 1;
        }
        self.push(TokenKind::Lifetime, start, self.line);
    }

    /// Consumes a char literal starting at the `'` (or the `b` of `b'x'`;
    /// `start` points at the literal's first byte either way).
    fn char_literal(&mut self, start: usize) {
        self.pos += 1; // opening quote
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b'\\' => self.pos += 2,
                b'\'' => {
                    self.pos += 1;
                    break;
                }
                _ => self.pos += utf8_len(self.src[self.pos]),
            }
        }
        self.push(TokenKind::Char, start, self.line);
    }

    fn ident(&mut self) {
        let start = self.pos;
        self.ident_from(start);
    }

    fn ident_from(&mut self, start: usize) {
        while self.pos < self.src.len() && is_ident_char(self.src[self.pos]) {
            self.pos += 1;
        }
        self.push(TokenKind::Ident, start, self.line);
    }

    /// Numbers need just enough care that `0..n` lexes as number-dot-dot-
    /// ident rather than swallowing the range dots.
    fn number(&mut self) {
        let start = self.pos;
        while self.pos < self.src.len()
            && (self.src[self.pos].is_ascii_alphanumeric() || self.src[self.pos] == b'_')
        {
            self.pos += 1;
        }
        // A fraction only when `.` is followed by a digit (so `1..n` and
        // `1.max(2)` both stop at the integer part).
        if self.peek(0) == Some(b'.') && self.peek(1).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
            while self.pos < self.src.len()
                && (self.src[self.pos].is_ascii_alphanumeric() || self.src[self.pos] == b'_')
            {
                self.pos += 1;
            }
        }
        self.push(TokenKind::Number, start, self.line);
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

fn utf8_len(b: u8) -> usize {
    match b {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_punct() {
        let toks = kinds("fn f(x: u32) -> u32 { x }");
        assert_eq!(toks[0], (TokenKind::Ident, "fn".into()));
        assert_eq!(toks[1], (TokenKind::Ident, "f".into()));
        assert_eq!(toks[2], (TokenKind::Punct, "(".into()));
        assert!(toks.iter().any(|t| t.1 == "{"));
    }

    #[test]
    fn string_contents_are_one_token() {
        let toks = kinds(r#"let s = "unsafe .unwrap() // ORDERING:";"#);
        let strs: Vec<_> = toks.iter().filter(|t| t.0 == TokenKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].1.contains("unsafe"));
        // No Ident token for the words inside the string.
        assert!(!toks
            .iter()
            .any(|t| t.0 == TokenKind::Ident && t.1 == "unsafe"));
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let toks = kinds(r#"let s = "a \" b"; unsafe_token"#);
        assert_eq!(toks.iter().filter(|t| t.0 == TokenKind::Str).count(), 1);
        assert!(toks
            .iter()
            .any(|t| t.0 == TokenKind::Ident && t.1 == "unsafe_token"));
    }

    #[test]
    fn raw_strings_any_hash_depth() {
        let src = "let a = r\"x\"; let b = r#\"y \" still\"#; let c = r##\"z \"# deep\"##;";
        let raws: Vec<_> = lex(src)
            .into_iter()
            .filter(|t| t.kind == TokenKind::RawStr)
            .collect();
        assert_eq!(raws.len(), 3);
        assert!(raws[1].text.contains("still"));
        assert!(raws[2].text.contains("deep"));
    }

    #[test]
    fn byte_and_c_string_prefixes() {
        let src = "let a = b\"bytes\"; let b = c\"cstr\"; let c = br#\"raw\"#; let d = b'x';";
        let toks = lex(src);
        assert_eq!(toks.iter().filter(|t| t.kind == TokenKind::Str).count(), 2);
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokenKind::RawStr).count(),
            1
        );
        assert_eq!(toks.iter().filter(|t| t.kind == TokenKind::Char).count(), 1);
    }

    #[test]
    fn raw_ident_is_an_ident_not_a_raw_string() {
        let toks = kinds("let r#match = 1;");
        assert!(toks
            .iter()
            .any(|t| t.0 == TokenKind::Ident && t.1.ends_with("match")));
        assert!(!toks.iter().any(|t| t.0 == TokenKind::RawStr));
    }

    #[test]
    fn char_vs_lifetime() {
        let toks = kinds("fn f<'a>(x: &'a str) -> char { 'x' } // plus '\\n'");
        assert_eq!(
            toks.iter().filter(|t| t.0 == TokenKind::Lifetime).count(),
            2
        );
        assert_eq!(toks.iter().filter(|t| t.0 == TokenKind::Char).count(), 1);
        let toks = kinds(r"let c = '\n'; let s: &'static str = S;");
        assert_eq!(toks.iter().filter(|t| t.0 == TokenKind::Char).count(), 1);
        assert_eq!(
            toks.iter().filter(|t| t.0 == TokenKind::Lifetime).count(),
            1
        );
    }

    #[test]
    fn line_and_nested_block_comments() {
        let src = "code(); // unsafe prose\n/* outer /* inner */ still comment */ after();";
        let toks = lex(src);
        assert_eq!(
            toks.iter()
                .filter(|t| t.kind == TokenKind::LineComment)
                .count(),
            1
        );
        let blocks: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::BlockComment)
            .collect();
        assert_eq!(blocks.len(), 1);
        assert!(blocks[0].text.contains("still comment"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text == "after"));
    }

    #[test]
    fn line_numbers_track_multiline_tokens() {
        let src = "a\n/* two\nlines */\nb\n\"str\nlit\"\nc";
        let toks = lex(src);
        let find = |name: &str| toks.iter().find(|t| t.text == name).expect("tok").line;
        assert_eq!(find("a"), 1);
        assert_eq!(find("b"), 4);
        assert_eq!(find("c"), 7);
        let block = toks
            .iter()
            .find(|t| t.kind == TokenKind::BlockComment)
            .expect("block");
        assert_eq!((block.line, block.end_line()), (2, 3));
    }

    #[test]
    fn numbers_do_not_swallow_range_dots() {
        let toks = kinds("for i in 0..10 { x(1.5, 2.0e3, 0xff_u32); }");
        assert!(toks.iter().any(|t| t.0 == TokenKind::Number && t.1 == "0"));
        assert!(toks.iter().any(|t| t.0 == TokenKind::Number && t.1 == "10"));
        assert!(toks
            .iter()
            .any(|t| t.0 == TokenKind::Number && t.1 == "1.5"));
        assert_eq!(
            toks.iter()
                .filter(|t| t.0 == TokenKind::Punct && t.1 == ".")
                .count(),
            2,
            "the two range dots"
        );
    }

    #[test]
    fn unterminated_constructs_do_not_panic() {
        for src in ["\"never closed", "/* never closed", "r#\"never closed"] {
            let toks = lex(src);
            assert!(!toks.is_empty());
        }
    }
}
