//! The lexer under the rules: strips comments and blanks string-literal
//! contents, so a rule token never matches inside prose or text.
//!
//! It is a single forward pass over the lines of a file that carries
//! nested block comments and (raw) strings across lines. It is total:
//! any byte sequence lexes to something, and the same text always
//! lexes the same way.

/// Cross-line lexer state: open block comments and string literals.
#[derive(Debug, Default)]
pub struct LexState {
    /// How many `/*` are open; block comments nest in Rust.
    block_comment_depth: usize,
    /// `Some(hashes)` inside a (raw) string literal; `hashes` is the
    /// `#` count of a raw string, 0 for a normal `"…"` literal.
    in_string: Option<usize>,
}

impl LexState {
    /// The code of one physical line: comments removed, string contents
    /// blanked (the quotes stay).
    pub fn code(&mut self, line: &str) -> String {
        let chars: Vec<char> = line.chars().collect();
        let mut code = String::with_capacity(line.len());
        let mut i = 0;
        while i < chars.len() {
            let next = chars.get(i + 1).copied();
            if self.block_comment_depth > 0 {
                match (chars[i], next) {
                    ('*', Some('/')) => {
                        self.block_comment_depth -= 1;
                        i += 2;
                    }
                    ('/', Some('*')) => {
                        self.block_comment_depth += 1;
                        i += 2;
                    }
                    _ => i += 1,
                }
                continue;
            }
            if let Some(hashes) = self.in_string {
                if chars[i] == '\\' && hashes == 0 {
                    i += 2;
                } else if chars[i] == '"' && (1..=hashes).all(|k| chars.get(i + k) == Some(&'#')) {
                    self.in_string = None;
                    code.push('"');
                    i += 1 + hashes;
                } else {
                    i += 1;
                }
                continue;
            }
            match (chars[i], next) {
                ('/', Some('/')) => break,
                ('/', Some('*')) => {
                    self.block_comment_depth = 1;
                    i += 2;
                }
                ('"', _) => {
                    code.push('"');
                    self.in_string = Some(0);
                    i += 1;
                }
                ('r', Some('"' | '#')) => {
                    // Raw string r"…" or r#"…"# (any depth), or an
                    // identifier that merely starts with `r`.
                    let hashes = chars[i + 1..].iter().take_while(|&&c| c == '#').count();
                    if chars.get(i + 1 + hashes) == Some(&'"') {
                        code.push('"');
                        self.in_string = Some(hashes);
                        i += 2 + hashes;
                    } else {
                        code.push('r');
                        i += 1;
                    }
                }
                ('\'', _) => {
                    // A char literal closes within a few characters
                    // ('x', '\n', '\u{..}'); a lifetime does not.
                    code.push('\'');
                    i = close_of_char_literal(&chars, i).map_or(i + 1, |close| close + 1);
                }
                (c, _) => {
                    code.push(c);
                    i += 1;
                }
            }
        }
        code
    }
}

/// If `chars[start]` opens a char literal, the index of its closing
/// quote; `None` for a lifetime.
fn close_of_char_literal(chars: &[char], start: usize) -> Option<usize> {
    if chars.get(start + 1) == Some(&'\\') {
        // The escaped character sits at `start + 2` and may itself be a
        // quote (`'\''`), so the closing quote comes after it.
        let limit = (start + 12).min(chars.len());
        return (start + 3..limit).find(|&j| chars[j] == '\'');
    }
    (chars.get(start + 1).is_some() && chars.get(start + 2) == Some(&'\'')).then_some(start + 2)
}

/// Is `c` an identifier character?
pub fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The byte offset of the first standalone `word` token in `code`.
pub fn token_at(code: &str, word: &str) -> Option<usize> {
    code.match_indices(word).map(|(pos, _)| pos).find(|&pos| {
        let before = code[..pos].chars().next_back();
        let after = code[pos + word.len()..].chars().next();
        !before.is_some_and(is_ident_char) && !after.is_some_and(is_ident_char)
    })
}

/// Does `code` contain `word` as a standalone token?
pub fn has_token(code: &str, word: &str) -> bool {
    token_at(code, word).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The code of each line of `text`, lexed in order and rejoined.
    fn code(text: &str) -> String {
        let mut lex = LexState::default();
        let lines: Vec<String> = text.lines().map(|line| lex.code(line)).collect();
        lines.join("\n")
    }

    #[test]
    fn nested_block_comments_stay_comments() {
        assert_eq!(code("/* a /* b par_map() */ c */ fn f() {}"), " fn f() {}");
    }

    #[test]
    fn nested_block_comment_across_lines() {
        assert_eq!(code("/* a /* b */\nc */ x\nfn g() {}"), "\n x\nfn g() {}");
    }

    #[test]
    fn raw_string_fences_survive_round_trip() {
        assert_eq!(code("r##\"a \"# par_map() \"## {"), "\"\" {");
    }

    #[test]
    fn multiline_raw_strings_are_blanked() {
        assert_eq!(code("r#\"a par_map()\nb \" c\n\"#; d"), "\"\n\n\"; d");
    }

    #[test]
    fn char_literals_and_lifetimes_do_not_derail_the_lexer() {
        assert_eq!(code("c == '\"' || c == '{'"), "c == ' || c == '");
        assert_eq!(code("fn g<'a>(s: &'a str) {}"), "fn g<'a>(s: &'a str) {}");
    }

    #[test]
    fn escaped_char_literals_close_after_the_escape() {
        // Closing `'\''` at its escaped quote would read the next `','`
        // as a literal and leave the `{` as code.
        assert_eq!(code("['\\'','{']"), "[',']");
        assert_eq!(code("['\\\\','{', '\\u{7b}']"), "[',', ']");
    }
}
