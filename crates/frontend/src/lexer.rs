//! Hand-rolled lexer for `minisplit`.
//!
//! Supports `//` line comments and `/* ... */` block comments (non-nesting),
//! decimal integer and floating-point literals, and the operators listed in
//! [`crate::token::TokenKind`].

use crate::error::FrontendError;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Lexes `src` into a token stream terminated by a single `Eof` token.
///
/// # Errors
///
/// Returns a [`FrontendError`] on the first invalid character, malformed
/// numeric literal, or unterminated block comment.
pub fn lex(src: &str) -> Result<Vec<Token<'_>>, FrontendError> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn run(mut self) -> Result<Vec<Token<'a>>, FrontendError> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia()?;
            let start = self.pos;
            let Some(b) = self.peek() else {
                out.push(Token {
                    kind: TokenKind::Eof,
                    span: Span::new(start as u32, start as u32),
                });
                return Ok(out);
            };
            let kind = match b {
                b'0'..=b'9' => self.number()?,
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident(),
                b'(' => self.one(TokenKind::LParen),
                b')' => self.one(TokenKind::RParen),
                b'{' => self.one(TokenKind::LBrace),
                b'}' => self.one(TokenKind::RBrace),
                b'[' => self.one(TokenKind::LBracket),
                b']' => self.one(TokenKind::RBracket),
                b';' => self.one(TokenKind::Semi),
                b',' => self.one(TokenKind::Comma),
                b'+' => self.one(TokenKind::Plus),
                b'-' => self.one(TokenKind::Minus),
                b'*' => self.one(TokenKind::Star),
                b'/' => self.one(TokenKind::Slash),
                b'%' => self.one(TokenKind::Percent),
                b'=' => self.one_or_two(b'=', TokenKind::Assign, TokenKind::EqEq),
                b'<' => self.one_or_two(b'=', TokenKind::Lt, TokenKind::Le),
                b'>' => self.one_or_two(b'=', TokenKind::Gt, TokenKind::Ge),
                b'!' => self.one_or_two(b'=', TokenKind::Not, TokenKind::NotEq),
                b'&' => self.pair(b'&', TokenKind::AndAnd)?,
                b'|' => self.pair(b'|', TokenKind::OrOr)?,
                other => {
                    return Err(FrontendError::lex(
                        Span::new(start as u32, start as u32 + 1),
                        format!("unexpected character `{}`", other as char),
                    ))
                }
            };
            out.push(Token {
                kind,
                span: Span::new(start as u32, self.pos as u32),
            });
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    #[allow(dead_code)]
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn one(&mut self, kind: TokenKind<'a>) -> TokenKind<'a> {
        self.pos += 1;
        kind
    }

    fn one_or_two(
        &mut self,
        second: u8,
        single: TokenKind<'a>,
        double: TokenKind<'a>,
    ) -> TokenKind<'a> {
        self.pos += 1;
        if self.peek() == Some(second) {
            self.pos += 1;
            double
        } else {
            single
        }
    }

    fn pair(&mut self, second: u8, kind: TokenKind<'a>) -> Result<TokenKind<'a>, FrontendError> {
        let start = self.pos;
        self.pos += 1;
        if self.peek() == Some(second) {
            self.pos += 1;
            Ok(kind)
        } else {
            Err(FrontendError::lex(
                Span::new(start as u32, start as u32 + 1),
                format!(
                    "expected `{}{}`; single `{}` is not an operator",
                    second as char, second as char, second as char
                ),
            ))
        }
    }

    fn skip_trivia(&mut self) -> Result<(), FrontendError> {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\r' | b'\n') => {
                    self.pos += 1;
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.pos;
                    self.pos += 2;
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some(b'*'), Some(b'/')) => {
                                self.pos += 2;
                                break;
                            }
                            (Some(_), _) => self.pos += 1,
                            (None, _) => {
                                return Err(FrontendError::lex(
                                    Span::new(start as u32, self.pos as u32),
                                    "unterminated block comment",
                                ));
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn ident(&mut self) -> TokenKind<'a> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = &self.src[start..self.pos];
        TokenKind::keyword(text).unwrap_or(TokenKind::Ident(text))
    }

    fn number(&mut self) -> Result<TokenKind<'a>, FrontendError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') && matches!(self.peek2(), Some(b'0'..=b'9')) {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            let mark = self.pos;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                is_float = true;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            } else {
                // Not an exponent after all (e.g. identifier following).
                self.pos = mark;
            }
        }
        let text = &self.src[start..self.pos];
        let span = Span::new(start as u32, self.pos as u32);
        if is_float {
            text.parse::<f64>()
                .map(TokenKind::FloatLit)
                .map_err(|e| FrontendError::lex(span, format!("invalid float literal: {e}")))
        } else {
            text.parse::<i64>()
                .map(TokenKind::IntLit)
                .map_err(|e| FrontendError::lex(span, format!("invalid integer literal: {e}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src)
            .expect("lex should succeed")
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_simple_assignment() {
        assert_eq!(
            kinds("x = 42;"),
            vec![
                TokenKind::Ident("x"),
                TokenKind::Assign,
                TokenKind::IntLit(42),
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_operators() {
        assert_eq!(
            kinds("== != <= >= < > && || ! = + - * / %"),
            vec![
                TokenKind::EqEq,
                TokenKind::NotEq,
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::Lt,
                TokenKind::Gt,
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::Not,
                TokenKind::Assign,
                TokenKind::Plus,
                TokenKind::Minus,
                TokenKind::Star,
                TokenKind::Slash,
                TokenKind::Percent,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_floats_and_ints() {
        assert_eq!(
            kinds("1 2.5 3e2 4.5e-1 7"),
            vec![
                TokenKind::IntLit(1),
                TokenKind::FloatLit(2.5),
                TokenKind::FloatLit(300.0),
                TokenKind::FloatLit(0.45),
                TokenKind::IntLit(7),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn int_followed_by_ident_e_is_not_exponent() {
        assert_eq!(
            kinds("3 elephants"),
            vec![
                TokenKind::IntLit(3),
                TokenKind::Ident("elephants"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn skips_line_and_block_comments() {
        assert_eq!(
            kinds("a // comment\n /* block \n more */ b"),
            vec![TokenKind::Ident("a"), TokenKind::Ident("b"), TokenKind::Eof,]
        );
    }

    #[test]
    fn unterminated_block_comment_errors() {
        let err = lex("x /* oops").unwrap_err();
        assert!(err.message().contains("unterminated"));
    }

    #[test]
    fn single_ampersand_errors() {
        assert!(lex("a & b").is_err());
        assert!(lex("a | b").is_err());
    }

    #[test]
    fn unknown_character_errors() {
        let err = lex("a ? b").unwrap_err();
        assert!(err.message().contains('?'), "{}", err.message());
    }

    #[test]
    fn keywords_are_recognized() {
        assert_eq!(
            kinds("shared int barrier MYPROC"),
            vec![
                TokenKind::Shared,
                TokenKind::Int,
                TokenKind::Barrier,
                TokenKind::MyProc,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn spans_are_accurate() {
        let toks = lex("ab cd").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(3, 5));
        assert_eq!(toks[2].span, Span::new(5, 5));
    }

    #[test]
    fn huge_integer_literal_errors() {
        assert!(lex("99999999999999999999999").is_err());
    }
}
