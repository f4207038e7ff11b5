//! Token kinds produced by the `minisplit` lexer.

use crate::span::Span;
use std::fmt;

/// A lexed token: a kind plus the source span it covers. Identifier text
/// is borrowed from the source, so a token is a small `Copy` value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'a> {
    /// What kind of token this is.
    pub kind: TokenKind<'a>,
    /// Where in the source it appeared.
    pub span: Span,
}

/// The set of token kinds in `minisplit`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind<'a> {
    // Literals and identifiers.
    /// Integer literal, e.g. `42`.
    IntLit(i64),
    /// Floating-point literal, e.g. `3.5`.
    FloatLit(f64),
    /// Identifier, e.g. `foo`, as it stands in the source.
    Ident(&'a str),

    // Keywords.
    /// `shared`
    Shared,
    /// `int`
    Int,
    /// `double`
    Double,
    /// `bool`
    Bool,
    /// `flag`
    Flag,
    /// `lock`
    Lock,
    /// `unlock`
    Unlock,
    /// `fn`
    Fn,
    /// `if`
    If,
    /// `else`
    Else,
    /// `while`
    While,
    /// `for`
    For,
    /// `barrier`
    Barrier,
    /// `post`
    Post,
    /// `wait`
    Wait,
    /// `return`
    Return,
    /// `true`
    True,
    /// `false`
    False,
    /// `MYPROC`
    MyProc,
    /// `PROCS`
    Procs,
    /// `work` — an abstract local-computation statement with a cost argument,
    /// used by kernels to model computation without numerics.
    Work,

    // Punctuation and operators.
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `=`
    Assign,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Not,

    /// End of input.
    Eof,
}

impl TokenKind<'_> {
    /// Returns the keyword token for `ident`, if it is a keyword.
    pub fn keyword(ident: &str) -> Option<TokenKind<'static>> {
        Some(match ident {
            "shared" => TokenKind::Shared,
            "int" => TokenKind::Int,
            "double" => TokenKind::Double,
            "bool" => TokenKind::Bool,
            "flag" => TokenKind::Flag,
            "lock" => TokenKind::Lock,
            "unlock" => TokenKind::Unlock,
            "fn" => TokenKind::Fn,
            "if" => TokenKind::If,
            "else" => TokenKind::Else,
            "while" => TokenKind::While,
            "for" => TokenKind::For,
            "barrier" => TokenKind::Barrier,
            "post" => TokenKind::Post,
            "wait" => TokenKind::Wait,
            "return" => TokenKind::Return,
            "true" => TokenKind::True,
            "false" => TokenKind::False,
            "MYPROC" => TokenKind::MyProc,
            "PROCS" => TokenKind::Procs,
            "work" => TokenKind::Work,
            _ => return None,
        })
    }

    /// A short human-readable description used in parse errors.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::IntLit(v) => format!("integer literal `{v}`"),
            TokenKind::FloatLit(v) => format!("float literal `{v}`"),
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::Eof => "end of input".to_string(),
            other => format!("`{other}`"),
        }
    }
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TokenKind::IntLit(v) => return write!(f, "{v}"),
            TokenKind::FloatLit(v) => return write!(f, "{v}"),
            TokenKind::Ident(s) => return write!(f, "{s}"),
            TokenKind::Shared => "shared",
            TokenKind::Int => "int",
            TokenKind::Double => "double",
            TokenKind::Bool => "bool",
            TokenKind::Flag => "flag",
            TokenKind::Lock => "lock",
            TokenKind::Unlock => "unlock",
            TokenKind::Fn => "fn",
            TokenKind::If => "if",
            TokenKind::Else => "else",
            TokenKind::While => "while",
            TokenKind::For => "for",
            TokenKind::Barrier => "barrier",
            TokenKind::Post => "post",
            TokenKind::Wait => "wait",
            TokenKind::Return => "return",
            TokenKind::True => "true",
            TokenKind::False => "false",
            TokenKind::MyProc => "MYPROC",
            TokenKind::Procs => "PROCS",
            TokenKind::Work => "work",
            TokenKind::LParen => "(",
            TokenKind::RParen => ")",
            TokenKind::LBrace => "{",
            TokenKind::RBrace => "}",
            TokenKind::LBracket => "[",
            TokenKind::RBracket => "]",
            TokenKind::Semi => ";",
            TokenKind::Comma => ",",
            TokenKind::Assign => "=",
            TokenKind::Plus => "+",
            TokenKind::Minus => "-",
            TokenKind::Star => "*",
            TokenKind::Slash => "/",
            TokenKind::Percent => "%",
            TokenKind::EqEq => "==",
            TokenKind::NotEq => "!=",
            TokenKind::Lt => "<",
            TokenKind::Le => "<=",
            TokenKind::Gt => ">",
            TokenKind::Ge => ">=",
            TokenKind::AndAnd => "&&",
            TokenKind::OrOr => "||",
            TokenKind::Not => "!",
            TokenKind::Eof => "<eof>",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_round_trip_through_display() {
        for kw in [
            "shared", "int", "double", "bool", "flag", "lock", "unlock", "fn", "if", "else",
            "while", "for", "barrier", "post", "wait", "return", "true", "false", "MYPROC",
            "PROCS", "work",
        ] {
            let tok = TokenKind::keyword(kw).expect("should be a keyword");
            assert_eq!(tok.to_string(), kw);
        }
    }

    #[test]
    fn non_keywords_are_none() {
        assert_eq!(TokenKind::keyword("foo"), None);
        assert_eq!(TokenKind::keyword("Int"), None);
        assert_eq!(TokenKind::keyword("myproc"), None);
    }

    #[test]
    fn describe_quotes_punctuation() {
        assert_eq!(TokenKind::Semi.describe(), "`;`");
        assert_eq!(TokenKind::Ident("x").describe(), "identifier `x`");
    }
}
