//! Shared diagnostics framework for the static analyses.
//!
//! Every static finding — synchronization warnings ([`crate::warnings`])
//! and data-race reports ([`crate::races`]) — is rendered through one
//! [`Diagnostic`] type carrying a stable code, a severity, a primary
//! source [`Span`], and attached notes. Two renderers are provided:
//!
//! * [`Diagnostic::render`] — a rustc-style human format with the source
//!   line and a caret underline;
//! * [`Diagnostic::write_json`] — a machine format written by the std-only
//!   JSON writer of [`json`] (no serde), used by `syncoptc check --format
//!   json`.
//!
//! Diagnostic codes are documented, with minimal triggering programs, in
//! `docs/DIAGNOSTICS.md`.

use json::key;
use std::fmt;
use syncopt_frontend::error::FrontendErrorKind;
use syncopt_frontend::span::Span;
use syncopt_frontend::FrontendError;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; never affects the exit status.
    Note,
    /// Suspicious but not certainly wrong; fails `--strict` runs.
    Warning,
    /// Definitely wrong; `syncoptc check` exits nonzero.
    Error,
}

impl Severity {
    /// The lowercase label used in both renderers.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A secondary message attached to a [`Diagnostic`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Note {
    /// The note text.
    pub message: String,
    /// An optional source location the note refers to.
    pub span: Option<Span>,
}

/// One finding of a static analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable machine-readable code (`W...` for warnings, `R...` for
    /// races); see `docs/DIAGNOSTICS.md`.
    pub code: &'static str,
    /// Severity level.
    pub severity: Severity,
    /// Primary human-readable message.
    pub message: String,
    /// Primary source location.
    pub span: Span,
    /// Secondary locations and explanations.
    pub notes: Vec<Note>,
}

impl Diagnostic {
    /// Creates a diagnostic with no notes.
    pub fn new(
        code: &'static str,
        severity: Severity,
        message: impl Into<String>,
        span: Span,
    ) -> Self {
        Diagnostic {
            code,
            severity,
            message: message.into(),
            span,
            notes: Vec::new(),
        }
    }

    /// Attaches a note (builder style).
    #[must_use]
    pub fn with_note(mut self, message: impl Into<String>, span: Option<Span>) -> Self {
        self.notes.push(Note {
            message: message.into(),
            span,
        });
        self
    }

    /// Renders the diagnostic rustc-style against the original source:
    ///
    /// ```text
    /// error[R001]: write-write race on `Data`
    ///   --> programs/racy.ms:4:5
    ///    |
    ///  4 |     Data = MYPROC;
    ///    |     ^^^^^^^^^^^^^
    ///    = note: the racing instance executes on a different processor
    /// ```
    pub fn render(&self, src: &str, file: &str) -> String {
        let mut out = String::new();
        let (line, col) = self.span.line_col(src);
        out.push_str(&format!(
            "{}[{}]: {}\n  --> {}:{}:{}\n",
            self.severity, self.code, self.message, file, line, col
        ));
        render_snippet(&mut out, src, self.span);
        for note in &self.notes {
            match note.span {
                Some(s) => {
                    let (nl, nc) = s.line_col(src);
                    out.push_str(&format!(
                        "   = note: {} ({}:{}:{})\n",
                        note.message, file, nl, nc
                    ));
                    render_snippet(&mut out, src, s);
                }
                None => out.push_str(&format!("   = note: {}\n", note.message)),
            }
        }
        out
    }

    /// Appends the diagnostic as the JSON object emitted by `syncoptc
    /// check --format json`. Line/column fields are resolved against `src`
    /// so consumers need not re-read the source.
    pub fn write_json(&self, out: &mut String, src: &str) {
        let mut o = json::Obj::open(out);
        o.str(key!("code"), self.code);
        o.str(key!("severity"), self.severity.label());
        o.str(key!("message"), &self.message);
        write_span(o.key(key!("span")), self.span, src);
        json::write_array(o.key(key!("notes")), &self.notes, |out, n| {
            let mut note = json::Obj::open(out);
            note.str(key!("message"), &n.message);
            if let Some(s) = n.span {
                write_span(note.key(key!("span")), s, src);
            }
            note.close();
        });
        o.close();
    }
}

/// Appends a span as a JSON object with both byte offsets and line/column.
fn write_span(out: &mut String, span: Span, src: &str) {
    let (line, col) = span.line_col(src);
    json::write_ints(
        out,
        &[
            (key!("start"), u64::from(span.start)),
            (key!("end"), u64::from(span.end)),
            (key!("line"), line as u64),
            (key!("col"), col as u64),
        ],
    );
}

/// The longest source line a snippet echoes whole, in bytes.
const SNIPPET_LINE: usize = 160;
/// When a longer line is cut: the bytes kept on each side of the span, and
/// the most carets drawn under it.
const SNIPPET_CONTEXT: usize = 60;
const SNIPPET_CARETS: usize = 80;
/// What stands where a cut line lost text.
const ELLIPSIS: &str = "...";

/// Appends the `NN | <source line>` + caret-underline gutter for `span`.
/// A line longer than [`SNIPPET_LINE`] is cut to a window around the span
/// (a source can be one 200 KB line), marked with [`ELLIPSIS`] where text
/// was dropped, so every rendered line stays a few hundred bytes.
fn render_snippet(out: &mut String, src: &str, span: Span) {
    let start = floor_char_boundary(src, (span.start as usize).min(src.len()));
    let line_start = src[..start].rfind('\n').map_or(0, |i| i + 1);
    let line_end = src[line_start..]
        .find('\n')
        .map_or(src.len(), |i| line_start + i);
    let line_no = src[..start].bytes().filter(|&b| b == b'\n').count() + 1;
    // Caret width: clamp the span to the first line it touches; zero-width
    // (synthesized) spans still get one caret.
    let mut width = (span.end as usize)
        .min(line_end)
        .saturating_sub(start)
        .max(1);
    let (mut from, mut to) = (line_start, line_end);
    if line_end - line_start > SNIPPET_LINE {
        width = width.min(SNIPPET_CARETS);
        from = floor_char_boundary(src, start.saturating_sub(SNIPPET_CONTEXT).max(line_start));
        to = ceil_char_boundary(src, (start + width + SNIPPET_CONTEXT).min(line_end));
        width = width.min(to - start).max(1);
    }
    let (head, tail) = (
        if from > line_start { ELLIPSIS } else { "" },
        if to < line_end { ELLIPSIS } else { "" },
    );
    let col = head.len() + (start - from);
    let gutter = line_no.to_string().len().max(2);
    out.push_str(&format!("{:gutter$} |\n", "", gutter = gutter));
    out.push_str(&format!(
        "{:>gutter$} | {head}{}{tail}\n",
        line_no,
        &src[from..to],
        gutter = gutter
    ));
    out.push_str(&format!(
        "{:gutter$} | {}{}\n",
        "",
        " ".repeat(col),
        "^".repeat(width),
        gutter = gutter
    ));
}

/// The largest char boundary of `s` at or below `i`.
fn floor_char_boundary(s: &str, mut i: usize) -> usize {
    while !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// The smallest char boundary of `s` at or above `i`.
fn ceil_char_boundary(s: &str, mut i: usize) -> usize {
    while !s.is_char_boundary(i) {
        i += 1;
    }
    i
}

/// Routes a [`FrontendError`] through the shared diagnostic framework, so
/// frontend failures render with the same rustc-style snippets as the
/// static analyses (codes `E001`–`E004`, one per frontend stage, and
/// `E007` for the parser's nesting limit).
pub fn frontend_diagnostic(e: &FrontendError) -> Diagnostic {
    let code = match e.kind() {
        FrontendErrorKind::Lex => "E001",
        FrontendErrorKind::Parse => "E002",
        FrontendErrorKind::Type => "E003",
        FrontendErrorKind::Inline => "E004",
        FrontendErrorKind::Nesting => "E007",
    };
    Diagnostic::new(
        code,
        Severity::Error,
        format!("{}: {}", e.kind(), e.message()),
        e.span(),
    )
}

/// Routes an AST→CFG lowering error through the diagnostic framework
/// (code `E005`).
pub fn lower_diagnostic(e: &syncopt_ir::lower::LowerError) -> Diagnostic {
    Diagnostic::new(
        "E005",
        Severity::Error,
        format!("lowering error: {}", e.message()),
        e.span(),
    )
}

/// Sorts diagnostics deterministically: by severity (errors first), then
/// source position, then code.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then(a.span.cmp(&b.span))
            .then(a.code.cmp(b.code))
    });
}

/// Every stable diagnostic code any workspace component can emit, in
/// family order. The CLI validates `--deny`/`--allow` arguments against
/// this list, and the drift test asserts each entry is documented in
/// `docs/DIAGNOSTICS.md`.
pub const KNOWN_CODES: &[&str] = &[
    // Frontend / pipeline errors.
    "E001", "E002", "E003", "E004", "E005", "E006", "E007", // Races.
    "R001", "R002", // Synchronization shape warnings.
    "W001", "W002", "W003", // Provenance notes.
    "P001", "P002", // Lint engine: deadlock, redundancy, fence coverage.
    "D001", "D002", "D003", "L001", "L002", "F001", "F002",
];

/// Applies per-code severity overrides from the CLI: codes in `deny` are
/// forced to [`Severity::Error`], codes in `allow` are demoted to
/// [`Severity::Note`]. `deny` wins when a code appears in both lists.
/// Callers apply this *before* any blanket `--strict` promotion, so an
/// allowed code stays a note even under strict mode.
pub fn apply_severity_overrides(diags: &mut [Diagnostic], deny: &[String], allow: &[String]) {
    for d in diags.iter_mut() {
        if deny.iter().any(|c| c == d.code) {
            d.severity = Severity::Error;
        } else if allow.iter().any(|c| c == d.code) {
            d.severity = Severity::Note;
        }
    }
}

pub mod json {
    //! The workspace's one JSON writer and its parser, std-only.
    //!
    //! Every document is written straight into its caller's buffer by
    //! [`Obj`], [`Arr`] and [`write_array`]: keys known when the program is
    //! built are quoted at compile time by [`key!`], a key that is not is
    //! escaped by [`Obj::key_escaped`], and values go through
    //! [`write_int`] and [`write_escaped`]. Output is canonical — no
    //! whitespace, members in the order written, every control character
    //! escaped — so a document is always one line.
    //!
    //! [`Value`] is what [`Value::parse`] returns: documents whose numbers
    //! are integers, with every string escape of RFC 8259 — what this
    //! workspace writes and what a standard encoder writes — without serde.
    //! [`Value::write_to`] writes a parsed document back, in the same
    //! canonical form.

    use std::fmt;

    /// How deep arrays and objects may nest in a parsed document. Nothing
    /// this workspace emits comes near it; the bound exists so that a
    /// hostile document fails with an error instead of overflowing the
    /// recursive parser's stack.
    pub const MAX_DEPTH: usize = 128;

    /// A parsed JSON document. Numbers are restricted to `i64`: every
    /// quantity this workspace writes (offsets, lines, counts) is integral.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// An integer number.
        Int(i64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object; member order is preserved.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Looks up a key in an object value.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The string payload, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The integer payload, if this is a number.
        pub fn as_int(&self) -> Option<i64> {
            match self {
                Value::Int(n) => Some(*n),
                _ => None,
            }
        }

        /// The element list, if this is an array.
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }

        /// Parses a JSON document.
        ///
        /// # Errors
        ///
        /// Returns a description of the first syntax error.
        pub fn parse(text: &str) -> Result<Value, String> {
            let mut p = Parser {
                text,
                pos: 0,
                depth: 0,
            };
            p.skip_ws();
            let v = p.value()?;
            p.skip_ws();
            if p.pos != text.len() {
                return Err(format!("trailing input at byte {}", p.pos));
            }
            Ok(v)
        }

        /// Writes a parsed document back to `out` in canonical form,
        /// through the writer; `Display` renders through it. A document
        /// this workspace wrote comes back byte for byte.
        pub fn write_to(&self, out: &mut String) {
            match self {
                Value::Null => out.push_str("null"),
                Value::Bool(b) => write_bool(out, *b),
                Value::Int(n) => write_int(out, *n),
                Value::Str(s) => write_escaped(out, s),
                Value::Arr(items) => write_array(out, items, |out, v| v.write_to(out)),
                Value::Obj(fields) => {
                    let mut o = Obj::open(out);
                    for (k, v) in fields {
                        v.write_to(o.key_escaped(&[k.as_str()]));
                    }
                    o.close();
                }
            }
        }
    }

    impl fmt::Display for Value {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            // Room for a compile report, so most documents never regrow.
            let mut out = String::with_capacity(2 << 10);
            self.write_to(&mut out);
            f.write_str(&out)
        }
    }

    /// Appends `n` in decimal, formed in a stack buffer.
    pub fn write_int(out: &mut String, n: i64) {
        // The magnitude as `u64`: `i64::MIN` has none as `i64`.
        let mut m = n.unsigned_abs();
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (m % 10) as u8;
            m /= 10;
            if m == 0 {
                break;
            }
        }
        if n < 0 {
            out.push('-');
        }
        out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    }

    /// Appends `s` as a JSON string literal: the one escaper, which every
    /// string value and every escaped key goes through.
    #[inline]
    pub fn write_escaped(out: &mut String, s: &str) {
        out.reserve(s.len() + 2);
        out.push('"');
        escape_into(out, s);
        out.push('"');
    }

    /// Appends `s` escaped, without quotes. Bytes that need no escape are
    /// appended as maximal runs, one `push_str` per run, found by [`find`]
    /// eight bytes at a time; every byte that needs an escape is ASCII, so
    /// a run always ends on a `char` boundary.
    fn escape_into(out: &mut String, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let bytes = s.as_bytes();
        let mut run = 0;
        while let Some(i) = find(bytes, run, Class::NeedsEscape) {
            out.push_str(&s[run..i]);
            run = i + 1;
            match bytes[i] {
                b'"' => out.push_str("\\\""),
                b'\\' => out.push_str("\\\\"),
                b'\n' => out.push_str("\\n"),
                b'\r' => out.push_str("\\r"),
                b'\t' => out.push_str("\\t"),
                b => {
                    out.push_str("\\u00");
                    out.push(char::from(HEX[usize::from(b >> 4)]));
                    out.push(char::from(HEX[usize::from(b & 0xf)]));
                }
            }
        }
        out.push_str(&s[run..]);
    }

    /// The bytes [`find`] stops at.
    #[derive(Clone, Copy)]
    enum Class {
        /// `"` and `\`: what ends a run inside a string literal.
        Delimiter,
        /// `"`, `\` and the control characters: what [`escape_into`]
        /// escapes.
        NeedsEscape,
    }

    /// `0x01` in every byte of a word.
    const ONES: u64 = u64::from_le_bytes([1; 8]);

    /// The high bit of every byte of `w` that is below `n`, for `n` at
    /// most 0x80, plus possibly bits above the lowest one: a borrow only
    /// runs upwards, so the lowest set bit always marks a real byte.
    #[inline]
    fn below(w: u64, n: u8) -> u64 {
        w.wrapping_sub(ONES * u64::from(n)) & !w & (ONES << 7)
    }

    /// The same as [`below`] for the bytes of `w` equal to `b`.
    #[inline]
    fn equal(w: u64, b: u8) -> u64 {
        below(w ^ (ONES * u64::from(b)), 1)
    }

    /// The index of the first byte of `bytes[at..]` in `class`, testing
    /// eight bytes per step. A last word shorter than eight is padded with
    /// spaces, which no class holds.
    #[inline]
    fn find(bytes: &[u8], mut at: usize, class: Class) -> Option<usize> {
        let hits = |w: u64| {
            let delimiters = equal(w, b'"') | equal(w, b'\\');
            match class {
                Class::Delimiter => delimiters,
                Class::NeedsEscape => delimiters | below(w, 0x20),
            }
        };
        while let Some(word) = bytes.get(at..at + 8) {
            let found = hits(u64::from_le_bytes(word.try_into().expect("eight bytes")));
            if found != 0 {
                return Some(at + (found.trailing_zeros() / 8) as usize);
            }
            at += 8;
        }
        let tail = bytes.get(at..)?;
        let mut word = [b' '; 8];
        word[..tail.len()].copy_from_slice(tail);
        let found = hits(u64::from_le_bytes(word));
        (found != 0).then(|| at + (found.trailing_zeros() / 8) as usize)
    }

    /// Appends `true` or `false`.
    #[inline]
    pub fn write_bool(out: &mut String, b: bool) {
        out.push_str(if b { "true" } else { "false" });
    }

    /// An object key known when the program is built, made by [`key!`]:
    /// the name quoted and followed by its colon, which is what a writer
    /// appends.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Key(&'static str);

    impl Key {
        /// What [`key!`] expands to.
        #[doc(hidden)]
        pub const fn quoted(quoted: &'static str) -> Key {
            Key(quoted)
        }

        /// The key's name.
        pub fn name(self) -> &'static str {
            &self.0[1..self.0.len() - 2]
        }
    }

    /// The [`Key`] of a literal name, quoted at compile time. The name
    /// must need no escape: no `"`, no `\\`, no control character.
    #[doc(hidden)]
    #[macro_export]
    macro_rules! __json_key {
        ($name:literal) => {
            $crate::diag::json::Key::quoted(concat!("\"", $name, "\":"))
        };
    }
    pub use crate::__json_key as key;

    /// One JSON object being appended to a buffer: members go in the order
    /// they are written, and [`Obj::close`] ends it.
    pub struct Obj<'a> {
        out: &'a mut String,
        /// What precedes the next member: `{` before the first, `,` after.
        sep: char,
    }

    impl<'a> Obj<'a> {
        /// Starts an object at the end of `out`.
        #[inline]
        pub fn open(out: &'a mut String) -> Self {
            Obj { out, sep: '{' }
        }

        /// Starts the next member and returns the buffer it goes to.
        #[inline]
        fn member(&mut self) -> &mut String {
            self.out.push(self.sep);
            self.sep = ',';
            self.out
        }

        /// Starts the member `key` and returns the buffer its value goes
        /// to.
        #[inline]
        pub fn key(&mut self, key: Key) -> &mut String {
            self.member().push_str(key.0);
            self.out
        }

        /// Starts a member whose key is not known when the program is
        /// built — `parts` joined and escaped as one string, such as a
        /// labelled metric name — and returns the buffer its value goes to.
        pub fn key_escaped(&mut self, parts: &[&str]) -> &mut String {
            self.member().push('"');
            for part in parts {
                escape_into(self.out, part);
            }
            self.out.push_str("\":");
            self.out
        }

        /// Appends the members of `object` — a whole object this writer
        /// wrote earlier, such as a stored answer — as members of this
        /// one, as they are.
        pub fn splice(&mut self, object: &str) {
            let members = object
                .strip_prefix('{')
                .and_then(|rest| rest.strip_suffix('}'))
                .expect("a spliced object is one whole object");
            if !members.is_empty() {
                self.member().push_str(members);
            }
        }

        /// An unsigned integer member.
        #[inline]
        pub fn int(&mut self, key: Key, n: u64) {
            write_int(self.key(key), n as i64);
        }

        /// A signed integer member.
        #[inline]
        pub fn signed(&mut self, key: Key, n: i64) {
            write_int(self.key(key), n);
        }

        /// A string member.
        #[inline]
        pub fn str(&mut self, key: Key, s: &str) {
            write_escaped(self.key(key), s);
        }

        /// A string member, or `null` when there is no string.
        #[inline]
        pub fn str_or_null(&mut self, key: Key, s: Option<&str>) {
            match s {
                Some(s) => self.str(key, s),
                None => self.key(key).push_str("null"),
            }
        }

        /// A boolean member.
        #[inline]
        pub fn bool(&mut self, key: Key, b: bool) {
            write_bool(self.key(key), b);
        }

        /// One integer member per field.
        #[inline]
        pub fn ints(&mut self, fields: &[(Key, u64)]) {
            for &(key, n) in fields {
                self.int(key, n);
            }
        }

        /// Ends the object.
        #[inline]
        pub fn close(self) {
            if self.sep == '{' {
                self.out.push('{');
            }
            self.out.push('}');
        }
    }

    /// One JSON array being appended to a buffer, for items written by
    /// more than one loop; [`write_array`] writes the items of one.
    pub struct Arr<'a> {
        out: &'a mut String,
        /// Items started so far.
        len: usize,
    }

    impl<'a> Arr<'a> {
        /// Starts an array at the end of `out`.
        #[inline]
        pub fn open(out: &'a mut String) -> Self {
            Arr { out, len: 0 }
        }

        /// Starts the next item and returns the buffer it goes to.
        #[inline]
        pub fn item(&mut self) -> &mut String {
            self.out.push(if self.len == 0 { '[' } else { ',' });
            self.len += 1;
            self.out
        }

        /// How many items were started.
        #[inline]
        pub fn count(&self) -> usize {
            self.len
        }

        /// Ends the array.
        #[inline]
        pub fn close(self) {
            if self.len == 0 {
                self.out.push('[');
            }
            self.out.push(']');
        }
    }

    /// Appends `items` as a JSON array, each written by `item`.
    #[inline]
    pub fn write_array<I: IntoIterator>(
        out: &mut String,
        items: I,
        mut item: impl FnMut(&mut String, I::Item),
    ) {
        let mut arr = Arr::open(out);
        for x in items {
            item(arr.item(), x);
        }
        arr.close();
    }

    /// Appends one object of integer members.
    #[inline]
    pub fn write_ints(out: &mut String, fields: &[(Key, u64)]) {
        let mut o = Obj::open(out);
        o.ints(fields);
        o.close();
    }

    struct Parser<'a> {
        /// The document. It is a `&str`, so a slice of it cut at ASCII
        /// delimiters is valid UTF-8 with no further check.
        text: &'a str,
        pos: usize,
        /// Arrays and objects currently open around `pos`.
        depth: usize,
    }

    impl<'a> Parser<'a> {
        fn bytes(&self) -> &'a [u8] {
            self.text.as_bytes()
        }

        fn skip_ws(&mut self) {
            while self
                .bytes()
                .get(self.pos)
                .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.bytes().get(self.pos) == Some(&b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected `{}` at byte {}", b as char, self.pos))
            }
        }

        fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
            if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(v)
            } else {
                Err(format!("invalid literal at byte {}", self.pos))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.bytes().get(self.pos) {
                Some(b'n') => self.literal("null", Value::Null),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b'[') => self.nested(Self::array),
                Some(b'{') => self.nested(Self::object),
                Some(b'-' | b'0'..=b'9') => self.number(),
                _ => Err(format!("unexpected input at byte {}", self.pos)),
            }
        }

        /// Parses one array or object, refusing to recurse past
        /// [`MAX_DEPTH`]: the parser is recursive, and input from outside
        /// the program must not be able to exhaust the stack.
        fn nested(
            &mut self,
            parse: fn(&mut Self) -> Result<Value, String>,
        ) -> Result<Value, String> {
            if self.depth == MAX_DEPTH {
                return Err(format!(
                    "nesting deeper than {MAX_DEPTH} at byte {}",
                    self.pos
                ));
            }
            self.depth += 1;
            let v = parse(self);
            self.depth -= 1;
            v
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            if self.bytes().get(self.pos) == Some(&b'-') {
                self.pos += 1;
            }
            while self.bytes().get(self.pos).is_some_and(u8::is_ascii_digit) {
                self.pos += 1;
            }
            self.text[start..self.pos]
                .parse()
                .map(Value::Int)
                .map_err(|_| format!("bad number at byte {start}"))
        }

        /// Parses a string literal. The runs between escapes are found by
        /// [`find`] eight bytes at a time and sliced from the input; the
        /// common escapes (`\"`, `\\`, `\/`, `\n`, `\r`, `\t`) are
        /// decoded here and the rest by [`Parser::escape`]. A literal with
        /// no escape is one allocation of its exact size.
        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let bytes = self.bytes();
            let mut out = String::new();
            loop {
                // Both delimiters are ASCII, so a run never splits a
                // multi-byte character.
                let start = self.pos;
                let end = find(bytes, start, Class::Delimiter).ok_or("unterminated string")?;
                let text = &self.text[start..end];
                self.pos = end + 1;
                if bytes[end] == b'"' {
                    // Every escape pushes a character, so `out` is empty
                    // only when none came before this run.
                    if out.is_empty() {
                        return Ok(text.to_owned());
                    }
                    out.push_str(text);
                    return Ok(out);
                }
                out.push_str(text);
                let c = match bytes.get(self.pos) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    _ => {
                        out.push(self.escape()?);
                        continue;
                    }
                };
                self.pos += 1;
                out.push(c);
            }
        }

        /// Decodes the `\b`, `\f` or `\u` escape whose letter is at
        /// `pos` and steps past it. A high-surrogate `\u` escape directly
        /// followed by a low one is the one character the UTF-16 pair
        /// encodes; a surrogate outside such a pair is an error.
        fn escape(&mut self) -> Result<char, String> {
            let c = match self.bytes().get(self.pos) {
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let unit = self.hex4(self.pos + 1).ok_or("bad \\u escape")?;
                    self.pos += 4;
                    let low = match unit {
                        0xD800..=0xDBFF if self.bytes()[self.pos + 1..].starts_with(b"\\u") => self
                            .hex4(self.pos + 3)
                            .filter(|low| (0xDC00..=0xDFFF).contains(low)),
                        _ => None,
                    };
                    let code = match low {
                        Some(low) => {
                            self.pos += 6;
                            0x1_0000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                        }
                        None => unit,
                    };
                    char::from_u32(code).ok_or("bad \\u codepoint")?
                }
                _ => return Err(format!("bad escape at byte {}", self.pos)),
            };
            self.pos += 1;
            Ok(c)
        }

        /// The four hex digits at `at`, if they are there: exactly four
        /// ASCII hex digits, no sign.
        fn hex4(&self, at: usize) -> Option<u32> {
            self.bytes()
                .get(at..at + 4)?
                .iter()
                .try_fold(0, |unit, &b| Some(unit << 4 | char::from(b).to_digit(16)?))
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.bytes().get(self.pos) == Some(&b']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.bytes().get(self.pos) {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                }
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.bytes().get(self.pos) == Some(&b'}') {
                self.pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let val = self.value()?;
                fields.push((key, val));
                self.skip_ws();
                match self.bytes().get(self.pos) {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                }
            }
        }
    }

    #[cfg(test)]
    mod reference {
        //! The per-`char` escaper and per-`char` string parser that the
        //! word scanners replaced, kept as the spec the differential
        //! tests hold them to.

        use std::fmt::Write;

        pub fn write_escaped(out: &mut String, s: &str) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
                    c => out.push(c),
                }
            }
            out.push('"');
        }

        /// Parses the string literal that starts at `bytes[*pos]`.
        pub fn string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
            if bytes.get(*pos) != Some(&b'"') {
                return Err(format!("expected `\"` at byte {pos}"));
            }
            *pos += 1;
            let mut out = String::new();
            loop {
                match bytes.get(*pos) {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match bytes.get(*pos) {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                // Four hex digits: `from_str_radix` alone
                                // would also take a leading `+`.
                                let unit = |at: usize| {
                                    bytes
                                        .get(at..at + 4)
                                        .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                        .and_then(|h| std::str::from_utf8(h).ok())
                                        .and_then(|h| u16::from_str_radix(h, 16).ok())
                                };
                                let first = unit(*pos + 1).ok_or("bad \\u escape")?;
                                *pos += 4;
                                let mut units = vec![first];
                                if bytes.get(*pos + 1..*pos + 3) == Some(b"\\u".as_slice()) {
                                    units.extend(unit(*pos + 3));
                                }
                                // `decode_utf16` joins a high and a low
                                // surrogate, and rejects any other.
                                match char::decode_utf16(units.iter().copied()).next() {
                                    Some(Ok(c)) => {
                                        out.push(c);
                                        if c.len_utf16() == 2 {
                                            *pos += 6;
                                        }
                                    }
                                    _ => return Err("bad \\u codepoint".to_string()),
                                }
                            }
                            _ => return Err(format!("bad escape at byte {pos}")),
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // Copy one UTF-8 character verbatim.
                        let rest = std::str::from_utf8(&bytes[*pos..])
                            .map_err(|_| "invalid utf-8".to_string())?;
                        let c = rest.chars().next().expect("non-empty by get()");
                        out.push(c);
                        *pos += c.len_utf8();
                    }
                }
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::{
            key, reference, write_array, write_escaped, write_int, write_ints, Arr, Obj, Parser,
            Value, MAX_DEPTH,
        };
        use crate::corpus::SplitMix64;

        /// Characters of every UTF-8 width, the boundary code points of
        /// each width among them.
        const WIDE: [char; 8] = [
            '\u{7f}', '\u{80}', 'é', '\u{7ff}', '\u{800}', '漢', '\u{ffff}', '😀',
        ];

        fn plain_run(rng: &mut SplitMix64, out: &mut String) {
            for _ in 0..rng.below(12) {
                out.push(char::from(b' ' + rng.below(95) as u8));
            }
        }

        /// A string mixing plain runs, multi-byte characters, quotes,
        /// backslashes and control characters. Control character
        /// `n % 32` is always in string `n`, so 2 000 strings cover each.
        fn random_text(rng: &mut SplitMix64, n: u64) -> String {
            let mut s = String::new();
            for piece in 0..rng.below(24) {
                match rng.below(6) {
                    0 => s.push(WIDE[rng.below(8) as usize]),
                    1 => s.push('"'),
                    2 => s.push('\\'),
                    3 => s.push(char::from(rng.below(0x20) as u8)),
                    _ => plain_run(rng, &mut s),
                }
                if piece == 3 {
                    s.push(char::from((n % 32) as u8));
                }
            }
            s
        }

        /// A string *literal*, well formed or not: plain runs, raw
        /// multi-byte and control characters, every escape form, broken
        /// escapes, and an end that is a closing quote, nothing (the last
        /// run reaches the document's last byte) or a lone backslash.
        fn random_literal(rng: &mut SplitMix64) -> String {
            let mut s = String::from("\"");
            for _ in 0..rng.below(16) {
                match rng.below(12) {
                    0 => s.push(WIDE[rng.below(8) as usize]),
                    1 => s.push(char::from(rng.below(0x20) as u8)),
                    2 => s.push_str(
                        ["\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t"]
                            [rng.below(8) as usize],
                    ),
                    3 => s.push_str(&format!("\\u{:04x}", rng.below(0x1_0000))),
                    4 => s.push_str(&format!("\\u{:04X}", rng.below(0x20))),
                    5 if rng.below(4) == 0 => {
                        s.push_str(
                            ["\\x", "\\u12", "\\uzzzz", "\\ud800", "\\é"][rng.below(5) as usize],
                        );
                    }
                    6 => {
                        // A surrogate pair; one time in four a reversed
                        // pair or a lone half instead.
                        let (high, low) = (0xd800 + rng.below(0x400), 0xdc00 + rng.below(0x400));
                        let units = [vec![high, low], vec![low, high], vec![high], vec![low]];
                        let pick = if rng.below(4) == 0 {
                            1 + rng.below(3)
                        } else {
                            0
                        };
                        for unit in &units[pick as usize] {
                            s.push_str(&format!("\\u{unit:04x}"));
                        }
                    }
                    _ => plain_run(rng, &mut s),
                }
            }
            match rng.below(8) {
                0 => {}
                1 => s.push('\\'),
                _ => s.push('"'),
            }
            // Whatever follows a literal is not its business.
            if rng.below(2) == 0 {
                s.push_str(",\"next\"");
            }
            s
        }

        #[test]
        fn run_based_emitter_matches_the_per_char_reference() {
            let mut rng = SplitMix64::new(0x5eed_0001);
            for n in 0..2_000 {
                let text = random_text(&mut rng, n);
                let mut expected = String::new();
                reference::write_escaped(&mut expected, &text);
                let emitted = Value::Str(text.clone()).to_string();
                assert_eq!(emitted, expected, "string {n}: {text:?}");
                assert_eq!(Value::parse(&emitted), Ok(Value::Str(text)), "string {n}");
            }
        }

        #[test]
        fn run_based_string_parser_matches_the_per_char_reference() {
            let mut rng = SplitMix64::new(0x5eed_0002);
            let (mut accepted, mut rejected, mut open_ended) = (0, 0, 0);
            for n in 0..4_000 {
                let doc = random_literal(&mut rng);
                let mut p = Parser {
                    text: &doc,
                    pos: 0,
                    depth: 0,
                };
                let got = p.string().map(|s| (s, p.pos));
                let mut pos = 0;
                let expected = reference::string(doc.as_bytes(), &mut pos).map(|s| (s, pos));
                assert_eq!(got, expected, "literal {n}: {doc:?}");
                match &got {
                    Ok(_) => accepted += 1,
                    Err(e) if e == "unterminated string" => open_ended += 1,
                    Err(_) => rejected += 1,
                }
            }
            // The generator must keep exercising all three outcomes.
            assert!(accepted > 2_000, "{accepted} accepted");
            assert!(rejected > 100, "{rejected} rejected");
            assert!(open_ended > 100, "{open_ended} open-ended");
        }

        #[test]
        fn a_four_mebibyte_string_parses_and_emits_in_linear_time() {
            // Per-character re-validation of the remaining document made
            // this 10^13 byte checks; it now has to finish within a unit
            // test. An escape every 61 bytes keeps the runs many and short.
            let mut text = String::with_capacity(4 << 20);
            while text.len() < 4 << 20 {
                text.push_str("let v = A[(MYPROC + 1) % PROCS]; // μ-op, 漢字 \"quoted\" \\ \t\n");
            }
            let doc = Value::Obj(vec![("source".into(), Value::Str(text))]);
            let line = doc.to_string();
            assert!(line.len() > 4 << 20 && !line.contains('\n'));
            let back = Value::parse(&line).unwrap();
            assert_eq!(back, doc);
            assert_eq!(back.to_string(), line);
        }

        #[test]
        fn nesting_is_bounded_with_the_offending_offset() {
            let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
            assert!(Value::parse(&nested(MAX_DEPTH)).is_ok());
            assert_eq!(
                Value::parse(&nested(MAX_DEPTH + 1)),
                Err(format!(
                    "nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}"
                ))
            );
            // Objects count too, and the repro that used to overflow the
            // stack is an ordinary error.
            let objects = "{\"k\":".repeat(MAX_DEPTH + 1);
            assert!(Value::parse(&objects)
                .unwrap_err()
                .contains("nesting deeper"));
            assert!(Value::parse(&"[".repeat(200_000))
                .unwrap_err()
                .contains("at byte 128"));
            // Depth counts open containers, not containers seen.
            let siblings = format!("[{}]", vec!["[[]]"; 1_000].join(","));
            assert!(Value::parse(&siblings).is_ok());
        }

        /// The error of every kind of malformed document, byte for byte as
        /// the parser has always worded it.
        #[test]
        fn malformed_documents_keep_their_error_messages() {
            let u = |unit: u32| format!("\\u{unit:04x}");
            let deep = "[".repeat(MAX_DEPTH + 1);
            let cases = [
                (String::new(), "unexpected input at byte 0"),
                (" \n".to_string(), "unexpected input at byte 2"),
                ("\"abc".to_string(), "unterminated string"),
                ("{\"k\":\"v\\\"".to_string(), "unterminated string"),
                ("[\"a\\".to_string(), "bad escape at byte 4"),
                ("\"a\\x\"".to_string(), "bad escape at byte 3"),
                ("\"\\u12\"".to_string(), "bad \\u escape"),
                ("\"\\uzzzz\"".to_string(), "bad \\u escape"),
                // Exactly four hex digits: a sign is not one.
                ("\"\\u+041\"".to_string(), "bad \\u escape"),
                ("\"\\u-041\"".to_string(), "bad \\u escape"),
                (format!("\"{}\"", u(0xd83d)), "bad \\u codepoint"),
                (format!("\"{}x\"", u(0xd83d)), "bad \\u codepoint"),
                (format!("\"{}\"", u(0xde00)), "bad \\u codepoint"),
                (
                    format!("\"{}{}\"", u(0xde00), u(0xd83d)),
                    "bad \\u codepoint",
                ),
                (format!("\"{}{}\"", u(0xd83d), u(0x41)), "bad \\u codepoint"),
                (format!("\"{}\\uzzzz\"", u(0xd83d)), "bad \\u codepoint"),
                ("-".to_string(), "bad number at byte 0"),
                ("[1,-x]".to_string(), "bad number at byte 3"),
                ("99999999999999999999".to_string(), "bad number at byte 0"),
                ("1 2".to_string(), "trailing input at byte 2"),
                ("{} x".to_string(), "trailing input at byte 3"),
                (deep, "nesting deeper than 128 at byte 128"),
                ("nul".to_string(), "invalid literal at byte 0"),
                ("{\"a\" 1}".to_string(), "expected `:` at byte 5"),
                ("{1:2}".to_string(), "expected `\"` at byte 1"),
                ("[1 2]".to_string(), "expected `,` or `]` at byte 3"),
                (
                    "{\"a\":1 \"b\"}".to_string(),
                    "expected `,` or `}` at byte 7",
                ),
            ];
            for (doc, error) in cases {
                assert_eq!(Value::parse(&doc), Err(error.to_string()), "{doc:?}");
            }
        }

        /// The writer: an empty object and array, objects and arrays
        /// nested in each other, every member kind, a dynamic key that
        /// needs escapes and a splice. What it writes parses, and writes
        /// back the same.
        #[test]
        fn the_writer_writes_canonical_documents() {
            let mut out = String::new();
            let mut o = Obj::open(&mut out);
            Obj::open(o.key(key!("empty"))).close();
            write_array(o.key(key!("none")), [0u8; 0], |_, _| {});
            let mut nested = Obj::open(o.key(key!("nested")));
            nested.signed(key!("neg"), i64::MIN);
            nested.bool(key!("yes"), true);
            nested.str_or_null(key!("nothing"), None);
            write_array(nested.key(key!("rows")), [1, 2], |out, n| {
                write_ints(out, &[(key!("row"), n)]);
            });
            nested.close();
            let mut arr = Arr::open(o.key(key!("mixed")));
            write_array(arr.item(), ["a\"b", ""], write_escaped);
            arr.close();
            let labelled = o.key_escaped(&["requests{op=\"", "check", "\"}\n"]);
            write_int(labelled, 7);
            o.splice(r#"{"s":1}"#);
            o.close();
            let expected = concat!(
                r#"{"empty":{},"none":[],"nested":{"neg":-9223372036854775808,"yes":true,"#,
                r#""nothing":null,"rows":[{"row":1},{"row":2}]},"mixed":[["a\"b",""]],"#,
                r#""requests{op=\"check\"}\n":7,"s":1}"#
            );
            assert_eq!(out, expected);
            let back = Value::parse(&out).unwrap();
            assert_eq!(back.get("requests{op=\"check\"}\n"), Some(&Value::Int(7)));
            assert_eq!(back.to_string(), out);
        }

        /// One of the characters the scanner oracle draws from: ASCII
        /// letters, 2- and 4-byte UTF-8, both delimiters, `/` and the
        /// control characters `\n`, 0x01 and 0x1f.
        fn oracle_char(rng: &mut SplitMix64) -> char {
            const CHARS: [char; 9] = ['é', '😀', '"', '\\', '/', '\n', '\u{1}', '\u{1f}', ' '];
            match rng.below(2 * CHARS.len() as u64) as usize {
                i if i < CHARS.len() => CHARS[i],
                _ => char::from(b'a' + rng.below(26) as u8),
            }
        }

        /// The word scanners against the per-`char` references, at every
        /// start offset 0–16 (so each run ends at every position in a
        /// word) and every length 0–40: the writer's bytes are the
        /// reference's, and the parser reads them back, also from the
        /// middle of a document.
        #[test]
        fn scanner_oracle_writes_and_reads_every_offset_and_length() {
            let mut rng = SplitMix64::new(0x5eed_0004);
            for start in 0..=16 {
                for len in 0..=40 {
                    for _ in 0..4 {
                        let mut doc: String = (0..start).map(|_| oracle_char(&mut rng)).collect();
                        let at = doc.len();
                        doc.extend((0..len).map(|_| oracle_char(&mut rng)));
                        let text = &doc[at..];
                        let mut expected = doc[..at].to_string();
                        reference::write_escaped(&mut expected, text);
                        let mut written = doc[..at].to_string();
                        write_escaped(&mut written, text);
                        assert_eq!(written, expected, "{text:?} at {at}");
                        let mut p = Parser {
                            text: &written,
                            pos: at,
                            depth: 0,
                        };
                        assert_eq!(p.string().as_deref(), Ok(text), "{written:?} at {at}");
                        assert_eq!(p.pos, written.len());
                    }
                }
            }
        }

        /// The word-scanning parser against the per-`char` reference on
        /// hand-written escapes — `\/`, `\b`, `\f`, `\u` in both cases,
        /// surrogate pairs, a trailing backslash — cut at every offset.
        #[test]
        fn scanner_oracle_parses_hand_written_escapes_as_the_reference() {
            let literals = [
                r#""a\/b\b\f\/""#,
                r#""\u00e9\u00E9\u001f\u001F\u0041x""#,
                r#""<\ud83d\ude00>\uD83D\uDE00\udbff\udfff""#,
                r#""pad to a word\ud800\udc00""#,
                r#""\ud83dx\ude00""#,
                r#""\u+041\u-041""#,
                r#""abc\"#,
                r#""ends in a backslash \"#,
                r#""\\\"\n\r\t""#,
            ];
            for literal in literals {
                for cut in (0..=literal.len()).filter(|&i| literal.is_char_boundary(i)) {
                    let doc = &literal[..cut];
                    let mut p = Parser {
                        text: doc,
                        pos: 0,
                        depth: 0,
                    };
                    let got = p.string().map(|s| (s, p.pos));
                    let mut pos = 0;
                    let expected = reference::string(doc.as_bytes(), &mut pos).map(|s| (s, pos));
                    assert_eq!(got, expected, "{doc:?}");
                }
            }
        }

        /// Every escape RFC 8259 defines decodes, as a standard encoder
        /// writes it: Python's `json.dumps` escapes a backspace, a form
        /// feed and any non-ASCII character, astral ones as a UTF-16 pair.
        #[test]
        fn every_rfc_8259_escape_decodes() {
            let u = |unit: u32| format!("\\u{unit:04x}");
            let doc = format!("\"\\b\\f{}{}\\/{}\"", u(0xd83d), u(0xde00), u(0xe9));
            assert_eq!(
                Value::parse(&doc),
                Ok(Value::Str("\u{8}\u{c}😀/é".to_string()))
            );
            // The first and the last astral code point, in either case.
            for (high, low, c) in [
                (0xd800, 0xdc00, '\u{1_0000}'),
                (0xdbff, 0xdfff, '\u{10_ffff}'),
            ] {
                let expected = Ok(Value::Str(format!("<{c}>")));
                assert_eq!(
                    Value::parse(&format!("\"<{}{}>\"", u(high), u(low))),
                    expected
                );
                let upper = format!("\"<\\u{high:04X}\\u{low:04X}>\"");
                assert_eq!(Value::parse(&upper), expected);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json::Value;
    use super::*;

    #[test]
    fn severity_ordering_and_labels() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Note);
        let labels = [Severity::Error, Severity::Warning, Severity::Note].map(Severity::label);
        assert_eq!(labels, ["error", "warning", "note"]);
    }

    #[test]
    fn render_points_caret_at_span() {
        let src = "shared int X;\nfn main() { X = 1; }\n";
        let span = Span::new(26, 31); // `X = 1`
        let d = Diagnostic::new("R001", Severity::Error, "write-write race on `X`", span)
            .with_note(
                "the racing instance executes on a different processor",
                None,
            );
        let r = d.render(src, "test.ms");
        assert!(r.contains("error[R001]: write-write race on `X`"), "{r}");
        assert!(r.contains("--> test.ms:2:13"), "{r}");
        assert!(r.contains("2 | fn main() { X = 1; }"), "{r}");
        assert!(r.contains("|             ^^^^^"), "{r}");
        assert!(r.contains("= note: the racing instance"), "{r}");
    }

    /// A 200 KB source line is echoed as a window around the span: every
    /// rendered line stays under 1 KiB, an ellipsis marks each cut, and
    /// the caret still sits under the span's first byte.
    #[test]
    fn render_cuts_a_long_line_to_a_window_around_the_span() {
        let n = 100_000;
        let src = format!("X = {}1{};\n", "(".repeat(n), ")".repeat(n));
        let line_end = src.len() - 1;
        for (start, end) in [
            (4 + 128, 4 + 129),
            (4, line_end - 1),
            (0, 1),
            (line_end - 1, line_end),
            (4 + n, 4 + n + 1),
        ] {
            let span = Span::new(start as u32, end as u32);
            let r = Diagnostic::new("E007", Severity::Error, "too deep", span).render(&src, "d.ms");
            assert!(r.lines().all(|l| l.len() < 1024), "{start}..{end}: {r}");
            let lines: Vec<&str> = r.lines().collect();
            let (text, under) = (
                &lines[3][lines[3].find("| ").unwrap() + 2..],
                &lines[4][5..],
            );
            let col = under.find('^').unwrap();
            assert_eq!(
                text.as_bytes()[col],
                src.as_bytes()[start],
                "{start}..{end}: {r}"
            );
            assert_eq!(text.starts_with("..."), start > 60, "{r}");
            let carets = (end - start).min(80);
            assert_eq!(carets, r.matches('^').count(), "{r}");
            assert_eq!(text.ends_with("..."), start + carets + 60 < line_end, "{r}");
        }
        // A window never splits a character.
        let wide = format!("{}X{};", "é".repeat(300), "漢".repeat(300));
        let span = Span::new(600, 601);
        let r = Diagnostic::new("E002", Severity::Error, "here", span).render(&wide, "w.ms");
        assert!(
            r.contains("...éé") && r.contains("X漢") && r.lines().all(|l| l.len() < 1024),
            "{r}"
        );
    }

    #[test]
    fn render_handles_dummy_span() {
        let d = Diagnostic::new("W001", Severity::Warning, "msg", Span::dummy());
        let r = d.render("x\ny\n", "f.ms");
        assert!(r.contains("--> f.ms:1:1"), "{r}");
        assert!(r.contains('^'), "{r}");
    }

    #[test]
    fn sort_is_deterministic_and_severity_major() {
        let mut diags = vec![
            Diagnostic::new("W003", Severity::Note, "n", Span::new(0, 1)),
            Diagnostic::new("R001", Severity::Error, "e", Span::new(9, 10)),
            Diagnostic::new("W001", Severity::Warning, "w", Span::new(5, 6)),
            Diagnostic::new("R002", Severity::Error, "e2", Span::new(2, 3)),
        ];
        sort_diagnostics(&mut diags);
        let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["R002", "R001", "W001", "W003"]);
    }

    #[test]
    fn json_round_trips() {
        let v = Value::Obj(vec![
            ("file".into(), Value::Str("a \"b\"\n\\ μ".to_string())),
            (
                "diagnostics".into(),
                Value::Arr(vec![
                    Value::Int(-42),
                    Value::Bool(true),
                    Value::Null,
                    Value::Obj(vec![]),
                    Value::Arr(vec![]),
                ]),
            ),
        ]);
        let text = v.to_string();
        let back = Value::parse(&text).unwrap();
        assert_eq!(back, v);
        // Canonical output is a fixpoint.
        assert_eq!(back.to_string(), text);
    }

    #[test]
    fn json_parser_rejects_garbage() {
        for bad in ["", "{", "[1,]", "\"abc", "{\"a\" 1}", "12x", "nul"] {
            assert!(Value::parse(bad).is_err(), "{bad}");
        }
        // Whitespace tolerated.
        let v = Value::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn diagnostic_to_json_shape() {
        let src = "flag F; fn main() { wait F; }";
        let d = Diagnostic::new(
            "W001",
            Severity::Warning,
            "unmatched wait",
            Span::new(20, 27),
        )
        .with_note("no post site matches", Some(Span::new(0, 4)));
        let mut text = String::new();
        d.write_json(&mut text, src);
        let j = Value::parse(&text).unwrap();
        assert_eq!(j.get("code").unwrap().as_str(), Some("W001"));
        assert_eq!(j.get("severity").unwrap().as_str(), Some("warning"));
        let span = j.get("span").unwrap();
        assert_eq!(span.get("start").unwrap().as_int(), Some(20));
        assert_eq!(span.get("line").unwrap().as_int(), Some(1));
        assert_eq!(span.get("col").unwrap().as_int(), Some(21));
        assert_eq!(j.get("notes").unwrap().as_arr().unwrap().len(), 1);
        // And it is canonical: the parse writes back the same bytes.
        assert_eq!(j.to_string(), text);
    }
}
