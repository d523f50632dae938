//! The suite's one TOML-subset reader: a lexer, a value type, a section
//! document, a typed view and a named-check error.
//!
//! Two formats are read through it, each by a small interpreter over
//! [`Document`] and [`View`]: the platform-model files (`platforms/*.toml`,
//! `simcpu::platform::model`) and the benchmark-matrix config
//! (`benches/matrix.toml`, `papi_bench::matrix::config`).  SPEC.md §12 has
//! the grammar and the check names.
//!
//! The grammar is what the shipped files use and no more:
//!
//! - `key = value` lines under `[section]` and `[[section]]` headers.  Keys
//!   and section names are `[A-Za-z0-9_-]+`.  `#` starts a comment outside
//!   strings.
//! - Scalars: integers (decimal, `0x`, `0b`, `_` separators, at most one
//!   sign, before any radix prefix), finite floats (`1.5`), `true`/`false`,
//!   and double-quoted strings with the escapes `\"`, `\\`, `\n` and `\t`.
//! - Single-line arrays `[a, b]` and inline tables `{ k = a }` of scalars.
//!   Values never nest, so the reader has no recursion and does work
//!   linear in its input.
//!
//! Every rejection is a [`TomlError`]: the name of the check that failed,
//! the 1-based line (0 for the file as a whole) and a message.  The reader
//! never panics.

use std::fmt;

/// A rejected document: which named check failed, where, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based source line; 0 when the finding concerns the whole file.
    pub line: usize,
    /// Stable name of the check that failed (`"syntax"`, `"unknown-key"`,
    /// `"group-unknown-event"`, …).
    pub check: &'static str,
    /// Human-readable detail.
    pub msg: String,
}

impl TomlError {
    /// A finding of `check` at `line`.
    pub fn new(line: usize, check: &'static str, msg: impl Into<String>) -> Self {
        TomlError {
            line,
            check,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "[{}] {}", self.check, self.msg)
        } else {
            write!(f, "line {}: [{}] {}", self.line, self.check, self.msg)
        }
    }
}

impl std::error::Error for TomlError {}

type Result<T> = std::result::Result<T, TomlError>;

/// A value: a scalar, or an array or inline table of scalars.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An integer.
    Int(i64),
    /// A finite float.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// A string, unescaped.
    Str(String),
    /// `[a, b, …]`.
    Array(Vec<Value>),
    /// `{ k = a, … }`, members in document order.
    Table(Vec<Entry>),
}

impl Value {
    /// The value's type as error messages name it, with its article.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "an integer",
            Value::Float(_) => "a float",
            Value::Bool(_) => "a boolean",
            Value::Str(_) => "a string",
            Value::Array(_) => "an array",
            Value::Table(_) => "an inline table",
        }
    }

    /// The integer, if this is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// One `key = value` pair and the line it sits on.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The key.
    pub key: String,
    /// The value.
    pub value: Value,
    /// 1-based source line.
    pub line: usize,
}

/// One `[name]` or `[[name]]` section.
#[derive(Debug, Clone, PartialEq)]
struct Section {
    /// The header's name; empty for the root section before any header.
    name: String,
    /// Whether the header is `[[name]]`, one table of an array of tables.
    array: bool,
    /// The header's line; 0 for the root section.
    line: usize,
    /// The section's entries in document order.  Keys are unique.
    entries: Vec<Entry>,
}

impl Section {
    fn view(&self) -> View<'_> {
        let what = match (self.name.as_str(), self.array) {
            ("", _) => "top level".to_string(),
            (name, true) => format!("[[{name}]]"),
            (name, false) => format!("[{name}]"),
        };
        View {
            what,
            line: self.line,
            entries: &self.entries,
        }
    }
}

/// A parsed document: the root section, then each headed section in
/// document order.
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    /// `sections[0]` is the root section.
    sections: Vec<Section>,
}

impl Document {
    /// Check every header against a format that allows each of `singles`
    /// once as `[name]` and each of `arrays` any number of times as
    /// `[[name]]`.  Fails with `unknown-section`, `syntax` (the wrong
    /// bracket form) or `duplicate-section`, at the header's line.
    pub fn check_sections(&self, singles: &[&str], arrays: &[&str]) -> Result<()> {
        for (i, s) in self.sections.iter().enumerate().skip(1) {
            let name = s.name.as_str();
            let array = if singles.contains(&name) {
                false
            } else if arrays.contains(&name) {
                true
            } else {
                let known: Vec<&str> = singles.iter().chain(arrays).copied().collect();
                return Err(TomlError::new(
                    s.line,
                    "unknown-section",
                    format!("unknown section [{name}] (known: {})", known.join(", ")),
                ));
            };
            if s.array != array {
                let msg = if array {
                    format!("[{name}] must be an array section: [[{name}]]")
                } else {
                    format!("[{name}] is a single section, not [[{name}]]")
                };
                return Err(TomlError::new(s.line, "syntax", msg));
            }
            if !array && self.sections[1..i].iter().any(|p| p.name == name) {
                return Err(TomlError::new(
                    s.line,
                    "duplicate-section",
                    format!("[{name}] given twice"),
                ));
            }
        }
        Ok(())
    }

    /// Check that the root section holds exactly `schema = version`.
    /// Fails with `unknown-key`, `bad-value` or `schema-version`; a
    /// missing `schema` is a whole-file finding (line 0).
    pub fn check_schema(&self, version: i64) -> Result<()> {
        let root = self.sections[0].view();
        root.check_keys(&["schema"])?;
        let schema = root.req("schema").map_err(|e| TomlError {
            check: "schema-version",
            ..e
        })?;
        match schema.value {
            Value::Int(v) if v == version => Ok(()),
            Value::Int(v) => Err(TomlError::new(
                schema.line,
                "schema-version",
                format!("unsupported schema version {v} (this reader accepts {version})"),
            )),
            ref other => Err(root.type_err("schema", "an integer", other)),
        }
    }

    /// The `[name]` section, if there is one.
    pub fn single(&self, name: &str) -> Option<View<'_>> {
        self.sections
            .iter()
            .find(|s| s.name == name)
            .map(Section::view)
    }

    /// Every `[[name]]` section, in document order.
    pub fn array<'d>(&'d self, name: &'d str) -> impl Iterator<Item = View<'d>> + 'd {
        self.sections
            .iter()
            .filter(move |s| s.name == name)
            .map(Section::view)
    }
}

/// A typed view of a section or inline table.  Each accessor reads one
/// key; its errors name the key and carry the key's line.
#[derive(Debug, Clone)]
pub struct View<'a> {
    /// How messages name the table: `top level`, `[memory]`,
    /// `[memory].l1d`.
    pub what: String,
    /// The table's line; findings about the table as a whole report it.
    pub line: usize,
    entries: &'a [Entry],
}

impl<'a> View<'a> {
    /// Reject any key not in `allowed` (`unknown-key`).
    pub fn check_keys(&self, allowed: &[&str]) -> Result<()> {
        match self
            .entries
            .iter()
            .find(|e| !allowed.contains(&e.key.as_str()))
        {
            Some(e) => Err(TomlError::new(
                e.line,
                "unknown-key",
                format!(
                    "unknown key '{}' in {} (allowed: {})",
                    e.key,
                    self.what,
                    allowed.join(", ")
                ),
            )),
            None => Ok(()),
        }
    }

    /// The entry for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&'a Entry> {
        self.entries.iter().find(|e| e.key == key)
    }

    /// The entry for a required `key` (`missing-key` at the table's line).
    pub fn req(&self, key: &str) -> Result<&'a Entry> {
        self.get(key).ok_or_else(|| {
            TomlError::new(
                self.line,
                "missing-key",
                format!("{} is missing required key '{key}'", self.what),
            )
        })
    }

    /// Read an optional `key` with `read`, one of the typed accessors.
    pub fn opt<T>(
        &self,
        key: &str,
        read: impl FnOnce(&Self, &str) -> Result<T>,
    ) -> Result<Option<T>> {
        match self.get(key) {
            Some(_) => read(self, key).map(Some),
            None => Ok(None),
        }
    }

    /// A finding of `check` at `key`'s line, or at the table's line when
    /// the key is absent.
    pub fn err(&self, key: &str, check: &'static str, msg: impl Into<String>) -> TomlError {
        let line = self.get(key).map_or(self.line, |e| e.line);
        TomlError::new(line, check, msg)
    }

    /// `key` holds `got` where `want` belongs (`bad-value`).
    pub fn type_err(&self, key: &str, want: &str, got: &Value) -> TomlError {
        self.err(
            key,
            "bad-value",
            format!(
                "{}.{key} must be {want}, got {}",
                self.what,
                got.type_name()
            ),
        )
    }

    /// A required integer.
    pub fn int(&self, key: &str) -> Result<i64> {
        let v = &self.req(key)?.value;
        v.as_int()
            .ok_or_else(|| self.type_err(key, "an integer", v))
    }

    /// A required integer in `lo..=hi` (`int-range` otherwise).
    pub fn ranged(&self, key: &str, lo: i64, hi: i64) -> Result<i64> {
        let v = self.int(key)?;
        if v < lo || v > hi {
            return Err(self.err(
                key,
                "int-range",
                format!("{}.{key} = {v} out of range {lo}..={hi}", self.what),
            ));
        }
        Ok(v)
    }

    /// A required integer that fits a `u32`.
    pub fn u32(&self, key: &str) -> Result<u32> {
        Ok(self.ranged(key, 0, u32::MAX.into())? as u32)
    }

    /// A required non-negative integer.
    pub fn u64(&self, key: &str) -> Result<u64> {
        Ok(self.ranged(key, 0, i64::MAX)? as u64)
    }

    /// A required non-negative integer, as a `usize`.
    pub fn usize(&self, key: &str) -> Result<usize> {
        Ok(self.ranged(key, 0, i64::MAX)? as usize)
    }

    /// A required number: a float, or an integer read as one.
    pub fn float(&self, key: &str) -> Result<f64> {
        match self.req(key)?.value {
            Value::Float(f) => Ok(f),
            Value::Int(n) => Ok(n as f64),
            ref other => Err(self.type_err(key, "a number", other)),
        }
    }

    /// A required string.
    pub fn str(&self, key: &str) -> Result<&'a str> {
        let v = &self.req(key)?.value;
        v.as_str().ok_or_else(|| self.type_err(key, "a string", v))
    }

    /// A required boolean.
    pub fn bool(&self, key: &str) -> Result<bool> {
        let v = &self.req(key)?.value;
        v.as_bool()
            .ok_or_else(|| self.type_err(key, "a boolean", v))
    }

    /// A required array whose every item `item` accepts; `want` names the
    /// array's type in the `bad-value` message (`"an array of strings"`).
    pub fn array_of<T>(
        &self,
        key: &str,
        want: &str,
        item: impl Fn(&'a Value) -> Option<T>,
    ) -> Result<Vec<T>> {
        match &self.req(key)?.value {
            Value::Array(items) => items
                .iter()
                .map(|v| item(v).ok_or_else(|| self.type_err(key, want, v)))
                .collect(),
            other => Err(self.type_err(key, want, other)),
        }
    }

    /// A required inline table.
    pub fn table(&self, key: &str) -> Result<View<'a>> {
        let e = self.req(key)?;
        match &e.value {
            Value::Table(entries) => Ok(View {
                what: format!("{}.{key}", self.what),
                line: e.line,
                entries,
            }),
            other => Err(self.type_err(key, "an inline table", other)),
        }
    }
}

// --- reader ---------------------------------------------------------------

/// Parse a document.  Fails with `syntax` or `duplicate-key`.
pub fn parse(src: &str) -> Result<Document> {
    let mut sections = vec![Section {
        name: String::new(),
        array: false,
        line: 0,
        entries: Vec::new(),
    }];
    for (i, text) in src.lines().enumerate() {
        let mut lx = Lexer {
            line: i + 1,
            rest: text,
        };
        lx.skip_space();
        if lx.rest.is_empty() || lx.rest.starts_with('#') {
            continue;
        }
        if lx.eat('[') {
            let array = lx.eat('[');
            let name = lx.key("section name")?;
            if !lx.eat(']') || (array && !lx.eat(']')) {
                return Err(lx.err(format!("malformed header '{}'", text.trim())));
            }
            lx.end()?;
            sections.push(Section {
                name: name.to_string(),
                array,
                line: lx.line,
                entries: Vec::new(),
            });
            continue;
        }
        let key = lx.key("key")?;
        lx.skip_space();
        if !lx.eat('=') {
            return Err(lx.err(format!("expected 'key = value', got '{}'", text.trim())));
        }
        let value = lx.value()?;
        lx.end()?;
        let section = sections
            .last_mut()
            .expect("the root section is always there");
        push_entry(&mut section.entries, key, value, lx.line)?;
    }
    Ok(Document { sections })
}

fn push_entry(entries: &mut Vec<Entry>, key: &str, value: Value, line: usize) -> Result<()> {
    if entries.iter().any(|e| e.key == key) {
        return Err(TomlError::new(
            line,
            "duplicate-key",
            format!("key '{key}' already set in this table"),
        ));
    }
    entries.push(Entry {
        key: key.to_string(),
        value,
        line,
    });
    Ok(())
}

/// The one lexer: a cursor over the rest of one line.
struct Lexer<'s> {
    line: usize,
    rest: &'s str,
}

impl<'s> Lexer<'s> {
    fn err(&self, msg: impl Into<String>) -> TomlError {
        TomlError::new(self.line, "syntax", msg)
    }

    fn skip_space(&mut self) {
        self.rest = self.rest.trim_start();
    }

    fn eat(&mut self, c: char) -> bool {
        match self.rest.strip_prefix(c) {
            Some(rest) => {
                self.rest = rest;
                true
            }
            None => false,
        }
    }

    /// Only blanks and a comment may follow.
    fn end(&mut self) -> Result<()> {
        self.skip_space();
        if self.rest.is_empty() || self.rest.starts_with('#') {
            Ok(())
        } else {
            Err(self.err(format!("unexpected '{}'", self.rest)))
        }
    }

    fn key(&mut self, what: &str) -> Result<&'s str> {
        let n = self
            .rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
            .unwrap_or(self.rest.len());
        if n == 0 {
            return Err(self.err(format!("expected a {what}, got '{}'", self.rest)));
        }
        let (key, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(key)
    }

    fn value(&mut self) -> Result<Value> {
        self.skip_space();
        if self.eat('[') {
            let mut items = Vec::new();
            self.list(']', |lx| {
                items.push(lx.scalar()?);
                Ok(())
            })?;
            return Ok(Value::Array(items));
        }
        if self.eat('{') {
            let mut entries = Vec::new();
            self.list('}', |lx| {
                let key = lx.key("key")?;
                lx.skip_space();
                if !lx.eat('=') {
                    return Err(lx.err(format!("inline table entry '{key}' has no '='")));
                }
                let value = lx.scalar()?;
                push_entry(&mut entries, key, value, lx.line)
            })?;
            return Ok(Value::Table(entries));
        }
        self.scalar()
    }

    /// Comma-separated items up to `close`.  An empty list is allowed; a
    /// trailing comma is not.
    fn list(&mut self, close: char, mut item: impl FnMut(&mut Self) -> Result<()>) -> Result<()> {
        self.skip_space();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            self.skip_space();
            item(self)?;
            self.skip_space();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(',') {
                return Err(self.err(format!("expected ',' or '{close}', got '{}'", self.rest)));
            }
        }
    }

    fn scalar(&mut self) -> Result<Value> {
        self.skip_space();
        if self.eat('"') {
            return self.string().map(Value::Str);
        }
        if self.rest.starts_with(['[', '{']) {
            return Err(self.err("arrays and inline tables hold scalars only"));
        }
        let n = self
            .rest
            .find(|c: char| c.is_whitespace() || matches!(c, ',' | ']' | '}' | '#'))
            .unwrap_or(self.rest.len());
        let (tok, rest) = self.rest.split_at(n);
        self.rest = rest;
        match tok {
            "" => Err(self.err("missing value")),
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            _ => number(tok).ok_or_else(|| self.err(format!("not a value: '{tok}'"))),
        }
    }

    /// The rest of a string whose opening quote was eaten.
    fn string(&mut self) -> Result<String> {
        let mut out = String::new();
        let mut chars = self.rest.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.rest = &self.rest[i + 1..];
                    return Ok(out);
                }
                '\\' => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, other)) => {
                        return Err(self.err(format!("unsupported escape '\\{other}'")))
                    }
                    None => break,
                },
                c => out.push(c),
            }
        }
        Err(self.err("unterminated string"))
    }
}

/// An integer or a finite float, or `None` if `tok` is neither.
fn number(tok: &str) -> Option<Value> {
    let (neg, body) = match tok.strip_prefix('-') {
        Some(body) => (true, body),
        None => (false, tok.strip_prefix('+').unwrap_or(tok)),
    };
    let (radix, digits) = if let Some(d) = body.strip_prefix("0x") {
        (16, d)
    } else if let Some(d) = body.strip_prefix("0b") {
        (2, d)
    } else {
        (10, body)
    };
    if radix == 10 && digits.contains('.') {
        return float(tok);
    }
    if !digits.starts_with(|c: char| c.is_digit(radix)) {
        return None;
    }
    let mut mag: u64 = 0;
    for c in digits.chars().filter(|&c| c != '_') {
        let d = c.to_digit(radix)?;
        mag = mag.checked_mul(radix.into())?.checked_add(d.into())?;
    }
    let v = if neg {
        -i128::from(mag)
    } else {
        i128::from(mag)
    };
    i64::try_from(v).ok().map(Value::Int)
}

/// `[+-]digits.digits`, finite.
fn float(tok: &str) -> Option<Value> {
    let (int, frac) = tok
        .strip_prefix(['+', '-'])
        .unwrap_or(tok)
        .split_once('.')?;
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    if !(digits(int) && digits(frac)) {
        return None;
    }
    let f: f64 = tok.parse().ok()?;
    f.is_finite().then_some(Value::Float(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(src: &str) -> std::result::Result<Value, TomlError> {
        let doc = parse(&format!("v = {src}"))?;
        Ok(doc.sections[0].entries[0].value.clone())
    }

    fn syntax(src: &str) {
        let e = parse(src).expect_err(src);
        assert_eq!(
            (e.check, e.line),
            ("syntax", src.lines().count()),
            "{src:?}: {e}"
        );
    }

    #[test]
    fn grammar() {
        for (src, want) in [
            ("42", Value::Int(42)),
            ("-7", Value::Int(-7)),
            ("+7", Value::Int(7)),
            ("0x3E8", Value::Int(1000)),
            ("-0x3E8", Value::Int(-1000)),
            ("0b1100", Value::Int(12)),
            ("1_000_000", Value::Int(1_000_000)),
            ("-9223372036854775808", Value::Int(i64::MIN)),
            ("1.5", Value::Float(1.5)),
            ("-0.25", Value::Float(-0.25)),
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
            (
                r#""a \"b\" \\ c\n\t# d""#,
                Value::Str("a \"b\" \\ c\n\t# d".into()),
            ),
            ("[]", Value::Array(vec![])),
            (
                r#"[1, "x,y", true] # trailing comment"#,
                Value::Array(vec![
                    Value::Int(1),
                    Value::Str("x,y".into()),
                    Value::Bool(true),
                ]),
            ),
            (
                "{ size = 64, on = false }",
                Value::Table(vec![
                    Entry {
                        key: "size".into(),
                        value: Value::Int(64),
                        line: 1,
                    },
                    Entry {
                        key: "on".into(),
                        value: Value::Bool(false),
                        line: 1,
                    },
                ]),
            ),
        ] {
            assert_eq!(value(src).unwrap(), want, "{src}");
        }
        let deep_array = format!("{}1", "[".repeat(100_000));
        let deep_table = "{ a = ".repeat(100_000);
        let huge_float = format!("{}.0", "9".repeat(400));
        for bad in [
            "--1000",
            "-0x-3E8",
            "0x-3E8",
            "+-1",
            "9223372036854775808",
            "0x",
            "0b102",
            "_1",
            "1.",
            ".5",
            "1.5.2",
            "2e3",
            &huge_float,
            "inf",
            "nan",
            "1 2",
            "",
            "\"open",
            "\"bad \\q escape\"",
            "[1, 2,]",
            "[1 2]",
            "[1, [2]]",
            "{ a = { b = 1 } }",
            "{ a }",
            "[1",
            &deep_array,
            &deep_table,
        ] {
            let e = value(bad).expect_err(bad);
            assert_eq!((e.line, e.check), (1, "syntax"), "{bad:.40}: {e}");
        }
        let e = value("{ a = 1, a = 2 }").unwrap_err();
        assert_eq!(e.check, "duplicate-key");
    }

    #[test]
    fn documents_and_headers() {
        let doc =
            parse("# head\nschema = 1\n\n[one] # c\nk-1 = \"#\"\n[[many]]\n[[many]]\nk = 2\n")
                .unwrap();
        let shape: Vec<(&str, bool, usize, usize)> = doc
            .sections
            .iter()
            .map(|s| (s.name.as_str(), s.array, s.line, s.entries.len()))
            .collect();
        assert_eq!(
            shape,
            [
                ("", false, 0, 1),
                ("one", false, 4, 1),
                ("many", true, 6, 0),
                ("many", true, 7, 1)
            ]
        );
        assert_eq!(doc.single("one").unwrap().str("k-1").unwrap(), "#");
        assert_eq!(doc.array("many").count(), 2);
        doc.check_sections(&["one"], &["many"]).unwrap();
        doc.check_schema(1).unwrap();

        for src in [
            "wat",
            "a b = 1",
            "= 1",
            "[sec",
            "[[sec]",
            "[sec]]",
            "[ sec ]",
            "[sec] x",
            "a = 1 2",
            "a = \"x\" \"y\"",
        ] {
            syntax(src);
        }
        let e = parse("a = 1\nb = 2\na = 3\n").unwrap_err();
        assert_eq!((e.check, e.line), ("duplicate-key", 3));
    }

    #[test]
    fn structure_and_schema_checks() {
        let check = |src: &str| {
            let doc = parse(src).unwrap();
            doc.check_sections(&["one", "two"], &["many"])
                .and_then(|()| doc.check_schema(1))
                .map_err(|e| (e.check, e.line))
        };
        assert_eq!(check("schema = 1\n[one]\n[[many]]\n[two]\n"), Ok(()));
        assert_eq!(check("schema = 1\n[three]\n"), Err(("unknown-section", 2)));
        assert_eq!(check("schema = 1\n[[one]]\n"), Err(("syntax", 2)));
        assert_eq!(check("schema = 1\n[many]\n"), Err(("syntax", 2)));
        assert_eq!(
            check("schema = 1\n[one]\n[one]\n"),
            Err(("duplicate-section", 3))
        );
        assert_eq!(check("[one]\n"), Err(("schema-version", 0)));
        assert_eq!(check("schema = 2\n"), Err(("schema-version", 1)));
        assert_eq!(check("schema = \"1\"\n"), Err(("bad-value", 1)));
        assert_eq!(check("schema = 1\nextra = 1\n"), Err(("unknown-key", 2)));
    }

    #[test]
    fn typed_view() {
        let doc = parse(
            "[t]\nn = 7\nf = 1.5\ni = 2\ns = \"x\"\nb = true\n\
             a = [1, 2]\nm = [1, \"x\"]\ntab = { k = 3 }\n",
        )
        .unwrap();
        let v = doc.single("t").unwrap();
        assert_eq!(v.int("n").unwrap(), 7);
        assert_eq!(v.u32("n").unwrap(), 7);
        assert_eq!(v.float("f").unwrap(), 1.5);
        assert_eq!(v.float("i").unwrap(), 2.0);
        assert_eq!(v.str("s").unwrap(), "x");
        assert!(v.bool("b").unwrap());
        assert_eq!(v.array_of("a", "ints", Value::as_int).unwrap(), [1, 2]);
        assert_eq!(v.table("tab").unwrap().int("k").unwrap(), 3);
        assert_eq!(v.opt("n", View::int).unwrap(), Some(7));
        assert_eq!(v.opt("absent", View::int).unwrap(), None);

        let fails = |r: Result<()>| r.map_err(|e| (e.check, e.line)).unwrap_err();
        assert_eq!(fails(v.int("s").map(drop)), ("bad-value", 5));
        assert_eq!(fails(v.ranged("n", 0, 6).map(drop)), ("int-range", 2));
        assert_eq!(fails(v.str("absent").map(drop)), ("missing-key", 1));
        assert_eq!(fails(v.table("n").map(drop)), ("bad-value", 2));
        assert_eq!(
            fails(v.array_of("m", "ints", Value::as_int).map(drop)),
            ("bad-value", 8)
        );
        assert_eq!(fails(v.check_keys(&["n"])), ("unknown-key", 3));
        let e = v.table("tab").unwrap().str("k").unwrap_err();
        assert_eq!(
            e.to_string(),
            "line 9: [bad-value] [t].tab.k must be a string, got an integer"
        );
        assert_eq!(
            TomlError::new(0, "whole", "file").to_string(),
            "[whole] file"
        );
    }
}
