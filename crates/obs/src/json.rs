//! The suite's one JSON codec: a value type, a reader, a writer, and the
//! one baseline diff of the line-per-cell goldens.
//!
//! Every JSON document the workspace reads or writes goes through here:
//! the two line-per-cell goldens (`results/validation_matrix.json` and
//! `results/bench_matrix.json`), the tool files (perfometer traces, tracer
//! timelines, toolkit profiles, model signatures, `papirun --workload-file`
//! programs) and the flat self-metric objects of [`crate::Snapshot`] and
//! the aggregation daemon.
//!
//! Two properties carry the goldens:
//!
//! - A number is kept as its source text ([`Value::Num`]), so fixed-precision
//!   fields such as `0.00` survive a parse and render unchanged.
//! - [`Value::render`] writes a document in a [`Layout`]: the arrays that
//!   are members of the root object put each element on its own line,
//!   everything else is inline.  Each golden's layout is a constant next to
//!   its writer, and `parse` followed by `render` reproduces the file byte
//!   for byte.
//!
//! One engine defends both goldens.  [`read_baseline`] reads a golden's
//! cell rows, each with its line, and refuses a file that cannot be one;
//! [`diff_baseline`] matches a run's cells to those rows by coordinate.  A
//! row the run lacks is a regression, a cell the golden lacks is added, and
//! the caller's judge rules on each matched pair: grade rank for the
//! validation matrix, support and vcyc/op for the benchmark matrix.  A
//! finding reads `<cell>: <detail> (baseline line N)`.
//!
//! Typed files use the *derive shape*, the JSON that derive-based Rust
//! serializers produce and that earlier builds of this suite wrote, so
//! those files still load: structs are objects in field order, enums are
//! externally tagged (`"Unit"` or `{"Variant": payload}`), tuples are
//! arrays and `None` is `null`.  A missing field reads as
//! `null`, so a missing `Option` field is `None`; unknown fields are
//! ignored.
//!
//! The reader never panics on any input and bounds nesting at
//! [`MAX_DEPTH`]; its errors carry a `line:col` position.

use std::collections::{HashMap, HashSet};
use std::fmt::{self, Write as _};

/// Deepest array/object nesting the reader accepts.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.  Object members keep their document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, as its (grammar-checked) source text.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, members in document order.
    Obj(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

/// A JSON read or conversion error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based `(line, column)` of a syntax error; `None` for a document
    /// that parsed but does not have the expected shape.
    pub at: Option<(usize, usize)>,
    /// What went wrong.
    pub msg: String,
}

impl JsonError {
    /// A shape (not syntax) error.
    pub fn shape(msg: impl Into<String>) -> Self {
        JsonError {
            at: None,
            msg: msg.into(),
        }
    }

    fn within(mut self, field: &str) -> Self {
        if self.at.is_none() {
            self.msg = format!("{field}: {}", self.msg);
        }
        self
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.at {
            Some((line, col)) => write!(f, "{line}:{col}: {}", self.msg),
            None => f.write_str(&self.msg),
        }
    }
}

impl std::error::Error for JsonError {}

// --- reader ---------------------------------------------------------------

/// Parse one JSON document (surrounding whitespace allowed).
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        b: text.as_bytes(),
        pos: 0,
    };
    p.ws();
    let v = p.value(0)?;
    p.ws();
    if p.pos < p.b.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

/// The object on one line of a document in a row [`Layout`], if the line
/// holds exactly one (row lines end in `,` except the last).
fn parse_row(line: &str) -> Option<Value> {
    let line = line.trim_end();
    let v = parse(line.strip_suffix(',').unwrap_or(line)).ok()?;
    matches!(v, Value::Obj(_)).then_some(v)
}

/// Parse a document and convert it to `T`.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&parse(text)?)
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        let before = &self.b[..self.pos.min(self.b.len())];
        let line_start = before
            .iter()
            .rposition(|&c| c == b'\n')
            .map_or(0, |i| i + 1);
        let line = 1 + before.iter().filter(|&&c| c == b'\n').count();
        // Count characters, not bytes: skip UTF-8 continuation bytes.
        let col = 1 + before[line_start..]
            .iter()
            .filter(|&&c| c & 0xC0 != 0x80)
            .count();
        JsonError {
            at: Some((line, col)),
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => Err(self.err("expected a value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("expected a value"))
        }
    }

    fn enter(&mut self, depth: usize) -> Result<(), JsonError> {
        if depth >= MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        self.pos += 1; // the opening bracket
        self.ws();
        Ok(())
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.enter(depth)?;
        let mut items = Vec::new();
        if self.eat(b']') {
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.ws();
            if self.eat(b']') {
                return Ok(Value::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `]`"));
            }
            self.ws();
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.enter(depth)?;
        let mut members = Vec::new();
        if self.eat(b'}') {
            return Ok(Value::Obj(members));
        }
        loop {
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            self.ws();
            if !self.eat(b':') {
                return Err(self.err("expected `:`"));
            }
            self.ws();
            members.push((key, self.value(depth + 1)?));
            self.ws();
            if self.eat(b'}') {
                return Ok(Value::Obj(members));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `}`"));
            }
            self.ws();
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.err("expected a digit")),
        }
        if self.eat(b'.') && self.digits() == 0 {
            return Err(self.err("expected a digit after `.`"));
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if self.digits() == 0 {
                return Err(self.err("expected an exponent digit"));
            }
        }
        // The grammar above admits ASCII only, so the slice is valid UTF-8.
        let text = String::from_utf8_lossy(&self.b[start..self.pos]).into_owned();
        Ok(Value::Num(text))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0;
        for _ in 0..4 {
            let d = self
                .peek()
                .and_then(|c| (c as char).to_digit(16))
                .ok_or_else(|| self.err("expected 4 hex digits after `\\u`"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // the opening quote
        let mut out = String::new();
        loop {
            let run = self.pos;
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // Runs end at ASCII bytes, so they are whole UTF-8 sequences.
            out.push_str(&String::from_utf8_lossy(&self.b[run..self.pos]));
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated string"))?;
                    self.pos += 1;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => {
                            self.pos -= 1;
                            return Err(self.err("invalid escape"));
                        }
                    });
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// The code point of a `\u` escape (the `\u` already consumed),
    /// joining a UTF-16 surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        let cp = match hi {
            0xD800..=0xDBFF => {
                if !(self.eat(b'\\') && self.eat(b'u')) {
                    return Err(self.err("unpaired surrogate in `\\u` escape"));
                }
                let lo = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&lo) {
                    return Err(self.err("unpaired surrogate in `\\u` escape"));
                }
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(self.err("unpaired surrogate in `\\u` escape")),
            cp => cp,
        };
        char::from_u32(cp).ok_or_else(|| self.err("invalid `\\u` escape"))
    }
}

// --- access ---------------------------------------------------------------

impl Value {
    /// Member `key` of an object (`None` for other values).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The number as `u64`, if it is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(t) => t.parse().ok(),
            _ => None,
        }
    }

    /// The number as `f64` (out-of-range magnitudes saturate to infinity).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(t) => t.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// An object from `(key, value)` members, in order.
    pub fn object<'k>(members: impl IntoIterator<Item = (&'k str, Value)>) -> Value {
        Value::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// A number written with exactly `decimals` fractional digits
    /// (`null` if `x` is not finite).
    pub fn fixed(x: f64, decimals: usize) -> Value {
        if x.is_finite() {
            Value::Num(format!("{x:.decimals$}"))
        } else {
            Value::Null
        }
    }

    /// Convert member `key` of an object.  A missing member converts as
    /// `null`, so an absent `Option` field is `None`.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        let Value::Obj(_) = self else {
            return Err(JsonError::shape(format!("expected an object with `{key}`")));
        };
        match self.get(key) {
            Some(v) => T::from_json(v).map_err(|e| e.within(key)),
            None => {
                T::from_json(&NULL).map_err(|_| JsonError::shape(format!("missing field `{key}`")))
            }
        }
    }

    /// An externally tagged enum variant: `"Name"` for a unit variant,
    /// `{"Name": payload}` otherwise.
    pub fn tagged(name: &str, payload: Value) -> Value {
        Value::Obj(vec![(name.to_string(), payload)])
    }

    /// Split an externally tagged enum value into its variant name and
    /// payload (`null` for a unit variant).
    pub fn variant(&self) -> Result<(&str, &Value), JsonError> {
        match self {
            Value::Str(name) => Ok((name, &NULL)),
            Value::Obj(members) if members.len() == 1 => Ok((&members[0].0, &members[0].1)),
            _ => Err(JsonError::shape("expected an enum variant")),
        }
    }
}

// --- writer ---------------------------------------------------------------

/// Depth of the arrays a [`Layout`] writes one element per line: the
/// members of the root object.
const ROW_DEPTH: usize = 1;

/// How [`Value::render`] breaks a line-per-row golden into lines.
///
/// Every array that is a member of the root object writes each element on
/// its own line, compact and unindented; everything else is inline.
/// `spaced_outer` chooses `": "`/`", "` over `":"`/`","` outside the rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Spaced separators outside the rows.
    pub spaced_outer: bool,
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Value {
    /// The document on one line, without spaces.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// The document indented by two spaces per level, empty containers
    /// as `[]`/`{}`.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    /// The document in `layout`, with a trailing newline.
    pub fn render(&self, layout: &Layout) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(*layout), 0);
        out.push('\n');
        out
    }

    /// Write in `layout`, or on one compact line if there is none.
    fn write(&self, out: &mut String, layout: Option<Layout>, depth: usize) {
        let (colon, comma) = if layout.is_some_and(|l| l.spaced_outer) {
            (": ", ", ")
        } else {
            (":", ",")
        };
        match self {
            Value::Arr(rows) if layout.is_some() && depth == ROW_DEPTH => {
                out.push_str("[\n");
                for (i, row) in rows.iter().enumerate() {
                    row.write(out, None, 0);
                    out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
                }
                out.push(']');
            }
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(comma);
                    }
                    v.write(out, layout, depth + 1);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(comma);
                    }
                    write_str(out, k);
                    out.push_str(colon);
                    v.write(out, layout, depth + 1);
                }
                out.push('}');
            }
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(t) => out.push_str(t),
            Value::Str(s) => write_str(out, s),
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, d: usize| out.extend(std::iter::repeat_n("  ", d));
        match self {
            Value::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    pad(out, depth + 1);
                    v.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push(']');
            }
            Value::Obj(members) if !members.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    pad(out, depth + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push('}');
            }
            v => v.write(out, None, 0),
        }
    }
}

// --- baselines ------------------------------------------------------------

/// One cell row of a golden read as a diff baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineRow {
    /// 1-based line of the row in the golden.
    pub line: usize,
    /// The row's coordinate, the key a run's cell is matched by.
    pub cell: String,
    /// The row.
    pub value: Value,
}

/// Why a document cannot serve as a baseline; shown as `line N: what`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineError {
    /// 1-based line the refusal names.
    pub line: usize,
    /// What is wrong there.
    pub msg: String,
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

/// Read the cell rows of a golden written in a row [`Layout`]: the rows
/// of its first row array, which line 1 opens and a line starting with `]`
/// closes.  `key` gives a row's coordinate, or `None` when the row lacks a
/// field the caller reads.
///
/// A document that does not parse, a cell line that is not exactly one
/// object or lacks a key field, a coordinate on two lines and a document
/// without cell rows are refused, so a wrong or damaged file cannot pass
/// for a baseline that defends nothing.
pub fn read_baseline(
    text: &str,
    key: impl Fn(&Value) -> Option<String>,
) -> Result<Vec<BaselineRow>, BaselineError> {
    let refuse = |line, msg: String| BaselineError { line, msg };
    let mut rows = Vec::new();
    let mut lines = text.lines().zip(1..);
    if lines
        .next()
        .is_some_and(|(l, _)| l.trim_end().ends_with('['))
    {
        for (l, line) in lines.take_while(|(l, _)| !l.starts_with(']')) {
            let value =
                parse_row(l).ok_or_else(|| refuse(line, "not exactly one cell object".into()))?;
            let cell = key(&value).ok_or_else(|| refuse(line, "cell lacks a key field".into()))?;
            rows.push(BaselineRow { line, cell, value });
        }
    }
    // After the rows, so a broken row is named by its own line rather
    // than by the line where the whole-document parse gives up.
    if let Err(e) = parse(text) {
        let line = e.at.map_or(1, |(line, _)| line);
        return Err(refuse(line, format!("not a JSON document ({e})")));
    }
    if rows.is_empty() {
        return Err(refuse(1, "no cell rows".into()));
    }
    let mut seen = HashMap::with_capacity(rows.len());
    for row in &rows {
        if let Some(first) = seen.insert(row.cell.as_str(), row.line) {
            let msg = format!("{} repeats line {first}", row.cell);
            return Err(refuse(row.line, msg));
        }
    }
    Ok(rows)
}

/// A judge's ruling on one run cell against its baseline row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Nothing to report.
    Same,
    /// Better than the baseline; the detail says how.
    Better(String),
    /// Worse than the baseline; the detail says how.
    Worse(String),
}

/// One finding of a baseline diff, shown as
/// `<cell>: <detail> (baseline line N)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The cell's coordinate.
    pub cell: String,
    /// What changed.
    pub detail: String,
    /// 1-based line of the cell's row in the golden.
    pub line: usize,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} (baseline line {})",
            self.cell, self.detail, self.line
        )
    }
}

/// A run diffed against a baseline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diff {
    /// Cells that got worse or are missing from the run: regressions.
    pub worse: Vec<Finding>,
    /// Cells that got better, where the baseline is stale.
    pub better: Vec<Finding>,
    /// Coordinates of run cells the baseline lacks.
    pub added: Vec<String>,
}

impl Diff {
    /// True when nothing regressed.
    pub fn clean(&self) -> bool {
        self.worse.is_empty()
    }
}

/// Diff the cells of a run against baseline rows, all of a golden's or a
/// filtered subset (findings keep the rows' own lines).  `coord` gives a
/// run cell's coordinate.  A row the run lacks is worse, described by
/// `missing`; `judge` rules on every matched pair.
pub fn diff_baseline<C>(
    rows: &[BaselineRow],
    run: &[C],
    coord: impl Fn(&C) -> String,
    missing: impl Fn(&Value) -> String,
    judge: impl Fn(&Value, &C) -> Verdict,
) -> Diff {
    let coords: Vec<String> = run.iter().map(coord).collect();
    let mut by_coord = HashMap::with_capacity(run.len());
    for (c, cell) in coords.iter().zip(run) {
        by_coord.entry(c.as_str()).or_insert(cell);
    }
    let mut diff = Diff::default();
    for row in rows {
        let verdict = match by_coord.get(row.cell.as_str()) {
            None => Verdict::Worse(missing(&row.value)),
            Some(cell) => judge(&row.value, cell),
        };
        let finding = |detail| Finding {
            cell: row.cell.clone(),
            detail,
            line: row.line,
        };
        match verdict {
            Verdict::Worse(detail) => diff.worse.push(finding(detail)),
            Verdict::Better(detail) => diff.better.push(finding(detail)),
            Verdict::Same => {}
        }
    }
    let known: HashSet<&str> = rows.iter().map(|r| r.cell.as_str()).collect();
    diff.added = coords
        .into_iter()
        .filter(|c| !known.contains(c.as_str()))
        .collect();
    diff
}

// --- typed conversion -------------------------------------------------------

/// Conversion to a [`Value`] in the derive shape.
pub trait ToJson {
    /// This value as JSON.
    fn to_json(&self) -> Value;
}

/// Conversion from a [`Value`] in the derive shape.
pub trait FromJson: Sized {
    /// Read `Self` from `v`.
    fn from_json(v: &Value) -> Result<Self, JsonError>;
}

/// [`ToJson`] and [`FromJson`] for a struct, as an object with the listed
/// fields in order: `json_struct!(Symbol { name, start, end });`.  Every
/// field must be listed (the struct literal in `from_json` checks it).
#[macro_export]
macro_rules! json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::Value::object([$(
                    (stringify!($field), $crate::json::ToJson::to_json(&self.$field))
                ),+])
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::Value,
            ) -> ::std::result::Result<Self, $crate::json::JsonError> {
                Ok($ty {
                    $($field: v.field(stringify!($field))?),+
                })
            }
        }
    };
}

fn expected<T>(what: &str, v: &Value) -> Result<T, JsonError> {
    let found = match v {
        Value::Null => "null",
        Value::Bool(_) => "a boolean",
        Value::Num(_) => "a number",
        Value::Str(_) => "a string",
        Value::Arr(_) => "an array",
        Value::Obj(_) => "an object",
    };
    Err(JsonError::shape(format!("expected {what}, found {found}")))
}

macro_rules! json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Num(self.to_string())
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, JsonError> {
                match v {
                    Value::Num(t) => t.parse().or_else(|_| {
                        expected(concat!("a ", stringify!($t)), v)
                    }),
                    _ => expected(concat!("a ", stringify!($t)), v),
                }
            }
        }
    )*};
}
json_int!(u8, u16, u32, u64, usize, i64);

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        if self.is_finite() {
            // Shortest text that reads back to the same f64.
            Value::Num(format!("{self:?}"))
        } else {
            Value::Null
        }
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_f64().map_or_else(|| expected("a number", v), Ok)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_bool().map_or_else(|| expected("a boolean", v), Ok)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_str()
            .map_or_else(|| expected("a string", v), |s| Ok(s.to_string()))
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::to_json)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(T::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        self.as_slice().to_json()
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let Some(items) = v.as_array() else {
            return expected("an array", v);
        };
        items
            .iter()
            .enumerate()
            .map(|(i, x)| T::from_json(x).map_err(|e| e.within(&format!("[{i}]"))))
            .collect()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v.as_array() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => expected("a 2-element array", v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::object([
            ("n", 1u64.to_json()),
            ("f", 0.5f64.to_json()),
            ("s", "a\"b\\c\n\u{1}é".to_json()),
            ("pair", ("k".to_string(), 7u64).to_json()),
            ("none", None::<u64>.to_json()),
            ("empty", Value::Arr(Vec::new())),
        ])
    }

    #[test]
    fn writers_produce_their_documented_shapes() {
        let v = sample();
        assert_eq!(
            v.to_compact(),
            r#"{"n":1,"f":0.5,"s":"a\"b\\c\n\u0001é","pair":["k",7],"none":null,"empty":[]}"#
        );
        assert_eq!(
            v.to_pretty(),
            "{\n  \"n\": 1,\n  \"f\": 0.5,\n  \"s\": \"a\\\"b\\\\c\\n\\u0001é\",\n  \"pair\": [\n    \"k\",\n    7\n  ],\n  \"none\": null,\n  \"empty\": []\n}"
        );
        let rows = Value::object([("rows", Value::Arr(vec![v.clone(), v.clone()]))]);
        let doc = rows.render(&Layout { spaced_outer: true });
        assert_eq!(doc.lines().count(), 4);
        assert!(doc.starts_with("{\"rows\": [\n{\"n\":1,"));
        assert_eq!(parse(&doc).unwrap(), rows);
        assert_eq!(parse(&v.to_pretty()).unwrap(), v);
    }

    #[test]
    fn numbers_keep_their_text() {
        for text in ["0.00", "-0", "1E+2", "12345678901234567890123", "800.0000"] {
            let v = parse(text).unwrap();
            assert_eq!(v, Value::Num(text.to_string()));
            assert_eq!(v.to_compact(), text);
        }
        assert_eq!(Value::fixed(2.0 / 3.0, 4).to_compact(), "0.6667");
        assert_eq!(Value::fixed(f64::NAN, 2), Value::Null);
        assert_eq!(f64::INFINITY.to_json(), Value::Null);
        let x = 0.1f64 + 0.2;
        assert_eq!(
            f64::from_json(&parse(&x.to_json().to_compact()).unwrap()),
            Ok(x)
        );
    }

    #[test]
    fn errors_carry_positions_and_field_paths() {
        let e = parse("{\"a\": [1,\n  2,, 3]}").unwrap_err();
        assert_eq!(e.at, Some((2, 5)));
        assert_eq!(e.to_string(), "2:5: expected a value");
        let v = parse(r#"{"a": [1, "x"]}"#).unwrap();
        let e = v.field::<Vec<u64>>("a").unwrap_err();
        assert_eq!(e.to_string(), "a: [1]: expected a u64, found a string");
        let e = v.field::<u64>("b").unwrap_err();
        assert_eq!(e.to_string(), "missing field `b`");
        assert_eq!(v.field::<Option<u64>>("b"), Ok(None));
    }

    /// A golden in the benchmark report's shape: the cell rows, then a
    /// second row array the baseline reader must not take for cells.
    const GOLDEN: &str = "{\"schema\": 1, \"matrix\": [\n\
        {\"id\":\"a\",\"v\":1},\n\
        {\"id\":\"b\",\"v\":2},\n\
        {\"id\":\"c\",\"v\":3}\n\
        ], \"scores\": [\n\
        {\"pp\":1}\n\
        ]}\n";

    fn key(row: &Value) -> Option<String> {
        row.get("v")?.as_u64()?;
        row.get("id")?.as_str().map(str::to_string)
    }

    fn refusal(text: &str) -> String {
        read_baseline(text, key).unwrap_err().to_string()
    }

    /// `run` against `rows`, where a cell is `(id, v)` and a larger `v` is
    /// worse.
    fn diff_of(rows: &[BaselineRow], run: &[(&str, u64)]) -> Vec<String> {
        let diff = diff_baseline(
            rows,
            run,
            |c| c.0.to_string(),
            |_| "missing".to_string(),
            |row, c| {
                let was = row.get("v").and_then(Value::as_u64).unwrap();
                let detail = format!("{was} -> {}", c.1);
                match c.1.cmp(&was) {
                    std::cmp::Ordering::Greater => Verdict::Worse(detail),
                    std::cmp::Ordering::Less => Verdict::Better(detail),
                    std::cmp::Ordering::Equal => Verdict::Same,
                }
            },
        );
        let worse = diff.worse.iter().map(|f| format!("worse {f}"));
        let better = diff.better.iter().map(|f| format!("better {f}"));
        let added = diff.added.iter().map(|c| format!("added {c}"));
        worse.chain(better).chain(added).collect()
    }

    #[test]
    fn baseline_rows_are_the_first_row_array_with_their_lines() {
        let rows = read_baseline(GOLDEN, key).unwrap();
        let at: Vec<(usize, &str)> = rows.iter().map(|r| (r.line, r.cell.as_str())).collect();
        assert_eq!(at, [(2, "a"), (3, "b"), (4, "c")]);
        assert_eq!(rows[1].value.get("v"), Some(&Value::Num("2".into())));
        assert!(diff_of(&rows, &[("a", 1), ("b", 2), ("c", 3)]).is_empty());
    }

    #[test]
    fn refuses_a_document_that_does_not_parse() {
        assert_eq!(
            refusal("# not JSON\n"),
            "line 1: not a JSON document (1:1: expected a value)"
        );
        let header = GOLDEN.replace("\"schema\": 1,", "\"schema\": 1,,");
        assert_eq!(
            refusal(&header),
            "line 1: not a JSON document (1:14: expected a string key)"
        );
    }

    #[test]
    fn refuses_a_golden_without_cell_rows() {
        assert_eq!(refusal("{\"matrix\": [\n]}\n"), "line 1: no cell rows");
        assert_eq!(refusal("{}"), "line 1: no cell rows");
    }

    #[test]
    fn refuses_a_cell_line_that_is_not_exactly_one_object() {
        // An unclosed row is named by its own line, not by line 4 where
        // the whole-document parse gives up.
        let unclosed = GOLDEN.replace("\"v\":2},", "\"v\":2,");
        assert_eq!(refusal(&unclosed), "line 3: not exactly one cell object");
        let two = GOLDEN.replace("\"v\":2},", "\"v\":2}, {\"id\":\"d\",\"v\":4},");
        assert_eq!(refusal(&two), "line 3: not exactly one cell object");
    }

    #[test]
    fn refuses_a_cell_that_lacks_a_key_field() {
        let keyless = GOLDEN.replace("\"id\":\"b\",", "");
        assert_eq!(refusal(&keyless), "line 3: cell lacks a key field");
        let mistyped = GOLDEN.replace("\"v\":2", "\"v\":\"2\"");
        assert_eq!(refusal(&mistyped), "line 3: cell lacks a key field");
    }

    #[test]
    fn refuses_a_repeated_coordinate_naming_both_lines() {
        let twice = GOLDEN.replace("\"id\":\"c\"", "\"id\":\"a\"");
        assert_eq!(refusal(&twice), "line 4: a repeats line 2");
    }

    #[test]
    fn a_row_missing_from_the_run_is_worse() {
        let rows = read_baseline(GOLDEN, key).unwrap();
        assert_eq!(
            diff_of(&rows, &[("a", 1), ("c", 3)]),
            ["worse b: missing (baseline line 3)"]
        );
    }

    #[test]
    fn a_run_cell_missing_from_the_baseline_is_added() {
        let rows = read_baseline(GOLDEN, key).unwrap();
        assert_eq!(
            diff_of(&rows, &[("a", 1), ("b", 2), ("c", 3), ("d", 9)]),
            ["added d"]
        );
    }

    #[test]
    fn the_judge_rules_matched_cells_worse_or_better() {
        let rows = read_baseline(GOLDEN, key).unwrap();
        assert_eq!(
            diff_of(&rows, &[("a", 1), ("b", 5), ("c", 0)]),
            [
                "worse b: 2 -> 5 (baseline line 3)",
                "better c: 3 -> 0 (baseline line 4)"
            ]
        );
    }

    #[test]
    fn a_filtered_subset_keeps_the_golden_lines() {
        let mut rows = read_baseline(GOLDEN, key).unwrap();
        rows.retain(|r| r.cell != "a");
        assert_eq!(
            diff_of(&rows, &[("b", 2), ("c", 4)]),
            ["worse c: 3 -> 4 (baseline line 4)"]
        );
    }
}
