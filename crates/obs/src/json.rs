//! A hand-rolled deterministic JSON writer.
//!
//! The workspace's BENCH emitters all write JSON by hand so the committed
//! artifacts are byte-stable across runs and toolchains; this module is
//! that discipline packaged once. [`JsonWriter`] tracks nesting and comma
//! placement, escapes strings, and formats floats with a fixed number of
//! decimals, so both the obs [`Snapshot`](crate::Snapshot) writer and
//! external emitters (the BENCH reports in `crates/bench`) produce
//! identical text for identical data.

/// Incremental JSON writer with automatic comma placement.
///
/// Call [`begin_object`](JsonWriter::begin_object) /
/// [`begin_array`](JsonWriter::begin_array) to open containers,
/// `field_*` helpers inside objects, `value_*` helpers inside arrays, and
/// [`finish`](JsonWriter::finish) to take the accumulated text. The
/// writer does not validate grammar beyond comma placement — callers
/// pair their begins and ends.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    /// One entry per open container: whether a comma is due before the
    /// next element.
    comma_due: Vec<bool>,
    /// Containers nested at most this deep put each element on its own
    /// line (0 = everything on one line).
    line_depth: usize,
    /// A key was just written: its value continues the line.
    after_key: bool,
}

impl JsonWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// Puts every element of the containers nested at most `depth` deep,
    /// and their closing brackets, on a line of its own, indented two
    /// spaces per level; deeper containers stay on one line. Report
    /// emitters set 2: root fields, section fields and the rows of
    /// top-level arrays then diff one per line, each row a single line.
    pub fn line_per_element(&mut self, depth: usize) {
        self.line_depth = depth;
    }

    /// Writes the separator a new element needs in the current container.
    fn separate(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        let Some(due) = self.comma_due.last_mut() else {
            return;
        };
        let comma = std::mem::replace(due, true);
        if comma {
            self.buf.push(',');
        }
        if self.comma_due.len() <= self.line_depth {
            self.new_line();
        } else if comma {
            self.buf.push(' ');
        }
    }

    fn new_line(&mut self) {
        self.buf.push('\n');
        for _ in 0..self.comma_due.len() {
            self.buf.push_str("  ");
        }
    }

    /// Pops the innermost container, moving to a new line first when its
    /// elements were written one per line.
    fn close(&mut self) {
        let wrote_lines = self.comma_due.len() <= self.line_depth;
        if self.comma_due.pop() == Some(true) && wrote_lines {
            self.new_line();
        }
    }

    /// Opens an object (`{`).
    pub fn begin_object(&mut self) {
        self.separate();
        self.buf.push('{');
        self.comma_due.push(false);
    }

    /// Closes the innermost object (`}`).
    pub fn end_object(&mut self) {
        self.close();
        self.buf.push('}');
    }

    /// Opens an array (`[`).
    pub fn begin_array(&mut self) {
        self.separate();
        self.buf.push('[');
        self.comma_due.push(false);
    }

    /// Closes the innermost array (`]`).
    pub fn end_array(&mut self) {
        self.close();
        self.buf.push(']');
    }

    /// Writes an object key; the next `begin_*` or `value_*` call becomes
    /// its value.
    pub fn key(&mut self, key: &str) {
        self.separate();
        self.push_escaped(key);
        self.buf.push(':');
        self.buf.push(' ');
        // The value that follows must not add its own separator.
        self.after_key = true;
    }

    /// Writes an unsigned integer value.
    pub fn value_u64(&mut self, value: u64) {
        self.separate();
        self.buf.push_str(&value.to_string());
    }

    /// Writes a float with exactly `decimals` fractional digits (the
    /// fixed-width form every BENCH artifact uses). Non-finite values are
    /// written as `0.0`, matching the bench emitters.
    pub fn value_f64(&mut self, value: f64, decimals: usize) {
        self.separate();
        if value.is_finite() {
            self.buf.push_str(&format!("{value:.decimals$}"));
        } else {
            self.buf.push_str("0.0");
        }
    }

    /// Writes a string value, escaped.
    pub fn value_str(&mut self, value: &str) {
        self.separate();
        self.push_escaped(value);
    }

    /// Writes a boolean value.
    pub fn value_bool(&mut self, value: bool) {
        self.separate();
        self.buf.push_str(if value { "true" } else { "false" });
    }

    /// Writes a `null` value.
    pub fn value_null(&mut self) {
        self.separate();
        self.buf.push_str("null");
    }

    /// `key` + [`value_u64`](JsonWriter::value_u64) in one call.
    pub fn field_u64(&mut self, key: &str, value: u64) {
        self.key(key);
        self.value_u64(value);
    }

    /// `key` + [`value_f64`](JsonWriter::value_f64) in one call.
    pub fn field_f64(&mut self, key: &str, value: f64, decimals: usize) {
        self.key(key);
        self.value_f64(value, decimals);
    }

    /// `key` + [`value_str`](JsonWriter::value_str) in one call.
    pub fn field_str(&mut self, key: &str, value: &str) {
        self.key(key);
        self.value_str(value);
    }

    /// `key` + [`value_bool`](JsonWriter::value_bool) in one call.
    pub fn field_bool(&mut self, key: &str, value: bool) {
        self.key(key);
        self.value_bool(value);
    }

    /// Takes the accumulated JSON text.
    #[must_use]
    pub fn finish(self) -> String {
        self.buf
    }

    fn push_escaped(&mut self, s: &str) {
        self.buf.push('"');
        for c in s.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                '\r' => self.buf.push_str("\\r"),
                '\t' => self.buf.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.buf.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }
}

/// Structural well-formedness check: balanced braces/brackets outside
/// strings, object at the top level. A cheap sanity check for this
/// crate's writers and the tests of their output, not a parser: nothing in
/// the workspace reads JSON back.
#[must_use]
pub fn well_formed(text: &str) -> bool {
    let trimmed = text.trim();
    if !trimmed.starts_with('{') || !trimmed.ends_with('}') {
        return false;
    }
    let mut depth = 0i64;
    let mut in_string = false;
    let mut escaped = false;
    for c in trimmed.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            _ => {}
        }
    }
    depth == 0 && !in_string
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_containers_and_commas() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", "obs/v2");
        w.key("rows");
        w.begin_array();
        for i in 0..2u64 {
            w.begin_object();
            w.field_u64("i", i);
            w.field_f64("half", i as f64 / 2.0, 3);
            w.end_object();
        }
        w.end_array();
        w.field_bool("ok", true);
        w.end_object();
        let text = w.finish();
        assert_eq!(
            text,
            "{\"schema\": \"obs/v2\", \"rows\": [{\"i\": 0, \"half\": 0.000}, \
             {\"i\": 1, \"half\": 0.500}], \"ok\": true}"
        );
        assert!(well_formed(&text));
    }

    #[test]
    fn line_per_element_breaks_down_to_the_given_depth() {
        let mut w = JsonWriter::new();
        w.line_per_element(2);
        w.begin_object();
        w.field_str("schema", "x/v1");
        w.key("rows");
        w.begin_array();
        for i in 0..2u64 {
            w.begin_object();
            w.field_u64("i", i);
            w.key("xs");
            w.begin_array();
            w.value_u64(1);
            w.value_u64(2);
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.key("none");
        w.begin_array();
        w.end_array();
        w.end_object();
        assert_eq!(
            w.finish(),
            "{\n  \"schema\": \"x/v1\",\n  \"rows\": [\n    {\"i\": 0, \"xs\": [1, 2]},\n    \
             {\"i\": 1, \"xs\": [1, 2]}\n  ],\n  \"none\": []\n}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("k", "a\"b\\c\nd\te\u{1}");
        w.end_object();
        let text = w.finish();
        assert_eq!(text, "{\"k\": \"a\\\"b\\\\c\\nd\\te\\u0001\"}");
        assert!(well_formed(&text));
    }

    #[test]
    fn non_finite_floats_degrade_to_zero() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_f64("inf", f64::INFINITY, 3);
        w.field_f64("nan", f64::NAN, 3);
        w.end_object();
        assert_eq!(w.finish(), "{\"inf\": 0.0, \"nan\": 0.0}");
    }

    #[test]
    fn every_control_char_escapes_to_valid_json() {
        // All of U+0000..U+001F must leave as \uXXXX (or the short forms
        // \n \r \t), never raw — raw control bytes break strict parsers.
        let all_controls: String = (0u32..0x20).filter_map(char::from_u32).collect();
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("ctl", &all_controls);
        w.end_object();
        let text = w.finish();
        assert!(well_formed(&text));
        for byte in text.bytes() {
            assert!(byte >= 0x20, "raw control byte {byte:#04x} in {text:?}");
        }
        assert!(text.contains("\\u0000"));
        assert!(text.contains("\\u001f"));
        assert!(text.contains("\\n") && text.contains("\\r") && text.contains("\\t"));
    }

    #[test]
    fn non_ascii_passes_through_as_utf8() {
        // Multi-byte UTF-8 needs no escaping; the writer must not
        // mangle it or miscount string boundaries around it.
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("müsli", "héllo wörld \u{1F511} ключ 密钥");
        w.end_object();
        let text = w.finish();
        assert!(well_formed(&text));
        assert!(text.contains("héllo wörld \u{1F511} ключ 密钥"));
    }

    #[test]
    fn quote_and_backslash_storms_stay_balanced() {
        // Pathological values for a brace-balance checker: every kind of
        // bracket inside strings, trailing backslash runs, escaped quotes.
        for value in [
            "\\",
            "\\\\",
            "\\\"",
            "{",
            "}",
            "[",
            "]",
            "{{[[",
            "\"",
            "\\{",
            "a\\",
            "end with quote\"",
        ] {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.field_str("v", value);
            w.end_object();
            let text = w.finish();
            assert!(well_formed(&text), "value {value:?} broke: {text}");
        }
    }

    #[test]
    fn keys_are_escaped_like_values() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_u64("a\"b\\c\nd", 1);
        w.end_object();
        let text = w.finish();
        assert_eq!(text, "{\"a\\\"b\\\\c\\nd\": 1}");
        assert!(well_formed(&text));
    }

    #[test]
    fn null_and_top_level_checks() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("x");
        w.value_null();
        w.end_object();
        assert_eq!(w.finish(), "{\"x\": null}");

        assert!(well_formed("{}"));
        assert!(well_formed("{\"a\": [1, 2, {\"b\": \"}\"}]}"));
        assert!(!well_formed("[1, 2]"));
        assert!(!well_formed("{\"a\": [}"));
        assert!(!well_formed("{\"a\": \"unterminated}"));
    }
}
