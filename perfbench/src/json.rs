//! A minimal JSON object writer for the phase reports (the workspace is
//! dependency-free, so no serializer crate).

use std::fmt::Write as _;

/// Builds one JSON object, field by field.
pub struct Obj {
    out: String,
}

impl Obj {
    pub fn new() -> Obj {
        Obj {
            out: String::from("{"),
        }
    }

    fn key(mut self, key: &str) -> Obj {
        if self.out.len() > 1 {
            self.out.push_str(", ");
        }
        let _ = write!(self.out, "\"{key}\": ");
        self
    }

    /// A number; non-finite values become `null`.
    pub fn num(self, key: &str, v: f64) -> Obj {
        self.opt(key, Some(v))
    }

    /// A number, or `null` for an absent or non-finite value.
    pub fn opt(self, key: &str, v: Option<f64>) -> Obj {
        let mut o = self.key(key);
        match v {
            Some(v) if v.is_finite() => {
                let _ = write!(o.out, "{v}");
            }
            _ => o.out.push_str("null"),
        }
        o
    }

    pub fn str(self, key: &str, v: &str) -> Obj {
        let mut o = self.key(key);
        o.out.push_str(&quote(v));
        o
    }

    /// A pre-rendered JSON value.
    pub fn raw(self, key: &str, json: &str) -> Obj {
        let mut o = self.key(key);
        o.out.push_str(json);
        o
    }

    pub fn nums(self, key: &str, vs: &[f64]) -> Obj {
        let items: Vec<String> = vs.iter().map(|v| format!("{v}")).collect();
        self.raw(key, &format!("[{}]", items.join(", ")))
    }

    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// A JSON array of pre-rendered values.
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(",\n "))
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
