//! The workspace's one JSON emitter: a streaming writer whose output is
//! well-formed by construction. Commas, string escaping and number
//! formatting belong to the type; containers are closures, so brackets
//! cannot be left unbalanced. There is no parser — reports are read back by
//! tools outside this workspace.
//!
//! ```
//! use gre_core::JsonWriter;
//!
//! let mut w = JsonWriter::new();
//! w.object(|w| {
//!     w.key("name").str("a \"quoted\" name");
//!     w.key("ratio").f64(f64::NAN);
//!     w.key("series").array(|w| {
//!         w.u64(1).u64(2);
//!     });
//! });
//! assert_eq!(
//!     w.finish(),
//!     r#"{"name": "a \"quoted\" name", "ratio": null, "series": [1, 2]}"#
//! );
//! ```

use std::fmt::Write as _;

/// Streaming JSON writer, well-formed by construction (the module docs
/// show it in use).
#[derive(Default)]
pub struct JsonWriter {
    out: String,
    /// Per open container: whether it is an array, and its items so far.
    stack: Vec<(bool, usize)>,
    /// A key was written and its value is still owed.
    keyed: bool,
}

impl JsonWriter {
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// The finished document.
    pub fn finish(self) -> String {
        assert!(self.stack.is_empty() && !self.keyed, "unfinished JSON");
        self.out
    }

    /// Start the next object member; the next call must write its value.
    pub fn key(&mut self, name: &str) -> &mut Self {
        assert!(!self.keyed, "a key is owed its value");
        self.next_item(false);
        self.keyed = true;
        self.escaped(name);
        self.out.push_str(": ");
        self
    }

    pub fn object(&mut self, members: impl FnOnce(&mut Self)) -> &mut Self {
        self.container(false, '{', '}', members)
    }

    pub fn array(&mut self, elements: impl FnOnce(&mut Self)) -> &mut Self {
        self.container(true, '[', ']', elements)
    }

    pub fn str(&mut self, v: &str) -> &mut Self {
        self.before_value();
        self.escaped(v);
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.raw(format_args!("{v}"))
    }

    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.raw(format_args!("{v}"))
    }

    /// Shortest round-trip decimal; NaN and the infinities have no JSON
    /// number and are written as `null`.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        if v.is_finite() {
            self.raw(format_args!("{v}"))
        } else {
            self.null()
        }
    }

    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.raw(format_args!("{v}"))
    }

    pub fn null(&mut self) -> &mut Self {
        self.raw(format_args!("null"))
    }

    fn raw(&mut self, v: std::fmt::Arguments<'_>) -> &mut Self {
        self.before_value();
        let _ = self.out.write_fmt(v);
        self
    }

    fn container(
        &mut self,
        array: bool,
        open: char,
        close: char,
        body: impl FnOnce(&mut Self),
    ) -> &mut Self {
        self.before_value();
        self.out.push(open);
        self.stack.push((array, 0));
        body(self);
        assert!(!self.keyed, "a key is owed its value");
        self.stack.pop();
        self.out.push(close);
        self
    }

    /// A value comes next: after its key in an object, as the next element
    /// of an array, or as the document itself.
    fn before_value(&mut self) {
        if std::mem::take(&mut self.keyed) {
            return;
        }
        if self.stack.is_empty() {
            assert!(self.out.is_empty(), "one top-level value per document");
        } else {
            self.next_item(true);
        }
    }

    /// Count one more item in the innermost container — which must be an
    /// array for an element and an object for a member — and separate it
    /// from the previous one.
    fn next_item(&mut self, element: bool) {
        let (array, len) = self.stack.last_mut().expect("inside a container");
        assert_eq!(*array, element, "keys go in objects, bare values in arrays");
        if *len > 0 {
            self.out.push_str(", ");
        }
        *len += 1;
    }

    /// `s` as a quoted JSON string: `"`, `\` and control characters
    /// escaped, everything else (non-ASCII included) verbatim.
    fn escaped(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\t' => self.out.push_str("\\t"),
                '\r' => self.out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(body: impl FnOnce(&mut JsonWriter)) -> String {
        let mut w = JsonWriter::new();
        body(&mut w);
        w.finish()
    }

    #[test]
    fn nesting_and_empty_containers() {
        let got = doc(|w| {
            w.object(|w| {
                w.key("o").object(|_| {});
                w.key("a").array(|_| {});
                w.key("rows").array(|w| {
                    w.object(|w| {
                        w.key("t").bool(true).key("f").bool(false);
                    });
                    w.array(|w| {
                        w.null().i64(-7);
                    });
                });
            });
        });
        assert_eq!(
            got,
            r#"{"o": {}, "a": [], "rows": [{"t": true, "f": false}, [null, -7]]}"#
        );
        let scalar = doc(|w| {
            w.null();
        });
        assert_eq!(scalar, "null");
    }

    #[test]
    fn strings_are_escaped_in_keys_and_values() {
        let got = doc(|w| {
            w.object(|w| {
                w.key("k\"\\").str("q\" b\\ n\n t\t r\r \u{1} \u{1f} é×µ ✓");
            });
        });
        assert_eq!(
            got,
            "{\"k\\\"\\\\\": \"q\\\" b\\\\ n\\n t\\t r\\r \\u0001 \\u001f é×µ ✓\"}"
        );
    }

    #[test]
    fn integers_are_exact_and_non_finite_floats_become_null() {
        let got = doc(|w| {
            w.array(|w| {
                w.u64(u64::MAX).i64(i64::MIN);
                for v in [f64::NAN, f64::INFINITY, -f64::INFINITY, 0.0, -2.5, 1e21] {
                    w.f64(v);
                }
            });
        });
        assert_eq!(
            got,
            "[18446744073709551615, -9223372036854775808, \
             null, null, null, 0, -2.5, 1000000000000000000000]"
        );
    }

    #[test]
    #[should_panic(expected = "keys go in objects, bare values in arrays")]
    fn a_value_without_a_key_is_a_bug() {
        doc(|w| {
            w.object(|w| {
                w.u64(1);
            });
        });
    }

    #[test]
    #[should_panic(expected = "a key is owed its value")]
    fn a_key_without_a_value_is_a_bug() {
        doc(|w| {
            w.object(|w| {
                w.key("k");
            });
        });
    }
}
