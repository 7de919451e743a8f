//! A std-only JSON value: the one writer behind every `BENCH_*.json`
//! artifact and every `redn-verify` report line.
//!
//! Numbers are rendered when they are built (integers exactly, floats
//! with the caller's decimals via [`Json::fixed`]), so an artifact's
//! bytes depend only on its values. Object fields keep the order they
//! were added in. There are two renderings: [`Json::line`] and
//! [`Json::document`].
//!
//! ```
//! use rnic_sim::json::Json;
//!
//! let row = Json::obj().field("ops", 600u64).field("p99_us", Json::fixed(39.5714, 3));
//! assert_eq!(row.line(), r#"{"ops":600,"p99_us":39.571}"#);
//! ```

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, already rendered.
    Num(String),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; fields keep the order they were added in.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// An empty object, filled with [`Json::field`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// `v` with exactly `decimals` digits after the point; `null` when
    /// `v` is not finite (JSON has no NaN or infinity).
    pub fn fixed(v: f64, decimals: usize) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v:.decimals$}"))
        } else {
            Json::Null
        }
    }

    /// Append field `key` to an object (builder style). Panics if `self`
    /// is not an object.
    pub fn field(mut self, key: &'static str, value: impl Into<Json>) -> Json {
        let Json::Obj(fields) = &mut self else {
            panic!("Json::field({key:?}) on a non-object");
        };
        fields.push((key, value.into()));
        self
    }

    /// The whole value on one line, with no whitespace.
    pub fn line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 2);
        out
    }

    /// The `BENCH_*.json` layout: each top-level field on its own line as
    /// `  "key": value`, each element of a top-level array on its own line
    /// indented 4 spaces, everything deeper compact, and a final newline.
    /// A root that is not an object renders as its [`Json::line`].
    pub fn document(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out + "\n"
    }

    /// `level` 0 is the document's root, 1 a root field's value; from 2
    /// on everything is compact.
    fn write(&self, out: &mut String, level: u8) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(n),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                let (sep, close) = match level {
                    1 => ("\n    ", "\n  ]"),
                    _ => ("", "]"),
                };
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { "," } else { "" });
                    out.push_str(sep);
                    item.write(out, 2);
                }
                out.push_str(close);
            }
            Json::Obj(fields) => {
                let (sep, colon, close) = match level {
                    0 => ("\n  ", ": ", "\n}"),
                    _ => ("", ":", "}"),
                };
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push_str(if i > 0 { "," } else { "" });
                    out.push_str(sep);
                    write_str(key, out);
                    out.push_str(colon);
                    value.write(out, (level + 1).min(2));
                }
                out.push_str(close);
            }
        }
    }
}

/// Write `s` quoted: `"` and `\` get a backslash, control characters
/// become `\n`, `\r`, `\t` or `\u00XX`. The workspace's one JSON escape.
fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! json_from {
    ($($t:ty => $v:expr),*) => {$(
        impl From<$t> for Json {
            fn from(x: $t) -> Json {
                $v(x)
            }
        }
    )*};
}
json_from!(
    bool => Json::Bool,
    u32 => |n: u32| Json::Num(n.to_string()),
    u64 => |n: u64| Json::Num(n.to_string()),
    usize => |n: usize| Json::Num(n.to_string()),
    &str => |s: &str| Json::Str(s.to_string()),
    String => Json::Str
);

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Collecting builds an array.
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Json {
        Json::Arr(iter.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_control_chars() {
        assert_eq!(
            Json::from("a\"b\\c\nd\u{1}e").line(),
            r#""a\"b\\c\nd\u0001e""#
        );
    }

    #[test]
    fn null_and_empty_containers_render() {
        assert_eq!(Json::Null.line(), "null");
        assert_eq!(Json::from(None::<u64>).line(), "null");
        assert_eq!(Json::fixed(f64::NAN, 3).line(), "null");
        assert_eq!(Json::Arr(vec![]).line(), "[]");
        assert_eq!(Json::obj().line(), "{}");
        assert_eq!(Json::obj().document(), "{\n}\n");
    }

    #[test]
    fn document_and_line_layouts() {
        let v = Json::obj()
            .field(
                "config",
                Json::obj()
                    .field("clients", 4usize)
                    .field("tags", ["a", "b"].into_iter().collect::<Json>())
                    .field("on", true),
            )
            .field("speedup", Json::fixed(4.2871, 2))
            .field(
                "rows",
                (1..=2u32)
                    .map(|k| Json::obj().field("k", k).field("p99_us", None::<Json>))
                    .collect::<Json>(),
            );
        assert_eq!(
            v.document(),
            r#"{
  "config": {"clients":4,"tags":["a","b"],"on":true},
  "speedup": 4.29,
  "rows": [
    {"k":1,"p99_us":null},
    {"k":2,"p99_us":null}
  ]
}
"#
        );
        assert_eq!(
            v.line(),
            r#"{"config":{"clients":4,"tags":["a","b"],"on":true},"speedup":4.29,"rows":[{"k":1,"p99_us":null},{"k":2,"p99_us":null}]}"#
        );
    }
}
