//! The little JSON this benchmark writes: the result line and the span
//! file. Objects keep insertion order.

use std::fmt::Write;

pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// The value on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Rust prints the shortest digits that read back as the same
            // f64 and never an exponent, which is valid JSON as is.
            Json::Num(n) if n.is_finite() => write!(out, "{n}").expect("write to String"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            write!(out, "\\u{:04x}", c as u32).expect("write to String")
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    Json::Str(k.clone()).write(out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_result_line_shape() {
        let line = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(27.0)),
            (
                "metrics",
                Json::obj([(
                    "wall_rel",
                    Json::obj([("value", Json::Num(2.4125)), ("unit", Json::str("x"))]),
                )]),
            ),
            (
                "none",
                Json::obj([("parent", Json::Null), ("nan", Json::Num(f64::NAN))]),
            ),
        ]);
        assert_eq!(
            line.render(),
            r#"{"correct": true, "attempted": 27, "metrics": {"wall_rel": {"value": 2.4125, "unit": "x"}}, "none": {"parent": null, "nan": null}}"#
        );
    }

    #[test]
    fn escapes_strings_and_never_prints_an_exponent() {
        let bell = char::from(7);
        assert_eq!(
            Json::Str(format!("a\"b\\c\nd{bell}")).render(),
            concat!(r#""a\"b\\c\nd\u"#, r#"0007""#)
        );
        assert_eq!(Json::Num(1e-9).render(), "0.000000001");
        assert_eq!(Json::Num(-0.0 + 0.0).render(), "0");
    }
}
