//! The little JSON this benchmark needs: a value tree that prints itself,
//! and a reader for the two shapes the runner reads back from its own
//! children (no JSON crate resolves offline).

use std::fmt;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    /// Printed with Rust's shortest round-trip formatting, so a measured
    /// value keeps all its digits. Non-finite values print as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
    /// Already-serialized JSON (a child's output line), embedded verbatim.
    Raw(String),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_str(f, s),
            Json::Raw(s) => f.write_str(s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// The number stored under `"key":` in `doc`, where the value is either a
/// bare number or an object whose first member is `"value"` — the two
/// shapes [`Json`] prints for counters and for metrics. Only meant for
/// documents this program wrote itself.
pub fn number_at(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let rest = &doc[doc.find(&needle)? + needle.len()..];
    let rest = rest.strip_prefix("{\"value\":").unwrap_or(rest);
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prints_nested_values_and_escapes_strings() {
        let doc = Json::obj([
            ("a", Json::Int(3)),
            ("b", Json::Arr(vec![Json::Num(1.5), Json::Bool(true), Json::str("x\"y\n")])),
            ("c", Json::Raw("{\"k\":1}".into())),
        ]);
        assert_eq!(doc.to_string(), r#"{"a":3,"b":[1.5,true,"x\"y\n"],"c":{"k":1}}"#);
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn reads_back_counters_and_metrics() {
        let doc = Json::obj([
            ("failed", Json::Int(0)),
            (
                "metrics",
                Json::obj([(
                    "latency_p50_ms",
                    Json::obj([("value", Json::Num(0.2713)), ("unit", Json::str("ms"))]),
                )]),
            ),
        ])
        .to_string();
        assert_eq!(number_at(&doc, "failed"), Some(0.0));
        assert_eq!(number_at(&doc, "latency_p50_ms"), Some(0.2713));
        assert_eq!(number_at(&doc, "absent"), None);
    }
}
