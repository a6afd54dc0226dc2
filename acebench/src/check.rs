//! Output checks: structural comparison of serialized results.

use serde::Value;

/// The first field where `got` and `want` differ, as
/// `path: got <x>, want <y>`; `None` when equal. Object fields compare
/// by name, arrays by index.
pub fn first_difference(got: &Value, want: &Value) -> Option<String> {
    diff_at(got, want, String::new())
}

fn diff_at(got: &Value, want: &Value, path: String) -> Option<String> {
    match (got, want) {
        (Value::Object(g), Value::Object(w)) => {
            for (key, wv) in w {
                let sub = join(&path, key);
                match serde::find_field(g, key) {
                    Some(gv) => {
                        if let Some(d) = diff_at(gv, wv, sub) {
                            return Some(d);
                        }
                    }
                    None => return Some(format!("{sub}: missing, want {}", show(wv))),
                }
            }
            g.iter()
                .find(|(key, _)| serde::find_field(w, key).is_none())
                .map(|(key, gv)| format!("{}: got {}, not expected", join(&path, key), show(gv)))
        }
        (Value::Array(g), Value::Array(w)) => {
            if g.len() != w.len() {
                return Some(format!("{path}: {} items, want {}", g.len(), w.len()));
            }
            g.iter()
                .zip(w)
                .enumerate()
                .find_map(|(i, (gv, wv))| diff_at(gv, wv, format!("{path}[{i}]")))
        }
        _ if same_scalar(got, want) => None,
        _ => Some(format!("{path}: got {}, want {}", show(got), show(want))),
    }
}

/// Scalars compare by value: a float that round-trips through JSON as an
/// integer (`2.0` → `2`) is still equal.
fn same_scalar(a: &Value, b: &Value) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => x == y || (x.is_nan() && y.is_nan()),
        _ => a == b,
    }
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

fn show(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|_| format!("{v:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(pairs: &[(&str, Value)]) -> Value {
        Value::Object(
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn reports_the_first_differing_field() {
        let want = obj(&[
            ("instret", Value::U64(10)),
            (
                "counters",
                obj(&[("l1d", Value::Array(vec![Value::U64(1), Value::U64(2)]))]),
            ),
        ]);
        assert_eq!(first_difference(&want, &want), None);
        let got = obj(&[
            ("instret", Value::U64(10)),
            (
                "counters",
                obj(&[("l1d", Value::Array(vec![Value::U64(1), Value::U64(3)]))]),
            ),
        ]);
        assert_eq!(
            first_difference(&got, &want).as_deref(),
            Some("counters.l1d[1]: got 3, want 2")
        );
        let missing = obj(&[("instret", Value::U64(10))]);
        assert!(first_difference(&missing, &want)
            .unwrap()
            .starts_with("counters: missing"));
        assert_eq!(
            first_difference(&Value::F64(2.0), &Value::U64(2)),
            None,
            "numeric equality survives the JSON round trip"
        );
    }
}
