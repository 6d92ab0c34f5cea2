//! Just enough JSON output for the result lines (no dependencies).

/// One metric as the result line carries it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// One flat-or-nested JSON object, assembled in key order.
#[derive(Debug, Default)]
pub struct Obj {
    parts: Vec<String>,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Obj::default()
    }

    /// A number. Non-finite values have no JSON form and are written as
    /// `null`.
    pub fn num(mut self, key: &str, v: f64) -> Self {
        self.parts.push(format!("{}: {}", quote(key), number(v)));
        self
    }

    /// A whole number.
    pub fn int(mut self, key: &str, v: u64) -> Self {
        self.parts.push(format!("{}: {v}", quote(key)));
        self
    }

    /// A boolean.
    pub fn bool(mut self, key: &str, v: bool) -> Self {
        self.parts.push(format!("{}: {v}", quote(key)));
        self
    }

    /// A string.
    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.parts.push(format!("{}: {}", quote(key), quote(v)));
        self
    }

    /// A nested object.
    pub fn obj(mut self, key: &str, v: Obj) -> Self {
        self.parts.push(format!("{}: {}", quote(key), v.finish()));
        self
    }

    /// An array of numbers.
    pub fn nums(mut self, key: &str, v: &[f64]) -> Self {
        let items: Vec<String> = v.iter().map(|&x| number(x)).collect();
        self.parts
            .push(format!("{}: [{}]", quote(key), items.join(", ")));
        self
    }

    /// The metrics object of a result line: `{"name": {"value": v,
    /// "unit": u}, ...}`.
    pub fn metrics(metrics: &[Metric]) -> Self {
        metrics.iter().fold(Obj::new(), |o, m| {
            o.obj(m.name, Obj::new().num("value", m.value).str("unit", m.unit))
        })
    }

    /// The serialized object.
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.parts.join(", "))
    }
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_nested_objects_and_escapes() {
        let o = Obj::new()
            .bool("correct", true)
            .int("attempted", 3)
            .str("cpu", "a\"b")
            .nums("xs", &[1.5, f64::NAN])
            .obj(
                "metrics",
                Obj::metrics(&[Metric {
                    name: "setup_s",
                    unit: "s",
                    value: 0.25,
                }]),
            );
        assert_eq!(
            o.finish(),
            r#"{"correct": true, "attempted": 3, "cpu": "a\"b", "xs": [1.5, null], "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}"#
        );
    }
}
