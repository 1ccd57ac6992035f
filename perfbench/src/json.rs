//! A flat JSON object writer: the benchmark's only output format, and too
//! small a need for a serializer dependency.

/// A JSON object under construction; keys keep insertion order.
pub struct Obj {
    fields: Vec<String>,
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

impl Obj {
    pub fn new() -> Self {
        Obj { fields: Vec::new() }
    }

    fn field(mut self, key: &str, value: String) -> Self {
        self.fields.push(format!("{}: {value}", quote(key)));
        self
    }

    pub fn int(self, key: &str, v: u64) -> Self {
        self.field(key, v.to_string())
    }

    /// A number; a non-finite value (an empty ratio) is written as `null`.
    pub fn num(self, key: &str, v: f64) -> Self {
        let text = if v.is_finite() { format!("{v}") } else { "null".to_string() };
        self.field(key, text)
    }

    pub fn str(self, key: &str, v: &str) -> Self {
        self.field(key, quote(v))
    }

    pub fn bool(self, key: &str, v: bool) -> Self {
        self.field(key, v.to_string())
    }

    pub fn strs(self, key: &str, vs: &[String]) -> Self {
        let items: Vec<String> = vs.iter().map(|v| quote(v)).collect();
        self.field(key, format!("[{}]", items.join(", ")))
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.fields.join(", "))
    }
}
