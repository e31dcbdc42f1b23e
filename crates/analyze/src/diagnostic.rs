//! Structured lint diagnostics and their text / JSON renderings.
//!
//! Every finding carries a **stable code** (`A001`, `A010`, …), a
//! severity, a 1-based `line:column` anchor into the `.mcc` source (the
//! same span convention as [`moccml_lang::LangError`]) and a
//! human-readable message. Codes are append-only: a code never changes
//! meaning, so `--deny` policies and golden tests stay valid across
//! releases.

use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The spec is almost certainly wrong (e.g. an unsatisfiable
    /// assert). `moccml lint` exits non-zero.
    Error,
    /// Probably a mistake, but the spec is still checkable. Promoted to
    /// an error by `--deny warnings`.
    Warn,
    /// Neutral observation (e.g. a slicing opportunity). Never affects
    /// the exit code.
    Info,
}

impl Severity {
    /// The lowercase label used by both renderers (`error`, `warn`,
    /// `info`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
            Severity::Info => "info",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable lint code (`A001`…). See the crate docs for the catalog.
    pub code: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// 1-based source line of the anchor.
    pub line: usize,
    /// 1-based source column of the anchor.
    pub column: usize,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// A new diagnostic.
    #[must_use]
    pub fn new(
        code: &'static str,
        severity: Severity,
        line: usize,
        column: usize,
        message: String,
    ) -> Self {
        Diagnostic {
            code,
            severity,
            line,
            column,
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}[{}]: {}",
            self.line, self.column, self.severity, self.code, self.message
        )
    }
}

/// Renders diagnostics in compiler style, one per line:
/// `path:line:col: severity[code]: message` — the same
/// `path:line:column` prefix the `moccml` CLI uses for parse
/// errors, so editors pick both up with one matcher.
#[must_use]
pub fn render_text(path: &str, diagnostics: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diagnostics {
        out.push_str(path);
        out.push(':');
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

/// Renders diagnostics as a JSON array of
/// `{"code", "severity", "line", "column", "message"}` objects (plus a
/// `"path"` field per entry), newline-terminated. Hand-rolled like the
/// bench reports — the workspace is dependency-free by design.
#[must_use]
pub fn render_json(path: &str, diagnostics: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"path\": {}, \"code\": \"{}\", \"severity\": \"{}\", \
             \"line\": {}, \"column\": {}, \"message\": {}}}",
            json_string(path),
            d.code,
            d.severity,
            d.line,
            d.column,
            json_string(&d.message)
        ));
    }
    if !diagnostics.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Escapes `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic::new("A001", Severity::Warn, 3, 5, "state `X` unreachable".into()),
            Diagnostic::new("A021", Severity::Error, 9, 1, "bound is \"0\"".into()),
        ]
    }

    #[test]
    fn text_rendering_is_compiler_style() {
        let text = render_text("spec.mcc", &sample());
        assert_eq!(
            text,
            "spec.mcc:3:5: warn[A001]: state `X` unreachable\n\
             spec.mcc:9:1: error[A021]: bound is \"0\"\n"
        );
    }

    #[test]
    fn json_rendering_escapes_and_terminates() {
        let json = render_json("spec.mcc", &sample());
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains("\"code\": \"A001\""));
        assert!(json.contains("\\\"0\\\""));
        assert_eq!(render_json("spec.mcc", &[]), "[]\n");
    }
}
