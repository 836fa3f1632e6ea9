//! Minimal JSON string escaping shared by every exporter in the workspace.
//!
//! The simulator emits JSON from several places (metric registries, trace
//! sinks, report tables). All of them quote strings through this one
//! function so escaping rules cannot diverge between outputs.

/// Escapes `s` as a JSON string literal, including the surrounding quotes.
///
/// ```
/// assert_eq!(fgnvm_obs::json::quote("a\"b\nc"), "\"a\\\"b\\nc\"");
/// ```
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    quote_into(&mut out, s);
    out
}

/// Appends `s` to `out` as a JSON string literal, including the
/// surrounding quotes: [`quote`] without the allocation.
pub fn quote_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats an `f64` for JSON output: finite values use Rust's shortest
/// round-trip form (always with enough precision to re-parse exactly);
/// non-finite values degrade to `null`, which JSON requires.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` prints integral floats without a point; keep them
        // recognizably floating-point for downstream type sniffers.
        if s.contains('.') || s.contains('e') || s.contains("inf") {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quoting_matches_report_table_contract() {
        // The fgnvm-sim Table JSON test pins this exact escaping; keep it.
        assert_eq!(quote("Demo \"x\""), "\"Demo \\\"x\\\"\"");
        assert_eq!(quote("v\nw"), "\"v\\nw\"");
        assert_eq!(quote("a\tb"), "\"a\\tb\"");
        assert_eq!(quote("back\\slash"), "\"back\\\\slash\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn numbers_are_json_safe() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(2.0), "2.0");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }
}
