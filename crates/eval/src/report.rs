//! Result rendering: fixed-width ASCII tables (stdout) and JSON dumps
//! (under `target/experiments/`) for every experiment binary.

use std::fs;
use std::path::PathBuf;

use xclean_telemetry::json::Json;

/// Renders a fixed-width table with a header row.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let sep = |out: &mut String| {
        for w in &widths {
            out.push('+');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    let mut out = String::new();
    sep(&mut out);
    out.push('|');
    for (h, w) in headers.iter().zip(&widths) {
        out.push_str(&format!(" {h:<w$} |"));
    }
    out.push('\n');
    sep(&mut out);
    for row in rows {
        out.push('|');
        for (i, w) in widths.iter().enumerate() {
            let cell = row.get(i).map(String::as_str).unwrap_or("");
            out.push_str(&format!(" {cell:<w$} |"));
        }
        out.push('\n');
    }
    sep(&mut out);
    out
}

/// Formats a float to 2 decimals (the paper's table precision).
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Directory where experiment JSON results are written.
pub fn experiments_dir() -> PathBuf {
    let dir =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()))
            .join("experiments");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Pretty-prints `value` to `target/experiments/<name>.json`.
pub fn write_json(name: &str, value: &Json) -> std::io::Result<PathBuf> {
    let path = experiments_dir().join(format!("{name}.json"));
    fs::write(&path, value.render_pretty())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = render_table(
            &["system", "mrr"],
            &[
                vec!["XClean".into(), "0.94".into()],
                vec!["PY08".into(), "0.24".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 6); // sep, header, sep, 2 rows, sep
        let width = lines[0].len();
        for l in &lines {
            assert_eq!(l.len(), width, "misaligned: {l}");
        }
        assert!(t.contains("XClean"));
    }

    #[test]
    fn f2_rounds() {
        assert_eq!(f2(0.949), "0.95");
        assert_eq!(f2(1.0), "1.00");
    }

    #[test]
    fn write_json_roundtrip() {
        let value: Json = [1u32, 2, 3].into_iter().collect();
        let path = write_json("unit_test_report", &value).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "[\n  1,\n  2,\n  3\n]");
        let parsed = xclean_telemetry::json::parse(&text).unwrap();
        assert_eq!(parsed.render_pretty(), text);
    }
}
