//! Plain-text tables and CSV files for the experiment harness.
//!
//! Every figure/table binary in `fun3d-bench` prints a [`Table`] to stdout
//! and mirrors it to `target/experiments/<name>.csv` so `EXPERIMENTS.md`
//! can reference stable artifacts.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A simple column-aligned table with a title.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column names.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; panics if the arity differs from the header.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row arity mismatch in table '{}'",
            self.title
        );
        self.rows.push(cells.to_vec());
    }

    /// Convenience for building a row out of `Display` items.
    pub fn row_display<D: std::fmt::Display>(&mut self, cells: &[D]) {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned plain-text form.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for i in 0..ncol {
                if i > 0 {
                    s.push_str("  ");
                }
                let _ = write!(s, "{:>width$}", cells[i], width = widths[i]);
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncol - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Renders RFC-4180-ish CSV (quotes cells containing commas/quotes).
    pub fn to_csv(&self) -> String {
        fn esc(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.header.iter().map(|h| esc(h)).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Writes the CSV next to other experiment artifacts and returns the
    /// path: `<dir>/<name>.csv`.
    pub fn write_csv(&self, dir: &Path, name: &str) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

/// Default experiment artifact directory (`target/experiments`), relative
/// to the workspace the harness is run from.
pub fn experiments_dir() -> PathBuf {
    PathBuf::from("target").join("experiments")
}

/// Writes a JSON artifact next to the CSVs and returns the path:
/// `<dir>/<name>.json`.
pub fn write_json(
    dir: &Path,
    name: &str,
    doc: &fun3d_util::telemetry::Json,
) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, doc.render_pretty())?;
    Ok(path)
}

/// Formats a float with engineering-friendly precision.
pub fn fmt_g(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1e5 || x.abs() < 1e-3 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["alpha".into(), "1".into()]);
        t.row(&["b".into(), "2345".into()]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let r = sample().render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("alpha"));
        assert!(r.contains("2345"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("t", &["a"]);
        t.row(&["x,y".into()]);
        t.row(&["he said \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
    }

    #[test]
    fn write_csv_creates_file() {
        let dir = std::env::temp_dir().join("fun3d_util_report_test");
        let path = sample().write_csv(&dir, "demo").unwrap();
        let content = fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("name,value"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_json_creates_parsable_file() {
        use fun3d_util::telemetry::Json;
        let dir = std::env::temp_dir().join("fun3d_util_report_json_test");
        let doc = Json::obj(vec![("kernel", Json::str("flux")), ("gbs", Json::num(20.5))]);
        let path = write_json(&dir, "summary", &doc).unwrap();
        let content = fs::read_to_string(&path).unwrap();
        let back = Json::parse(&content).unwrap();
        assert_eq!(back.get("kernel").and_then(Json::as_str), Some("flux"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fmt_g_ranges() {
        assert_eq!(fmt_g(0.0), "0");
        assert!(fmt_g(1234.5).contains("1234.5"));
        assert!(fmt_g(1.0e7).contains('e'));
        assert!(fmt_g(1.0e-5).contains('e'));
    }

    #[test]
    fn row_display_builds_strings() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row_display(&[1.5, 2.5]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }
}
