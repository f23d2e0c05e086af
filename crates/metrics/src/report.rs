//! Plain-text and CSV report rendering for the experiment harnesses.
//!
//! The figure/table artifacts in `tora-bench` print the same rows/series the
//! paper reports; [`Table`] keeps that output aligned and exportable without
//! pulling in a plotting stack.

use std::fmt::Write as _;

/// A simple column-aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Short rows are padded with empty cells; long rows
    /// extend the header width with blanks.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Convenience: append a row of displayable cells.
    pub fn row<D: std::fmt::Display>(&mut self, cells: &[D]) {
        self.push_row(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn width(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.len())
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0)
    }

    /// Render as an aligned plain-text table.
    #[allow(clippy::needless_range_loop)] // columns are indexed across ragged rows
    pub fn render(&self) -> String {
        let width = self.width();
        fn cell(row: &[String], i: usize) -> &str {
            row.get(i).map(String::as_str).unwrap_or("")
        }
        let mut col_w = vec![0usize; width];
        for i in 0..width {
            col_w[i] = self
                .rows
                .iter()
                .map(|r| cell(r, i).len())
                .chain(std::iter::once(cell(&self.headers, i).len()))
                .max()
                .unwrap_or(0);
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let fmt_row = |out: &mut String, row: &[String]| {
            let mut line = String::new();
            for i in 0..width {
                if i > 0 {
                    line.push_str("  ");
                }
                let c = cell(row, i);
                // Left-align the first column, right-align the rest (numeric).
                if i == 0 {
                    let _ = write!(line, "{:<w$}", c, w = col_w[i]);
                } else {
                    let _ = write!(line, "{:>w$}", c, w = col_w[i]);
                }
            }
            let _ = writeln!(out, "{}", line.trim_end());
        };
        fmt_row(&mut out, &self.headers);
        let sep: Vec<String> = col_w.iter().map(|&w| "-".repeat(w)).collect();
        fmt_row(&mut out, &sep);
        for r in &self.rows {
            fmt_row(&mut out, r);
        }
        out
    }

    /// Render as CSV (comma-separated, quotes around cells containing
    /// commas or quotes).
    pub fn to_csv(&self) -> String {
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') || c.contains('\n') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let mut out = String::new();
        let width = self.width();
        let write_row = |out: &mut String, row: &[String]| {
            let cells: Vec<String> = (0..width)
                .map(|i| esc(row.get(i).map(String::as_str).unwrap_or("")))
                .collect();
            let _ = writeln!(out, "{}", cells.join(","));
        };
        write_row(&mut out, &self.headers);
        for r in &self.rows {
            write_row(&mut out, r);
        }
        out
    }
}

/// Format a ratio as a percentage with one decimal, e.g. `0.9632` → `96.3%`.
pub fn pct(ratio: f64) -> String {
    format!("{:.1}%", ratio * 100.0)
}

/// Format a number with SI-style thousands grouping for readability.
pub fn grouped(value: f64) -> String {
    let s = format!("{value:.1}");
    let (int_part, frac) = s.split_once('.').unwrap_or((s.as_str(), "0"));
    let neg = int_part.starts_with('-');
    let digits: Vec<char> = int_part.trim_start_matches('-').chars().collect();
    let mut grouped = String::new();
    for (i, c) in digits.iter().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            grouped.push(',');
        }
        grouped.push(*c);
    }
    format!("{}{}.{}", if neg { "-" } else { "" }, grouped, frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["workflow", "awe"]);
        t.row(&["normal", "0.72"]);
        t.row(&["exponential-long-name", "0.21"]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // header + separator + 2 rows + title
        assert_eq!(lines.len(), 5);
        // Right-aligned second column: both rows end with the value.
        assert!(lines[3].trim_end().ends_with("0.72") || lines[4].trim_end().ends_with("0.72"));
    }

    #[test]
    fn csv_escapes_delimiters() {
        let mut t = Table::new("", &["a", "b"]);
        t.row(&["x,y", "plain"]);
        t.row(&["q\"uote", "v"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"q\"\"uote\""));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn ragged_rows_are_padded() {
        let mut t = Table::new("", &["a", "b", "c"]);
        t.push_row(vec!["1".into()]);
        t.push_row(vec!["1".into(), "2".into(), "3".into(), "4".into()]);
        let s = t.render();
        assert!(s.contains('4'));
        let csv = t.to_csv();
        for line in csv.lines() {
            assert_eq!(line.matches(',').count(), 3);
        }
    }

    #[test]
    fn pct_and_grouped_formatting() {
        assert_eq!(pct(0.9632), "96.3%");
        assert_eq!(pct(0.0), "0.0%");
        assert_eq!(grouped(441050.7), "441,050.7");
        assert_eq!(grouped(11.2), "11.2");
        assert_eq!(grouped(-1234.5), "-1,234.5");
        assert_eq!(grouped(1000.0), "1,000.0");
    }

    #[test]
    fn empty_table_renders_headers_only() {
        let t = Table::new("x", &["col"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.render().lines().count(), 3); // title, header, sep
    }
}
