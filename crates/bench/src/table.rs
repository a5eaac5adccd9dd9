//! Minimal aligned-column table rendering for experiment output.

use std::fmt;

/// A cell value.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// Text.
    Str(String),
    /// Integer.
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Float, rendered with 2 decimals.
    Float(f64),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Str(s) => write!(f, "{s}"),
            Cell::Int(v) => write!(f, "{v}"),
            Cell::UInt(v) => write!(f, "{v}"),
            Cell::Float(v) => write!(f, "{v:.2}"),
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Str(s.to_string())
    }
}
impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Str(s)
    }
}
impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Cell::UInt(v)
    }
}
impl From<usize> for Cell {
    fn from(v: usize) -> Self {
        Cell::UInt(v as u64)
    }
}
impl From<i64> for Cell {
    fn from(v: i64) -> Self {
        Cell::Int(v)
    }
}
impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Float(v)
    }
}

/// An experiment result table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment id and title, e.g. `"T5 — buffering growth"`.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<Cell>>,
    /// Free-form notes printed under the table (paper-claim context).
    pub notes: Vec<String>,
}

impl Table {
    /// Creates a table with the given title and headers.
    pub(crate) fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    pub(crate) fn row(&mut self, cells: Vec<Cell>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
        self
    }

    /// Appends a note.
    pub(crate) fn note(&mut self, s: impl Into<String>) -> &mut Self {
        self.notes.push(s.into());
        self
    }

    /// Reads a cell as f64 (tests use this to check shapes).
    pub fn get_f64(&self, row: usize, col: usize) -> f64 {
        match &self.rows[row][col] {
            Cell::Str(_) => f64::NAN,
            Cell::Int(v) => *v as f64,
            Cell::UInt(v) => *v as f64,
            Cell::Float(v) => *v,
        }
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "## {}", self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|c| c.to_string()).collect())
            .collect();
        for r in &rendered {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        write!(f, "  ")?;
        for (h, w) in self.headers.iter().zip(&widths) {
            write!(f, "{h:>w$}  ")?;
        }
        writeln!(f)?;
        write!(f, "  ")?;
        for w in &widths {
            write!(f, "{:->w$}  ", "")?;
        }
        writeln!(f)?;
        for r in &rendered {
            write!(f, "  ")?;
            for (c, w) in r.iter().zip(&widths) {
                write!(f, "{c:>w$}  ")?;
            }
            writeln!(f)?;
        }
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Table {
        /// Column index by header name, for the experiments' tests.
        pub(crate) fn col(&self, header: &str) -> Option<usize> {
            self.headers.iter().position(|h| h == header)
        }
    }

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("X — demo", &["name", "value"]);
        t.row(vec!["alpha".into(), 3u64.into()]);
        t.row(vec!["b".into(), 12345u64.into()]);
        t.note("a note");
        let s = t.to_string();
        assert!(s.contains("## X — demo"));
        assert!(s.contains("alpha"));
        assert!(s.contains("12345"));
        assert!(s.contains("note: a note"));
    }

    #[test]
    fn accessors() {
        let mut t = Table::new("t", &["k", "v"]);
        t.row(vec!["a".into(), 1.5.into()]);
        assert_eq!(t.get_f64(0, 1), 1.5);
        assert_eq!(t.col("v"), Some(1));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }
}
