//! Plain-text table rendering, with optional CSV export.

/// Renders an aligned plain-text table.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Prints the table and, when `REPRO_CSV_DIR` is set, also writes it
    /// as `<dir>/<name>.csv` for plotting.
    pub fn emit(&self, name: &str) {
        self.print();
        let Ok(dir) = std::env::var("REPRO_CSV_DIR") else {
            return;
        };
        let path = std::path::Path::new(&dir).join(format!("{name}.csv"));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| {
            let mut out = String::new();
            let csv_row = |cells: &[String]| {
                cells
                    .iter()
                    .map(|c| {
                        if c.contains(',') || c.contains('"') {
                            format!("\"{}\"", c.replace('"', "\"\""))
                        } else {
                            c.clone()
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(",")
            };
            out.push_str(&csv_row(&self.header));
            out.push('\n');
            for row in &self.rows {
                out.push_str(&csv_row(row));
                out.push('\n');
            }
            std::fs::write(&path, out)
        }) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        } else {
            eprintln!("(csv written to {})", path.display());
        }
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        let ncol = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for i in 0..ncol {
                if i > 0 {
                    s.push_str("  ");
                }
                s.push_str(&format!("{:<w$}", cells[i], w = widths[i]));
            }
            println!("{}", s.trim_end());
        };
        line(&self.header);
        println!(
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("--")
        );
        for row in &self.rows {
            line(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["longer".into(), "2".into()]);
        // Printing must not panic; width bookkeeping is internal.
        t.print();
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn emit_writes_csv_when_directed() {
        let dir = std::env::temp_dir().join(format!("copart-csv-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Only this test touches REPRO_CSV_DIR.
        std::env::set_var("REPRO_CSV_DIR", &dir);
        let mut t = Table::new(&["mix", "value"]);
        t.row(vec!["H-LLC".into(), "0.123".into()]);
        t.row(vec!["with,comma".into(), "0.5".into()]);
        t.emit("unit_test_table");
        std::env::remove_var("REPRO_CSV_DIR");
        let text = std::fs::read_to_string(dir.join("unit_test_table.csv")).unwrap();
        assert_eq!(text, "mix,value\nH-LLC,0.123\n\"with,comma\",0.5\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
