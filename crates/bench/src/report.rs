//! Result-table formatting and persistence.

use std::io;
use std::path::PathBuf;

/// A labelled table of experiment results: string row labels + numeric
/// columns.
#[derive(Debug, Clone)]
pub struct ExperimentTable {
    /// Experiment identifier ("fig2-n-sweep", …).
    pub name: String,
    /// Human description shown above the table and in the CSV comment.
    pub description: String,
    /// Column headers, first column is the row label.
    pub header: Vec<String>,
    /// Rows: label + numeric cells.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl ExperimentTable {
    /// Create an empty table.
    pub fn new(name: &str, description: &str, header: &[&str]) -> ExperimentTable {
        ExperimentTable {
            name: name.to_string(),
            description: description.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push(&mut self, label: impl Into<String>, cells: Vec<f64>) {
        assert_eq!(
            cells.len() + 1,
            self.header.len(),
            "row width must match header"
        );
        self.rows.push((label.into(), cells));
    }

    /// Fetch a cell by row label and column name (for assertions in tests).
    pub fn cell(&self, row_label: &str, column: &str) -> Option<f64> {
        let col = self.header.iter().position(|h| h == column)?;
        if col == 0 {
            return None;
        }
        let row = self.rows.iter().find(|(l, _)| l == row_label)?;
        row.1.get(col - 1).copied()
    }
}

/// Print a table to stdout in aligned columns.
pub fn print_table(table: &ExperimentTable) {
    println!("\n== {} — {}", table.name, table.description);
    let label_w = table
        .rows
        .iter()
        .map(|(l, _)| l.len())
        .chain([table.header[0].len()])
        .max()
        .unwrap_or(8)
        .max(8);
    print!("{:<label_w$}", table.header[0]);
    for h in &table.header[1..] {
        print!(" {h:>14}");
    }
    println!();
    for (label, cells) in &table.rows {
        print!("{label:<label_w$}");
        for c in cells {
            if c.abs() >= 1e5 || (c.abs() < 1e-3 && *c != 0.0) {
                print!(" {c:>14.4e}");
            } else {
                print!(" {c:>14.4}");
            }
        }
        println!();
    }
}

/// Directory for result CSVs (created on demand): `./results`.
fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Persist a table to `results/<name>.csv`.
pub fn save_table(table: &ExperimentTable) -> io::Result<PathBuf> {
    let path = results_dir().join(format!("{}.csv", table.name));
    let header: Vec<&str> = table.header.iter().map(|s| s.as_str()).collect();
    let file = std::fs::File::create(&path)?;
    use std::io::Write;
    let mut w = std::io::BufWriter::new(file);
    writeln!(w, "# {}", table.description)?;
    writeln!(w, "{}", header.join(","))?;
    for (label, cells) in &table.rows {
        let mut line = vec![label.clone()];
        line.extend(cells.iter().map(|c| format!("{c}")));
        writeln!(w, "{}", line.join(","))?;
    }
    w.flush()?;
    Ok(path)
}

/// Print and save in one step; IO errors are reported but not fatal.
pub fn emit(table: &ExperimentTable) {
    print_table(table);
    match save_table(table) {
        Ok(path) => println!("   -> saved {}", path.display()),
        Err(e) => eprintln!("   !! could not save table: {e}"),
    }
}

/// One value in a benchmark JSON artifact, with explicit formatting so
/// every field renders numbers the same way.
#[derive(Debug, Clone)]
pub enum BenchValue {
    /// Fixed-point float rendered with the given number of decimals.
    Num {
        /// The value.
        value: f64,
        /// Decimals to render.
        decimals: usize,
    },
    /// Integer counter.
    Int(u64),
    /// String field (quoted).
    Str(String),
}

impl BenchValue {
    /// Seconds-style value (6 decimals), the convention of every bench
    /// artifact in this repo.
    pub fn secs(value: f64) -> BenchValue {
        BenchValue::Num { value, decimals: 6 }
    }

    /// Ratio/speedup-style value (4 decimals).
    pub fn ratio(value: f64) -> BenchValue {
        BenchValue::Num { value, decimals: 4 }
    }

    /// Integer counter.
    pub fn int(value: u64) -> BenchValue {
        BenchValue::Int(value)
    }

    /// String field.
    pub fn str(value: impl Into<String>) -> BenchValue {
        BenchValue::Str(value.into())
    }

    fn render(&self) -> String {
        match self {
            BenchValue::Num { value, decimals } => format!("{value:.decimals$}"),
            BenchValue::Int(v) => v.to_string(),
            BenchValue::Str(s) => format!("\"{}\"", s.replace('"', "'")),
        }
    }
}

/// The schema of the committed benchmark JSON artifact (`BENCH_PR7.json`):
/// `benchmark`, `description`, `host_cores`, optional named extra blocks
/// (e.g. the device spec a gate compared against), a `workload` object,
/// and a `results` array of uniform rows. Field order is preserved as
/// inserted.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Benchmark identifier (`"tc_modes"`).
    pub benchmark: String,
    /// Human description of what was measured and on what machine.
    pub description: String,
    /// Logical host cores the measurement ran on.
    pub host_cores: usize,
    /// Named extra objects rendered between `host_cores` and `workload`.
    pub extra: Vec<(String, Vec<(String, BenchValue)>)>,
    /// The workload the rows share.
    pub workload: Vec<(String, BenchValue)>,
    /// Result rows (key order should match across rows).
    pub results: Vec<Vec<(String, BenchValue)>>,
}

impl BenchReport {
    /// An empty report; `host_cores` defaults to this process's
    /// parallelism.
    pub fn new(benchmark: &str, description: &str) -> BenchReport {
        BenchReport {
            benchmark: benchmark.to_string(),
            description: description.to_string(),
            host_cores: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            extra: Vec::new(),
            workload: Vec::new(),
            results: Vec::new(),
        }
    }

    /// Add a workload field (builder-style).
    pub fn workload(mut self, key: &str, value: BenchValue) -> BenchReport {
        self.workload.push((key.to_string(), value));
        self
    }

    /// Add a named extra block (builder-style).
    pub fn extra_block(mut self, name: &str, fields: Vec<(String, BenchValue)>) -> BenchReport {
        self.extra.push((name.to_string(), fields));
        self
    }

    /// Append one result row.
    pub fn push_result(&mut self, row: Vec<(String, BenchValue)>) {
        self.results.push(row);
    }

    fn render_fields(fields: &[(String, BenchValue)]) -> String {
        fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", v.render()))
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// The artifact's JSON text.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"benchmark\": \"{}\",\n  \"description\": \"{}\",\n  \"host_cores\": {},\n",
            self.benchmark.replace('"', "'"),
            self.description.replace('"', "'"),
            self.host_cores
        );
        for (name, fields) in &self.extra {
            out.push_str(&format!(
                "  \"{name}\": {{{}}},\n",
                Self::render_fields(fields)
            ));
        }
        out.push_str(&format!(
            "  \"workload\": {{{}}},\n  \"results\": [\n",
            Self::render_fields(&self.workload)
        ));
        for (i, row) in self.results.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!("    {{{}}}", Self::render_fields(row)));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Write the artifact to `path`.
    pub fn write(&self, path: &std::path::Path) -> io::Result<PathBuf> {
        std::fs::write(path, self.to_json())?;
        Ok(path.to_path_buf())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_report_schema_is_stable() {
        let mut report = BenchReport::new("demo", "a \"quoted\" description")
            .workload("tiles", BenchValue::int(16))
            .workload("mode", BenchValue::str("fp32"))
            .extra_block(
                "baseline",
                vec![("wall_seconds".to_string(), BenchValue::secs(0.5))],
            );
        report.host_cores = 4;
        report.push_result(vec![
            ("workers".to_string(), BenchValue::int(1)),
            ("wall_seconds".to_string(), BenchValue::secs(0.25)),
            ("speedup".to_string(), BenchValue::ratio(2.0)),
        ]);
        let json = report.to_json();
        assert!(json.starts_with("{\n  \"benchmark\": \"demo\",\n"));
        assert!(json.contains("\"description\": \"a 'quoted' description\""));
        assert!(json.contains("\"host_cores\": 4"));
        assert!(json.contains("\"baseline\": {\"wall_seconds\": 0.500000}"));
        assert!(json.contains("\"workload\": {\"tiles\": 16, \"mode\": \"fp32\"}"));
        assert!(
            json.contains("    {\"workers\": 1, \"wall_seconds\": 0.250000, \"speedup\": 2.0000}")
        );
        assert!(json.ends_with("  ]\n}\n"));
    }

    #[test]
    fn table_roundtrip_and_cell_lookup() {
        let mut t = ExperimentTable::new("t", "test table", &["mode", "a", "b"]);
        t.push("FP64", vec![1.0, 2.0]);
        t.push("FP16", vec![3.0, 4.0]);
        assert_eq!(t.cell("FP16", "b"), Some(4.0));
        assert_eq!(t.cell("FP16", "mode"), None);
        assert_eq!(t.cell("FP8", "a"), None);
        assert_eq!(t.cell("FP64", "c"), None);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_mismatch_panics() {
        let mut t = ExperimentTable::new("t", "d", &["mode", "a"]);
        t.push("x", vec![1.0, 2.0]);
    }
}
