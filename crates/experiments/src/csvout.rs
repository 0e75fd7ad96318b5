//! Minimal CSV writer used by the experiments, plus the shared telemetry
//! column convention: every experiment that evaluates flows through a
//! [`bmp_core::solver::EvalCtx`] appends [`TELEMETRY_COLUMNS`] to its header and renders
//! the aggregated counters with [`telemetry_cells`], so the cost of a sweep (cut
//! certifications, flow solves, dichotomic probes, wall time) is visible next to its
//! results instead of only in ad-hoc logs.

use bmp_core::solver::Telemetry;
use std::fmt::Write as _;

/// Column names shared by every experiment CSV that reports evaluation telemetry.
pub const TELEMETRY_COLUMNS: [&str; 4] = [
    "cut_certifications",
    "flow_solves",
    "bisection_iters",
    "wall_time_ms",
];

/// Renders `telemetry` as one cell per entry of [`TELEMETRY_COLUMNS`].
#[must_use]
pub fn telemetry_cells(telemetry: &Telemetry) -> Vec<String> {
    vec![
        telemetry.cut_certifications.to_string(),
        telemetry.flow_solves.to_string(),
        telemetry.bisection_iters.to_string(),
        format!("{:.3}", telemetry.wall_time.as_secs_f64() * 1e3),
    ]
}

/// Sums per-trial telemetries into one aggregate (counters add, wall times add).
#[must_use]
pub fn telemetry_sum<'a>(telemetries: impl IntoIterator<Item = &'a Telemetry>) -> Telemetry {
    let mut total = Telemetry::default();
    for t in telemetries {
        total.cut_certifications += t.cut_certifications;
        total.flow_solves += t.flow_solves;
        total.bisection_iters += t.bisection_iters;
        total.wall_time += t.wall_time;
    }
    total
}

/// An in-memory CSV table with a fixed header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// Creates a table with the given column names.
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        CsvTable {
            header: header.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row of already-formatted cells.
    ///
    /// # Panics
    ///
    /// Panics if the row arity does not match the header.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row arity does not match the header"
        );
        self.rows.push(cells);
    }

    /// Appends a row of numeric cells (formatted with 6 significant decimals).
    pub fn push_numeric_row(&mut self, cells: &[f64]) {
        self.push_row(cells.iter().map(|v| format!("{v:.6}")).collect());
    }

    /// Renders the table as a CSV string (comma separated, `\n` line endings, cells containing
    /// commas or quotes are quoted).
    #[must_use]
    pub fn to_csv_string(&self) -> String {
        let mut out = String::new();
        write_line(&mut out, &self.header);
        for row in &self.rows {
            write_line(&mut out, row);
        }
        out
    }
}

fn write_line(out: &mut String, cells: &[String]) {
    for (index, cell) in cells.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
            let escaped = cell.replace('"', "\"\"");
            let _ = write!(out, "\"{escaped}\"");
        } else {
            out.push_str(cell);
        }
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_render() {
        let mut table = CsvTable::new(&["n", "m", "ratio"]);
        table.push_numeric_row(&[10.0, 5.0, 0.987654321]);
        table.push_row(vec!["1".into(), "2".into(), "with, comma".into()]);
        let csv = table.to_csv_string();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "n,m,ratio");
        assert!(lines[1].starts_with("10.000000,5.000000,0.987654"));
        assert_eq!(lines[2], "1,2,\"with, comma\"");
        assert_eq!(table.len(), 2);
        assert!(!table.is_empty());
    }

    #[test]
    fn quotes_are_escaped() {
        let mut table = CsvTable::new(&["text"]);
        table.push_row(vec!["say \"hi\"".into()]);
        assert!(table.to_csv_string().contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut table = CsvTable::new(&["a", "b"]);
        table.push_row(vec!["1".into()]);
    }

    #[test]
    fn telemetry_cells_match_the_shared_columns() {
        let telemetry = Telemetry {
            cut_certifications: 3,
            flow_solves: 12,
            bisection_iters: 7,
            wall_time: std::time::Duration::from_millis(4),
        };
        let cells = telemetry_cells(&telemetry);
        assert_eq!(cells.len(), TELEMETRY_COLUMNS.len());
        assert_eq!(cells[0], "3");
        assert_eq!(cells[1], "12");
        assert_eq!(cells[2], "7");
        assert_eq!(cells[3], "4.000");
        let total = telemetry_sum([&telemetry, &telemetry]);
        assert_eq!(total.cut_certifications, 6);
        assert_eq!(total.flow_solves, 24);
        assert_eq!(total.bisection_iters, 14);
        assert_eq!(total.wall_time, std::time::Duration::from_millis(8));
        // A table built with the shared columns accepts the rendered cells.
        let mut table = CsvTable::new(
            &["cell"]
                .iter()
                .copied()
                .chain(TELEMETRY_COLUMNS)
                .collect::<Vec<_>>(),
        );
        let mut row = vec!["x".to_string()];
        row.extend(telemetry_cells(&total));
        table.push_row(row);
        assert!(table.to_csv_string().contains("bisection_iters"));
    }

    #[test]
    fn write_to_file() {
        let mut table = CsvTable::new(&["x"]);
        table.push_numeric_row(&[1.0]);
        let dir = std::env::temp_dir().join("bmp_csv_test");
        let path = dir.join("nested").join("out.csv");
        crate::runner::write_output(&path, &table.to_csv_string()).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("x\n1.000000"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
