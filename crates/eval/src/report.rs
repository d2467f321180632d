//! Result rendering. Every experiment returns one [`Report`]: a title and
//! an ordered list of blocks, free text lines or typed [`Table`]s. The
//! report prints as fixed-width ASCII text (stdout) and as one JSON
//! document (under `target/experiments/`).

use std::fs;
use std::path::PathBuf;

use xclean_telemetry::json::Json;

/// Marks a wall-clock cell in [`Report::render_masked`].
const MASK: &str = "~";

/// One typed table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Free text: a label, a sample query.
    Text(String),
    /// A number and the decimals it is printed with.
    Num(f64, usize),
    /// A count.
    Int(u64),
    /// A wall-clock reading, in the unit its column names, and the decimals
    /// it is printed with. The one kind that differs run to run.
    Wall(f64, usize),
}

impl Cell {
    fn render(&self, mask_wall: bool) -> String {
        match self {
            Cell::Text(text) => text.clone(),
            Cell::Int(n) => n.to_string(),
            Cell::Wall(..) if mask_wall => MASK.to_string(),
            Cell::Num(v, decimals) | Cell::Wall(v, decimals) => format!("{v:.decimals$}"),
        }
    }

    fn to_json(&self) -> Json {
        match self {
            Cell::Text(text) => text.as_str().into(),
            Cell::Num(v, _) | Cell::Wall(v, _) => (*v).into(),
            Cell::Int(n) => (*n).into(),
        }
    }

    fn value(&self) -> Option<f64> {
        match self {
            Cell::Text(_) => None,
            Cell::Num(v, _) | Cell::Wall(v, _) => Some(*v),
            Cell::Int(n) => Some(*n as f64),
        }
    }
}

impl From<&str> for Cell {
    fn from(text: &str) -> Cell {
        Cell::Text(text.to_string())
    }
}

impl From<String> for Cell {
    fn from(text: String) -> Cell {
        Cell::Text(text)
    }
}

impl From<u64> for Cell {
    fn from(n: u64) -> Cell {
        Cell::Int(n)
    }
}

impl From<usize> for Cell {
    fn from(n: usize) -> Cell {
        Cell::Int(n as u64)
    }
}

/// A table with named columns and rows of typed cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    columns: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table with these column names.
    pub fn new<S: Into<String>>(columns: impl IntoIterator<Item = S>) -> Table {
        Table {
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row, one cell per column.
    pub fn push(&mut self, row: Vec<Cell>) {
        assert_eq!(row.len(), self.columns.len(), "one cell per column");
        self.rows.push(row);
    }

    /// The number in `column` of the row labelled `row_label`. A row's
    /// label is its leading text cells joined by a space (`DBLP-RAND`, or
    /// `XClean DBLP-RAND` where two text columns lead). Panics when either
    /// is missing or the cell is text.
    pub fn value(&self, row_label: &str, column: &str) -> f64 {
        let col = self
            .columns
            .iter()
            .position(|c| c == column)
            .unwrap_or_else(|| panic!("no column {column:?} in {:?}", self.columns));
        let row = self
            .rows
            .iter()
            .find(|row| label(row) == row_label)
            .unwrap_or_else(|| {
                panic!(
                    "no row {row_label:?} in {:?}",
                    self.rows.iter().map(|row| label(row)).collect::<Vec<_>>()
                )
            });
        row[col]
            .value()
            .unwrap_or_else(|| panic!("{row_label:?} / {column:?} is text"))
    }

    fn render(&self, mask_wall: bool) -> String {
        let headers: Vec<&str> = self.columns.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(|cell| cell.render(mask_wall)).collect())
            .collect();
        render_table(&headers, &rows)
    }

    fn to_json(&self) -> Json {
        let row = |cells: &Vec<Cell>| {
            Json::object(
                self.columns
                    .iter()
                    .zip(cells)
                    .map(|(column, cell)| (column.clone(), cell.to_json())),
            )
        };
        self.rows.iter().map(row).collect()
    }
}

fn label(row: &[Cell]) -> String {
    let texts: Vec<&str> = row
        .iter()
        .map_while(|cell| match cell {
            Cell::Text(text) => Some(text.as_str()),
            _ => None,
        })
        .collect();
    texts.join(" ")
}

/// One block of a report.
#[derive(Debug, Clone, PartialEq)]
enum Block {
    Text(Vec<String>),
    Table(Table),
}

/// One experiment's result: what it prints and what it dumps as JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    title: String,
    blocks: Vec<Block>,
    json_stem: Option<&'static str>,
}

impl Report {
    /// An empty report; `json_stem` names its dump under
    /// `target/experiments/` (`None`: the report is not dumped).
    pub fn new(title: impl Into<String>, json_stem: Option<&'static str>) -> Report {
        Report {
            title: title.into(),
            blocks: Vec::new(),
            json_stem,
        }
    }

    /// Appends a line of free text (`""` prints a blank line).
    pub fn line(&mut self, line: impl Into<String>) {
        match self.blocks.last_mut() {
            Some(Block::Text(lines)) => lines.push(line.into()),
            _ => self.blocks.push(Block::Text(vec![line.into()])),
        }
    }

    /// Appends a table; it prints followed by a blank line.
    pub fn table(&mut self, table: Table) {
        self.blocks.push(Block::Table(table));
    }

    /// The report's tables, in order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.blocks.iter().filter_map(|block| match block {
            Block::Table(table) => Some(table),
            Block::Text(_) => None,
        })
    }

    /// The file stem of the JSON dump, if the report has one.
    pub fn json_stem(&self) -> Option<&'static str> {
        self.json_stem
    }

    /// The report as text: the title, a blank line, then every block.
    pub fn render(&self) -> String {
        self.render_with(false)
    }

    /// [`Report::render`] with every wall-clock cell printed as `~`, so
    /// the text is the same on every run.
    pub fn render_masked(&self) -> String {
        self.render_with(true)
    }

    fn render_with(&self, mask_wall: bool) -> String {
        let mut out = format!("== {} ==\n\n", self.title);
        for block in &self.blocks {
            match block {
                Block::Text(lines) => {
                    for line in lines {
                        out.push_str(line);
                        out.push('\n');
                    }
                }
                Block::Table(table) => {
                    out.push_str(&table.render(mask_wall));
                    out.push('\n');
                }
            }
        }
        out
    }

    /// The report as JSON: `{"title", "blocks"}`, where a text block is
    /// `{"text": [lines]}` and a table `{"table": [rows]}`, each row an
    /// object keyed by column name, numbers at full precision.
    pub fn to_json(&self) -> Json {
        let blocks = self.blocks.iter().map(|block| match block {
            Block::Text(lines) => {
                Json::object([("text", lines.iter().map(String::as_str).collect())])
            }
            Block::Table(table) => Json::object([("table", table.to_json())]),
        });
        Json::object([
            ("title", self.title.as_str().into()),
            ("blocks", blocks.collect()),
        ])
    }
}

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

    fn sample() -> Report {
        let mut table = Table::new(["system", "query set", "MRR", "#q", "ms"]);
        table.push(vec![
            "XClean".into(),
            "DBLP-RAND".into(),
            Cell::Num(0.876, 2),
            49usize.into(),
            Cell::Wall(0.1234, 3),
        ]);
        let mut report = Report::new("E0: sample (scale 1)", Some("sample"));
        report.line("-- caption --");
        report.table(table);
        report.line("(a note)");
        report
    }

    #[test]
    fn report_renders_title_blocks_and_masks_wall_clock_cells() {
        let report = sample();
        let text = report.render();
        assert!(text.starts_with("== E0: sample (scale 1) ==\n\n-- caption --\n+"));
        assert!(text.ends_with("+\n\n(a note)\n"), "{text}");
        assert!(text.contains("| XClean | DBLP-RAND | 0.88 | 49 | 0.123 |"));
        let masked = report.render_masked();
        assert!(masked.contains("| 0.88 | 49 | ~  |"), "{masked}");
    }

    #[test]
    fn table_values_are_read_by_row_label_and_column() {
        let report = sample();
        let table = report.tables().next().unwrap();
        assert_eq!(table.value("XClean DBLP-RAND", "MRR"), 0.876);
        assert_eq!(table.value("XClean DBLP-RAND", "#q"), 49.0);
        assert_eq!(table.value("XClean DBLP-RAND", "ms"), 0.1234);
    }

    #[test]
    fn report_json_keys_rows_by_column_at_full_precision() {
        let json = sample().to_json();
        assert_eq!(json["title"].as_str(), Some("E0: sample (scale 1)"));
        assert_eq!(json["blocks"][0]["text"][0].as_str(), Some("-- caption --"));
        let row = &json["blocks"][1]["table"][0];
        assert_eq!(row["query set"].as_str(), Some("DBLP-RAND"));
        assert_eq!(row["MRR"].as_f64(), Some(0.876));
        assert_eq!(row["#q"].as_u64(), Some(49));
        assert_eq!(row["ms"].as_f64(), Some(0.1234));
        assert_eq!(json["blocks"][2]["text"][0].as_str(), Some("(a note)"));
    }
}
