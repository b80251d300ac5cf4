//! The cell and table types every exhibit produces, and their two renderings
//! (aligned text for stdout, Markdown for EXPERIMENTS.md).

use std::fmt;

/// One cell of an exhibit table.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// An integer the run produced (cycles, event counts, bytes, static
    /// instruction and guard counts): pinned by the exhibit's
    /// `<!-- figures:ID -->` block in EXPERIMENTS.md.
    Fact(u64),
    /// Display text: row labels, ratios derived from facts, paper columns.
    Text(String),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Fact(n) => n.fmt(f),
            Cell::Text(s) => s.fmt(f),
        }
    }
}

/// Panics when two of `names` are equal: a lookup by name would then answer
/// for the first and leave the second unchecked.
pub(crate) fn assert_unique<T: PartialEq + fmt::Debug>(within: &str, what: &str, names: &[T]) {
    for (i, name) in names.iter().enumerate() {
        assert!(!names[..i].contains(name), "{within}: two {what}s {name:?}");
    }
}

/// One table of an exhibit. A row's first cell is its label; the claims and
/// the golden comparator name a fact by (table title, row label, column
/// header).
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// Printed above the table; unique within the exhibit.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows, each as long as `headers`.
    pub rows: Vec<Vec<Cell>>,
    /// Lines under the table: summaries derived from it, the paper's values.
    pub notes: Vec<String>,
}

impl Table {
    /// A table without notes; `headers` is one string, `" | "`-separated.
    ///
    /// # Panics
    /// Panics on a header or cell containing `|` or a newline: the golden
    /// comparator finds a cell by splitting the Markdown row.
    pub fn new(title: impl Into<String>, headers: &str, rows: Vec<Vec<Cell>>) -> Table {
        let headers: Vec<String> = headers.split(" | ").map(String::from).collect();
        assert!(rows.iter().all(|r| r.len() == headers.len()));
        let cells = rows.iter().flatten().map(Cell::to_string);
        for text in headers.iter().cloned().chain(cells) {
            assert!(!text.contains(['|', '\n']), "a cell holds {text:?}");
        }
        let table = Table {
            title: title.into(),
            headers,
            rows,
            notes: Vec::new(),
        };
        // The golden and the claims find a cell by its labels.
        assert_unique(&table.title, "column header", &table.headers);
        assert_unique(&table.title, "row label", &table.labels());
        table
    }

    /// Adds a line under the table.
    pub fn note(mut self, line: impl Into<String>) -> Table {
        self.notes.push(line.into());
        self
    }

    /// Row labels, top to bottom.
    pub fn labels(&self) -> Vec<&str> {
        let labels = self.rows.iter().map(|r| match &r[0] {
            Cell::Text(label) => label.as_str(),
            Cell::Fact(n) => panic!("{}: row label {n} is not text", self.title),
        });
        labels.collect()
    }

    /// The facts of one row, as `(column header, value)`.
    pub fn facts<'a>(&'a self, row: &'a [Cell]) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.headers.iter().zip(row).filter_map(|(h, c)| match c {
            Cell::Fact(n) => Some((h.as_str(), *n)),
            _ => None,
        })
    }

    /// The fact `row` holds in column `col`, if any.
    pub fn fact_in(&self, row: &[Cell], col: &str) -> Option<u64> {
        self.facts(row).find(|(h, _)| *h == col).map(|(_, n)| n)
    }

    /// The fact at (`row` label, `col` header).
    ///
    /// # Panics
    /// Panics when there is none: a claim names a cell its exhibit does not
    /// produce, which is a bug in the exhibit table.
    pub fn fact(&self, row: &str, col: &str) -> u64 {
        let at = self.labels().iter().position(|label| *label == row);
        at.and_then(|i| self.fact_in(&self.rows[i], col))
            .unwrap_or_else(|| panic!("{}: no fact at row {row:?}, column {col:?}", self.title))
    }

    /// The facts down column `col`, top to bottom (rows without one skipped).
    pub fn col(&self, col: &str) -> Vec<u64> {
        let rows = self.rows.iter();
        rows.filter_map(|r| self.fact_in(r, col)).collect()
    }

    /// Prints the table to stdout: aligned columns, then the notes.
    pub fn print(&self) {
        println!("\n=== {} ===", self.title);
        let text = |r: &Vec<Cell>| r.iter().map(Cell::to_string).collect();
        let rows: Vec<Vec<String>> = self.rows.iter().map(text).collect();
        let width =
            |(i, h): (usize, &String)| rows.iter().map(|r| r[i].len()).fold(h.len(), usize::max);
        let widths: Vec<usize> = self.headers.iter().enumerate().map(width).collect();
        let line = |cells: &[String]| {
            let cells = cells.iter().zip(&widths);
            let cells: Vec<String> = cells.map(|(c, w)| format!("{c:>w$}")).collect();
            println!("  {}", cells.join("  "));
        };
        line(&self.headers);
        line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
        rows.iter().for_each(|r| line(r));
        for n in &self.notes {
            println!("  {n}");
        }
    }

    /// The table as Markdown.
    pub fn markdown(&self) -> String {
        let line = |cells: Vec<String>| format!("| {} |\n", cells.join(" | "));
        let mut out = format!("#### {}\n\n", self.title);
        out += &line(self.headers.clone());
        out += &line(vec!["---:".to_string(); self.headers.len()]);
        for r in &self.rows {
            out += &line(r.iter().map(Cell::to_string).collect());
        }
        if !self.notes.is_empty() {
            out += "\n";
        }
        for n in &self.notes {
            out += &format!("{n}\n");
        }
        out
    }
}
