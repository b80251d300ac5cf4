//! What an exhibit's claim is checked with: comparisons between named cells
//! of its tables. A cell the exhibit does not produce panics, so no part of
//! a claim holds vacuously.

use crate::Table;

/// A cell: table index, row label, column header.
pub(crate) type At<'a> = (usize, &'a str, &'a str);

/// An exhibit's tables, how many comparisons its claim made over them so
/// far, and the ones that did not hold.
pub(crate) struct Check<'a> {
    pub tables: &'a [Table],
    pub checked: usize,
    pub failed: Vec<String>,
}

impl<'a> Check<'a> {
    pub fn new(tables: &'a [Table]) -> Self {
        Check {
            tables,
            checked: 0,
            failed: Vec::new(),
        }
    }

    pub fn get(&self, (table, row, col): At) -> u64 {
        self.tables[table].fact(row, col)
    }

    fn name(&self, (table, row, col): At) -> String {
        format!("[{} / {row} / {col}]", self.tables[table].title)
    }

    /// Records `what` unless `ok`.
    pub fn want(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.failed.push(what());
        }
    }

    /// `k * a < b`.
    pub fn lt(&mut self, k: f64, a: At, b: At) {
        let (x, y, names) = (self.get(a), self.get(b), (self.name(a), self.name(b)));
        let what = || format!("want {k} x {} < {}, got {x} and {y}", names.0, names.1);
        self.want(k * (x as f64) < y as f64, what);
    }

    /// `a <= k * b`.
    pub fn le(&mut self, a: At, k: f64, b: At) {
        let (x, y, names) = (self.get(a), self.get(b), (self.name(a), self.name(b)));
        let what = || format!("want {} <= {k} x {}, got {x} and {y}", names.0, names.1);
        self.want(x as f64 <= k * y as f64, what);
    }

    /// `a == v`.
    pub fn is(&mut self, a: At, v: u64) {
        let (x, name) = (self.get(a), self.name(a));
        self.want(x == v, || format!("want {name} = {v}, got {x}"));
    }

    /// `a` is within `pct` percent of `v`.
    pub fn near(&mut self, a: At, v: u64, pct: u64) {
        let (x, name) = (self.get(a), self.name(a));
        let what = || format!("want {name} = {v} +-{pct}%, got {x}");
        self.want(x.abs_diff(v) * 100 <= v * pct, what);
    }

    /// Top to bottom, column `col` of `table` strictly rises.
    pub fn rises(&mut self, table: usize, col: &str) {
        self.ordered(table, col, "rise", |above, below| above < below);
    }

    /// Top to bottom, column `col` of `table` strictly falls.
    pub fn falls(&mut self, table: usize, col: &str) {
        self.ordered(table, col, "fall", |above, below| above > below);
    }

    fn ordered(&mut self, table: usize, col: &str, how: &str, ok: fn(u64, u64) -> bool) {
        let (t, values) = (&self.tables[table], self.tables[table].col(col));
        assert!(values.len() > 1, "{}: no column {col:?}", t.title);
        let what = || format!("want [{} / {col}] to {how}, got {values:?}", t.title);
        self.want(values.windows(2).all(|w| ok(w[0], w[1])), what);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cell::{Fact, Text};

    #[test]
    fn a_failed_comparison_names_both_cells_and_their_values() {
        let row = |f: &str, a, b| vec![Text(f.into()), Fact(a), Fact(b)];
        let rows = vec![row("0.50", 2, 5), row("1.00", 1, 6)];
        let tables = [Table::new("T", "local frac | a | b", rows)];
        let mut c = Check::new(&tables);
        c.lt(2.0, (0, "0.50", "a"), (0, "0.50", "b"));
        c.le((0, "0.50", "a"), 1.0, (0, "1.00", "b"));
        c.near((0, "1.00", "b"), 5, 20);
        c.is((0, "1.00", "a"), 1);
        c.rises(0, "b");
        c.falls(0, "a");
        assert_eq!(c.failed, Vec::<String>::new());
        c.lt(3.0, (0, "0.50", "a"), (0, "0.50", "b"));
        c.rises(0, "a");
        let want = [
            "want 3 x [T / 0.50 / a] < [T / 0.50 / b], got 2 and 5",
            "want [T / a] to rise, got [2, 1]",
        ];
        assert_eq!((c.checked, c.failed), (8, want.map(String::from).to_vec()));
    }
}
