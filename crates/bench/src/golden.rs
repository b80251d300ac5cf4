//! The golden comparator: the `<!-- figures:ID -->` blocks of EXPERIMENTS.md
//! *are* the golden. A full-scale `figures` run renders each exhibit's
//! tables as Markdown and compares them with its block, cell by cell. Pure
//! functions over strings; `benches/figures.rs` owns the file.

use crate::Table;

/// What EXPERIMENTS.md holds between an exhibit's markers.
pub fn doc_block(tables: &[Table]) -> String {
    let blocks: Vec<String> = tables.iter().map(Table::markdown).collect();
    format!("\n{}\n", blocks.join("\n"))
}

/// The byte range between `<!-- figures:ID -->` and `<!-- /figures:ID -->`.
fn block(doc: &str, id: &str) -> Result<std::ops::Range<usize>, String> {
    let (open, close) = (
        format!("<!-- figures:{id} -->\n"),
        format!("<!-- /figures:{id} -->"),
    );
    let missing = |marker: &str| format!("EXPERIMENTS.md: no `{}` marker", marker.trim_end());
    let start = doc.find(&open).ok_or_else(|| missing(&open))? + open.len();
    let len = doc[start..].find(&close).ok_or_else(|| missing(&close))?;
    Ok(start..start + len)
}

/// The cells of a Markdown table row.
fn cells(line: &str) -> Option<Vec<&str>> {
    let inner = line.strip_prefix("| ")?.strip_suffix(" |")?;
    Some(inner.split(" | ").collect())
}

/// One line per difference between the document's block for exhibit `id`
/// (the pin: expected) and `run`, what this run would emit (got). Empty
/// means byte-equal. A changed cell of a table row names exhibit / table
/// title / row label / column header; any other difference names its line
/// of the block and ends the comparison, since the lines under it no longer
/// pair up.
pub fn check_doc(doc: &str, id: &str, run: &str) -> Vec<String> {
    let pinned = match block(doc, id) {
        Ok(at) => &doc[at],
        Err(why) => return vec![why],
    };
    let at = format!("EXPERIMENTS.md figures:{id}");
    // The table the walk is in: set by lines equal on both sides.
    let (mut title, mut header) = ("", None);
    let mut out = Vec::new();
    for (n, (want, got)) in lines(pinned).zip(lines(run)).enumerate() {
        if want == got {
            let Some(line) = got else { break };
            if let Some(t) = line.strip_prefix("#### ") {
                (title, header) = (t, None);
            } else if header.is_none() {
                header = cells(line);
            }
            continue;
        }
        match (want.and_then(cells), got.and_then(cells), &header) {
            (Some(want), Some(got), Some(h))
                if want.len() == h.len() && got.len() == h.len() && want[0] == got[0] =>
            {
                let moved = (1..h.len()).filter(|&i| want[i] != got[i]);
                out.extend(moved.map(|i| {
                    let (label, col, want, got) = (want[0], h[i], want[i], got[i]);
                    format!("{at} / {title} / {label} / {col}: expected {want}, got {got}")
                }));
            }
            _ => {
                let show = |l: Option<&str>| {
                    l.map_or_else(|| "the end of the block".to_string(), |l| format!("`{l}`"))
                };
                let (n, want, got) = (n + 1, show(want), show(got));
                out.push(format!(
                    "{at}, line {n} of the block: expected {want}, got {got}"
                ));
                break;
            }
        }
    }
    out
}

/// The lines of a block, then `None` forever.
fn lines(s: &str) -> impl Iterator<Item = Option<&str>> {
    s.split('\n').map(Some).chain(std::iter::repeat(None))
}

/// The document with exhibit `id`'s block replaced by `run`.
pub fn bless_doc(doc: &str, id: &str, run: &str) -> Result<String, String> {
    let at = block(doc, id)?;
    Ok(format!("{}{run}{}", &doc[..at.start], &doc[at.end..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cell::{Fact, Text};

    /// An exhibit of two tables; the second has a note.
    fn run(cycles: u64, note: &str) -> String {
        let rows = vec![
            vec![Text("0.10".into()), Fact(cycles), Text("1.39".into())],
            vec![Text("mean".into()), Text("".into()), Text("1.39".into())],
        ];
        let headers = "local frac | cycles (naive) | speedup";
        let sum = Table::new("Fig. 7 (Sum)", headers, rows.clone());
        doc_block(&[sum, Table::new("Fig. 7 (Copy)", headers, rows).note(note)])
    }

    fn doc(block: &str) -> String {
        format!("intro\n<!-- figures:fig07 -->\n{block}<!-- /figures:fig07 -->\nprose\n")
    }

    #[test]
    fn a_changed_integer_names_exhibit_table_row_column_expected_and_got() {
        // Both tables hold the cell: each is named under its own title.
        let at = "EXPERIMENTS.md figures:fig07";
        let want = ["Sum", "Copy"].map(|kernel| {
            format!("{at} / Fig. 7 ({kernel}) / 0.10 / cycles (naive): expected 7, got 8")
        });
        assert_eq!(
            check_doc(&doc(&run(7, "paper")), "fig07", &run(8, "paper")),
            want
        );
    }

    #[test]
    fn a_changed_note_or_a_row_of_another_width_names_the_block_line() {
        let pinned = doc(&run(7, "paper: 1.5"));
        let note = check_doc(&pinned, "fig07", &run(7, "paper: 1.6"));
        assert_eq!(note.len(), 1, "{note:?}");
        assert!(
            note[0].ends_with("line 16 of the block: expected `paper: 1.5`, got `paper: 1.6`"),
            "{note:?}"
        );
        // A row with a cell more than its header: the line, and nothing
        // under it (the Copy table's 7 -> 8 goes unreported).
        let wider = run(8, "paper: 1.5").replacen("| 8 |", "| 8 | 9 |", 1);
        let width = check_doc(&pinned, "fig07", &wider);
        assert_eq!(width.len(), 1, "{width:?}");
        assert!(
            width[0].contains("line 6 of the block: expected `| 0.10 | 7 | 1.39 |`, got `| 0.10 | 8 | 9 | 1.39 |`"),
            "{width:?}"
        );
        let empty = check_doc(&doc(""), "fig07", &run(7, "paper"));
        let want = "line 2 of the block: expected the end of the block, got `#### Fig. 7 (Sum)`";
        assert!(empty[0].ends_with(want), "{empty:?}");
    }

    #[test]
    fn bless_then_check_is_clean_and_idempotent_and_a_missing_marker_is_named() {
        let run = run(7, "paper");
        let blessed = bless_doc(&doc("stale\n"), "fig07", &run).unwrap();
        assert_eq!(check_doc(&blessed, "fig07", &run), Vec::<String>::new());
        assert_eq!(bless_doc(&blessed, "fig07", &run).unwrap(), blessed);
        let missing = "EXPERIMENTS.md: no `<!-- figures:fig08 -->` marker";
        assert_eq!(check_doc(&blessed, "fig08", &run), [missing]);
        assert_eq!(bless_doc(&blessed, "fig08", &run), Err(missing.to_string()));
    }
}
