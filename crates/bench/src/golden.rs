//! The golden comparator: the integer facts of a full-scale `figures` run
//! against the committed `GOLDEN_cycles.json`, and the Markdown the run
//! would emit against the `<!-- figures:ID -->` blocks of EXPERIMENTS.md.
//! Pure functions over strings and [`Json`]; `benches/figures.rs` owns the
//! two files.

use crate::Table;
use tfm_telemetry::Json;

/// The facts of one exhibit: table title → row label → column → integer.
pub fn facts(tables: &[Table]) -> Json {
    let titles: Vec<&str> = tables.iter().map(|t| t.title.as_str()).collect();
    crate::table::assert_unique("an exhibit", "table title", &titles);
    let table = |t: &Table| {
        let row = |r| {
            Json::Obj(
                t.facts(r)
                    .map(|(h, n)| (h.to_string(), Json::Int(n)))
                    .collect(),
            )
        };
        let rows = t.rows.iter().map(|r| (r[0].to_string(), row(r)));
        // A row of text only (a mean, say) has no place in the golden.
        Json::Obj(
            rows.filter(|(_, facts)| *facts != Json::Obj(vec![]))
                .collect(),
        )
    };
    Json::Obj(tables.iter().map(|t| (t.title.clone(), table(t))).collect())
}

/// One line per difference between the golden and this run's facts (both
/// `{exhibit id: facts}`): a changed integer names exhibit / table / row /
/// column with expected and got; a key on one side only is named with its
/// side. Empty means equal.
pub fn compare(golden: &Json, got: &Json) -> Vec<String> {
    let mut out = Vec::new();
    diff("", golden, got, &mut out);
    out
}

fn diff(path: &str, golden: &Json, got: &Json, out: &mut Vec<String>) {
    let (Json::Obj(want), Json::Obj(have)) = (golden, got) else {
        if golden != got {
            out.push(format!("{path}: expected {golden}, got {got}"));
        }
        return;
    };
    let at = |key: &str| {
        if path.is_empty() {
            key.to_string()
        } else {
            format!("{path} / {key}")
        }
    };
    for (key, want) in want {
        match got.get(key) {
            Some(have) => diff(&at(key), want, have, out),
            None => out.push(format!(
                "{}: in the golden, not produced by this run",
                at(key)
            )),
        }
    }
    for (key, _) in have.iter().filter(|(key, _)| golden.get(key).is_none()) {
        out.push(format!(
            "{}: produced by this run, no golden entry",
            at(key)
        ));
    }
}

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

/// Checks that the document's block for exhibit `id` is byte-equal to
/// `want`; the error names the first line that is not.
pub fn check_doc(doc: &str, id: &str, want: &str) -> Result<(), String> {
    let have = &doc[block(doc, id)?];
    if have == want {
        return Ok(());
    }
    let (want, have) = (lines(want), lines(have));
    let mut pairs = want.zip(have).enumerate();
    let (n, (w, h)) = pairs.find(|(_, (w, h))| w != h).expect("unequal blocks");
    let show = |l: Option<&str>| l.map_or("the end of the block".to_string(), |l| format!("`{l}`"));
    let (n, w, h) = (n + 1, show(w), show(h));
    Err(format!(
        "EXPERIMENTS.md figures:{id}, line {n} of the block: expected {w}, got {h}"
    ))
}

/// The lines of a block, then `None` forever.
fn lines(s: &str) -> impl Iterator<Item = Option<&str>> {
    s.split('\n').map(Some).chain(std::iter::repeat(None))
}

/// The document with exhibit `id`'s block replaced by `want`.
pub fn bless_doc(doc: &str, id: &str, want: &str) -> Result<String, String> {
    let at = block(doc, id)?;
    Ok(format!("{}{want}{}", &doc[..at.start], &doc[at.end..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cell::{Fact, Text};

    fn run(cycles: u64) -> Json {
        let rows = vec![
            vec![Text("0.10".into()), Fact(cycles), Text("1.39".into())],
            vec![Text("mean".into()), Text("".into()), Text("1.39".into())],
        ];
        let table = Table::new(
            "Fig. 7 (Sum)",
            "local frac | cycles (naive) | speedup",
            rows,
        );
        Json::Obj(vec![("fig07".to_string(), facts(&[table]))])
    }

    #[test]
    fn equal_facts_compare_clean_and_only_facts_are_pinned() {
        assert_eq!(compare(&run(7), &run(7)), Vec::<String>::new());
        assert_eq!(
            run(7).to_string(),
            r#"{"fig07":{"Fig. 7 (Sum)":{"0.10":{"cycles (naive)":7}}}}"#
        );
    }

    #[test]
    fn a_changed_integer_names_exhibit_table_row_column_expected_and_got() {
        let want = "fig07 / Fig. 7 (Sum) / 0.10 / cycles (naive): expected 7, got 8";
        assert_eq!(compare(&run(7), &run(8)), [want]);
    }

    #[test]
    fn a_key_on_one_side_only_fails_and_says_which() {
        let none = Json::Obj(vec![]);
        assert_eq!(
            compare(&run(7), &none),
            ["fig07: in the golden, not produced by this run"]
        );
        assert_eq!(
            compare(&none, &run(7)),
            ["fig07: produced by this run, no golden entry"]
        );
    }

    #[test]
    fn blessed_output_reads_back_equal() {
        let golden = Json::parse(&run(7).to_string_pretty()).unwrap();
        assert_eq!(compare(&golden, &run(7)), Vec::<String>::new());

        let doc = "intro\n<!-- figures:fig07 -->\nstale\n<!-- /figures:fig07 -->\nprose\n";
        let stale = check_doc(doc, "fig07", "\n| 7 |\n").unwrap_err();
        assert!(
            stale.contains("fig07, line 1 of the block: expected ``, got `stale`"),
            "{stale}"
        );
        let blessed = bless_doc(doc, "fig07", "\n| 7 |\n").unwrap();
        assert_eq!(check_doc(&blessed, "fig07", "\n| 7 |\n"), Ok(()));
        assert_eq!(bless_doc(&blessed, "fig07", "\n| 7 |\n").unwrap(), blessed);
        assert!(check_doc(doc, "fig08", "")
            .unwrap_err()
            .contains("no `<!-- figures:fig08 -->` marker"));
    }
}
