//! Every table of simulated cycles (the paper's evaluation and this
//! repository's extensions), from the one table in `tfm_bench::EXHIBITS`:
//! prints each exhibit's tables, asserts its claim at whatever `TFM_SCALE` is
//! set, and at full scale compares the generated Markdown, cell by cell, with
//! the exhibit's `<!-- figures:ID -->` block in EXPERIMENTS.md. Any
//! difference is named on stderr and the exit status is 1.
//!
//! `figures [ID...]` runs the named exhibits only (default: all).
//! `figures --bless` (full scale, all exhibits) rewrites the blocks instead
//! of comparing; the resulting diff is what a reviewer reads.

use std::process::exit;

use tfm_bench::{golden, scale, Table, EXHIBITS};

const DOC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");

fn main() {
    // `cargo bench` passes `--bench` to every target.
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    let bless = args.iter().any(|a| a == "--bless");
    let ids = args.iter().map(String::as_str).filter(|a| *a != "--bless");
    let ids: Vec<&str> = ids.collect();
    let selected = |id: &str| ids.is_empty() || ids.contains(&id);
    if let Some(unknown) = ids.iter().find(|id| EXHIBITS.iter().all(|e| e.id != **id)) {
        let known: Vec<&str> = EXHIBITS.iter().map(|e| e.id).collect();
        eprintln!(
            "figures: no exhibit `{unknown}`; the exhibits are {}",
            known.join(" ")
        );
        exit(2);
    }
    let scale = scale();
    if bless && (scale != 1 || !ids.is_empty()) {
        eprintln!("figures: --bless rewrites every golden value: run it without TFM_SCALE and without exhibit ids");
        exit(2);
    }

    let mut doc = std::fs::read_to_string(DOC).expect(DOC);
    let mut failures = Vec::new();
    for e in EXHIBITS.iter().filter(|e| selected(e.id)) {
        println!("\n## {}: {}\n  claim: {}", e.id, e.title, e.claim);
        let tables = (e.run)(scale);
        tables.iter().for_each(Table::print);
        let failed = e.failures(&tables).into_iter();
        failures.extend(failed.map(|why| format!("{}: the claim does not hold: {why}", e.id)));
        // Goldens exist at full scale only.
        if scale == 1 {
            let block = golden::doc_block(&tables);
            if bless {
                doc = golden::bless_doc(&doc, e.id, &block).unwrap_or_else(|why| panic!("{why}"));
            } else {
                failures.extend(golden::check_doc(&doc, e.id, &block));
            }
        }
    }
    if bless {
        std::fs::write(DOC, doc).expect(DOC);
    }
    if !failures.is_empty() {
        failures.iter().for_each(|f| eprintln!("figures: {f}"));
        eprintln!(
            "figures: {} difference(s); after an intended change, `--bless` and review the diff",
            failures.len()
        );
        exit(1);
    }
}
