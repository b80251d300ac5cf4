//! Every exhibit of the paper's evaluation, from the one table in
//! `tfm_bench::EXHIBITS`: prints each exhibit's tables, asserts its claim at
//! whatever `TFM_SCALE` is set, and at full scale compares the integer facts
//! against `GOLDEN_cycles.json` and the generated Markdown against the
//! `<!-- figures:ID -->` blocks of EXPERIMENTS.md. Any difference is named on
//! stderr and the exit status is 1.
//!
//! `figures [ID...]` runs the named exhibits only (default: all).
//! `figures --bless` (full scale, all exhibits) rewrites both files instead
//! of comparing; the resulting diff is what a reviewer reads.

use std::process::exit;

use tfm_bench::{golden, scale, Table, EXHIBITS};
use tfm_telemetry::Json;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../GOLDEN_cycles.json");
const DOC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

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

    let mut doc = read(DOC);
    let mut produced = Vec::new();
    let mut failures = Vec::new();
    for e in EXHIBITS.iter().filter(|e| selected(e.id)) {
        println!("\n## {}: {}\n  claim: {}", e.id, e.title, e.claim);
        let tables = (e.run)(scale);
        tables.iter().for_each(Table::print);
        let failed = e.failures(&tables).into_iter();
        failures.extend(failed.map(|why| format!("{}: the claim does not hold: {why}", e.id)));
        // Goldens exist at full scale only.
        if scale == 1 {
            produced.push((e.id.to_string(), golden::facts(&tables)));
            let block = golden::doc_block(&tables);
            if bless {
                doc = golden::bless_doc(&doc, e.id, &block).unwrap_or_else(|why| panic!("{why}"));
            } else {
                failures.extend(golden::check_doc(&doc, e.id, &block).err());
            }
        }
    }
    if bless {
        std::fs::write(GOLDEN, Json::Obj(produced).to_string_pretty() + "\n").expect(GOLDEN);
        std::fs::write(DOC, doc).expect(DOC);
    } else if scale == 1 {
        let Json::Obj(mut pinned) = Json::parse(&read(GOLDEN)).expect(GOLDEN) else {
            panic!("{GOLDEN}: not an object")
        };
        // A filtered run answers for the exhibits it ran.
        pinned.retain(|(id, _)| selected(id));
        failures.extend(golden::compare(&Json::Obj(pinned), &Json::Obj(produced)));
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
