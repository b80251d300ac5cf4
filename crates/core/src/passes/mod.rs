//! The TrackFM pass pipeline (Fig. 2 of the paper):
//!
//! ```text
//! source IR → [O1 pre-pipeline] → runtime initialization pass
//!           → guard check analysis → loop chunking analysis
//!           → loop chunking transform → guard check transform
//!           → redundant-guard elimination → libc transformation pass
//!           → [tfm-lint soundness check] → far-memory binary
//! ```
//!
//! The O1 pre-pipeline position reflects the paper's Fig. 17b finding: letting
//! classic scalar optimizations run *before* guard injection removes
//! redundant memory instructions and with them most of the injected guards.
//! Redundant-guard elimination ([`guard_elim`]) deletes guards the
//! available-guards dataflow proves duplicated, and the final lint
//! ([`lint`]) machine-checks the guard-coverage invariant on the output.
//! Every pass sees one function at a time: a call kills custody and no
//! callee is summarised, the rule the lint checks and the dynamic sanitizer
//! enforces on the path a run takes.

pub mod chunking;
pub mod guard_elim;
pub mod guards;
pub mod libc;
pub mod lint;
pub mod mem2reg;
pub mod o1;
pub mod runtime_init;
