//! # tfm-analysis — program analyses for the TrackFM compiler
//!
//! The TrackFM paper builds its passes on NOELLE's program-wide abstractions:
//! a program dependence graph backed by "several high-accuracy memory alias
//! analyses" (used by the guard-check analysis to skip stack/global
//! accesses), a dependence-pattern induction-variable analysis (used by loop
//! chunking), and a profiling engine (used to filter low-density loops).
//!
//! This crate provides the equivalents over [`tfm_ir`]:
//!
//! * [`dom`] — the dominator tree (re-exported from the one CFG core in
//!   [`tfm_ir`]) and dominance frontiers;
//! * [`loops`] — natural-loop forest, preheader creation, exit edges;
//! * [`points_to`] — allocation-site memory classification (heap / stack /
//!   global / localized / unknown), the alias backbone of the guard-check
//!   analysis;
//! * [`guard_check`] — forward available-guards dataflow (which SSA values
//!   hold custody at each program point), behind the soundness lint and the
//!   redundant-guard elimination pass;
//! * [`induction`] — basic and derived induction variables plus strided
//!   loop accesses, the backbone of loop chunking and prefetch planning;
//! * [`summaries`] — a vestige: [`ModuleSummaries::compute`] classifies
//!   every function of a module and nothing in the compiler reads it. The
//!   compiler summarises no callee: every call kills custody, and pointer
//!   parameters and call results are of unknown provenance;
//! * [`profile`] — edge/block execution profiles gathered by the simulator
//!   and consumed by the chunking cost model.

#![warn(missing_docs)]

pub mod dom;
pub mod guard_check;
pub mod induction;
pub mod loops;
pub mod points_to;
pub mod profile;
pub mod summaries;

pub use dom::DomTree;
pub use guard_check::{AvailableGuards, Cover, CoverSrc, GuardKind};
pub use induction::{BasicIv, LoopAccess};
pub use loops::{LoopForest, NaturalLoop};
pub use points_to::{MemClass, PointsTo};
pub use profile::Profile;
pub use summaries::ModuleSummaries;
