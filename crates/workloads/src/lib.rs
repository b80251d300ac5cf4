//! # tfm-workloads — the paper's evaluation programs
//!
//! Every benchmark in the TrackFM paper's evaluation (§4), built as
//! *unmodified* IR programs plus input generators:
//!
//! * [`stream`] — STREAM Sum/Copy/Triad with 4-byte elements (Figs. 7,
//!   10–12) and a strided variant for the Fig. 6 cost-model sweep;
//! * [`kmeans`] — k-means with short, low-density inner loops (Fig. 8);
//! * [`hashmap`] — open-addressing hash table driven by Zipfian lookups
//!   (Figs. 9, 13);
//! * [`analytics`] — a columnar taxi-trip analytics pipeline: scans,
//!   filters, aggregations over small row groups (Figs. 14–15);
//! * [`memcached`] — a key-value store with a hash index and slab-resident
//!   values under Zipfian `get`s (Fig. 16);
//! * [`nas`] — NAS-like kernels CG/FT/IS/MG/SP with the originals' access
//!   patterns (Fig. 17);
//! * [`openloop`] — an open-loop variant of the key-value store: seeded
//!   Zipf arrivals served on N deterministic simulated cores with
//!   per-request latency accounting;
//! * [`zipf`] — the Gray et al. bounded-Zipf sampler the traces use.
//!
//! [`autotune`] implements the paper's §3.2 future-work object-size
//! autotuner (exhaustive search over powers of two with recompilation).
//!
//! [`spec::WorkloadSpec`] carries the program, its inputs, and the expected
//! result (the semantic-preservation oracle); [`runner`] executes specs
//! under the local / Fastswap / TrackFM / AIFM systems with cold-start and
//! counter-reset methodology.
//!
//! Working sets are scaled from the paper's GBs to MBs; every figure sweeps
//! the *fraction* of the working set that fits locally, which is preserved
//! exactly. See DESIGN.md §2.

#![warn(missing_docs)]

pub mod analytics;
pub mod autotune;
pub mod hashmap;
pub mod kmeans;
pub mod memcached;
pub mod nas;
pub mod openloop;
pub mod rng;
pub mod runner;
pub mod serving;
pub mod spec;
pub mod stream;
mod table;
pub mod zipf;

pub use autotune::{autotune_object_size, AutotuneReport, CANDIDATE_SIZES};
pub use openloop::{
    execute_open_loop, execute_open_loop_with_report, open_loop, OpenLoopParams, OpenLoopRun,
    OpenLoopSpec, Request,
};
pub use rng::SplitMix64;
pub use runner::{collect_profile, execute, execute_with_profile, Outcome, RunConfig, SystemKind};
pub use spec::{ArgSpec, InputData, WorkloadSpec};
pub use zipf::ZipfGen;
