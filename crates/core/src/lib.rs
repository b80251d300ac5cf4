//! # trackfm — compiler-based far memory
//!
//! The primary contribution of "TrackFM: Far-out Compiler Support for a Far
//! Memory World" (ASPLOS '24): an analysis-and-transformation pipeline that
//! turns unmodified programs into far-memory binaries, with no programmer
//! annotations and no OS changes. Where kernel-based systems pay page faults
//! and library-based systems pay programmer effort, TrackFM recovers the
//! needed semantics in the compiler middle-end.
//!
//! The pipeline (Fig. 2 of the paper, implemented in [`passes`]):
//!
//! 1. **runtime initialization** — hook `tfm.runtime.init()` into `main`;
//! 2. **guard check analysis** — find loads/stores that may touch the heap
//!    (allocation-site points-to; stack/global accesses are exempt);
//! 3. **loop chunking analysis + transform** — for strided accesses over
//!    induction variables, trade per-element fast-path guards for
//!    per-object boundary checks, governed by the Eq. 1–3 [`CostModel`]
//!    and (optionally) an execution profile;
//! 4. **guard check transform** — wrap the remaining candidate accesses in
//!    custody-check + state-table guards (Fig. 4);
//! 5. **libc transformation** — reroute `malloc`/`calloc`/`realloc`/`free`
//!    to the TrackFM-managed allocator returning non-canonical pointers.
//!
//! An optional **O1 pre-pipeline** (constant folding, CSE, redundant-load
//! elimination, LICM, DCE) runs first, reproducing the paper's Fig. 17b
//! finding that pre-optimized IR needs far fewer guards.
//!
//! ## Example
//!
//! ```
//! use tfm_ir::{Module, Signature, Type, FunctionBuilder, BinOp};
//! use trackfm::{TrackFmCompiler, CompilerOptions};
//!
//! // The paper's Listing-1 loop, built as unmodified IR.
//! let mut m = Module::new("sum");
//! let f = m.declare_function("main", Signature::new(vec![], Some(Type::I64)));
//! {
//!     let mut b = FunctionBuilder::new(m.function_mut(f));
//!     let arr = b.malloc_const(8000);
//!     let zero = b.iconst(Type::I64, 0);
//!     let n = b.iconst(Type::I64, 1000);
//!     b.counted_loop(zero, n, 1, |b, i| {
//!         let addr = b.gep(arr, i, 8, 0);
//!         let x = b.load(Type::I64, addr);
//!         let _ = b.binop(BinOp::Add, x, x);
//!     });
//!     b.ret(Some(zero));
//! }
//!
//! // Recompile for far memory — no source changes.
//! let report = TrackFmCompiler::default().compile(&mut m, None);
//! assert_eq!(report.chunking.streams, 1); // the loop was chunked
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod passes;
pub mod pipeline;

pub use cost::CostModel;
pub use passes::chunking::{ChunkingMode, ChunkingOptions, ChunkingOutcome};
pub use passes::guard_elim::{ElidedSite, ElisionOutcome};
pub use passes::guards::GuardSite;
pub use passes::lint::{lint_module, LintError};
pub use passes::o1::O1Outcome;
pub use pipeline::{CompileReport, CompilerOptions, GuardOpt, TrackFmCompiler};
