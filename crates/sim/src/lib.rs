//! # tfm-sim — the execution engine
//!
//! Interprets [`tfm_ir`] programs on a simulated cycle timeline against one
//! of three memory systems, reproducing the four columns of the paper's
//! evaluation (and its §5 hybrid aside):
//!
//! * [`LocalMem`] — everything local (the normalization baseline);
//! * [`FastswapMem`] — kernel paging over RDMA (Fastswap), running the
//!   *untransformed* program;
//! * [`TrackFmMem`] — compiler guards + the AIFM-like object runtime,
//!   running the *TrackFM-transformed* program;
//! * the same [`TrackFmMem`] in [`Flavor::Aifm`] — the library-based AIFM
//!   baseline (developer-integrated costs) — or [`Flavor::Hybrid`] — the §5
//!   compiler+kernel exploration (guard-free raw accesses, kernel-cost
//!   faults).
//!
//! The [`Machine`] charges [`trackfm::CostModel`] cycles per operation and
//! returns a [`RunResult`] with cycles, guard/fault counters and network
//! byte ledgers — everything the paper's tables and figures plot.
//!
//! One execution engine sits behind [`Machine::run`]: the flattened
//! register-[`bytecode`] engine, which lowers the module once in
//! [`Machine::new`] and dispatches from dense pre-resolved instructions.
//! The tree-walking interpreter it replaced is kept as the reference the
//! differential tests compare against, behind the off-by-default `oracle`
//! cargo feature — a build-time test seam, not a run-time choice (see
//! DESIGN.md §6j).
//!
//! ## Example: the sum loop end to end
//!
//! ```
//! use tfm_ir::{Module, Signature, Type, FunctionBuilder, BinOp};
//! use tfm_runtime::FarMemoryConfig;
//! use tfm_sim::{Machine, TrackFmMem};
//! use trackfm::{TrackFmCompiler, CostModel};
//!
//! // Unmodified program: sum over a heap array passed in as a pointer.
//! let mut m = Module::new("demo");
//! let f = m.declare_function("main", Signature::new(vec![Type::Ptr, Type::I64], Some(Type::I64)));
//! {
//!     let mut b = FunctionBuilder::new(m.function_mut(f));
//!     let (arr, n) = (b.param(0), b.param(1));
//!     let zero = b.iconst(Type::I64, 0);
//!     let acc = b.alloca(8, 8);
//!     b.store(acc, zero);
//!     b.counted_loop(zero, n, 1, |b, i| {
//!         let a = b.gep(arr, i, 8, 0);
//!         let x = b.load(Type::I64, a);
//!         let s = b.load(Type::I64, acc);
//!         let s2 = b.binop(BinOp::Add, s, x);
//!         b.store(acc, s2);
//!     });
//!     let s = b.load(Type::I64, acc);
//!     b.ret(Some(s));
//! }
//!
//! // Recompile for far memory and run under a 25% local-memory budget.
//! TrackFmCompiler::default().compile(&mut m, None);
//! let cfg = FarMemoryConfig::small().with_local_budget(16 << 10);
//! let heap = cfg.heap_size;
//! let mem = TrackFmMem::new(cfg, CostModel::default());
//! let mut machine = Machine::new(&m, mem, CostModel::default(), heap);
//! let arr = machine.setup_alloc(8 * 1024);
//! machine.setup_write(arr, &1u64.to_le_bytes().repeat(1024)); // little-endian words
//! machine.finish_setup(true); // cold start
//! let result = machine.run("main", &[arr, 1024]).unwrap();
//! assert_eq!(result.ret, 1024);
//! assert!(result.bytes_transferred() > 0); // data came over the network
//! ```

#![warn(missing_docs)]

pub mod bytecode;
mod machine;
mod memsys;
#[cfg(feature = "oracle")]
mod oracle;
mod sched;
mod stats;
mod trap;

pub use machine::Machine;
pub use memsys::{
    FastswapMem, Flavor, LocalMem, MemSummary, MemorySystem, TrackFmMem, GLOBAL_BASE, HEAP_BASE,
    STACK_BASE,
};
#[cfg(feature = "oracle")]
pub use oracle::ExecEngine;
pub use sched::CoreSet;
pub use stats::{ExecStats, RunResult};
pub use trap::Trap;
