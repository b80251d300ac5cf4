//! # tfm-runtime — the AIFM-like far-memory object runtime
//!
//! TrackFM (ASPLOS '24) reuses the AIFM runtime as its backend, lightly
//! modified to expose the **object state table** that makes compiler-injected
//! guards cheap. This crate implements that runtime for the simulated
//! far-memory cluster:
//!
//! * [`TfmPtr`]/[`ObjId`] — non-canonical pointers (bit 60) and the
//!   pointer→object shift (§3.1–3.2);
//! * [`StateTable`] — the contiguous 8-byte-per-object metadata table whose
//!   single-load safety test powers the 14-instruction fast path (Fig. 3–4);
//! * [`RegionAllocator`] — the region allocator behind the custom `malloc`:
//!   large allocations span whole objects, small ones never straddle an
//!   object boundary;
//! * [`FarMemory`] — localization (demand fetch), CLOCK evacuation with
//!   dirty writebacks, pinning (deref scopes / chunk locality invariants),
//!   and an AIFM-style stride prefetcher issuing asynchronous fetches over a
//!   [`tfm_net::Link`].
//!
//! ## Example
//!
//! ```
//! use tfm_runtime::{FarMemory, FarMemoryConfig};
//!
//! let mut fm = FarMemory::new(FarMemoryConfig::small());
//! let ptr = fm.allocate(8192, 0).expect("allocate");
//! let obj = fm.obj_of_offset(ptr.offset());
//! assert!(fm.table().is_safe(obj)); // fresh memory is local
//!
//! fm.evacuate_all(0); // cold-start the benchmark
//! let stall = fm.localize(obj, /*write=*/false, /*now=*/0);
//! assert!(stall > 0); // demand fetch over the TCP backend
//! ```

mod alloc;
mod config;
mod far_memory;
mod ptr;
mod state;
mod stats;

pub use alloc::{AllocError, RegionAllocator};
pub use config::{FarMemoryConfig, PrefetchConfig, RetryPolicy};
pub use far_memory::FarMemory;
pub use ptr::{ObjId, TfmPtr, OFFSET_MASK, TFM_BIT};
pub use state::{StateTable, DIRTY, HOT, INFLIGHT, PRESENT, SAFETY_MASK};
pub use stats::RuntimeStats;
