//! # tfm-ir — the TrackFM intermediate representation
//!
//! A compact SSA intermediate representation modeled on LLVM IR, serving as the
//! substrate on which the TrackFM far-memory compiler (the `trackfm` crate)
//! runs its analyses and transformations.
//!
//! The paper ("TrackFM: Far-out Compiler Support for a Far Memory World",
//! ASPLOS 2024) implements its passes on LLVM + NOELLE. This crate provides the
//! equivalent program representation from scratch:
//!
//! * [`Module`]s contain [`Function`]s and globals;
//! * functions are CFGs of basic [`Block`]s holding instructions in SSA form
//!   (every instruction result is an immutable [`Value`], merges use
//!   [`InstKind::Phi`]);
//! * memory is accessed through typed `Load`/`Store` and address arithmetic
//!   through `Gep` (base + index × scale + displacement), mirroring LLVM's
//!   `getelementptr`;
//! * runtime interactions — `malloc`/`free` as well as the guard, chunking and
//!   prefetch hooks that TrackFM injects — are [`Intrinsic`] calls;
//! * one CFG core — [`Cfg`] (predecessor table, reverse postorder,
//!   reachability) and [`DomTree`] (a Cooper–Harvey–Kennedy solver) —
//!   serves the verifier and every analysis in `tfm-analysis`.
//!
//! The representation is deliberately arena-based: instruction ids
//! ([`Value`]s) are stable across pass mutations, deleted instructions become
//! [`InstKind::Nop`] tombstones, and block instruction lists are re-ordered in
//! place. This is the same engineering trade LLVM makes and it keeps the
//! TrackFM passes simple.
//!
//! ## Example
//!
//! Build and print the `sum` loop from Listing 1 of the paper (before any
//! far-memory transformation):
//!
//! ```
//! use tfm_ir::{Module, Signature, Type, FunctionBuilder, BinOp, CmpOp};
//!
//! let mut m = Module::new("listing1");
//! let f = m.declare_function("sum", Signature::new(vec![Type::Ptr, Type::I64], Some(Type::I64)));
//! {
//!     let mut b = FunctionBuilder::new(m.function_mut(f));
//!     let (arr, n) = (b.param(0), b.param(1));
//!     let header = b.create_block();
//!     let body = b.create_block();
//!     let exit = b.create_block();
//!     let zero = b.iconst(Type::I64, 0);
//!     b.br(header);
//!
//!     b.switch_to_block(header);
//!     let i = b.phi(Type::I64, &[(b.entry_block(), zero)]);
//!     let sum = b.phi(Type::I64, &[(b.entry_block(), zero)]);
//!     let cont = b.icmp(CmpOp::Slt, i, n);
//!     b.cond_br(cont, body, exit);
//!
//!     b.switch_to_block(body);
//!     let addr = b.gep(arr, i, 8, 0);
//!     let elem = b.load(Type::I64, addr);
//!     let sum2 = b.binop(BinOp::Add, sum, elem);
//!     let one = b.iconst(Type::I64, 1);
//!     let i2 = b.binop(BinOp::Add, i, one);
//!     b.add_phi_incoming(i, body, i2);
//!     b.add_phi_incoming(sum, body, sum2);
//!     b.br(header);
//!
//!     b.switch_to_block(exit);
//!     b.ret(Some(sum));
//! }
//! m.verify().expect("well-formed module");
//! ```

#![warn(missing_docs)]

/// Gives a fieldless enum its text-format spelling and `ALL`, from one
/// `Variant => "spelling"` list: the printer writes each spelling and the
/// parser looks it up in `ALL`, so each is written once, and the `match`
/// makes the list name every variant.
macro_rules! spelled {
    ($ty:ident, $(#[$doc:meta])* fn $name:ident { $($v:ident => $s:literal,)* }) => {
        impl $ty {
            /// Every member, in the order of its spelling list.
            pub const ALL: &'static [$ty] = &[$($ty::$v),*];

            $(#[$doc])*
            pub fn $name(self) -> &'static str {
                match self {
                    $($ty::$v => $s,)*
                }
            }
        }
    };
}

mod builder;
mod cfg;
mod entities;
mod function;
mod inst;
mod module;
mod parser;
mod printer;
mod types;
mod verifier;

pub use builder::FunctionBuilder;
pub use cfg::{Cfg, DomTree};
pub use entities::{Block, FuncId, GlobalId, Value};
pub use function::{BlockData, Function, InstData, Signature};
pub use inst::{
    BinOp, CastOp, CmpOp, FCmpOp, InstKind, Intrinsic, CHUNK_FLAG_PREFETCH, CHUNK_FLAG_WRITE,
};
pub use module::{Global, Module};
pub use parser::{parse_module, ParseError};
pub use types::Type;
pub use verifier::{verify_function, verify_module, VerifyError};
