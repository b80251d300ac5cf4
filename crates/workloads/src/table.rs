//! The open-addressing hash table behind the key-value workloads: the
//! Zipf hashmap ([`crate::hashmap`]), the memcached store's index
//! ([`crate::memcached`]) and the open-loop `get` ([`crate::openloop`]).
//!
//! 16-byte slots `(key, value)`, key 0 = empty, multiplicative hashing and
//! linear probing. The table is built host-side; the IR programs only look
//! keys up, through [`emit_probe`]. Probing uses a masked increment, which is
//! deliberately *not* an affine induction variable — loop chunking correctly
//! stays away, leaving per-access guards exactly as the paper describes for
//! irregular structures.

use crate::spec::{ArgSpec, InputData};
use tfm_ir::{BinOp, CmpOp, FunctionBuilder, Type, Value};

const HASH_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

fn hash_slot(key: u64, mask: u64) -> u64 {
    (key.wrapping_mul(HASH_MULT) >> 32) & mask
}

/// A host-built table, in the layout the IR programs read.
pub(crate) struct Table {
    /// `2 * capacity` words: slot `h` holds its key at `2h`, its value at
    /// `2h + 1`.
    slots: Vec<u64>,
    /// `capacity - 1`; the capacity is a power of two.
    mask: u64,
}

impl Table {
    /// An empty table with room for `keys` keys at load factor at most 1/2.
    pub(crate) fn with_keys(keys: usize) -> Self {
        let capacity = (keys * 2).next_power_of_two() as u64;
        Table {
            slots: vec![0; (capacity * 2) as usize],
            mask: capacity - 1,
        }
    }

    /// Inserts `key` (nonzero, not yet present) with `value`.
    pub(crate) fn insert(&mut self, key: u64, value: u64) {
        let mut h = hash_slot(key, self.mask);
        loop {
            let i = (h * 2) as usize;
            if self.slots[i] == 0 {
                self.slots[i] = key;
                self.slots[i + 1] = value;
                return;
            }
            h = (h + 1) & self.mask;
        }
    }

    /// The table as a program input, and the mask argument that goes with
    /// it: [`emit_probe`]'s `table` and `mask`.
    pub(crate) fn into_input(self) -> (InputData, ArgSpec) {
        (InputData::U64(self.slots), ArgSpec::Const(self.mask as i64))
    }

    /// The value stored under `key`, probing as [`emit_probe`]'s code does.
    pub(crate) fn get(&self, key: u64) -> Option<u64> {
        let mut h = hash_slot(key, self.mask);
        loop {
            let i = (h * 2) as usize;
            if self.slots[i] == key {
                return Some(self.slots[i + 1]);
            }
            if self.slots[i] == 0 {
                return None;
            }
            h = (h + 1) & self.mask;
        }
    }
}

/// Emits a lookup of `key` in the table at `table` (whose mask is `mask`).
///
/// On a hit, `found(builder, value)` runs with the slot's value loaded; it
/// must not terminate its block. A hit and a miss then meet in one join
/// block, left as the current block.
pub(crate) fn emit_probe<'f>(
    b: &mut FunctionBuilder<'f>,
    table: Value,
    mask: Value,
    key: Value,
    found: impl FnOnce(&mut FunctionBuilder<'f>, Value),
) {
    let mult = b.iconst(Type::I64, HASH_MULT as i64);
    let hm = b.binop(BinOp::Mul, key, mult);
    let c32 = b.iconst(Type::I64, 32);
    let hs = b.binop(BinOp::Lshr, hm, c32);
    let h0 = b.binop(BinOp::And, hs, mask);

    let pre = b.current_block();
    let probe = b.create_block();
    let check_empty = b.create_block();
    let hit_bb = b.create_block();
    let next = b.create_block();
    let done = b.create_block();

    b.br(probe);
    b.switch_to_block(probe);
    let h = b.phi(Type::I64, &[(pre, h0)]);
    let slot = b.gep(table, h, 16, 0);
    let skey = b.load(Type::I64, slot);
    let hit = b.icmp(CmpOp::Eq, skey, key);
    b.cond_br(hit, hit_bb, check_empty);

    b.switch_to_block(check_empty);
    let zero = b.iconst(Type::I64, 0);
    let empty = b.icmp(CmpOp::Eq, skey, zero);
    b.cond_br(empty, done, next);

    b.switch_to_block(next);
    let one = b.iconst(Type::I64, 1);
    let h1 = b.binop(BinOp::Add, h, one);
    let h2 = b.binop(BinOp::And, h1, mask);
    b.add_phi_incoming(h, next, h2);
    b.br(probe);

    b.switch_to_block(hit_bb);
    let vaddr = b.gep(table, h, 16, 8);
    let value = b.load(Type::I64, vaddr);
    found(b, value);
    b.br(done);

    b.switch_to_block(done);
}
