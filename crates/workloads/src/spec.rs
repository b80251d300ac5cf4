//! Declarative workload specifications.
//!
//! A [`WorkloadSpec`] bundles an *unmodified* IR program with the input
//! arrays its `main` expects. The runner allocates the inputs through
//! whichever memory system is under test, fills them during the (uncharged)
//! setup phase, optionally cold-starts the far memory, and invokes `main`.

use std::borrow::Cow;
use tfm_ir::Module;

/// Input data for one heap array.
#[derive(Clone, Debug)]
pub enum InputData {
    /// 64-bit words.
    U64(Vec<u64>),
    /// Doubles.
    F64(Vec<f64>),
    /// 32-bit words.
    U32(Vec<u32>),
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// `n` zero bytes (output buffers).
    Zeroed(u64),
}

impl InputData {
    /// Size in bytes.
    pub fn byte_len(&self) -> u64 {
        match self {
            InputData::U64(v) => v.len() as u64 * 8,
            InputData::F64(v) => v.len() as u64 * 8,
            InputData::U32(v) => v.len() as u64 * 4,
            InputData::Bytes(v) => v.len() as u64,
            InputData::Zeroed(n) => *n,
        }
    }

    /// The bytes setup writes to the heap: each element little-endian.
    /// `Bytes` is borrowed; every other input is encoded into one buffer.
    pub fn le_bytes(&self) -> Cow<'_, [u8]> {
        fn encode<T: Copy, const N: usize>(
            v: &[T],
            le: impl Fn(T) -> [u8; N],
        ) -> Cow<'static, [u8]> {
            let mut bytes = Vec::with_capacity(v.len() * N);
            for &x in v {
                bytes.extend_from_slice(&le(x));
            }
            Cow::Owned(bytes)
        }
        match self {
            InputData::U64(v) => encode(v, u64::to_le_bytes),
            InputData::F64(v) => encode(v, f64::to_le_bytes),
            InputData::U32(v) => encode(v, u32::to_le_bytes),
            InputData::Bytes(v) => Cow::Borrowed(v),
            InputData::Zeroed(n) => Cow::Owned(vec![0; *n as usize]),
        }
    }
}

/// How to construct one argument of `main`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ArgSpec {
    /// Pointer to the `i`-th input array.
    Input(usize),
    /// An integer constant.
    Const(i64),
}

/// A complete benchmark program.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Human-readable name (figure labels).
    pub name: String,
    /// The unmodified program; entry point `main`.
    pub module: Module,
    /// Input arrays, allocated in order.
    pub inputs: Vec<InputData>,
    /// `main`'s arguments.
    pub args: Vec<ArgSpec>,
    /// The value `main` must return under *any* memory system — the
    /// semantic-preservation oracle.
    pub expected: Option<u64>,
}

impl WorkloadSpec {
    /// Total bytes of input data — the working set the paper's local-memory
    /// sweeps are expressed against.
    pub fn working_set(&self) -> u64 {
        self.inputs.iter().map(|i| i.byte_len()).sum()
    }

    /// A far-heap size comfortably holding the working set plus allocator
    /// slack, rounded to `object_size`.
    pub fn heap_size(&self, object_size: u64) -> u64 {
        // Per-allocation rounding can double small allocations; 1.5× plus a
        // fixed floor covers every workload in the suite.
        let want = self.working_set() * 3 / 2 + (4 << 20);
        want.next_multiple_of(object_size)
    }

    /// The local-memory budget corresponding to `fraction` of the working
    /// set (the x-axis of Figs. 7–16), floored to one object.
    pub fn local_budget(&self, fraction: f64, object_size: u64) -> u64 {
        let b = (self.working_set() as f64 * fraction) as u64;
        b.max(object_size * 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_lengths() {
        assert_eq!(InputData::U64(vec![0; 3]).byte_len(), 24);
        assert_eq!(InputData::F64(vec![0.0; 2]).byte_len(), 16);
        assert_eq!(InputData::U32(vec![0; 5]).byte_len(), 20);
        assert_eq!(InputData::Bytes(vec![0; 7]).byte_len(), 7);
        assert_eq!(InputData::Zeroed(100).byte_len(), 100);
    }

    #[test]
    fn le_bytes_encode_each_element_little_endian() {
        let inputs = [
            InputData::U64(vec![0x0102_0304_0506_0708, 9]),
            InputData::F64(vec![1.5]),
            InputData::U32(vec![0xA0B0_C0D0, 7]),
            InputData::Bytes(vec![3, 4, 5]),
            InputData::Zeroed(3),
        ];
        let want: [&[u8]; 5] = [
            &[8, 7, 6, 5, 4, 3, 2, 1, 9, 0, 0, 0, 0, 0, 0, 0],
            &1.5f64.to_le_bytes(),
            &[0xD0, 0xC0, 0xB0, 0xA0, 7, 0, 0, 0],
            &[3, 4, 5],
            &[0, 0, 0],
        ];
        for (input, want) in inputs.iter().zip(want) {
            assert_eq!(&*input.le_bytes(), want);
            assert_eq!(input.le_bytes().len() as u64, input.byte_len());
        }
        assert!(matches!(inputs[3].le_bytes(), Cow::Borrowed(_)));
    }

    #[test]
    fn sizing_helpers() {
        let spec = WorkloadSpec {
            name: "t".into(),
            module: Module::new("t"),
            inputs: vec![InputData::Zeroed(1 << 20)],
            args: vec![],
            expected: None,
        };
        assert_eq!(spec.working_set(), 1 << 20);
        assert_eq!(spec.heap_size(4096) % 4096, 0);
        assert!(spec.heap_size(4096) > spec.working_set());
        assert_eq!(spec.local_budget(0.25, 4096), 1 << 18);
        assert_eq!(spec.local_budget(0.0, 4096), 4 * 4096);
    }
}
