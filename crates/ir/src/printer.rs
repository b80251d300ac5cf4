//! Textual IR printing (`Display` impls).
//!
//! The format is LLVM-flavored and intended for debugging and golden tests:
//!
//! ```text
//! func @sum(i64 %0, ptr %1) -> i64 {
//! bb0:
//!   %2 = iconst.i64 0
//!   br bb1
//! ...
//! }
//! ```
//!
//! Ids, labels and integer operands go through one hand-rolled decimal
//! writer, [`number`], rather than a nested `write!`, and nothing is
//! allocated per instruction.

use crate::function::Function;
use crate::inst::InstKind;
use crate::module::Module;
use crate::types::Type;
use std::fmt;

/// Writes `prefix` and then `n` in decimal, as `write!(f, "{prefix}{n}")`
/// would, in one `write_str`. `prefix` is at most four bytes.
pub(crate) fn number(f: &mut fmt::Formatter<'_>, prefix: &str, mut n: u64) -> fmt::Result {
    let mut buf = [0u8; 24];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    i -= prefix.len();
    buf[i..i + prefix.len()].copy_from_slice(prefix.as_bytes());
    f.write_str(std::str::from_utf8(&buf[i..]).map_err(|_| fmt::Error)?)
}

/// A signed integer, as `{n}` prints it.
fn int(f: &mut fmt::Formatter<'_>, n: i64) -> fmt::Result {
    number(f, if n < 0 { "-" } else { "" }, n.unsigned_abs())
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; module {}", self.name)?;
        for (id, g) in self.globals() {
            write!(f, "global {id} \"{}\" [{} bytes]", g.name, g.size)?;
            if let Some(init) = &g.init {
                write!(f, " init =")?;
                for b in init {
                    write!(f, " {b:02x}")?;
                }
            }
            writeln!(f)?;
        }
        for (_, func) in self.functions() {
            writeln!(f, "{func}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "func @{}(", self.name)?;
        for (i, ty) in self.sig.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{ty} %{i}")?;
        }
        write!(f, ")")?;
        if let Some(r) = self.sig.ret {
            write!(f, " -> {r}")?;
        }
        writeln!(f, " {{")?;
        for b in self.blocks() {
            if self.block_insts(b).is_empty() && b != self.entry_block() {
                continue;
            }
            number(f, "bb", b.0.into())?;
            f.write_str(":\n")?;
            for &v in self.block_insts(b) {
                f.write_str("  ")?;
                write_inst(f, self, v)?;
                f.write_str("\n")?;
            }
        }
        writeln!(f, "}}")
    }
}

fn write_inst(f: &mut fmt::Formatter<'_>, func: &Function, v: crate::Value) -> fmt::Result {
    let data = func.inst(v);
    if data.ty.is_some() {
        write!(f, "{v} = ")?;
    }
    let ty = data.ty.map_or("", Type::name);
    match &data.kind {
        InstKind::Nop => f.write_str("nop"),
        InstKind::Param(n) => write!(f, "param.{ty} {n}"),
        InstKind::ConstInt(c) => {
            write!(f, "iconst.{ty} ")?;
            int(f, *c)
        }
        InstKind::ConstFloat(c) => write!(f, "fconst {c}"),
        InstKind::Binary(op, a, b) => write!(f, "{}.{ty} {a}, {b}", op.mnemonic()),
        InstKind::Icmp(op, a, b) => write!(f, "icmp.{} {a}, {b}", op.mnemonic()),
        InstKind::Fcmp(op, a, b) => write!(f, "fcmp.{} {a}, {b}", op.mnemonic()),
        InstKind::Cast(op, a) => write!(f, "{}.{ty} {a}", op.mnemonic()),
        InstKind::Alloca { size, align } => write!(f, "alloca {size}, align {align}"),
        InstKind::Load { ptr } => write!(f, "load.{ty} {ptr}"),
        InstKind::Store { ptr, val } => write!(f, "store {val}, {ptr}"),
        InstKind::Gep {
            base,
            index,
            scale,
            disp,
        } => {
            write!(f, "gep {base}, {index} x {scale} + ")?;
            int(f, *disp)
        }
        InstKind::Call { func: callee, args } => {
            write!(f, "call {callee}(")?;
            write_args(f, args)?;
            f.write_str(")")
        }
        InstKind::IntrinsicCall { intr, args } => {
            write!(f, "call {intr}(")?;
            write_args(f, args)?;
            f.write_str(")")
        }
        InstKind::GlobalAddr(g) => write!(f, "global_addr {g}"),
        InstKind::Phi(incs) => {
            write!(f, "phi.{ty} ")?;
            for (i, (b, val)) in incs.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "[{b}: {val}]")?;
            }
            Ok(())
        }
        InstKind::Select { cond, tval, fval } => write!(f, "select.{ty} {cond}, {tval}, {fval}"),
        InstKind::Br(b) => write!(f, "br {b}"),
        InstKind::CondBr {
            cond,
            then_bb,
            else_bb,
        } => write!(f, "cond_br {cond}, {then_bb}, {else_bb}"),
        InstKind::Ret(Some(v)) => write!(f, "ret {v}"),
        InstKind::Ret(None) => f.write_str("ret"),
        InstKind::Unreachable => f.write_str("unreachable"),
    }
}

fn write_args(f: &mut fmt::Formatter<'_>, args: &[crate::Value]) -> fmt::Result {
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            f.write_str(", ")?;
        }
        write!(f, "{a}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::{BinOp, CmpOp, FunctionBuilder, Intrinsic, Module, Signature, Type};

    #[test]
    fn prints_function_with_loop() {
        let mut m = Module::new("p");
        let id = m.declare_function(
            "sum",
            Signature::new(vec![Type::Ptr, Type::I64], Some(Type::I64)),
        );
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let arr = b.param(0);
            let n = b.param(1);
            let zero = b.iconst(Type::I64, 0);
            b.counted_loop(zero, n, 1, |b, i| {
                let addr = b.gep(arr, i, 8, 0);
                let x = b.load(Type::I64, addr);
                let _ = b.binop(BinOp::Add, x, x);
            });
            b.ret(Some(zero));
        }
        let text = m.to_string();
        assert!(text.contains("func @sum(ptr %0, i64 %1) -> i64"), "{text}");
        assert!(text.contains("phi.i64"), "{text}");
        assert!(text.contains("gep"), "{text}");
        assert!(text.contains("cond_br"), "{text}");
        let _ = CmpOp::Slt; // silence unused import lint paths in some cfgs
    }

    #[test]
    fn hand_formatted_integers_match_display() {
        struct N(&'static str, u64, i64);
        impl std::fmt::Display for N {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                super::number(f, self.0, self.1)?;
                super::int(f, self.2)
            }
        }
        for (u, i) in [
            (0, 0),
            (9, -1),
            (10, 10),
            (u64::MAX, i64::MIN),
            (1 << 32, i64::MAX),
        ] {
            assert_eq!(N("bb", u, i).to_string(), format!("bb{u}{i}"));
        }
    }

    #[test]
    fn prints_intrinsics_and_globals() {
        let mut m = Module::new("p");
        m.add_global("lut", 32, None);
        let id = m.declare_function("main", Signature::new(vec![], None));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            b.intrinsic(Intrinsic::RuntimeInit, vec![]);
            let p = b.malloc_const(64);
            b.intrinsic(Intrinsic::Free, vec![p]);
            b.ret(None);
        }
        let text = m.to_string();
        assert!(text.contains("tfm.runtime.init"), "{text}");
        assert!(text.contains("call malloc"), "{text}");
        assert!(text.contains("global @g0 \"lut\" [32 bytes]"), "{text}");
    }
}
