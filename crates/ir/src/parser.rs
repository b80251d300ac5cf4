//! Textual IR parsing — the inverse of the printer.
//!
//! Accepts exactly the syntax [`crate::Module`]'s `Display` emits (plus
//! whitespace/comment slack), so modules round-trip:
//! `parse_module(&m.to_string())` reproduces `m` up to value renumbering
//! (tombstone gaps are compacted), and printing the parse is a fixpoint.
//! This is what makes transformed programs diffable and lets tests pin
//! golden IR.

use crate::entities::{Block, FuncId, Value};
use crate::function::{InstData, Signature};
use crate::inst::{BinOp, CastOp, CmpOp, FCmpOp, InstKind, Intrinsic};
use crate::module::Module;
use crate::types::Type;
use std::collections::BTreeMap;
use std::fmt;

/// A parse failure with a line number.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

/// Parses a module from the printer's textual format.
///
/// # Errors
/// Returns a [`ParseError`] with the offending line on malformed input.
pub fn parse_module(text: &str) -> Result<Module, ParseError> {
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty())
        .collect();

    let mut name = "parsed".to_string();
    let mut i = 0;
    if let Some((_, l)) = lines.first() {
        if let Some(rest) = l.strip_prefix("; module ") {
            name = rest.trim().to_string();
            i = 1;
        }
    }
    let mut module = Module::new(name);

    // First pass over the remaining lines: globals and function headers (so
    // calls can resolve signatures while bodies parse).
    let mut func_bodies: Vec<(FuncId, usize, usize)> = Vec::new(); // (id, start, end) line indices
    let mut j = i;
    while j < lines.len() {
        let (ln, l) = lines[j];
        if l.starts_with("; ") || l.starts_with(";") && !l.starts_with("; module") {
            j += 1;
            continue;
        }
        if l.starts_with("global ") {
            parse_global(&mut module, ln, l)?;
            j += 1;
        } else if l.starts_with("func @") {
            let (fname, sig) = parse_func_header(ln, l)?;
            if module.find_function(&fname).is_some() {
                return err(ln, format!("duplicate function `{fname}`"));
            }
            let id = module.declare_function(fname, sig);
            // Find the closing brace.
            let start = j + 1;
            let mut k = start;
            while k < lines.len() && lines[k].1 != "}" {
                k += 1;
            }
            if k == lines.len() {
                return err(ln, "unterminated function body (missing `}`)");
            }
            func_bodies.push((id, start, k));
            j = k + 1;
        } else {
            return err(ln, format!("unexpected top-level line: `{l}`"));
        }
    }

    for (id, start, end) in func_bodies {
        parse_body(&mut module, id, &lines[start..end])?;
    }
    Ok(module)
}

fn parse_global(module: &mut Module, ln: usize, l: &str) -> Result<(), ParseError> {
    // global @g0 "name" [N bytes] [init = hh hh ...]
    let rest = &l["global ".len()..];
    let Some(q1) = rest.find('"') else {
        return err(ln, "global missing name");
    };
    let Some(q2) = rest[q1 + 1..].find('"') else {
        return err(ln, "global missing closing quote");
    };
    let gname = &rest[q1 + 1..q1 + 1 + q2];
    let after = &rest[q1 + q2 + 2..];
    let Some(b1) = after.find('[') else {
        return err(ln, "global missing size");
    };
    let Some(b2) = after.find(" bytes]") else {
        return err(ln, "global missing size unit");
    };
    let size: u64 = after[b1 + 1..b2].trim().parse().map_err(|_| ParseError {
        line: ln,
        message: "bad global size".into(),
    })?;
    let init = if let Some(pos) = after.find("init =") {
        let bytes: Result<Vec<u8>, _> = after[pos + 6..]
            .split_whitespace()
            .map(|t| u8::from_str_radix(t, 16))
            .collect();
        Some(bytes.map_err(|_| ParseError {
            line: ln,
            message: "bad init byte".into(),
        })?)
    } else {
        None
    };
    if init.as_ref().is_some_and(|b| b.len() as u64 > size) {
        return err(ln, "global initializer larger than the global");
    }
    module.add_global(gname, size, init);
    Ok(())
}

fn parse_func_header(ln: usize, l: &str) -> Result<(String, Signature), ParseError> {
    // func @name(ty %0, ty %1) [-> ty] {
    let rest = &l["func @".len()..];
    let Some(paren) = rest.find('(') else {
        return err(ln, "function missing parameter list");
    };
    let fname = rest[..paren].to_string();
    let Some(close) = rest.find(')') else {
        return err(ln, "function missing `)`");
    };
    let params_text = &rest[paren + 1..close];
    let mut params = Vec::new();
    for part in params_text.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let ty_tok = part.split_whitespace().next().unwrap_or("");
        params.push(parse_type(ln, ty_tok)?);
    }
    let after = rest[close + 1..].trim();
    let ret = if let Some(r) = after.strip_prefix("->") {
        let tok = r.trim().trim_end_matches('{').trim();
        Some(parse_type(ln, tok)?)
    } else {
        None
    };
    Ok((fname, Signature::new(params, ret)))
}

/// The member of `all` that `name` prints as `tok`: each enum spells its
/// mnemonics once, for the printer, and the parser looks them up there.
fn lookup<T: Copy>(all: &[T], name: fn(T) -> &'static str, tok: &str) -> Option<T> {
    all.iter().copied().find(|&x| name(x) == tok)
}

fn parse_type(ln: usize, tok: &str) -> Result<Type, ParseError> {
    lookup(Type::ALL, Type::name, tok).map_or_else(|| err(ln, format!("unknown type `{tok}`")), Ok)
}

struct BodyCtx {
    /// textual value id → arena value
    values: BTreeMap<u32, Value>,
    /// textual block id → block
    blocks: BTreeMap<u32, Block>,
}

fn parse_body(module: &mut Module, id: FuncId, lines: &[(usize, &str)]) -> Result<(), ParseError> {
    let mut ctx = BodyCtx {
        values: BTreeMap::new(),
        blocks: BTreeMap::new(),
    };
    // Parameters already exist.
    for n in 0..module.function(id).sig.params.len() {
        ctx.values.insert(n as u32, Value::from_index(n));
    }
    ctx.blocks.insert(0, module.function(id).entry_block());

    // Pass 1: create blocks and placeholder instructions so forward
    // references (phis, branches) resolve.
    let mut current = module.function(id).entry_block();
    let mut placeholders: Vec<(usize, Value)> = Vec::new(); // (line index, inst)
    for (li, (ln, l)) in lines.iter().enumerate() {
        if let Some(bb) = l.strip_suffix(':') {
            let n = parse_block_id(*ln, bb)?;
            let b = *ctx
                .blocks
                .entry(n)
                .or_insert_with(|| module.function_mut(id).create_block());
            current = b;
            continue;
        }
        // A definition or a bare instruction.
        let (def, _rest) = split_def(l);
        if let Some(def) = def {
            if let Some(&existing) = ctx.values.get(&def) {
                // Parameter lines re-state existing definitions.
                if l.contains("param.") {
                    placeholders.push((li, existing));
                    continue;
                }
                return err(*ln, format!("duplicate definition of %{def}"));
            }
            let v = module.function_mut(id).push_inst(
                current,
                InstData {
                    kind: InstKind::Unreachable, // placeholder, replaced in pass 2
                    ty: None,
                    block: current,
                },
            );
            ctx.values.insert(def, v);
            placeholders.push((li, v));
        } else {
            let v = module.function_mut(id).push_inst(
                current,
                InstData {
                    kind: InstKind::Unreachable,
                    ty: None,
                    block: current,
                },
            );
            placeholders.push((li, v));
        }
        // Branch targets may name blocks not yet seen.
        for tok in l
            .split(|c: char| !c.is_alphanumeric())
            .filter(|t| t.starts_with("bb"))
        {
            if let Ok(n) = tok[2..].parse::<u32>() {
                ctx.blocks
                    .entry(n)
                    .or_insert_with(|| module.function_mut(id).create_block());
            }
        }
    }

    // Pass 2: fill in instruction kinds.
    for (li, v) in placeholders {
        let (ln, l) = lines[li];
        let (kind, ty) = parse_inst(module, &ctx, ln, l)?;
        if let InstKind::Param(_) = kind {
            continue; // parameters already materialized by declare_function
        }
        let f = module.function_mut(id);
        f.inst_mut(v).kind = kind;
        f.inst_mut(v).ty = ty;
    }
    Ok(())
}

fn parse_block_id(ln: usize, tok: &str) -> Result<u32, ParseError> {
    tok.strip_prefix("bb")
        .and_then(|n| n.parse().ok())
        .ok_or(ParseError {
            line: ln,
            message: format!("bad block label `{tok}`"),
        })
}

/// Splits `%N = rest` into `(Some(N), rest)`, otherwise `(None, line)`.
fn split_def(l: &str) -> (Option<u32>, &str) {
    if let Some(stripped) = l.strip_prefix('%') {
        if let Some(eq) = stripped.find('=') {
            let idtok = stripped[..eq].trim();
            if let Ok(n) = idtok.parse::<u32>() {
                return (Some(n), stripped[eq + 1..].trim());
            }
        }
    }
    (None, l)
}

fn parse_inst(
    module: &Module,
    ctx: &BodyCtx,
    ln: usize,
    l: &str,
) -> Result<(InstKind, Option<Type>), ParseError> {
    let (_, body) = split_def(l);
    let (mn, rest) = body.split_once(' ').unwrap_or((body, ""));
    let rest = rest.trim();
    let val = |tok: &str| -> Result<Value, ParseError> {
        let t = tok.trim().trim_start_matches('%');
        let n: u32 = t.parse().map_err(|_| ParseError {
            line: ln,
            message: format!("bad value `{tok}`"),
        })?;
        ctx.values.get(&n).copied().ok_or(ParseError {
            line: ln,
            message: format!("undefined value %{n}"),
        })
    };
    let block = |tok: &str| -> Result<Block, ParseError> {
        let n = parse_block_id(ln, tok.trim())?;
        ctx.blocks.get(&n).copied().ok_or(ParseError {
            line: ln,
            message: format!("undefined block bb{n}"),
        })
    };
    let two = |rest: &str| -> Result<(Value, Value), ParseError> {
        let (a, b) = rest.split_once(',').ok_or(ParseError {
            line: ln,
            message: "expected two operands".into(),
        })?;
        Ok((val(a)?, val(b)?))
    };

    // Mnemonics with a `.suffix`.
    if let Some((base, suffix)) = mn.split_once('.') {
        // Binary ops.
        if let Some(op) = lookup(BinOp::ALL, BinOp::mnemonic, base) {
            let ty = parse_type(ln, suffix)?;
            let (a, b) = two(rest)?;
            return Ok((InstKind::Binary(op, a, b), Some(ty)));
        }
        if let Some(op) = lookup(CastOp::ALL, CastOp::mnemonic, base) {
            let ty = parse_type(ln, suffix)?;
            return Ok((InstKind::Cast(op, val(rest)?), Some(ty)));
        }
        match base {
            "param" => {
                return Ok((InstKind::Param(0), None)); // sentinel; skipped by caller
            }
            "iconst" => {
                let ty = parse_type(ln, suffix)?;
                let c: i64 = rest.parse().map_err(|_| ParseError {
                    line: ln,
                    message: format!("bad integer constant `{rest}`"),
                })?;
                return Ok((InstKind::ConstInt(c), Some(ty)));
            }
            "load" => {
                let ty = parse_type(ln, suffix)?;
                return Ok((InstKind::Load { ptr: val(rest)? }, Some(ty)));
            }
            "icmp" => {
                let op = parse_cmp(ln, suffix)?;
                let (a, b) = two(rest)?;
                return Ok((InstKind::Icmp(op, a, b), Some(Type::I64)));
            }
            "fcmp" => {
                let op = parse_fcmp(ln, suffix)?;
                let (a, b) = two(rest)?;
                return Ok((InstKind::Fcmp(op, a, b), Some(Type::I64)));
            }
            "phi" => {
                let ty = parse_type(ln, suffix)?;
                let mut incs = Vec::new();
                // [bb0: %2], [bb2: %9]
                for part in rest.split(']') {
                    let part = part.trim().trim_start_matches(',').trim();
                    let Some(inner) = part.strip_prefix('[') else {
                        continue;
                    };
                    let (bb, v) = inner.split_once(':').ok_or(ParseError {
                        line: ln,
                        message: "bad phi incoming".into(),
                    })?;
                    incs.push((block(bb)?, val(v)?));
                }
                return Ok((InstKind::Phi(incs), Some(ty)));
            }
            "select" => {
                let ty = parse_type(ln, suffix)?;
                let parts: Vec<&str> = rest.split(',').collect();
                if parts.len() != 3 {
                    return err(ln, "select needs three operands");
                }
                return Ok((
                    InstKind::Select {
                        cond: val(parts[0])?,
                        tval: val(parts[1])?,
                        fval: val(parts[2])?,
                    },
                    Some(ty),
                ));
            }
            _ => return err(ln, format!("unknown mnemonic `{mn}`")),
        }
    }

    match mn {
        "nop" => Ok((InstKind::Nop, None)),
        "fconst" => {
            let c: f64 = rest.parse().map_err(|_| ParseError {
                line: ln,
                message: format!("bad float constant `{rest}`"),
            })?;
            Ok((InstKind::ConstFloat(c), Some(Type::F64)))
        }
        "alloca" => {
            // alloca N, align A
            let (sz, al) = rest.split_once(',').ok_or(ParseError {
                line: ln,
                message: "alloca needs size and alignment".into(),
            })?;
            let size: u32 = sz.trim().parse().map_err(|_| ParseError {
                line: ln,
                message: "bad alloca size".into(),
            })?;
            let align: u32 = al
                .trim()
                .strip_prefix("align ")
                .and_then(|a| a.parse().ok())
                .ok_or(ParseError {
                    line: ln,
                    message: "bad alloca alignment".into(),
                })?;
            Ok((InstKind::Alloca { size, align }, Some(Type::Ptr)))
        }
        "store" => {
            let (v, p) = two(rest)?;
            Ok((InstKind::Store { ptr: p, val: v }, None))
        }
        "gep" => {
            // gep %base, %idx x SCALE + DISP
            let (base_tok, tail) = rest.split_once(',').ok_or(ParseError {
                line: ln,
                message: "gep needs base and index".into(),
            })?;
            let (idx_tok, tail) = tail.split_once(" x ").ok_or(ParseError {
                line: ln,
                message: "gep missing scale".into(),
            })?;
            let (scale_tok, disp_tok) = tail.split_once(" + ").ok_or(ParseError {
                line: ln,
                message: "gep missing displacement".into(),
            })?;
            Ok((
                InstKind::Gep {
                    base: val(base_tok)?,
                    index: val(idx_tok)?,
                    scale: scale_tok.trim().parse().map_err(|_| ParseError {
                        line: ln,
                        message: "bad gep scale".into(),
                    })?,
                    disp: disp_tok.trim().parse().map_err(|_| ParseError {
                        line: ln,
                        message: "bad gep displacement".into(),
                    })?,
                },
                Some(Type::Ptr),
            ))
        }
        "call" => {
            // call @fN(args) | call intrinsic.name(args)
            let Some(paren) = rest.find('(') else {
                return err(ln, "call missing `(`");
            };
            let callee = rest[..paren].trim();
            let args_text = rest[paren + 1..].trim_end_matches(')');
            let mut args = Vec::new();
            for a in args_text.split(',') {
                let a = a.trim();
                if !a.is_empty() {
                    args.push(val(a)?);
                }
            }
            if let Some(fidx) = callee.strip_prefix("@f") {
                let fi: usize = fidx.parse().map_err(|_| ParseError {
                    line: ln,
                    message: format!("bad callee `{callee}`"),
                })?;
                if fi >= module.num_functions() {
                    return err(ln, format!("call to undeclared {callee}"));
                }
                let fid = FuncId::from_index(fi);
                let ret = module.function(fid).sig.ret;
                Ok((InstKind::Call { func: fid, args }, ret))
            } else {
                let intr = parse_intrinsic(ln, callee)?;
                let (_, ret) = intr.signature();
                Ok((InstKind::IntrinsicCall { intr, args }, ret))
            }
        }
        "global_addr" => {
            let g = rest
                .trim()
                .strip_prefix("@g")
                .and_then(|n| n.parse::<usize>().ok())
                .ok_or(ParseError {
                    line: ln,
                    message: format!("bad global ref `{rest}`"),
                })?;
            if g >= module.num_globals() {
                return err(ln, "reference to undeclared global");
            }
            Ok((
                InstKind::GlobalAddr(crate::entities::GlobalId::from_index(g)),
                Some(Type::Ptr),
            ))
        }
        "br" => Ok((InstKind::Br(block(rest)?), None)),
        "cond_br" => {
            let parts: Vec<&str> = rest.split(',').collect();
            if parts.len() != 3 {
                return err(ln, "cond_br needs condition and two targets");
            }
            Ok((
                InstKind::CondBr {
                    cond: val(parts[0])?,
                    then_bb: block(parts[1])?,
                    else_bb: block(parts[2])?,
                },
                None,
            ))
        }
        "ret" => {
            if rest.is_empty() {
                Ok((InstKind::Ret(None), None))
            } else {
                Ok((InstKind::Ret(Some(val(rest)?)), None))
            }
        }
        "unreachable" => Ok((InstKind::Unreachable, None)),
        _ => err(ln, format!("unknown instruction `{mn}`")),
    }
}

fn parse_cmp(ln: usize, tok: &str) -> Result<CmpOp, ParseError> {
    lookup(CmpOp::ALL, CmpOp::mnemonic, tok)
        .map_or_else(|| err(ln, format!("unknown icmp predicate `{tok}`")), Ok)
}

fn parse_fcmp(ln: usize, tok: &str) -> Result<FCmpOp, ParseError> {
    lookup(FCmpOp::ALL, FCmpOp::mnemonic, tok)
        .map_or_else(|| err(ln, format!("unknown fcmp predicate `{tok}`")), Ok)
}

fn parse_intrinsic(ln: usize, tok: &str) -> Result<Intrinsic, ParseError> {
    lookup(Intrinsic::ALL, Intrinsic::name, tok)
        .map_or_else(|| err(ln, format!("unknown intrinsic `{tok}`")), Ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinOp as B, FunctionBuilder, Module, Signature, Type};

    fn roundtrip(m: &Module) {
        let text1 = m.to_string();
        let parsed = parse_module(&text1).unwrap_or_else(|e| panic!("{e}\n{text1}"));
        parsed
            .verify()
            .unwrap_or_else(|e| panic!("{e}\n{}", parsed));
        let text2 = parsed.to_string();
        let parsed2 = parse_module(&text2).unwrap();
        let text3 = parsed2.to_string();
        assert_eq!(text2, text3, "printing must be a parse fixpoint");
    }

    /// Every member of every `ALL` prints and parses back to itself, and
    /// no two members of one enum share a spelling.
    #[test]
    fn every_mnemonic_round_trips_and_is_unique() {
        fn unique<T: Copy + fmt::Debug>(all: &[T], name: fn(T) -> &'static str) {
            let mut seen = std::collections::BTreeSet::new();
            for &x in all {
                assert!(seen.insert(name(x)), "{x:?} reuses `{}`", name(x));
            }
        }
        unique(Type::ALL, Type::name);
        unique(B::ALL, B::mnemonic);
        unique(CastOp::ALL, CastOp::mnemonic);
        unique(CmpOp::ALL, CmpOp::mnemonic);
        unique(FCmpOp::ALL, FCmpOp::mnemonic);
        unique(Intrinsic::ALL, Intrinsic::name);

        // Operand types are beside the point: the parser does not verify.
        let mut m = Module::new("ops");
        let sig = Signature::new(vec![Type::I64, Type::F64, Type::Ptr], None);
        let id = m.declare_function("main", sig);
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let (x, f, p) = (b.param(0), b.param(1), b.param(2));
            for &ty in Type::ALL {
                b.load(ty, p);
            }
            for &op in B::ALL {
                b.binop(op, x, x);
            }
            for &op in CastOp::ALL {
                b.cast(op, x, Type::I64);
            }
            for &op in CmpOp::ALL {
                b.icmp(op, x, x);
            }
            for &op in FCmpOp::ALL {
                b.fcmp(op, f, f);
            }
            for &intr in Intrinsic::ALL {
                b.intrinsic(intr, vec![]);
            }
            b.ret(None);
        }
        let insts = |m: &Module| {
            let f = m.function(id);
            let live = f.live_insts().into_iter();
            live.map(|v| (f.kind(v).clone(), f.ty(v)))
                .collect::<Vec<_>>()
        };
        let parsed = parse_module(&m.to_string()).unwrap();
        assert_eq!(insts(&parsed), insts(&m));
    }

    #[test]
    fn roundtrips_loop_with_everything() {
        let mut m = Module::new("rt");
        let g = m.add_global("lut", 16, Some(vec![1, 2, 0xAB]));
        let helper = m.declare_function("helper", Signature::new(vec![Type::I64], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(helper));
            let x = b.param(0);
            let one = b.iconst(Type::I64, 1);
            let y = b.binop(B::Add, x, one);
            b.ret(Some(y));
        }
        let id = m.declare_function("main", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, 100);
            let ga = b.global_addr(g);
            let slot = b.alloca(8, 8);
            b.store(slot, zero);
            b.counted_loop(zero, n, 1, |b, i| {
                let addr = b.gep(p, i, 8, -8);
                let x = b.load(Type::I64, addr);
                let fx = b.cast(crate::CastOp::SiToFp, x, Type::F64);
                let c = b.fconst(1.5);
                let fy = b.binop(B::Fmul, fx, c);
                let yc = b.cast(crate::CastOp::FpToSi, fy, Type::I64);
                let cl = b.call(helper, vec![yc], Some(Type::I64));
                let gv = b.load(Type::I8, ga);
                let gvx = b.cast(crate::CastOp::Zext, gv, Type::I64);
                let cmp = b.icmp(crate::CmpOp::Sgt, cl, gvx);
                let sel = b.select(cmp, cl, gvx);
                b.store(slot, sel);
            });
            let out = b.load(Type::I64, slot);
            b.ret(Some(out));
        }
        m.verify().unwrap();
        roundtrip(&m);
    }

    #[test]
    fn roundtrips_intrinsics() {
        let mut m = Module::new("rt");
        let id = m.declare_function("main", Signature::new(vec![], None));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            b.intrinsic(crate::Intrinsic::RuntimeInit, vec![]);
            let p = b.malloc_const(256);
            let g = b.intrinsic(crate::Intrinsic::GuardRead, vec![p]);
            let _ = b.load(Type::I64, g);
            let n = b.iconst(Type::I64, 16);
            b.intrinsic(crate::Intrinsic::Memset, vec![p, n, n]);
            b.intrinsic(crate::Intrinsic::Free, vec![p]);
            b.ret(None);
        }
        m.verify().unwrap();
        roundtrip(&m);
    }

    #[test]
    fn parses_semantically_equal_values() {
        // Parse a hand-written module and check structure.
        let text = "\
; module hand
func @main(i64 %0) -> i64 {
bb0:
  %1 = iconst.i64 41
  %2 = add.i64 %0, %1
  ret %2
}
";
        let m = parse_module(text).unwrap();
        m.verify().unwrap();
        let f = m.function(m.find_function("main").unwrap());
        assert_eq!(f.sig.params, vec![Type::I64]);
        assert_eq!(f.num_live_insts(), 4);
    }

    #[test]
    fn reports_errors_with_line_numbers() {
        let bad = "; module x\nfunc @f() {\nbb0:\n  %1 = bogus.i64 3\n  ret\n}\n";
        let e = parse_module(bad).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.to_string().contains("bogus"));

        let undef = "; module x\nfunc @f() -> i64 {\nbb0:\n  ret %9\n}\n";
        let e = parse_module(undef).unwrap_err();
        assert!(e.message.contains("undefined value"));

        let noclose = "; module x\nfunc @f() {\nbb0:\n  ret\n";
        assert!(parse_module(noclose).is_err());
    }

    #[test]
    fn roundtrips_after_tombstones() {
        // Removing an instruction leaves arena gaps; printing + parsing
        // must still produce a valid, stable module.
        let mut m = Module::new("rt");
        let id = m.declare_function("f", Signature::new(vec![Type::I64], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let x = b.param(0);
            let dead = b.iconst(Type::I64, 99);
            let one = b.iconst(Type::I64, 1);
            let y = b.binop(B::Add, x, one);
            b.ret(Some(y));
            let _ = dead;
        }
        // Delete the dead constant: ids are now non-contiguous.
        let f = m.function_mut(id);
        let dead = f.block_insts(f.entry_block())[1];
        f.remove_inst(dead);
        m.verify().unwrap();
        roundtrip(&m);
    }

    #[test]
    fn roundtrips_float_specials() {
        let mut m = Module::new("rt");
        let id = m.declare_function("f", Signature::new(vec![], Some(Type::F64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let inf = b.fconst(f64::INFINITY);
            let half = b.fconst(0.5);
            let s = b.binop(B::Fadd, inf, half);
            b.ret(Some(s));
        }
        roundtrip(&m);
    }
}

#[cfg(test)]
mod fuzz {
    use super::parse_module;

    /// Tiny deterministic PRNG (SplitMix64) — keeps the fuzz tests free of
    /// external dependencies and reproducible from the seed alone.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, bound: u64) -> u64 {
            ((self.next() as u128 * bound as u128) >> 64) as u64
        }
    }

    /// The parser must never panic, only return `Err`, on arbitrary input.
    #[test]
    fn parser_never_panics_on_junk() {
        let mut rng = Rng(0xF00D);
        for _ in 0..512 {
            let len = rng.below(201) as usize;
            let s: String = (0..len)
                .map(|_| {
                    // Mostly printable ASCII with occasional arbitrary
                    // Unicode scalars.
                    if rng.below(8) == 0 {
                        char::from_u32(rng.below(0xD800) as u32).unwrap_or('?')
                    } else {
                        (0x20 + rng.below(95) as u8) as char
                    }
                })
                .collect();
            let _ = parse_module(&s);
        }
    }

    /// Same for inputs that look almost like IR.
    #[test]
    fn parser_never_panics_on_irish_junk() {
        const PARTS: &[&str] = &[
            "; module x",
            "func @f() {",
            "func @g(i64 %0) -> ptr {",
            "}",
            "bb0:",
            "bb1:",
            "  %1 = iconst.i64 5",
            "  %2 = add.i64 %1, %1",
            "  %3 = gep %1, %2 x 8 + -8",
            "  %4 = phi.i64 [bb0: %1]",
            "  store %1, %2",
            "  br bb9",
            "  cond_br %1, bb0, bb1",
            "  ret",
            "  ret %7",
            "  call malloc(%1)",
            "  %5 = call @f9()",
            "global @g0 \"x\" [8 bytes]",
            "  %6 = alloca 8, align",
            "  unreachable",
        ];
        let mut rng = Rng(0xBEEF);
        for _ in 0..512 {
            let n = rng.below(24) as usize;
            let text: Vec<&str> = (0..n)
                .map(|_| PARTS[rng.below(PARTS.len() as u64) as usize])
                .collect();
            let _ = parse_module(&text.join("\n"));
        }
    }
}
