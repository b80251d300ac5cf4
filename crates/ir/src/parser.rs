//! Textual IR parsing — the inverse of the printer.
//!
//! Accepts exactly the syntax [`crate::Module`]'s `Display` emits, plus this
//! slack: blank lines, whitespace around a line, and comment lines (the first
//! non-blank character is `;`) anywhere, at top level and inside function
//! bodies. A `; module NAME` first line names the module. Modules round-trip:
//! `parse_module(&m.to_string())` reproduces `m` up to value renumbering
//! (tombstone gaps are compacted), and printing the parse is a fixpoint.
//! This is what makes transformed programs diffable and lets tests pin
//! golden IR.
//!
//! Each line is split once, into its `%N =` definition, mnemonic and operand
//! text. A function body is then walked twice over those pieces: the first
//! walk creates blocks in first-appearance order (labels and the targets of
//! `br`, `cond_br` and `phi`) and one placeholder instruction per line, the
//! second fills in each instruction. Textual ids resolve through sorted
//! tables by binary search, so memory stays linear in the input whatever the
//! id values are, and an operand costs one integer parse and one lookup: the
//! only allocations per instruction are the operand lists of phis and calls.

use crate::entities::{Block, FuncId, GlobalId, Value};
use crate::function::{Function, InstData, Signature};
use crate::inst::{BinOp, CastOp, CmpOp, FCmpOp, InstKind, Intrinsic};
use crate::module::Module;
use crate::types::Type;
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

fn perr(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(perr(line, message))
}

/// Parses a module from the printer's textual format.
///
/// # Errors
/// Returns a [`ParseError`] with the offending line on malformed input.
pub fn parse_module(text: &str) -> Result<Module, ParseError> {
    let header = text.lines().map(str::trim).find(|l| !l.is_empty());
    let name = header.and_then(|l| l.strip_prefix("; module "));
    let mut module = Module::new(name.map_or("parsed", str::trim));
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with(';'))
        .collect();

    // Globals and function headers first, so calls can resolve signatures
    // while bodies parse.
    let mut func_bodies: Vec<(FuncId, usize, usize)> = Vec::new(); // (id, start, end) line indices
    let mut j = 0;
    while j < lines.len() {
        let (ln, l) = lines[j];
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

    let mut body = Body {
        values: Ids(Vec::new()),
        blocks: Ids(Vec::new()),
        insts: Vec::new(),
    };
    for (id, start, end) in func_bodies {
        body.parse(&mut module, id, &lines[start..end])?;
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
    let size: u64 = after[b1 + 1..b2]
        .trim()
        .parse()
        .map_err(|_| perr(ln, "bad global size"))?;
    let init = if let Some(pos) = after.find("init =") {
        let bytes: Result<Vec<u8>, _> = after[pos + 6..]
            .split_whitespace()
            .map(|t| u8::from_str_radix(t, 16))
            .collect();
        Some(bytes.map_err(|_| perr(ln, "bad init byte"))?)
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

/// Textual id → entity, sorted by id and searched by halving: one entry per
/// id the text names, whatever the ids' values. Printed ids are nearly
/// ascending, so an insert lands at or near the end.
struct Ids<T>(Vec<(u32, T)>);

impl<T> Ids<T> {
    fn get(&self, n: u32) -> Option<&T> {
        let i = self.0.binary_search_by_key(&n, |e| e.0).ok()?;
        Some(&self.0[i].1)
    }

    /// The entry for `n`, and whether `make` just created it.
    fn entry(&mut self, n: u32, make: impl FnOnce() -> T) -> (&mut T, bool) {
        let (i, new) = match self.0.binary_search_by_key(&n, |e| e.0) {
            Ok(i) => (i, false),
            Err(i) => {
                self.0.insert(i, (n, make()));
                (i, true)
            }
        };
        (&mut self.0[i].1, new)
    }
}

/// One function body's tables, reused from body to body.
struct Body<'t> {
    /// textual value id → arena value
    values: Ids<Value>,
    /// textual block id → (block, whether its label has been seen)
    blocks: Ids<(Block, bool)>,
    /// `(line number, placeholder, mnemonic, operands)` per instruction line
    insts: Vec<(usize, Value, &'t str, &'t str)>,
}

/// Appends a placeholder instruction, replaced once the body has been read.
fn hole(f: &mut Function, block: Block) -> Value {
    let (kind, ty) = (InstKind::Unreachable, None);
    f.push_inst(block, InstData { kind, ty, block })
}

impl<'t> Body<'t> {
    fn parse(
        &mut self,
        module: &mut Module,
        id: FuncId,
        lines: &[(usize, &'t str)],
    ) -> Result<(), ParseError> {
        let f = module.function_mut(id);
        // Parameters already exist.
        let params = (0..f.sig.params.len()).map(|n| (n as u32, Value::from_index(n)));
        self.values.0.clear();
        self.values.0.extend(params);
        self.blocks.0.clear();
        self.blocks.0.push((0, (f.entry_block(), false)));
        self.insts.clear();

        // Pass 1: create blocks and placeholder instructions so forward
        // references (phis, branches) resolve.
        let mut current = f.entry_block();
        for &(ln, l) in lines {
            if let Some(bb) = l.strip_suffix(':') {
                let n = parse_block_id(ln, bb)?;
                let (b, _) = self.blocks.entry(n, || (f.create_block(), false));
                if std::mem::replace(&mut b.1, true) {
                    return err(ln, format!("duplicate block label `bb{n}`"));
                }
                current = b.0;
                continue;
            }
            let (def, body) = split_def(l);
            let (mn, rest) = body.split_once(' ').unwrap_or((body, ""));
            let rest = rest.trim();
            let v = match def {
                None => hole(f, current),
                Some(def) => {
                    let (&mut v, new) = self.values.entry(def, || hole(f, current));
                    if !new {
                        // Parameter lines re-state existing definitions.
                        if !l.contains("param.") {
                            return err(ln, format!("duplicate definition of %{def}"));
                        }
                        self.insts.push((ln, v, mn, rest));
                        continue;
                    }
                    v
                }
            };
            self.insts.push((ln, v, mn, rest));
            // Only branches and phis name blocks, possibly not yet seen.
            if matches!(mn, "br" | "cond_br") || mn.starts_with("phi.") {
                for tok in rest.split(|c: char| !c.is_alphanumeric()) {
                    if let Some(n) = tok.strip_prefix("bb").and_then(|n| n.parse().ok()) {
                        self.blocks.entry(n, || (f.create_block(), false));
                    }
                }
            }
        }

        // Pass 2: fill in instruction kinds.
        for &(ln, v, mn, rest) in &self.insts {
            let (kind, ty) = parse_inst(module, self, ln, mn, rest)?;
            if let InstKind::Param(_) = kind {
                continue; // parameters already materialized by declare_function
            }
            let data = module.function_mut(id).inst_mut(v);
            (data.kind, data.ty) = (kind, ty);
        }
        Ok(())
    }
}

fn parse_block_id(ln: usize, tok: &str) -> Result<u32, ParseError> {
    tok.strip_prefix("bb")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| perr(ln, format!("bad block label `{tok}`")))
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

/// Parses one instruction from its mnemonic and (trimmed) operand text.
fn parse_inst(
    module: &Module,
    cx: &Body<'_>,
    ln: usize,
    mn: &str,
    rest: &str,
) -> Result<(InstKind, Option<Type>), ParseError> {
    let fail = |message: &'static str| move || perr(ln, message);
    let val = |tok: &str| -> Result<Value, ParseError> {
        let t = tok.trim().trim_start_matches('%');
        let n: u32 = t
            .parse()
            .map_err(|_| perr(ln, format!("bad value `{tok}`")))?;
        let v = cx.values.get(n).copied();
        v.ok_or_else(|| perr(ln, format!("undefined value %{n}")))
    };
    let block = |tok: &str| -> Result<Block, ParseError> {
        let n = parse_block_id(ln, tok.trim())?;
        let b = cx.blocks.get(n).map(|b| b.0);
        b.ok_or_else(|| perr(ln, format!("undefined block bb{n}")))
    };
    let two = || -> Result<(Value, Value), ParseError> {
        let (a, b) = rest
            .split_once(',')
            .ok_or_else(fail("expected two operands"))?;
        Ok((val(a)?, val(b)?))
    };
    // Exactly three comma-separated operands.
    let three = || {
        let mut parts = rest.split(',');
        let abc = (parts.next()?, parts.next()?, parts.next()?);
        parts.next().is_none().then_some(abc)
    };

    // Mnemonics with a `.suffix`.
    if let Some((base, suffix)) = mn.split_once('.') {
        let ty = || parse_type(ln, suffix);
        return match base {
            "param" => Ok((InstKind::Param(0), None)), // sentinel; skipped by caller
            "iconst" => {
                let ty = ty()?;
                let c = rest
                    .parse()
                    .map_err(|_| perr(ln, format!("bad integer constant `{rest}`")))?;
                Ok((InstKind::ConstInt(c), Some(ty)))
            }
            "load" => {
                let ty = ty()?;
                Ok((InstKind::Load { ptr: val(rest)? }, Some(ty)))
            }
            "icmp" => {
                let op = parse_cmp(ln, suffix)?;
                let (a, b) = two()?;
                Ok((InstKind::Icmp(op, a, b), Some(Type::I64)))
            }
            "fcmp" => {
                let op = parse_fcmp(ln, suffix)?;
                let (a, b) = two()?;
                Ok((InstKind::Fcmp(op, a, b), Some(Type::I64)))
            }
            "phi" => {
                let ty = ty()?;
                let mut incs = Vec::new();
                // [bb0: %2], [bb2: %9]
                for part in rest.split(']') {
                    let part = part.trim().trim_start_matches(',').trim();
                    let Some(inner) = part.strip_prefix('[') else {
                        continue;
                    };
                    let (bb, v) = inner.split_once(':').ok_or_else(fail("bad phi incoming"))?;
                    incs.push((block(bb)?, val(v)?));
                }
                Ok((InstKind::Phi(incs), Some(ty)))
            }
            "select" => {
                let ty = ty()?;
                let (c, t, e) = three().ok_or_else(fail("select needs three operands"))?;
                let (cond, tval, fval) = (val(c)?, val(t)?, val(e)?);
                Ok((InstKind::Select { cond, tval, fval }, Some(ty)))
            }
            _ => {
                if let Some(op) = lookup(BinOp::ALL, BinOp::mnemonic, base) {
                    let ty = ty()?;
                    let (a, b) = two()?;
                    Ok((InstKind::Binary(op, a, b), Some(ty)))
                } else if let Some(op) = lookup(CastOp::ALL, CastOp::mnemonic, base) {
                    let ty = ty()?;
                    Ok((InstKind::Cast(op, val(rest)?), Some(ty)))
                } else {
                    err(ln, format!("unknown mnemonic `{mn}`"))
                }
            }
        };
    }

    match mn {
        "nop" => Ok((InstKind::Nop, None)),
        "fconst" => {
            let c = rest
                .parse()
                .map_err(|_| perr(ln, format!("bad float constant `{rest}`")))?;
            Ok((InstKind::ConstFloat(c), Some(Type::F64)))
        }
        "alloca" => {
            // alloca N, align A
            let (sz, al) = rest
                .split_once(',')
                .ok_or_else(fail("alloca needs size and alignment"))?;
            let size = sz.trim().parse().ok().ok_or_else(fail("bad alloca size"))?;
            let align = al
                .trim()
                .strip_prefix("align ")
                .and_then(|a| a.parse().ok());
            let align = align.ok_or_else(fail("bad alloca alignment"))?;
            Ok((InstKind::Alloca { size, align }, Some(Type::Ptr)))
        }
        "store" => {
            let (v, p) = two()?;
            Ok((InstKind::Store { ptr: p, val: v }, None))
        }
        "gep" => {
            // gep %base, %idx x SCALE + DISP
            let (base, tail) = rest
                .split_once(',')
                .ok_or_else(fail("gep needs base and index"))?;
            let (index, tail) = tail
                .split_once(" x ")
                .ok_or_else(fail("gep missing scale"))?;
            let (scale, disp) = tail
                .split_once(" + ")
                .ok_or_else(fail("gep missing displacement"))?;
            let (base, index) = (val(base)?, val(index)?);
            let scale = scale
                .trim()
                .parse()
                .ok()
                .ok_or_else(fail("bad gep scale"))?;
            let disp = disp
                .trim()
                .parse()
                .ok()
                .ok_or_else(fail("bad gep displacement"))?;
            Ok((
                InstKind::Gep {
                    base,
                    index,
                    scale,
                    disp,
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
            let mut args = Vec::new();
            for a in rest[paren + 1..].trim_end_matches(')').split(',') {
                let a = a.trim();
                if !a.is_empty() {
                    args.push(val(a)?);
                }
            }
            if let Some(fidx) = callee.strip_prefix("@f") {
                let fi: usize = fidx
                    .parse()
                    .map_err(|_| perr(ln, format!("bad callee `{callee}`")))?;
                if fi >= module.num_functions() {
                    return err(ln, format!("call to undeclared {callee}"));
                }
                let func = FuncId::from_index(fi);
                Ok((InstKind::Call { func, args }, module.function(func).sig.ret))
            } else {
                let intr = parse_intrinsic(ln, callee)?;
                Ok((InstKind::IntrinsicCall { intr, args }, intr.signature().1))
            }
        }
        "global_addr" => {
            let g = rest.trim().strip_prefix("@g").and_then(|n| n.parse().ok());
            let g: usize = g.ok_or_else(|| perr(ln, format!("bad global ref `{rest}`")))?;
            if g >= module.num_globals() {
                return err(ln, "reference to undeclared global");
            }
            Ok((
                InstKind::GlobalAddr(GlobalId::from_index(g)),
                Some(Type::Ptr),
            ))
        }
        "br" => Ok((InstKind::Br(block(rest)?), None)),
        "cond_br" => {
            let (c, t, e) = three().ok_or_else(fail("cond_br needs condition and two targets"))?;
            let (cond, then_bb, else_bb) = (val(c)?, block(t)?, block(e)?);
            Ok((
                InstKind::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                },
                None,
            ))
        }
        "ret" if rest.is_empty() => Ok((InstKind::Ret(None), None)),
        "ret" => Ok((InstKind::Ret(Some(val(rest)?)), None)),
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
    fn skips_comment_lines_inside_bodies() {
        let text = "; module c\n; top\nfunc @f() -> i64 {\n; before the label\nbb0:\n  ; a comment\n  %1 = iconst.i64 1\n;\n  ret %1\n}\n";
        let m = parse_module(text).unwrap();
        m.verify().unwrap();
        assert_eq!(m.function(FuncId::from_index(0)).num_live_insts(), 2);
    }

    #[test]
    fn rejects_a_duplicate_block_label() {
        let text = "func @f() -> i64 {\nbb0:\n  %1 = iconst.i64 1\nbb0:\n  ret %1\n}\n";
        let e = parse_module(text).unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (4, "duplicate block label `bb0`")
        );
        // A forward reference before the label is not a second label.
        let fwd = "func @f() {\nbb0:\n  br bb1\nbb1:\n  ret\n}\n";
        parse_module(fwd).unwrap().verify().unwrap();
    }

    /// Every error site: the line it names and a substring of its message.
    #[test]
    fn error_sites_name_their_line_and_cause() {
        let head = "global @g0 \"g\" [8 bytes]\nfunc @f(i64 %0) -> i64 {\nbb0:\n";
        let cases: &[(&str, &str)] = &[
            ("  %1 = add.i64 %0, %x", "bad value ` %x`"),
            ("  %1 = add.i64 %0, %7", "undefined value %7"),
            ("  br bb+5", "undefined block bb5"),
            ("  br cc1", "bad block label `cc1`"),
            ("  %1 = add.i64 %0", "expected two operands"),
            ("  %1 = gep %0", "gep needs base and index"),
            ("  %1 = gep %0, %0", "gep missing scale"),
            ("  %1 = gep %0, %0 x 8", "gep missing displacement"),
            ("  %1 = gep %0, %0 x s + 0", "bad gep scale"),
            ("  %1 = gep %0, %0 x 8 + d", "bad gep displacement"),
            ("  %1 = alloca 8", "alloca needs size and alignment"),
            ("  %1 = alloca s, align 8", "bad alloca size"),
            ("  %1 = alloca 8, 8", "bad alloca alignment"),
            ("  %1 = select.i64 %0, %0", "select needs three operands"),
            (
                "  cond_br %0, bb0",
                "cond_br needs condition and two targets",
            ),
            ("  %1 = phi.i64 [bb0 %0]", "bad phi incoming"),
            ("  %1 = call @f0", "call missing `(`"),
            ("  %1 = call @fx(%0)", "bad callee `@fx`"),
            ("  %1 = call @f9(%0)", "call to undeclared @f9"),
            ("  %1 = call bogus(%0)", "unknown intrinsic `bogus`"),
            ("  %1 = global_addr g0", "bad global ref `g0`"),
            ("  %1 = global_addr @g3", "reference to undeclared global"),
            ("  %1 = iconst.i64 x", "bad integer constant `x`"),
            ("  %1 = fconst x", "bad float constant `x`"),
            ("  %1 = icmp.lt %0, %0", "unknown icmp predicate `lt`"),
            ("  %1 = add.i3 %0, %0", "unknown type `i3`"),
            ("  %1 = frob.i64 %0", "unknown mnemonic `frob.i64`"),
            ("  frob %0", "unknown instruction `frob`"),
            ("  %0 = iconst.i64 1", "duplicate definition of %0"),
        ];
        for &(line, want) in cases {
            let text = format!("{head}{line}\n  ret %0\n}}\n");
            let e = parse_module(&text).expect_err(line);
            assert_eq!(e.line, 4, "{line}: {e}");
            assert!(e.message.contains(want), "{line}: got `{}`", e.message);
        }
    }

    /// Id tables hold one entry per id the text names, not one per id
    /// value: the largest `u32` id parses without a table sized by it.
    #[test]
    fn the_largest_ids_parse_in_memory_linear_in_the_input() {
        let text = "func @f() -> i64 {\nbb0:\n  %4294967295 = iconst.i64 1\n  ret %4294967295\n}\n";
        let m = parse_module(text).unwrap();
        m.verify().unwrap();
        let f = m.function(FuncId::from_index(0));
        assert_eq!((f.num_insts(), f.num_blocks()), (2, 1));
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
