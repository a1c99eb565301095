//! The register VM.
//!
//! [`Vm`] mirrors [`crate::interp::Interp`]'s public shape (globals,
//! captured output, step counter, optional fuel) and its exact observable
//! semantics: same values, same mutations of shared `Rc` state, same
//! diagnostics with the same spans, same variable-map contents on exit —
//! including the interpreter's quirk of leaving `vars` empty when a slice
//! errors (it `mem::take`s the map and never restores it on the error
//! path).
//!
//! The fuel accounting differs by design: the interpreter ticks per AST
//! node, the VM per op, so the two engines exhaust a given budget at
//! different points. Plan execution never sets fuel; it is a safety valve
//! for tests.

use super::*;
use crate::error::{interp_err, LangResult};
use crate::interp::HostEnv;
use crate::span::Span;
use crate::value::{ObjectVal, Value};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// How a frame finished.
enum VmFlow {
    /// Fell off the end of the op sequence (or `Halt` in a slice).
    Done,
    /// Method `return`.
    Ret(Value),
    /// `break`/`continue` escaped a statement slice.
    Escape(Span),
}

/// Per-slot frame state. `BOUND` is a live local (seeded var, declaration,
/// loop variable) that write-back returns to the caller's var map;
/// `CACHED` is a memoized read of a provably-constant global
/// ([`CodeBlock::cacheable`]) — readable like a local, invisible to
/// write-back.
const UNBOUND: u8 = 0;
const BOUND: u8 = 1;
const CACHED: u8 = 2;

/// Bytecode executor. One instance per filter step, like the interpreter.
pub struct Vm<'p> {
    prog: &'p ProgramCode,
    /// Extern / runtime_define values.
    pub globals: HashMap<String, Value>,
    /// Captured `print()` output.
    pub output: Vec<String>,
    /// Executed op counter (cost/debug aid; op-granular, not AST-granular).
    pub steps: u64,
    /// Optional op budget; exceeding it aborts with an error.
    pub fuel: Option<u64>,
    /// Recycled call frames (registers + slot states) so a method call
    /// in a hot loop does not allocate.
    frames: Vec<(Vec<Value>, Vec<u8>)>,
}

impl<'p> Vm<'p> {
    pub fn new(prog: &'p ProgramCode, host: HostEnv) -> Self {
        Vm {
            prog,
            globals: host.values,
            output: Vec::new(),
            steps: 0,
            fuel: None,
            frames: Vec::new(),
        }
    }

    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = Some(fuel);
        self
    }

    /// Allocate a default-initialized instance of `class`.
    pub fn instantiate(&self, class: &str) -> LangResult<Rc<RefCell<ObjectVal>>> {
        match self.prog.class_map.get(class) {
            Some(ci) => Ok(Rc::new(RefCell::new(
                self.prog.classes[*ci as usize].instantiate(),
            ))),
            None => Err(interp_err(
                Span::synthetic(),
                format!("unknown class `{class}`"),
            )),
        }
    }

    /// Execute a lowered statement slice against `vars` — the bytecode
    /// analogue of `Interp::exec_stmts_with_vars`, with identical
    /// semantics for bindings, write-back, and error behavior.
    pub fn exec_slice(
        &mut self,
        code: &CodeBlock,
        vars: &mut HashMap<String, Value>,
    ) -> LangResult<()> {
        let this = self.instantiate(&code.class)?;
        let mut regs = vec![Value::Void; code.n_regs as usize];
        let mut bound = vec![UNBOUND; code.slot_count()];
        let mut taken = std::mem::take(vars);
        for (i, nid) in code.slot_names.iter().enumerate() {
            if let Some(v) = taken.get(code.name(*nid)) {
                regs[i] = v.clone();
                bound[i] = BOUND;
            }
        }
        match self.run(code, &mut regs, &mut bound, Some(&this))? {
            VmFlow::Done | VmFlow::Ret(_) => {
                write_back(code, &mut regs, &bound, &mut taken);
                *vars = taken;
                Ok(())
            }
            VmFlow::Escape(span) => {
                write_back(code, &mut regs, &bound, &mut taken);
                *vars = taken;
                Err(interp_err(span, "break/continue escaped statement slice"))
            }
        }
        // A `?`-propagated error drops `taken`, leaving `vars` empty —
        // exactly what the interpreter's `mem::take` does on that path.
    }

    /// Call a lowered method by id. `args` is borrowed straight from the
    /// caller's registers — no intermediate argv allocation.
    fn invoke(
        &mut self,
        mi: usize,
        this: Option<Rc<RefCell<ObjectVal>>>,
        args: &[Value],
    ) -> LangResult<Value> {
        let m = &self.prog.methods[mi];
        if args.len() != m.params as usize {
            return Err(interp_err(
                m.decl_span,
                format!("arity mismatch calling `{}::{}`", m.class, m.name),
            ));
        }
        let (mut regs, mut bound) = self.frames.pop().unwrap_or_default();
        regs.clear();
        regs.resize(m.code.n_regs as usize, Value::Void);
        bound.clear();
        bound.resize(m.code.slot_count(), UNBOUND);
        for (i, a) in args.iter().enumerate() {
            regs[i] = a.clone();
            bound[i] = BOUND;
        }
        let flow = self.run(&m.code, &mut regs, &mut bound, this.as_ref());
        self.frames.push((regs, bound));
        match flow? {
            VmFlow::Ret(v) => Ok(if m.coerce_ret { widen_to_double(v) } else { v }),
            // Falling off the end — or a loose break/continue, which the
            // interpreter folds to `Void` (lowered to `RetVoid`, so
            // `Escape` cannot occur in method code).
            VmFlow::Done | VmFlow::Escape(_) => Ok(Value::Void),
        }
    }

    fn run(
        &mut self,
        code: &CodeBlock,
        regs: &mut [Value],
        bound: &mut [u8],
        this: Option<&Rc<RefCell<ObjectVal>>>,
    ) -> LangResult<VmFlow> {
        let prog = self.prog;
        let ops = &code.ops;
        let mut pc = 0usize;
        while pc < ops.len() {
            self.steps += 1;
            if let Some(fuel) = self.fuel {
                if self.steps > fuel {
                    return Err(interp_err(code.spans[pc], "interpreter fuel exhausted"));
                }
            }
            match ops[pc] {
                Op::Const { dst, k } => {
                    regs[dst as usize] = code.consts[k as usize].to_value();
                }
                Op::ReadSlot { dst, slot } => {
                    let s = slot as usize;
                    if bound[s] != UNBOUND {
                        let v = regs[s].clone();
                        regs[dst as usize] = v;
                    } else {
                        let v = self.fallback_read(code, s, this, code.spans[pc])?;
                        if code.cacheable[s] {
                            // Provably-constant global: memoize so hot
                            // loops stop re-hashing the name.
                            regs[s] = v.clone();
                            bound[s] = CACHED;
                        }
                        regs[dst as usize] = v;
                    }
                }
                Op::BindSlot { slot, src } => {
                    regs[slot as usize] = std::mem::replace(&mut regs[src as usize], Value::Void);
                    bound[slot as usize] = BOUND;
                }
                Op::BindDefault { slot, k } => {
                    regs[slot as usize] = code.consts[k as usize].to_value();
                    bound[slot as usize] = BOUND;
                }
                Op::CoerceDouble { reg } => {
                    if let Value::Int(i) = regs[reg as usize] {
                        regs[reg as usize] = Value::Double(i as f64);
                    }
                }
                Op::AssignSlot { slot, src, mode } => {
                    let span = code.spans[pc];
                    let s = slot as usize;
                    let rhs = regs[src as usize].clone();
                    if bound[s] == BOUND {
                        let widened = widen(&regs[s], rhs);
                        let nv = combine(mode, &regs[s], widened, span)?;
                        regs[s] = nv;
                    } else {
                        self.fallback_write(code, s, this, rhs, mode, span)?;
                        // Defensive: a cached copy of this global (cannot
                        // happen today — cacheable slots are never
                        // assigned) would now be stale.
                        bound[s] = UNBOUND;
                    }
                }
                Op::LoadThis { dst } => {
                    regs[dst as usize] = this.cloned().map(Value::Object).ok_or_else(|| {
                        interp_err(code.spans[pc], "`this` outside an instance method")
                    })?;
                }
                Op::LoadField { dst, base, name } => {
                    let span = code.spans[pc];
                    let b = regs[base as usize].clone();
                    let Value::Object(obj) = b else {
                        return Err(interp_err(span, "field access on non-object"));
                    };
                    let fname = code.name(name);
                    let v = obj
                        .borrow()
                        .fields
                        .get(fname)
                        .cloned()
                        .ok_or_else(|| interp_err(span, format!("no field `{fname}`")))?;
                    regs[dst as usize] = v;
                }
                Op::StoreField {
                    base,
                    name,
                    src,
                    mode,
                } => {
                    let span = code.spans[pc];
                    let rhs = regs[src as usize].clone();
                    let b = regs[base as usize].clone();
                    let Value::Object(obj) = b else {
                        return Err(interp_err(span, "field assignment on non-object"));
                    };
                    let fname = code.name(name);
                    let mut obj = obj.borrow_mut();
                    let slot = obj
                        .fields
                        .get_mut(fname)
                        .ok_or_else(|| interp_err(span, format!("no field `{fname}`")))?;
                    *slot = combine(mode, slot, widen(slot, rhs), span)?;
                }
                Op::LoadIndex { dst, base, idx } => {
                    let span = code.spans[pc];
                    let i = int_reg(&regs[idx as usize]);
                    let b = regs[base as usize].clone();
                    let Value::Array(arr) = b else {
                        return Err(interp_err(span, "indexing non-array"));
                    };
                    let arr = arr.borrow();
                    let Some(v) = usize::try_from(i).ok().and_then(|i| arr.get(i)) else {
                        return Err(interp_err(
                            span,
                            format!("array index {i} out of bounds (len {})", arr.len()),
                        ));
                    };
                    let v = v.clone();
                    drop(arr);
                    regs[dst as usize] = v;
                }
                Op::StoreIndex {
                    base,
                    idx,
                    src,
                    mode,
                } => {
                    let span = code.spans[pc];
                    let i = int_reg(&regs[idx as usize]);
                    let rhs = regs[src as usize].clone();
                    let b = regs[base as usize].clone();
                    let Value::Array(arr) = b else {
                        return Err(interp_err(span, "index assignment on non-array"));
                    };
                    let mut arr = arr.borrow_mut();
                    let len = arr.len();
                    let Some(slot) = usize::try_from(i).ok().and_then(|i| arr.get_mut(i)) else {
                        return Err(interp_err(
                            span,
                            format!("array index {i} out of bounds (len {len})"),
                        ));
                    };
                    *slot = combine(mode, slot, widen(slot, rhs), span)?;
                }
                Op::CheckInt { src } => {
                    if !matches!(regs[src as usize], Value::Int(_)) {
                        return Err(interp_err(code.spans[pc], "expected an int"));
                    }
                }
                Op::CheckBool { src } => {
                    if !matches!(regs[src as usize], Value::Bool(_)) {
                        return Err(interp_err(code.spans[pc], "expected a boolean"));
                    }
                }
                Op::CheckDomainPipe { src } => {
                    if !matches!(regs[src as usize], Value::Domain(..)) {
                        return Err(interp_err(
                            code.spans[pc],
                            "PipelinedLoop over non-domain value",
                        ));
                    }
                }
                Op::Neg { dst, src } => {
                    let v = match &regs[src as usize] {
                        Value::Int(i) => Value::Int(i.wrapping_neg()),
                        Value::Double(d) => Value::Double(-d),
                        _ => return Err(interp_err(code.spans[pc], "negating non-numeric")),
                    };
                    regs[dst as usize] = v;
                }
                Op::Not { dst, src } => {
                    let v = match &regs[src as usize] {
                        Value::Bool(b) => Value::Bool(!b),
                        _ => return Err(interp_err(code.spans[pc], "logical not on non-boolean")),
                    };
                    regs[dst as usize] = v;
                }
                Op::Bin { op, dst, l, r } => {
                    let v = bin_vals(op, &regs[l as usize], &regs[r as usize], code.spans[pc])?;
                    regs[dst as usize] = v;
                }
                Op::Jump { to } => {
                    pc = to as usize;
                    continue;
                }
                Op::BranchTrue { cond, to } => match &regs[cond as usize] {
                    Value::Bool(b) => {
                        if *b {
                            pc = to as usize;
                            continue;
                        }
                    }
                    _ => return Err(interp_err(code.spans[pc], "expected a boolean")),
                },
                Op::BranchFalse { cond, to } => match &regs[cond as usize] {
                    Value::Bool(b) => {
                        if !*b {
                            pc = to as usize;
                            continue;
                        }
                    }
                    _ => return Err(interp_err(code.spans[pc], "expected a boolean")),
                },
                Op::ForeachBegin { dom, var, cur, end } => {
                    let (lo, hi) = match &regs[dom as usize] {
                        Value::Domain(lo, hi) => (*lo, *hi),
                        _ => {
                            return Err(interp_err(code.spans[pc], "foreach over non-domain value"))
                        }
                    };
                    if lo > hi {
                        pc = end as usize;
                        continue;
                    }
                    regs[cur as usize] = Value::Int(lo);
                    regs[var as usize] = Value::Int(lo);
                    bound[var as usize] = BOUND;
                }
                Op::ForeachNext {
                    var,
                    cur,
                    dom,
                    body,
                } => {
                    let hi = match &regs[dom as usize] {
                        Value::Domain(_, hi) => *hi,
                        _ => return Err(interp_err(code.spans[pc], "corrupt foreach state")),
                    };
                    let c = int_reg(&regs[cur as usize]);
                    if c < hi {
                        regs[cur as usize] = Value::Int(c + 1);
                        regs[var as usize] = Value::Int(c + 1);
                        bound[var as usize] = BOUND;
                        pc = body as usize;
                        continue;
                    }
                }
                Op::PipeBegin {
                    dom,
                    n,
                    var,
                    p,
                    end,
                } => {
                    let span = code.spans[pc];
                    let (lo, hi) = match &regs[dom as usize] {
                        Value::Domain(lo, hi) => (*lo, *hi),
                        _ => return Err(interp_err(span, "PipelinedLoop over non-domain value")),
                    };
                    let np = int_reg(&regs[n as usize]);
                    if np <= 0 {
                        return Err(interp_err(span, "num_packets must be positive"));
                    }
                    let total = (hi - lo + 1).max(0);
                    if total == 0 {
                        pc = end as usize;
                        continue;
                    }
                    let nc = np.min(total);
                    regs[n as usize] = Value::Int(nc);
                    regs[p as usize] = Value::Int(0);
                    regs[var as usize] = packet_domain(lo, total, nc, 0);
                    bound[var as usize] = BOUND;
                }
                Op::PipeNext {
                    dom,
                    n,
                    var,
                    p,
                    body,
                } => {
                    let (lo, hi) = match &regs[dom as usize] {
                        Value::Domain(lo, hi) => (*lo, *hi),
                        _ => return Err(interp_err(code.spans[pc], "corrupt pipelined state")),
                    };
                    let total = (hi - lo + 1).max(0);
                    let nc = int_reg(&regs[n as usize]);
                    let pi = int_reg(&regs[p as usize]) + 1;
                    if pi < nc {
                        regs[p as usize] = Value::Int(pi);
                        regs[var as usize] = packet_domain(lo, total, nc, pi);
                        bound[var as usize] = BOUND;
                        pc = body as usize;
                        continue;
                    }
                }
                Op::CallStatic {
                    dst,
                    mi,
                    name,
                    argb,
                    argc,
                } => {
                    if mi == UNRESOLVED {
                        return Err(interp_err(
                            Span::synthetic(),
                            format!("unknown method `{}::{}`", code.class, code.name(name)),
                        ));
                    }
                    let b = argb as usize;
                    let v = self.invoke(mi as usize, this.cloned(), &regs[b..b + argc as usize])?;
                    regs[dst as usize] = v;
                }
                Op::CallMethod {
                    dst,
                    recv,
                    name,
                    fast,
                    argb,
                    argc,
                } => {
                    let span = code.spans[pc];
                    let rv = regs[recv as usize].clone();
                    let v = match rv {
                        Value::Domain(lo, hi) => match fast {
                            FastMeth::DomLo => Value::Int(lo),
                            FastMeth::DomHi => Value::Int(hi),
                            FastMeth::DomSize => Value::Int((hi - lo + 1).max(0)),
                            _ => {
                                return Err(interp_err(
                                    span,
                                    format!("RectDomain has no method `{}`", code.name(name)),
                                ))
                            }
                        },
                        Value::Array(arr) => match fast {
                            FastMeth::ArrLen => Value::Int(arr.borrow().len() as i64),
                            _ => {
                                return Err(interp_err(
                                    span,
                                    format!("arrays have no method `{}`", code.name(name)),
                                ))
                            }
                        },
                        Value::Object(obj) => {
                            let mname = code.name(name);
                            // Resolve inside the borrow so the hot path
                            // never clones the class-name string.
                            let mi = {
                                let b = obj.borrow();
                                prog.methods_by_class
                                    .get(&b.class)
                                    .and_then(|m| m.get(mname))
                                    .copied()
                            };
                            match mi {
                                Some(mi) => {
                                    let b = argb as usize;
                                    self.invoke(
                                        mi as usize,
                                        Some(obj),
                                        &regs[b..b + argc as usize],
                                    )?
                                }
                                None => {
                                    let cls = obj.borrow().class.clone();
                                    return Err(interp_err(
                                        Span::synthetic(),
                                        format!("unknown method `{cls}::{mname}`"),
                                    ));
                                }
                            }
                        }
                        other => {
                            return Err(interp_err(
                                span,
                                format!("cannot call `{}` on value `{other}`", code.name(name)),
                            ))
                        }
                    };
                    regs[dst as usize] = v;
                }
                Op::CallBuiltin { dst, f, argb, argc } => {
                    let b = argb as usize;
                    let v = self.builtin(f, &regs[b..b + argc as usize], code.spans[pc])?;
                    regs[dst as usize] = v;
                }
                Op::New { dst, ci, name } => {
                    if ci == UNRESOLVED {
                        return Err(interp_err(
                            Span::synthetic(),
                            format!("unknown class `{}`", code.name(name)),
                        ));
                    }
                    regs[dst as usize] = Value::Object(Rc::new(RefCell::new(
                        prog.classes[ci as usize].instantiate(),
                    )));
                }
                Op::NewArray { dst, len, k } => {
                    let n = int_reg(&regs[len as usize]);
                    if n < 0 {
                        return Err(interp_err(code.spans[pc], "negative array length"));
                    }
                    regs[dst as usize] =
                        Value::new_array(n as usize, code.consts[k as usize].to_value());
                }
                Op::NewDomain { dst, lo, hi } => {
                    let l = int_reg(&regs[lo as usize]);
                    let h = int_reg(&regs[hi as usize]);
                    regs[dst as usize] = Value::Domain(l, h);
                }
                Op::Ret { src } => {
                    return Ok(VmFlow::Ret(std::mem::replace(
                        &mut regs[src as usize],
                        Value::Void,
                    )));
                }
                Op::RetVoid => return Ok(VmFlow::Ret(Value::Void)),
                Op::Halt => return Ok(VmFlow::Done),
                Op::FailEscape => return Ok(VmFlow::Escape(code.spans[pc])),
            }
            pc += 1;
        }
        Ok(VmFlow::Done)
    }

    /// Unbound-slot read: `this` field, then global — the tail of the
    /// interpreter's lookup chain (the live-local head is the `bound`
    /// test at the call site). [`SlotKind`] elides provably-missing
    /// probes.
    fn fallback_read(
        &self,
        code: &CodeBlock,
        slot: usize,
        this: Option<&Rc<RefCell<ObjectVal>>>,
        span: Span,
    ) -> LangResult<Value> {
        let name = code.name(code.slot_names[slot]);
        if code.slot_kinds[slot] != SlotKind::Global {
            if let Some(t) = this {
                if let Some(v) = t.borrow().fields.get(name) {
                    return Ok(v.clone());
                }
            }
        }
        if let Some(v) = self.globals.get(name) {
            return Ok(v.clone());
        }
        Err(interp_err(span, format!("unknown variable `{name}`")))
    }

    /// Unbound-slot write, mirroring the interpreter's write order:
    /// field of `this`, then global, then error.
    fn fallback_write(
        &mut self,
        code: &CodeBlock,
        slot: usize,
        this: Option<&Rc<RefCell<ObjectVal>>>,
        rhs: Value,
        mode: AssignOp,
        span: Span,
    ) -> LangResult<()> {
        let name = code.name(code.slot_names[slot]);
        if code.slot_kinds[slot] != SlotKind::Global {
            if let Some(t) = this {
                if let Some(slot) = t.borrow_mut().fields.get_mut(name) {
                    *slot = combine(mode, slot, widen(slot, rhs), span)?;
                    return Ok(());
                }
            }
        }
        if let Some(slot) = self.globals.get_mut(name) {
            *slot = combine(mode, slot, widen(slot, rhs), span)?;
            return Ok(());
        }
        Err(interp_err(
            span,
            format!("assignment to unknown variable `{name}`"),
        ))
    }

    fn builtin(&mut self, f: BuiltinFn, args: &[Value], span: Span) -> LangResult<Value> {
        let num = |v: &Value| -> LangResult<f64> {
            v.as_f64()
                .ok_or_else(|| interp_err(span, "numeric argument expected"))
        };
        let arg = |i: usize| -> LangResult<&Value> {
            args.get(i)
                .ok_or_else(|| interp_err(span, "numeric argument expected"))
        };
        match f {
            BuiltinFn::Sqrt => Ok(Value::Double(num(arg(0)?)?.sqrt())),
            BuiltinFn::Floor => Ok(Value::Double(num(arg(0)?)?.floor())),
            BuiltinFn::Ceil => Ok(Value::Double(num(arg(0)?)?.ceil())),
            BuiltinFn::Exp => Ok(Value::Double(num(arg(0)?)?.exp())),
            BuiltinFn::Log => Ok(Value::Double(num(arg(0)?)?.ln())),
            BuiltinFn::Abs => match arg(0)? {
                Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
                Value::Double(d) => Ok(Value::Double(d.abs())),
                _ => Err(interp_err(span, "numeric argument expected")),
            },
            BuiltinFn::Min | BuiltinFn::Max => {
                let take_min = f == BuiltinFn::Min;
                match (arg(0)?, arg(1)?) {
                    (Value::Int(a), Value::Int(b)) => {
                        Ok(Value::Int(if take_min { *a.min(b) } else { *a.max(b) }))
                    }
                    _ => {
                        let a = num(arg(0)?)?;
                        let b = num(arg(1)?)?;
                        Ok(Value::Double(if take_min { a.min(b) } else { a.max(b) }))
                    }
                }
            }
            BuiltinFn::Pow => Ok(Value::Double(num(arg(0)?)?.powf(num(arg(1)?)?))),
            BuiltinFn::ToInt => match arg(0)? {
                Value::Int(i) => Ok(Value::Int(*i)),
                Value::Double(d) => Ok(Value::Int(*d as i64)),
                _ => Err(interp_err(span, "numeric argument expected")),
            },
            BuiltinFn::ToDouble => Ok(Value::Double(num(arg(0)?)?)),
            BuiltinFn::Print => {
                let s = arg(0)?.to_string();
                self.output.push(s);
                Ok(Value::Void)
            }
        }
    }
}

/// Lowering guarantees a [`Op::CheckInt`] before every int-typed operand,
/// so this read cannot miss; the fallback keeps corrupt state from
/// panicking.
fn int_reg(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        _ => 0,
    }
}

fn write_back(
    code: &CodeBlock,
    regs: &mut [Value],
    bound: &[u8],
    vars: &mut HashMap<String, Value>,
) {
    for (i, nid) in code.slot_names.iter().enumerate() {
        // `CACHED` slots are memoized globals, not locals — they must not
        // leak into the caller's variable map.
        if bound[i] == BOUND {
            vars.insert(
                code.name(*nid).to_string(),
                std::mem::replace(&mut regs[i], Value::Void),
            );
        }
    }
}

/// Packet `p` of `split_domain(lo, lo + total - 1, nc)`, computed
/// arithmetically (first `rem` packets take one extra element).
fn packet_domain(lo: i64, total: i64, nc: i64, p: i64) -> Value {
    let base = total / nc;
    let rem = total % nc;
    let len = base + i64::from(p < rem);
    let start = lo + p * base + p.min(rem);
    Value::Domain(start, start + len - 1)
}

/// Implicit int→double widening against the current target value —
/// applied before `combine` for every assignment, including plain `=`.
fn widen(old: &Value, rhs: Value) -> Value {
    match (old, &rhs) {
        (Value::Double(_), Value::Int(i)) => Value::Double(*i as f64),
        _ => rhs,
    }
}

fn widen_to_double(v: Value) -> Value {
    match v {
        Value::Int(i) => Value::Double(i as f64),
        other => other,
    }
}

/// The interpreter's compound-assignment combine, verbatim.
fn combine(mode: AssignOp, old: &Value, rhs: Value, span: Span) -> LangResult<Value> {
    match mode {
        AssignOp::Set => Ok(rhs),
        AssignOp::Add | AssignOp::Sub => match (old, &rhs) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(if mode == AssignOp::Add {
                a.wrapping_add(*b)
            } else {
                a.wrapping_sub(*b)
            })),
            _ => {
                let a = old
                    .as_f64()
                    .ok_or_else(|| interp_err(span, "compound assignment on non-numeric target"))?;
                let b = rhs.as_f64().ok_or_else(|| {
                    interp_err(span, "compound assignment with non-numeric value")
                })?;
                let sign = if mode == AssignOp::Add { 1.0 } else { -1.0 };
                Ok(Value::Double(a + sign * b))
            }
        },
    }
}

/// The interpreter's non-logical binary evaluation, verbatim (wrapping
/// integer arithmetic, mixed operands through f64, identity comparison
/// for objects).
fn bin_vals(op: BinOp, lv: &Value, rv: &Value, span: Span) -> LangResult<Value> {
    if op.is_arith() {
        match (lv, rv) {
            (Value::Int(a), Value::Int(b)) => {
                let v = match op {
                    BinOp::Add => a.wrapping_add(*b),
                    BinOp::Sub => a.wrapping_sub(*b),
                    BinOp::Mul => a.wrapping_mul(*b),
                    BinOp::Div => {
                        if *b == 0 {
                            return Err(interp_err(span, "integer division by zero"));
                        }
                        a / b
                    }
                    BinOp::Rem => {
                        if *b == 0 {
                            return Err(interp_err(span, "integer remainder by zero"));
                        }
                        a % b
                    }
                    _ => unreachable!(),
                };
                Ok(Value::Int(v))
            }
            _ => {
                let a = lv
                    .as_f64()
                    .ok_or_else(|| interp_err(span, "non-numeric operand"))?;
                let b = rv
                    .as_f64()
                    .ok_or_else(|| interp_err(span, "non-numeric operand"))?;
                let v = match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    BinOp::Rem => a % b,
                    _ => unreachable!(),
                };
                Ok(Value::Double(v))
            }
        }
    } else {
        let res = match (lv, rv) {
            (Value::Bool(a), Value::Bool(b)) => match op {
                BinOp::Eq => a == b,
                BinOp::Ne => a != b,
                _ => return Err(interp_err(span, "ordering comparison on booleans")),
            },
            (Value::Null, Value::Null) => matches!(op, BinOp::Eq),
            (Value::Null, Value::Object(_)) | (Value::Object(_), Value::Null) => {
                matches!(op, BinOp::Ne)
            }
            (Value::Object(a), Value::Object(b)) => {
                let same = Rc::ptr_eq(a, b);
                match op {
                    BinOp::Eq => same,
                    BinOp::Ne => !same,
                    _ => return Err(interp_err(span, "ordering comparison on objects")),
                }
            }
            _ => {
                let a = lv
                    .as_f64()
                    .ok_or_else(|| interp_err(span, "non-numeric operand"))?;
                let b = rv
                    .as_f64()
                    .ok_or_else(|| interp_err(span, "non-numeric operand"))?;
                match op {
                    BinOp::Lt => a < b,
                    BinOp::Le => a <= b,
                    BinOp::Gt => a > b,
                    BinOp::Ge => a >= b,
                    BinOp::Eq => a == b,
                    BinOp::Ne => a != b,
                    _ => unreachable!(),
                }
            }
        };
        Ok(Value::Bool(res))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;
    use crate::interp::Interp;

    /// Run `main`'s body as a slice through both engines and demand
    /// identical vars (deep), output, and globals.
    fn run_both(src: &str, host: HostEnv) -> (HashMap<String, Value>, Vec<String>) {
        let tp = frontend(src).unwrap();
        let (class, method) = tp.program.main().unwrap();
        let (cname, stmts) = (class.name.clone(), method.body.stmts.clone());

        let mut it = Interp::new(&tp, host.clone());
        let mut ivars = HashMap::new();
        it.exec_stmts_with_vars(&cname, &stmts, &mut ivars).unwrap();

        let prog = ProgramCode::lower(&tp);
        let slice = prog.lower_slice(&tp, &cname, &stmts);
        let mut vm = Vm::new(&prog, host);
        let mut vvars = HashMap::new();
        vm.exec_slice(&slice, &mut vvars).unwrap();

        assert_eq!(it.output, vm.output, "print output diverged");
        assert_eq!(
            ivars.len(),
            vvars.len(),
            "vars key sets diverged: {:?} vs {:?}",
            ivars.keys().collect::<Vec<_>>(),
            vvars.keys().collect::<Vec<_>>()
        );
        for (k, v) in &ivars {
            let w = vvars.get(k).unwrap_or_else(|| panic!("missing var {k}"));
            assert!(v.deep_eq(w), "var {k}: {v} vs {w}");
        }
        let ig = it.globals;
        let vg = vm.globals;
        assert_eq!(ig.len(), vg.len(), "globals diverged");
        for (k, v) in &ig {
            assert!(v.deep_eq(&vg[k]), "global {k} diverged");
        }
        (vvars, vm.output)
    }

    /// Both engines must fail with the *same* diagnostic.
    fn err_both(src: &str, host: HostEnv) -> crate::error::Diagnostic {
        let tp = frontend(src).unwrap();
        let (class, method) = tp.program.main().unwrap();
        let (cname, stmts) = (class.name.clone(), method.body.stmts.clone());

        let mut it = Interp::new(&tp, host.clone());
        let mut ivars = HashMap::new();
        let ie = it
            .exec_stmts_with_vars(&cname, &stmts, &mut ivars)
            .unwrap_err();

        let prog = ProgramCode::lower(&tp);
        let slice = prog.lower_slice(&tp, &cname, &stmts);
        let mut vm = Vm::new(&prog, host);
        let mut vvars = HashMap::new();
        let ve = vm.exec_slice(&slice, &mut vvars).unwrap_err();

        assert_eq!(ie, ve, "diagnostics diverged");
        assert_eq!(ivars.len(), vvars.len(), "post-error vars diverged");
        ie
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let (_, out) = run_both(
            r#"class A { void main() {
                int sum = 0;
                for (int i = 1; i <= 10; i += 1) { sum += i; }
                print(sum);
            } }"#,
            HostEnv::new(),
        );
        assert_eq!(out, vec!["55"]);
    }

    #[test]
    fn foreach_sums_domain() {
        let (_, out) = run_both(
            r#"class A { void main() {
                RectDomain<1> d = [3 : 7];
                int sum = 0;
                foreach (i in d) { sum += i; }
                print(sum);
            } }"#,
            HostEnv::new(),
        );
        assert_eq!(out, vec!["25"]);
    }

    #[test]
    fn cached_global_reads_do_not_leak_into_vars() {
        // `w` is read every iteration and never assigned anywhere, so the
        // VM memoizes it in the frame — the memo must not surface as a
        // local in the written-back vars (run_both compares key sets).
        let (vars, out) = run_both(
            r#"extern int w;
            class A { void main() {
                int s = 0;
                for (int i = 0; i < 5; i += 1) { s += w; }
                print(s);
            } }"#,
            HostEnv::new().bind("w", Value::Int(3)),
        );
        assert_eq!(out, vec!["15"]);
        assert!(!vars.contains_key("w"), "memoized global leaked: {vars:?}");
    }

    #[test]
    fn global_written_by_callee_is_never_stale() {
        // `g` is assigned inside a method, which puts it in the lowered
        // program's assigned-name set and disables memoization: each read
        // in the loop must observe the callee's latest write.
        let (_, out) = run_both(
            r#"extern int g;
            class A {
                void bump() { g = g + 1; }
                void main() {
                    int s = 0;
                    for (int i = 0; i < 4; i += 1) { bump(); s += g; }
                    print(s);
                }
            }"#,
            HostEnv::new().bind("g", Value::Int(0)),
        );
        assert_eq!(out, vec!["10"]);
    }

    #[test]
    fn empty_foreach_leaves_var_unbound() {
        let (vars, _) = run_both(
            r#"class A { void main() {
                RectDomain<1> d = [5 : 2];
                int sum = 0;
                foreach (i in d) { sum += i; }
            } }"#,
            HostEnv::new(),
        );
        assert!(!vars.contains_key("i"), "loop var must not leak: {vars:?}");
        assert_eq!(vars["sum"].as_i64(), Some(0));
    }

    #[test]
    fn pipelined_loop_matches_for_all_packet_counts() {
        for np in [1, 3, 7, 100] {
            let (_, out) = run_both(
                r#"runtime_define int num_packets;
                class A { void main() {
                    RectDomain<1> d = [0 : 99];
                    int sum = 0;
                    PipelinedLoop (pkt in d; num_packets) {
                        foreach (i in pkt) { sum += i; }
                    }
                    print(sum);
                } }"#,
                HostEnv::new().bind("num_packets", Value::Int(np)),
            );
            assert_eq!(out, vec!["4950"], "num_packets={np}");
        }
    }

    #[test]
    fn interprocedural_recursion() {
        let (_, out) = run_both(
            r#"class A {
                int fib(int n) {
                    if (n < 2) { return n; }
                    return fib(n - 1) + fib(n - 2);
                }
                void main() { print(fib(12)); }
            }"#,
            HostEnv::new(),
        );
        assert_eq!(out, vec!["144"]);
    }

    #[test]
    fn objects_methods_and_reduction() {
        let (_, out) = run_both(
            r#"class Acc implements Reducinterface {
                double total;
                void reduce(Acc other) { total = total + other.total; }
                void add(double x) { total = total + x; }
            }
            class A { void main() {
                Acc acc = new Acc();
                RectDomain<1> d = [1 : 4];
                foreach (i in d) { acc.add(toDouble(i)); }
                print(acc.total);
            } }"#,
            HostEnv::new(),
        );
        assert_eq!(out, vec!["10"]);
    }

    #[test]
    fn short_circuit_evaluation() {
        let (_, out) = run_both(
            r#"class A {
                int boom() { int x = 1 / 0; return x; }
                void main() {
                    boolean b = false && boom() > 0;
                    boolean c = true || boom() > 0;
                    print(b);
                    print(c);
                } }"#,
            HostEnv::new(),
        );
        assert_eq!(out, vec!["false", "true"]);
    }

    #[test]
    fn extern_arrays_shared_in_place() {
        // Each engine gets its own array (a shared Rc would let the first
        // run's mutations leak into the second); contents must converge.
        let src = r#"extern double[] xs;
            class A { void main() {
                xs[0] = xs[1] + 2.5;
                xs[2] += 4.0;
                print(xs[0]);
                print(xs[2]);
            } }"#;
        let fresh = || {
            let arr = Value::new_array(3, Value::Double(0.0));
            if let Value::Array(a) = &arr {
                *a.borrow_mut().get_mut(1).unwrap() = Value::Double(1.0);
            }
            arr
        };
        let tp = frontend(src).unwrap();
        let (class, method) = tp.program.main().unwrap();

        let ia = fresh();
        let mut it = Interp::new(&tp, HostEnv::new().bind("xs", ia.clone()));
        let mut ivars = HashMap::new();
        it.exec_stmts_with_vars(&class.name, &method.body.stmts, &mut ivars)
            .unwrap();

        let va = fresh();
        let prog = ProgramCode::lower(&tp);
        let slice = prog.lower_slice(&tp, &class.name, &method.body.stmts);
        let mut vm = Vm::new(&prog, HostEnv::new().bind("xs", va.clone()));
        let mut vvars = HashMap::new();
        vm.exec_slice(&slice, &mut vvars).unwrap();

        assert_eq!(it.output, vm.output);
        assert!(ia.deep_eq(&va), "array contents diverged: {ia} vs {va}");
    }

    #[test]
    fn global_scalar_mutation_lands_in_globals() {
        run_both(
            r#"extern int n;
            class A { void main() {
                n += 5;
                print(n);
            } }"#,
            HostEnv::new().bind("n", Value::Int(10)),
        );
    }

    #[test]
    fn ternary_and_builtins() {
        let (_, out) = run_both(
            r#"class A { void main() {
                double x = min(3.0, 2.0);
                double y = max(1, 5);
                int z = toInt(x < y ? pow(2.0, 3.0) : 0.0);
                print(z);
                print(abs(-4));
                print(floor(2.9));
                print(ceil(2.1));
                print(sqrt(16.0));
                print(log(exp(1.0)));
            } }"#,
            HostEnv::new(),
        );
        assert_eq!(out[0], "8");
    }

    #[test]
    fn compound_assign_widens_on_all_paths() {
        run_both(
            r#"class Box { double d; }
            class A { void main() {
                double x = 1.5;
                x += 2;
                Box b = new Box();
                b.d = 1;
                b.d += 2;
                double[] a = new double[2];
                a[0] = 3;
                a[0] += 1;
                print(x);
                print(b.d);
                print(a[0]);
            } }"#,
            HostEnv::new(),
        );
    }

    #[test]
    fn while_break_continue() {
        let (_, out) = run_both(
            r#"class A { void main() {
                int i = 0;
                int acc = 0;
                while (true) {
                    i += 1;
                    if (i > 20) { break; }
                    if (i % 3 == 0) { continue; }
                    acc += i;
                }
                print(acc);
            } }"#,
            HostEnv::new(),
        );
        assert_eq!(out, vec!["147"]);
    }

    #[test]
    fn domain_and_array_methods() {
        run_both(
            r#"class A { void main() {
                RectDomain<1> d = [2 : 11];
                print(d.lo());
                print(d.hi());
                print(d.size());
                int[] a = new int[7];
                print(a.length());
            } }"#,
            HostEnv::new(),
        );
    }

    #[test]
    fn slice_return_stops_early_and_writes_back() {
        let src = r#"class A { void main() {
            int a = 1;
            return;
            int b = 2;
        } }"#;
        let (vars, _) = run_both(src, HostEnv::new());
        assert_eq!(vars["a"].as_i64(), Some(1));
        assert!(!vars.contains_key("b"));
    }

    #[test]
    fn division_by_zero_matches() {
        let d = err_both("class A { void main() { int x = 1 / 0; } }", HostEnv::new());
        assert_eq!(d.message, "integer division by zero");
    }

    #[test]
    fn oob_index_matches() {
        let d = err_both(
            r#"class A { void main() {
                double[] xs = new double[2];
                xs[5] = 1.0;
            } }"#,
            HostEnv::new(),
        );
        assert!(d.message.contains("out of bounds"));
    }

    #[test]
    fn unbound_extern_matches() {
        // Declared externs pass the type checker; reading one the host
        // never bound is the runtime unknown-variable path.
        let d = err_both(
            "extern int m; class A { void main() { int x = m + 1; } }",
            HostEnv::new(),
        );
        assert_eq!(d.message, "unknown variable `m`");
    }

    #[test]
    fn unbound_extern_write_matches() {
        let d = err_both(
            "extern int m; class A { void main() { m = 3; } }",
            HostEnv::new(),
        );
        assert_eq!(d.message, "assignment to unknown variable `m`");
    }

    #[test]
    fn negative_array_length_matches() {
        let d = err_both(
            "class A { void main() { int[] a = new int[0 - 3]; } }",
            HostEnv::new(),
        );
        assert_eq!(d.message, "negative array length");
    }

    #[test]
    fn void_method_falls_off_end() {
        let (_, out) = run_both(
            r#"class A {
                void f(int n) { int x = n * 2; }
                void main() {
                    f(3);
                    print(1);
                } }"#,
            HostEnv::new(),
        );
        assert_eq!(out, vec!["1"]);
    }

    #[test]
    fn fuel_limits_runaway_loops() {
        let tp = frontend("class A { void main() { while (true) { int x = 0; } } }").unwrap();
        let (class, method) = tp.program.main().unwrap();
        let prog = ProgramCode::lower(&tp);
        let slice = prog.lower_slice(&tp, &class.name, &method.body.stmts);
        let mut vm = Vm::new(&prog, HostEnv::new()).with_fuel(10_000);
        let mut vars = HashMap::new();
        let err = vm.exec_slice(&slice, &mut vars).unwrap_err();
        assert!(err.message.contains("fuel"));
    }

    #[test]
    fn vars_seed_overrides_like_interpreter() {
        // The stepper seeds slice vars externally; the slot binding must
        // see those values, not defaults.
        let tp = frontend(
            r#"class A { void main() {
                int a = 1;
                int b = a + 2;
            } }"#,
        )
        .unwrap();
        let (class, method) = tp.program.main().unwrap();
        let prog = ProgramCode::lower(&tp);
        let slice = prog.lower_slice(&tp, &class.name, &method.body.stmts[1..2]);
        let mut vm = Vm::new(&prog, HostEnv::new());
        let mut vars = HashMap::new();
        vars.insert("a".to_string(), Value::Int(41));
        vm.exec_slice(&slice, &mut vars).unwrap();
        assert_eq!(vars["b"].as_i64(), Some(43));
        assert_eq!(vars["a"].as_i64(), Some(41));
    }
}
