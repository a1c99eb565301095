//! Packing of communicated values (Section 5, Figure 4).
//!
//! For each boundary chosen as a filter cut, the fields crossing it are
//! sorted by the first downstream filter that consumes them:
//!
//! - fields first used by the **immediately next** filter are packed
//!   *instance-wise* (array-of-structs):
//!   `<count, t1.x, t1.y, …, tcount.x, tcount.y>`;
//! - fields first used by **later** filters are packed *field-wise*
//!   (struct-of-arrays, each field contiguous with an offset), sorted by
//!   the order in which they are first read:
//!   `<count, offset1, t1.x, …, tcount.x, t1.y, …, tcount.y>`.
//!
//! Instance-wise packing puts values the next filter touches together in
//! memory; field-wise packing lets a filter forward an untouched field with
//! one contiguous copy instead of re-gathering it.
//!
//! This module computes layouts *and* implements the byte-level
//! pack/unpack over interpreter [`Value`]s used by Path-A execution,
//! including compaction at filtering (`CondFilter`) cuts: upstream packs
//! only passing elements plus the passing-index list, downstream scatters
//! them back.

use crate::error::{CompileError, CompileResult};
use crate::normalize::NormalizedPipeline;
use crate::place::{Place, Sectioning};
use cgp_lang::ast::Type;
use cgp_lang::value::{ObjectVal, Value};
use std::cell::{Ref, RefCell};
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;

/// One packed field: the place and the filter (pipeline-unit index) that
/// first consumes it.
#[derive(Debug, Clone, PartialEq)]
pub struct PackEntry {
    pub place: Place,
    pub first_consumer: usize,
    /// Scalar element type of the packed values.
    pub elem: ScalarKind,
}

/// Scalar wire types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarKind {
    I64,
    F64,
    Bool,
    /// A 1-D RectDomain value (two i64s).
    Domain,
}

impl ScalarKind {
    pub fn byte_len(self) -> usize {
        match self {
            ScalarKind::I64 | ScalarKind::F64 => 8,
            ScalarKind::Bool => 1,
            ScalarKind::Domain => 16,
        }
    }
}

/// A buffer layout for one filter cut.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PackLayout {
    /// Entries packed instance-wise (interleaved per element).
    pub instance_wise: Vec<PackEntry>,
    /// Entries packed field-wise (contiguous per field), in first-read
    /// order.
    pub field_wise: Vec<PackEntry>,
    /// `Some(cond_id)` when this cut is a filtering boundary: sectioned
    /// entries carry only passing elements plus the passing-index list.
    pub filtered: Option<usize>,
}

impl PackLayout {
    pub fn entries(&self) -> impl Iterator<Item = &PackEntry> {
        self.instance_wise.iter().chain(self.field_wise.iter())
    }

    pub fn is_empty(&self) -> bool {
        self.instance_wise.is_empty() && self.field_wise.is_empty()
    }
}

/// Compute the layout for a cut whose ReqComm is `set`, given the Cons sets
/// of the downstream filters in pipeline order (`downstream[0]` is the
/// filter immediately after the cut; its pipeline index is
/// `first_unit_after`).
pub fn compute_layout(
    np: &NormalizedPipeline,
    set: &crate::place::PlaceSet,
    downstream_cons: &[crate::place::PlaceSet],
    first_unit_after: usize,
    filtered: Option<usize>,
) -> CompileResult<PackLayout> {
    let mut entries: Vec<PackEntry> = Vec::new();
    for p in set.sorted() {
        let first = downstream_cons
            .iter()
            .position(|cons| cons.iter().any(|q| touches(q, p)))
            .map(|k| first_unit_after + k)
            // Unconsumed leftovers (conservative analysis) go last.
            .unwrap_or(first_unit_after + downstream_cons.len());
        entries.push(PackEntry {
            place: (*p).clone(),
            first_consumer: first,
            elem: scalar_kind(np, p)?,
        });
    }
    let mut layout = PackLayout {
        filtered,
        ..Default::default()
    };
    for e in entries {
        if e.first_consumer == first_unit_after {
            layout.instance_wise.push(e);
        } else {
            layout.field_wise.push(e);
        }
    }
    // Field-wise: sorted by the order in which they are first read.
    layout.field_wise.sort_by(|a, b| {
        a.first_consumer
            .cmp(&b.first_consumer)
            .then(a.place.cmp(&b.place))
    });
    Ok(layout)
}

/// Do two places refer to overlapping storage (same root, one field path a
/// prefix of the other)?
fn touches(a: &Place, b: &Place) -> bool {
    a.root == b.root && (a.fields.starts_with(&b.fields) || b.fields.starts_with(&a.fields))
}

/// The scalar wire type a place's packed values have.
fn scalar_kind(np: &NormalizedPipeline, p: &Place) -> CompileResult<ScalarKind> {
    let mut ty = np
        .typed
        .symbols
        .scope(&np.class, "main")
        .and_then(|sc| sc.get(&p.root).cloned())
        .or_else(|| np.typed.symbols.externs.get(&p.root).cloned())
        .ok_or_else(|| CompileError::new(format!("unknown root `{}` in pack layout", p.root)))?;
    if !matches!(p.sect, Sectioning::NotIndexed) {
        let Type::Array(el) = ty else {
            return Err(CompileError::new(format!(
                "sectioned non-array `{}` in pack layout",
                p.root
            )));
        };
        ty = *el;
    }
    for f in &p.fields {
        let Type::Class(c) = &ty else {
            return Err(CompileError::new(format!(
                "field path on non-class in pack layout: {p}"
            )));
        };
        ty = np
            .typed
            .program
            .class(c)
            .and_then(|cd| cd.field(f))
            .map(|fd| fd.ty.clone())
            .ok_or_else(|| CompileError::new(format!("unknown field `{f}` of `{c}`")))?;
    }
    match ty {
        Type::Int => Ok(ScalarKind::I64),
        Type::Double => Ok(ScalarKind::F64),
        Type::Bool => Ok(ScalarKind::Bool),
        Type::RectDomain(1) => Ok(ScalarKind::Domain),
        other => Err(CompileError::new(format!(
            "cannot pack value of type `{other}` (place {p}); decompose at a different boundary"
        ))),
    }
}

// ---------------------------------------------------------------------------
// runtime pack / unpack over interpreter values

/// Concrete per-packet environment used to evaluate symbolic section bounds.
#[derive(Debug, Clone, Default)]
pub struct RuntimeEnv {
    pub symbols: HashMap<String, i64>,
}

impl RuntimeEnv {
    pub fn for_packet(pkt_var: &str, lo: i64, hi: i64) -> Self {
        let mut symbols = HashMap::new();
        symbols.insert(format!("{pkt_var}.lo"), lo);
        symbols.insert(format!("{pkt_var}.hi"), hi);
        RuntimeEnv { symbols }
    }

    pub fn with(mut self, name: impl Into<String>, v: i64) -> Self {
        self.symbols.insert(name.into(), v);
        self
    }

    fn lookup(&self, s: &str) -> Option<i64> {
        self.symbols.get(s).copied()
    }
}

/// Concrete index range (lo, hi, stride) selected by a place's section for
/// this packet.
fn concrete_range(p: &Place, env: &RuntimeEnv, value_len: usize) -> CompileResult<(i64, i64, i64)> {
    match &p.sect {
        Sectioning::NotIndexed => Ok((0, 0, 1)),
        Sectioning::All => Ok((0, value_len as i64 - 1, 1)),
        Sectioning::Range(sec) => {
            let f = |s: &str| env.lookup(s);
            let lo = sec.lo.eval(&f).ok_or_else(|| {
                CompileError::new(format!("cannot evaluate section lower bound of {p}"))
            })?;
            let hi = sec.hi.eval(&f).ok_or_else(|| {
                CompileError::new(format!("cannot evaluate section upper bound of {p}"))
            })?;
            Ok((lo, hi, sec.stride.max(1)))
        }
    }
}

/// The concrete element indices of a section (dense or strided).
fn section_indices(lo: i64, hi: i64, stride: i64) -> Vec<i64> {
    if hi < lo {
        return Vec::new();
    }
    (lo..=hi).step_by(stride.max(1) as usize).collect()
}

fn push_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_i64(buf: &[u8], pos: &mut usize) -> CompileResult<i64> {
    let end = *pos + 8;
    let b = buf
        .get(*pos..end)
        .ok_or_else(|| CompileError::new("buffer underrun (i64)"))?;
    *pos = end;
    Ok(i64::from_le_bytes(b.try_into().expect("8-byte slice")))
}

/// Write `w` little-endian at the front of `dst`.
#[inline(always)]
fn put_word(dst: &mut [u8], w: u64) {
    dst[..8].copy_from_slice(&w.to_le_bytes());
}

/// The little-endian word at the front of `src`.
#[inline(always)]
fn word(src: &[u8]) -> u64 {
    u64::from_le_bytes(src[..8].try_into().expect("8 bytes"))
}

/// Write `v` as a `kind` scalar at the front of `dst`.
#[inline(always)]
fn put_scalar(dst: &mut [u8], kind: ScalarKind, v: &Value) -> CompileResult<()> {
    match (kind, v) {
        (ScalarKind::I64, Value::Int(x)) => put_word(dst, *x as u64),
        (ScalarKind::F64, Value::Double(x)) => put_word(dst, x.to_bits()),
        (ScalarKind::F64, Value::Int(x)) => put_word(dst, (*x as f64).to_bits()),
        (ScalarKind::Bool, Value::Bool(x)) => dst[0] = *x as u8,
        (ScalarKind::Domain, Value::Domain(lo, hi)) => {
            put_word(dst, *lo as u64);
            put_word(&mut dst[8..], *hi as u64);
        }
        // Unwritten slots of expanded arrays keep their default; Null can
        // only appear for object defaults, which scalar places never select.
        (k, other) => return Err(cannot_pack(k, other)),
    }
    Ok(())
}

#[cold]
fn cannot_pack(kind: ScalarKind, v: &Value) -> CompileError {
    CompileError::new(format!("cannot pack value `{v}` as {kind:?}"))
}

#[cold]
fn pack_out_of_range(i: i64, p: &Place) -> CompileError {
    CompileError::new(format!("pack index {i} out of range for `{}`", p.root))
}

/// Read a `kind` scalar from the front of `src`.
#[inline(always)]
fn get_scalar(src: &[u8], kind: ScalarKind) -> Value {
    match kind {
        ScalarKind::I64 => Value::Int(word(src) as i64),
        ScalarKind::F64 => Value::Double(f64::from_bits(word(src))),
        ScalarKind::Bool => Value::Bool(src[0] != 0),
        ScalarKind::Domain => Value::Domain(word(src) as i64, word(&src[8..]) as i64),
    }
}

/// Write the scalar that `fields` (the rest of place `p`'s field path)
/// selects below `v`.
fn put_path(
    dst: &mut [u8],
    kind: ScalarKind,
    v: &Value,
    fields: &[String],
    p: &Place,
) -> CompileResult<()> {
    let Some((f, rest)) = fields.split_first() else {
        return put_scalar(dst, kind, v);
    };
    let Value::Object(o) = v else {
        // default-constructed slot never touched upstream: substitute the
        // field type's default (numeric zero)
        return put_scalar(dst, kind, &Value::Double(0.0));
    };
    let o = o.borrow();
    let next = o
        .fields
        .get(f)
        .ok_or_else(|| CompileError::new(format!("missing field `{f}` while packing {p}")))?;
    put_path(dst, kind, next, rest, p)
}

/// A run of interleave positions in which the same entries are present:
/// positions `rows`, each `width` bytes, the first at byte `start` of the
/// section. `members` pairs each present entry's index with its byte
/// offset within a position.
struct Stretch {
    rows: Range<usize>,
    start: usize,
    width: usize,
    members: Vec<(usize, usize)>,
}

impl Stretch {
    /// The stretch's byte range within the section.
    fn bytes(&self) -> Range<usize> {
        self.start..self.start + self.width * self.rows.len()
    }
}

/// Lay out an interleave in which entry `k` has `entries[k] = (len,
/// width)`: `len` elements of `width` bytes each. Position `j` holds the
/// `j`-th element of every entry that has one, in entry order. Returns the
/// stretches and the section's byte length. One entry is one contiguous
/// run; equal lengths give one stretch of fixed-width positions.
fn interleave(entries: &[(usize, usize)]) -> (Vec<Stretch>, usize) {
    let mut cuts: Vec<usize> = entries.iter().map(|&(n, _)| n).filter(|&n| n > 0).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let (mut stretches, mut from, mut start) = (Vec::with_capacity(cuts.len()), 0, 0);
    for to in cuts {
        let (mut members, mut width) = (Vec::new(), 0);
        for (k, &(n, w)) in entries.iter().enumerate() {
            if n >= to {
                members.push((k, width));
                width += w;
            }
        }
        stretches.push(Stretch {
            rows: from..to,
            start,
            width,
            members,
        });
        start += width * (to - from);
        from = to;
    }
    (stretches, start)
}

/// Where one entry's values come from on the sending side, resolved once
/// per packet.
enum Source<'a> {
    /// An unsectioned binding: one value, at position 0.
    Binding(&'a Value),
    /// A sectioned root's array, borrowed once for the packet, and the
    /// element indices to send.
    Array(Ref<'a, Vec<Value>>, Vec<i64>),
    /// A sectioned entry with no elements in this packet.
    Empty,
}

/// One entry of an outgoing packet.
struct Column<'a> {
    entry: &'a PackEntry,
    src: Source<'a>,
}

impl<'a> Column<'a> {
    /// Resolve `entry`'s source in `vars`; `ix` is its element index list
    /// (`None` when unsectioned).
    fn resolve(
        vars: &'a HashMap<String, Value>,
        entry: &'a PackEntry,
        ix: Option<Vec<i64>>,
    ) -> CompileResult<Self> {
        let p = &entry.place;
        if ix.as_ref().is_some_and(Vec::is_empty) {
            return Ok(Column {
                entry,
                src: Source::Empty,
            });
        }
        let root = vars.get(&p.root).ok_or_else(|| {
            CompileError::new(format!("missing variable `{}` while packing", p.root))
        })?;
        let src = match (ix, root) {
            (None, v) => Source::Binding(v),
            (Some(ix), Value::Array(a)) => Source::Array(a.borrow(), ix),
            (Some(_), other) => {
                return Err(CompileError::new(format!(
                    "sectioned place `{p}` but `{}` is `{other}`",
                    p.root
                )))
            }
        };
        Ok(Column { entry, src })
    }

    /// Elements in this packet, or `None` for an unsectioned binding.
    fn sectioned_len(&self) -> Option<usize> {
        match &self.src {
            Source::Binding(_) => None,
            Source::Array(_, ix) => Some(ix.len()),
            Source::Empty => Some(0),
        }
    }

    fn len(&self) -> usize {
        self.sectioned_len().unwrap_or(1)
    }

    /// Write elements `rows`, one per `stride`-byte position of `dst`, at
    /// byte `off` of each.
    fn write(
        &self,
        dst: &mut [u8],
        stride: usize,
        off: usize,
        rows: Range<usize>,
    ) -> CompileResult<()> {
        let (kind, p) = (self.entry.elem, &self.entry.place);
        match &self.src {
            Source::Binding(v) => put_path(&mut dst[off..], kind, v, &p.fields, p),
            Source::Array(a, ix) => {
                let (ix, positions) = (&ix[rows], dst.chunks_exact_mut(stride));
                // One loop per common kind, each encoding a constant kind:
                // no type dispatch per element.
                match kind {
                    _ if !p.fields.is_empty() => gather(a, ix, positions, p, |out, v| {
                        put_path(&mut out[off..], kind, v, &p.fields, p)
                    }),
                    ScalarKind::F64 => gather(a, ix, positions, p, |out, v| {
                        put_scalar(&mut out[off..], ScalarKind::F64, v)
                    }),
                    ScalarKind::I64 => gather(a, ix, positions, p, |out, v| {
                        put_scalar(&mut out[off..], ScalarKind::I64, v)
                    }),
                    k => gather(a, ix, positions, p, |out, v| {
                        put_scalar(&mut out[off..], k, v)
                    }),
                }
            }
            Source::Empty => Ok(()),
        }
    }
}

/// Encode element `a[ix[k]]` into each position with `encode`.
#[inline(always)]
fn gather<'b>(
    a: &[Value],
    ix: &[i64],
    positions: impl Iterator<Item = &'b mut [u8]>,
    p: &Place,
    encode: impl Fn(&mut [u8], &Value) -> CompileResult<()>,
) -> CompileResult<()> {
    for (&i, out) in ix.iter().zip(positions) {
        // A negative `i` wraps to an index past the end: out of range.
        match a.get(i as usize) {
            Some(v) => encode(out, v)?,
            None => return Err(pack_out_of_range(i, p)),
        }
    }
    Ok(())
}

/// Bytes of whole positions [`pack_section`] assembles at a time before
/// appending them.
const PACK_CHUNK: usize = 512;

/// Append the interleaved section of `cols` to `out`. Positions are
/// assembled a chunk at a time in a small scratch buffer and appended
/// whole, so `out` is written once and never zero-filled.
fn pack_section(out: &mut Vec<u8>, cols: &[Column]) -> CompileResult<()> {
    let entries: Vec<_> = cols
        .iter()
        .map(|c| (c.len(), c.entry.elem.byte_len()))
        .collect();
    let (stretches, _) = interleave(&entries);
    // The first stretch has every entry in it, so it is the widest.
    let widest = stretches.first().map_or(0, |s| s.width);
    let mut scratch = vec![0u8; PACK_CHUNK.max(widest)];
    for s in &stretches {
        let per_chunk = scratch.len() / s.width;
        let mut from = s.rows.start;
        while from < s.rows.end {
            let to = (from + per_chunk).min(s.rows.end);
            let chunk = &mut scratch[..(to - from) * s.width];
            for &(k, off) in &s.members {
                cols[k].write(chunk, s.width, off, from..to)?;
            }
            out.extend_from_slice(chunk);
            from = to;
        }
    }
    Ok(())
}

/// Where one entry's values land on the receiving side, resolved once per
/// packet.
enum Sink {
    /// An unsectioned binding, stored by name.
    Binding,
    /// A plain array root and the slot of each element.
    Array(Rc<RefCell<Vec<Value>>>, Vec<i64>),
    /// A field path: per element, the object holding the last field
    /// (shared by every field of the root at that slot), and that field.
    Fields(Vec<Rc<RefCell<ObjectVal>>>, String),
}

/// One entry of an incoming packet: its first `len` elements go to `sink`.
struct Dest<'a> {
    entry: &'a PackEntry,
    len: usize,
    sink: Sink,
}

impl<'a> Dest<'a> {
    /// Resolve `entry`'s destination in `vars`, allocating its root array
    /// (`max(top + 1, packet_len)` slots, all Null) unless an earlier
    /// entry did. `ix` is its element index list (`None` when
    /// unsectioned), of which at most `rows` elements are on the wire. An
    /// entry with no elements resolves to nothing and leaves its binding
    /// absent.
    fn resolve(
        vars: &mut HashMap<String, Value>,
        entry: &'a PackEntry,
        ix: Option<Vec<i64>>,
        rows: usize,
        packet_len: usize,
    ) -> CompileResult<Option<Self>> {
        let p = &entry.place;
        let Some(ix) = ix else {
            return Ok(Some(Dest {
                entry,
                len: 1,
                sink: Sink::Binding,
            }));
        };
        let len = ix.len().min(rows);
        if len == 0 {
            return Ok(None);
        }
        let top = ix.iter().copied().max().expect("non-empty");
        let alloc_len = usize::try_from(top).map_or(0, |t| t + 1).max(packet_len);
        let root = vars
            .entry(p.root.clone())
            .or_insert_with(|| Value::new_array(alloc_len, Value::Null));
        let Value::Array(a) = root else {
            return Err(CompileError::new(format!("`{}` is not an array", p.root)));
        };
        let sink = match p.fields.split_last() {
            None => Sink::Array(a.clone(), ix),
            Some((leaf, path)) => {
                let mut a = a.borrow_mut();
                let objs = ix[..len]
                    .iter()
                    .map(|&i| {
                        let slot = usize::try_from(i).ok().and_then(|i| a.get_mut(i));
                        leaf_object(slot.ok_or_else(|| out_of_range(i))?, path)
                    })
                    .collect::<CompileResult<_>>()?;
                Sink::Fields(objs, leaf.clone())
            }
        };
        Ok(Some(Dest { entry, len, sink }))
    }

    /// Read elements `rows`, one per `stride`-byte position of `src`, from
    /// byte `off` of each.
    fn read(
        &self,
        vars: &mut HashMap<String, Value>,
        src: &[u8],
        stride: usize,
        off: usize,
        rows: Range<usize>,
    ) -> CompileResult<()> {
        let kind = self.entry.elem;
        let positions = src.chunks_exact(stride);
        match &self.sink {
            Sink::Binding => store_binding(vars, &self.entry.place, get_scalar(&src[off..], kind)),
            Sink::Array(a, ix) => {
                let (mut a, ix) = (a.borrow_mut(), &ix[rows]);
                // One loop per common kind, each decoding a constant kind:
                // no type dispatch per element.
                match kind {
                    ScalarKind::F64 => scatter(&mut a, ix, positions, |b| {
                        get_scalar(&b[off..], ScalarKind::F64)
                    }),
                    ScalarKind::I64 => scatter(&mut a, ix, positions, |b| {
                        get_scalar(&b[off..], ScalarKind::I64)
                    }),
                    k => scatter(&mut a, ix, positions, |b| get_scalar(&b[off..], k)),
                }
            }
            Sink::Fields(objs, leaf) => {
                for (obj, b) in objs[rows].iter().zip(positions) {
                    let v = get_scalar(&b[off..], kind);
                    obj.borrow_mut().fields.insert(leaf.clone(), v);
                }
                Ok(())
            }
        }
    }
}

/// Store each position's element, decoded, into slot `ix[k]` of `a`.
#[inline(always)]
fn scatter<'b>(
    a: &mut [Value],
    ix: &[i64],
    positions: impl Iterator<Item = &'b [u8]>,
    decode: impl Fn(&[u8]) -> Value,
) -> CompileResult<()> {
    for (&i, b) in ix.iter().zip(positions) {
        // A negative `i` wraps to an index past the end: out of range.
        match a.get_mut(i as usize) {
            Some(slot) => *slot = decode(b),
            None => return Err(out_of_range(i)),
        }
    }
    Ok(())
}

#[cold]
fn out_of_range(i: i64) -> CompileError {
    CompileError::new(format!("unpack index {i} out of range"))
}

/// The object below `slot` that holds the field after `path`, creating
/// `__packed` objects where none exist (the receiving filter starts from
/// an empty frame).
fn leaf_object(slot: &mut Value, path: &[String]) -> CompileResult<Rc<RefCell<ObjectVal>>> {
    if !matches!(slot, Value::Object(_)) {
        *slot = Value::new_object("__packed", HashMap::new());
    }
    let Value::Object(o) = slot else {
        unreachable!("just made an object")
    };
    let mut cur = o.clone();
    for f in path {
        let next = match cur
            .borrow_mut()
            .fields
            .entry(f.clone())
            .or_insert_with(|| Value::new_object("__packed", HashMap::new()))
        {
            Value::Object(n) => n.clone(),
            other => {
                return Err(CompileError::new(format!(
                    "field `{f}` is `{other}`, not an object, while unpacking"
                )))
            }
        };
        cur = next;
    }
    Ok(cur)
}

/// Store an unsectioned value at the binding a place selects.
fn store_binding(vars: &mut HashMap<String, Value>, p: &Place, v: Value) -> CompileResult<()> {
    match p.fields.split_last() {
        None => {
            vars.insert(p.root.clone(), v);
        }
        Some((leaf, path)) => {
            let root = vars.entry(p.root.clone()).or_insert(Value::Null);
            let obj = leaf_object(root, path)?;
            obj.borrow_mut().fields.insert(leaf.clone(), v);
        }
    }
    Ok(())
}

/// Read the interleaved section of `dests` at `*pos` (inverse of
/// [`pack_section`]).
fn unpack_section(
    vars: &mut HashMap<String, Value>,
    dests: &[Dest],
    buf: &[u8],
    pos: &mut usize,
) -> CompileResult<()> {
    let entries: Vec<_> = dests
        .iter()
        .map(|d| (d.len, d.entry.elem.byte_len()))
        .collect();
    let (stretches, bytes) = interleave(&entries);
    let section = buf
        .get(*pos..*pos + bytes)
        .ok_or_else(|| CompileError::new("buffer underrun (section)"))?;
    *pos += bytes;
    for s in &stretches {
        for &(k, off) in &s.members {
            dests[k].read(vars, &section[s.bytes()], s.width, off, s.rows.clone())?;
        }
    }
    Ok(())
}

/// Pack the layout's values from `vars` into a byte buffer.
///
/// Header: `pkt.lo`, `pkt.hi` (i64 each). If the layout is filtered, the
/// passing-index list (count + absolute indices) follows; sectioned entries
/// then carry `selection.len()` elements each instead of their full range.
///
/// Each entry's index list and source array are resolved once, before any
/// byte is written; the elements then stream into their wire positions.
pub fn pack(
    layout: &PackLayout,
    vars: &HashMap<String, Value>,
    env: &RuntimeEnv,
    pkt: (i64, i64),
    selection: Option<&[i64]>,
) -> CompileResult<Vec<u8>> {
    if layout.filtered.is_some() && selection.is_none() {
        return Err(CompileError::new(
            "filtered layout requires a selection list",
        ));
    }

    // The element index list for a sectioned entry.
    let indices_for = |p: &Place| -> CompileResult<Option<Vec<i64>>> {
        if matches!(p.sect, Sectioning::NotIndexed) {
            return Ok(None);
        }
        let root_len = vars
            .get(&p.root)
            .and_then(|v| match v {
                Value::Array(a) => Some(a.borrow().len()),
                _ => None,
            })
            .unwrap_or(0);
        let (slo, shi, stride) = concrete_range(p, env, root_len)?;
        // Selection compaction applies only to sections that map each
        // domain point to exactly one element (dense, packet-sized); other
        // shapes (strided, multi-element-per-point) travel in full.
        let per_point = stride == 1 && shi - slo == pkt.1 - pkt.0;
        if let (Some(sel), Some(_), true) = (selection, layout.filtered, per_point) {
            // Selection indices are absolute domain points; the section's
            // lower bound is aligned with the packet's first point, so the
            // array slot for point `i` is `section_lo + (i − pkt.lo)`
            // (identity for absolute dense arrays, rebasing for expanded
            // ones).
            return Ok(Some(sel.iter().map(|i| slo + (i - pkt.0)).collect()));
        }
        Ok(Some(section_indices(slo, shi, stride)))
    };
    let resolve = |e| Column::resolve(vars, e, indices_for(&e.place)?);
    let inst = (layout.instance_wise.iter().map(resolve)).collect::<CompileResult<Vec<_>>>()?;
    let fw = (layout.field_wise.iter().map(resolve)).collect::<CompileResult<Vec<_>>>()?;

    // Every size is known up front: reserve the exact final length once.
    let wire_bytes = |c: &Column| c.len() * c.entry.elem.byte_len();
    let total: usize = 16
        + selection
            .filter(|_| layout.filtered.is_some())
            .map_or(0, |s| 8 + 8 * s.len())
        + 8
        + inst.iter().map(wire_bytes).sum::<usize>()
        + fw.iter().map(|c| 8 + wire_bytes(c)).sum::<usize>();

    let mut out = Vec::with_capacity(total);
    push_i64(&mut out, pkt.0);
    push_i64(&mut out, pkt.1);
    if layout.filtered.is_some() {
        let sel = selection.expect("checked above");
        push_i64(&mut out, sel.len() as i64);
        for i in sel {
            push_i64(&mut out, *i);
        }
    }

    // Instance-wise: one interleave under one count.
    let count = inst
        .iter()
        .filter_map(Column::sectioned_len)
        .max()
        .unwrap_or(0);
    push_i64(&mut out, count as i64);
    pack_section(&mut out, &inst)?;

    // Field-wise: each entry contiguous, preceded by its own count (-1
    // marks a scalar).
    for c in &fw {
        push_i64(&mut out, c.sectioned_len().map_or(-1, |n| n as i64));
        pack_section(&mut out, std::slice::from_ref(c))?;
    }
    debug_assert_eq!(out.len(), total, "pack size precomputation must be exact");
    Ok(out)
}

fn pkt_lo_symbol(env: &RuntimeEnv) -> String {
    env.symbols
        .keys()
        .find(|k| k.ends_with(".lo"))
        .cloned()
        .unwrap_or_else(|| "pkt.lo".to_string())
}

/// Result of unpacking a buffer.
#[derive(Debug)]
pub struct Unpacked {
    pub pkt: (i64, i64),
    /// Passing indices (absolute) when the layout was filtered.
    pub selection: Option<Vec<i64>>,
    /// Variable bindings reconstructed from the payload.
    pub vars: HashMap<String, Value>,
}

/// Unpack a buffer produced by [`pack`] with the same layout.
///
/// Each entry's index list, allocation length and destination are
/// resolved once per packet, before its elements are read, so the work is
/// linear in the section plus one `max(top + 1, packet_len)`-slot array
/// per sectioned root.
pub fn unpack(layout: &PackLayout, env: &RuntimeEnv, buf: &[u8]) -> CompileResult<Unpacked> {
    let mut pos = 0usize;
    let lo = read_i64(buf, &mut pos)?;
    let hi = read_i64(buf, &mut pos)?;
    let mut env = env.clone();
    // Re-seed the packet symbols from the header so section ranges match.
    let pkt_var_lo = pkt_lo_symbol(&env);
    let pkt_var = pkt_var_lo.trim_end_matches(".lo").to_string();
    env.symbols.insert(format!("{pkt_var}.lo"), lo);
    env.symbols.insert(format!("{pkt_var}.hi"), hi);

    let selection = if layout.filtered.is_some() {
        let n = read_i64(buf, &mut pos)?;
        let mut sel = Vec::with_capacity(n as usize);
        for _ in 0..n {
            sel.push(read_i64(buf, &mut pos)?);
        }
        Some(sel)
    } else {
        None
    };

    let mut vars: HashMap<String, Value> = HashMap::new();
    let packet_len = (hi - lo + 1).max(0) as usize;

    let indices_for = |p: &Place| -> CompileResult<Option<Vec<i64>>> {
        if matches!(p.sect, Sectioning::NotIndexed) {
            return Ok(None);
        }
        let (slo, shi, stride) = concrete_range(p, &env, packet_len)?;
        let per_point = stride == 1 && shi - slo == hi - lo;
        if let (Some(sel), true) = (&selection, per_point) {
            return Ok(Some(sel.iter().map(|i| slo + (i - lo)).collect()));
        }
        Ok(Some(section_indices(slo, shi, stride)))
    };

    let inst_indices = (layout.instance_wise.iter())
        .map(|e| indices_for(&e.place))
        .collect::<CompileResult<Vec<_>>>()?;
    let rows = (read_i64(buf, &mut pos)? as usize).max(1);
    let mut dests = Vec::with_capacity(inst_indices.len());
    for (e, ix) in layout.instance_wise.iter().zip(inst_indices) {
        dests.extend(Dest::resolve(&mut vars, e, ix, rows, packet_len)?);
    }
    unpack_section(&mut vars, &dests, buf, &mut pos)?;

    for e in &layout.field_wise {
        // Each entry is preceded by its own count; -1 marks a scalar.
        let n = read_i64(buf, &mut pos)?;
        let ix = if n < 0 {
            None
        } else {
            let ix = indices_for(&e.place)?
                .ok_or_else(|| CompileError::new("sectioned payload for scalar place"))?;
            if ix.len() != n as usize {
                return Err(CompileError::new(format!(
                    "count mismatch unpacking {}: wire {} vs layout {}",
                    e.place,
                    n,
                    ix.len()
                )));
            }
            Some(ix)
        };
        let dest = Dest::resolve(&mut vars, e, ix, n.max(0) as usize, packet_len)?;
        unpack_section(&mut vars, dest.as_slice(), buf, &mut pos)?;
    }

    Ok(Unpacked {
        pkt: (lo, hi),
        selection,
        vars,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::{Section, SymExpr};

    fn dense_place(root: &str, lo: i64, hi: i64) -> Place {
        Place::sliced(root, Section::dense(SymExpr::konst(lo), SymExpr::konst(hi)))
    }

    fn entry(place: Place, first: usize, elem: ScalarKind) -> PackEntry {
        PackEntry {
            place,
            first_consumer: first,
            elem,
        }
    }

    #[test]
    fn roundtrip_instance_wise() {
        let layout = PackLayout {
            instance_wise: vec![
                entry(dense_place("xs", 0, 3), 1, ScalarKind::F64),
                entry(dense_place("ys", 0, 3), 1, ScalarKind::I64),
            ],
            ..Default::default()
        };
        let mut vars = HashMap::new();
        vars.insert(
            "xs".to_string(),
            Value::Array(std::rc::Rc::new(std::cell::RefCell::new(
                (0..4).map(|i| Value::Double(i as f64 * 1.5)).collect(),
            ))),
        );
        vars.insert(
            "ys".to_string(),
            Value::Array(std::rc::Rc::new(std::cell::RefCell::new(
                (0..4).map(Value::Int).collect(),
            ))),
        );
        let env = RuntimeEnv::for_packet("pkt", 0, 3);
        let buf = pack(&layout, &vars, &env, (0, 3), None).unwrap();
        let un = unpack(&layout, &env, &buf).unwrap();
        assert_eq!(un.pkt, (0, 3));
        let xs = &un.vars["xs"];
        let ys = &un.vars["ys"];
        assert!(xs.deep_eq(&vars["xs"]));
        assert!(ys.deep_eq(&vars["ys"]));
    }

    #[test]
    fn roundtrip_scalars_and_domains() {
        let layout = PackLayout {
            field_wise: vec![
                entry(Place::var("count"), 2, ScalarKind::I64),
                entry(Place::var("flag"), 2, ScalarKind::Bool),
                entry(Place::var("dom"), 3, ScalarKind::Domain),
            ],
            ..Default::default()
        };
        let mut vars = HashMap::new();
        vars.insert("count".to_string(), Value::Int(42));
        vars.insert("flag".to_string(), Value::Bool(true));
        vars.insert("dom".to_string(), Value::Domain(5, 9));
        let env = RuntimeEnv::for_packet("pkt", 0, 0);
        let buf = pack(&layout, &vars, &env, (0, 0), None).unwrap();
        let un = unpack(&layout, &env, &buf).unwrap();
        assert!(un.vars["count"].deep_eq(&Value::Int(42)));
        assert!(un.vars["flag"].deep_eq(&Value::Bool(true)));
        assert!(un.vars["dom"].deep_eq(&Value::Domain(5, 9)));
    }

    #[test]
    fn roundtrip_object_fields() {
        // tri[0..2].x packed as a field of objects.
        let mut p = dense_place("tri", 0, 2);
        p.fields.push("x".to_string());
        let layout = PackLayout {
            instance_wise: vec![entry(p, 1, ScalarKind::F64)],
            ..Default::default()
        };
        let mk_obj = |x: f64| {
            let mut f = HashMap::new();
            f.insert("x".to_string(), Value::Double(x));
            f.insert("y".to_string(), Value::Double(-x));
            Value::new_object("Tri", f)
        };
        let mut vars = HashMap::new();
        vars.insert(
            "tri".to_string(),
            Value::Array(std::rc::Rc::new(std::cell::RefCell::new(vec![
                mk_obj(1.0),
                mk_obj(2.0),
                mk_obj(3.0),
            ]))),
        );
        let env = RuntimeEnv::for_packet("pkt", 0, 2);
        let buf = pack(&layout, &vars, &env, (0, 2), None).unwrap();
        let un = unpack(&layout, &env, &buf).unwrap();
        // Only x made it across.
        if let Value::Array(a) = &un.vars["tri"] {
            let a = a.borrow();
            for (i, v) in a.iter().enumerate() {
                let Value::Object(o) = v else {
                    panic!("not an object")
                };
                assert!(o.borrow().fields["x"].deep_eq(&Value::Double((i + 1) as f64)));
                assert!(!o.borrow().fields.contains_key("y"));
            }
        } else {
            panic!("tri not an array");
        }
    }

    #[test]
    fn filtered_layout_compacts_and_scatters() {
        // Packet [10, 17]; rebased array vs__x of len 8; selection keeps
        // absolute indices 11, 13, 16.
        let p = dense_place_sym("v__x");
        let layout = PackLayout {
            instance_wise: vec![entry(p, 1, ScalarKind::F64)],
            filtered: Some(0),
            ..Default::default()
        };
        let mut vars = HashMap::new();
        vars.insert(
            "v__x".to_string(),
            Value::Array(std::rc::Rc::new(std::cell::RefCell::new(
                (0..8).map(|i| Value::Double(i as f64)).collect(),
            ))),
        );
        let env = RuntimeEnv::for_packet("pkt", 10, 17);
        let sel = vec![11i64, 13, 16];
        let buf = pack(&layout, &vars, &env, (10, 17), Some(&sel)).unwrap();
        let un = unpack(&layout, &env, &buf).unwrap();
        assert_eq!(un.selection.as_deref(), Some(&sel[..]));
        if let Value::Array(a) = &un.vars["v__x"] {
            let a = a.borrow();
            assert_eq!(a.len(), 8);
            assert!(a[1].deep_eq(&Value::Double(1.0)));
            assert!(a[3].deep_eq(&Value::Double(3.0)));
            assert!(a[6].deep_eq(&Value::Double(6.0)));
            assert!(matches!(a[0], Value::Null)); // untouched slot
        } else {
            panic!("not an array");
        }
        // Volume check: only 3 elements crossed.
        let dense_buf = {
            let layout = PackLayout {
                instance_wise: vec![entry(dense_place_sym("v__x"), 1, ScalarKind::F64)],
                ..Default::default()
            };
            pack(&layout, &vars, &env, (10, 17), None).unwrap()
        };
        assert!(buf.len() < dense_buf.len());
    }

    /// Place with section [0 : pkt.hi - pkt.lo] (rebased expanded array).
    fn dense_place_sym(root: &str) -> Place {
        Place::sliced(
            root,
            Section::dense(
                SymExpr::konst(0),
                SymExpr::sym("pkt.hi").sub(&SymExpr::sym("pkt.lo")),
            ),
        )
    }

    #[test]
    fn layout_rule_instance_vs_field_wise() {
        // Set with three places; consumers: filter 1 uses a and b, filter 2
        // uses c. a,b → instance-wise; c → field-wise.
        use crate::place::PlaceSet;
        let a = dense_place("a", 0, 7);
        let b = dense_place("b", 0, 7);
        let c = dense_place("c", 0, 7);
        let set: PlaceSet = [a.clone(), b.clone(), c.clone()].into_iter().collect();

        let mut cons1 = PlaceSet::new();
        cons1.insert(a.clone());
        cons1.insert(b.clone());
        let mut cons2 = PlaceSet::new();
        cons2.insert(c.clone());

        // A minimal NormalizedPipeline for scalar_kind resolution.
        let np = tiny_np();
        let layout = compute_layout(&np, &set, &[cons1, cons2], 1, None).unwrap();
        let inst: Vec<&str> = layout
            .instance_wise
            .iter()
            .map(|e| e.place.root.as_str())
            .collect();
        let fw: Vec<&str> = layout
            .field_wise
            .iter()
            .map(|e| e.place.root.as_str())
            .collect();
        assert_eq!(inst, vec!["a", "b"]);
        assert_eq!(fw, vec!["c"]);
        assert_eq!(layout.field_wise[0].first_consumer, 2);
    }

    #[test]
    fn layout_sorts_field_wise_by_first_read() {
        use crate::place::PlaceSet;
        let a = dense_place("a", 0, 7);
        let c = dense_place("c", 0, 7);
        let set: PlaceSet = [a.clone(), c.clone()].into_iter().collect();
        let empty = PlaceSet::new();
        let mut cons2 = PlaceSet::new();
        cons2.insert(c.clone());
        let mut cons3 = PlaceSet::new();
        cons3.insert(a.clone());
        let np = tiny_np();
        // consumers: filter1 none, filter2 uses c, filter3 uses a.
        let layout = compute_layout(&np, &set, &[empty, cons2, cons3], 1, None).unwrap();
        assert!(layout.instance_wise.is_empty());
        let fw: Vec<&str> = layout
            .field_wise
            .iter()
            .map(|e| e.place.root.as_str())
            .collect();
        assert_eq!(fw, vec!["c", "a"], "sorted by first reader");
    }

    fn tiny_np() -> NormalizedPipeline {
        let src = r#"
            extern int n;
            extern double[] a;
            extern double[] b;
            extern double[] c;
            class Acc implements Reducinterface {
                double t;
                void reduce(Acc o) { t = t + o.t; }
                void add(double v) { t = t + v; }
            }
            class Main { void main() {
                RectDomain<1> all = [0 : n - 1];
                Acc acc = new Acc();
                PipelinedLoop (pkt in all; 2) {
                    foreach (i in pkt) { acc.add(a[i] + b[i] + c[i]); }
                }
                print(acc.t);
            } }
        "#;
        crate::normalize::normalize(&cgp_lang::frontend(src).unwrap()).unwrap()
    }
}
