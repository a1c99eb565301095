//! A small self-describing codec for interpreter [`Value`]s.
//!
//! Used by the threaded executor's finalization protocol: each filter's
//! reduction-variable state must travel downstream as bytes at end-of-work.
//! (Per-packet data uses the compiler's typed [`cgp_compiler::packing`]
//! layouts instead — this codec is only for whole-object state transfer.)

use cgp_lang::value::{ArrayVal, ObjectVal, Value};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Encoding error (decode side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

const TAG_INT: u8 = 1;
const TAG_DOUBLE: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_VOID: u8 = 4;
const TAG_NULL: u8 = 5;
const TAG_DOMAIN: u8 = 6;
const TAG_ARRAY: u8 = 7;
const TAG_OBJECT: u8 = 8;
/// Homogeneous `f64` array: count + one contiguous run of LE bit patterns.
const TAG_ARRAY_F64: u8 = 9;
/// Homogeneous `i64` array: count + one contiguous run of LE values.
const TAG_ARRAY_I64: u8 = 10;

/// Scratch size (in 8-byte words) for chunked LE conversion: large enough
/// that the per-chunk `extend_from_slice` amortizes to nothing, small
/// enough to stay in cache and on the stack.
const RUN_CHUNK: usize = 64;

/// Append a run of `u64` LE words in chunks: each chunk is converted on
/// the stack, then copied into `out` as one byte slice — no per-element
/// `Vec` growth or push (safe on any endianness).
fn extend_u64_run(out: &mut Vec<u8>, words: impl Iterator<Item = u64>) {
    let mut scratch = [0u8; RUN_CHUNK * 8];
    let mut filled = 0usize;
    for w in words {
        scratch[filled * 8..filled * 8 + 8].copy_from_slice(&w.to_le_bytes());
        filled += 1;
        if filled == RUN_CHUNK {
            out.extend_from_slice(&scratch);
            filled = 0;
        }
    }
    if filled > 0 {
        out.extend_from_slice(&scratch[..filled * 8]);
    }
}

/// Element kind of a homogeneous array (qualifying it for a bulk tag).
enum Homogeneous {
    F64,
    I64,
    No,
}

/// An array is homogeneous only when its window covers every slot: any
/// slot outside it is Null.
fn homogeneity(a: &ArrayVal) -> Homogeneous {
    let Some(a) = a.as_dense() else {
        return Homogeneous::No;
    };
    let mut iter = a.iter();
    match iter.next() {
        Some(Value::Double(_)) => {
            if iter.all(|v| matches!(v, Value::Double(_))) {
                Homogeneous::F64
            } else {
                Homogeneous::No
            }
        }
        Some(Value::Int(_)) => {
            if iter.all(|v| matches!(v, Value::Int(_))) {
                Homogeneous::I64
            } else {
                Homogeneous::No
            }
        }
        _ => Homogeneous::No,
    }
}

/// Exact size in bytes of `encode_value(v)` (so encoders reserve once).
pub fn encoded_len(v: &Value) -> usize {
    match v {
        Value::Int(_) | Value::Double(_) => 9,
        Value::Bool(_) => 2,
        Value::Void | Value::Null => 1,
        Value::Domain(_, _) => 17,
        Value::Array(a) => {
            let a = a.borrow();
            match homogeneity(&a) {
                Homogeneous::F64 | Homogeneous::I64 => 9 + 8 * a.len(),
                Homogeneous::No => 9 + a.iter().map(encoded_len).sum::<usize>(),
            }
        }
        Value::Object(o) => {
            let o = o.borrow();
            let fields: usize = o
                .fields
                .iter()
                .map(|(k, v)| 4 + k.len() + encoded_len(v))
                .sum();
            1 + 4 + o.class.len() + 8 + fields
        }
    }
}

/// Append the encoding of `v` to `out`, reserving the exact size first.
/// Homogeneous `f64`/`i64` arrays travel as one contiguous LE run
/// (`TAG_ARRAY_F64`/`TAG_ARRAY_I64`) instead of per-element tagged
/// encodings — the common reduction-state shape is a large numeric array.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    out.reserve(encoded_len(v));
    encode_value_inner(v, out);
}

fn encode_value_inner(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Int(x) => {
            out.push(TAG_INT);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Double(x) => {
            out.push(TAG_DOUBLE);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Bool(x) => {
            out.push(TAG_BOOL);
            out.push(*x as u8);
        }
        Value::Void => out.push(TAG_VOID),
        Value::Null => out.push(TAG_NULL),
        Value::Domain(lo, hi) => {
            out.push(TAG_DOMAIN);
            out.extend_from_slice(&lo.to_le_bytes());
            out.extend_from_slice(&hi.to_le_bytes());
        }
        Value::Array(a) => {
            let a = a.borrow();
            match homogeneity(&a) {
                Homogeneous::F64 => {
                    out.push(TAG_ARRAY_F64);
                    out.extend_from_slice(&(a.len() as u64).to_le_bytes());
                    extend_u64_run(
                        out,
                        a.iter().map(|v| match v {
                            Value::Double(x) => x.to_bits(),
                            _ => unreachable!("homogeneity checked"),
                        }),
                    );
                }
                Homogeneous::I64 => {
                    out.push(TAG_ARRAY_I64);
                    out.extend_from_slice(&(a.len() as u64).to_le_bytes());
                    extend_u64_run(
                        out,
                        a.iter().map(|v| match v {
                            Value::Int(x) => *x as u64,
                            _ => unreachable!("homogeneity checked"),
                        }),
                    );
                }
                Homogeneous::No => {
                    out.push(TAG_ARRAY);
                    out.extend_from_slice(&(a.len() as u64).to_le_bytes());
                    for e in a.iter() {
                        encode_value_inner(e, out);
                    }
                }
            }
        }
        Value::Object(o) => {
            out.push(TAG_OBJECT);
            let o = o.borrow();
            encode_str(&o.class, out);
            // sorted fields for deterministic encodings
            let mut keys: Vec<&String> = o.fields.keys().collect();
            keys.sort();
            out.extend_from_slice(&(keys.len() as u64).to_le_bytes());
            for k in keys {
                encode_str(k, out);
                encode_value_inner(&o.fields[k], out);
            }
        }
    }
}

fn encode_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Encode a named map of values (a filter's reduction state). The output
/// vector is reserved exactly once at its final size.
pub fn encode_state(state: &HashMap<String, Value>) -> Vec<u8> {
    let mut keys: Vec<&String> = state.keys().collect();
    keys.sort();
    let total: usize = 8 + keys
        .iter()
        .map(|k| 4 + k.len() + encoded_len(&state[*k]))
        .sum::<usize>();
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&(keys.len() as u64).to_le_bytes());
    for k in keys {
        encode_str(k, &mut out);
        encode_value_inner(&state[k], &mut out);
    }
    debug_assert_eq!(out.len(), total, "encoded_len must be exact");
    out
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| CodecError("malformed input: length overflows".into()))?;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| CodecError("unexpected end of input".into()))?;
        self.pos = end;
        Ok(s)
    }

    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Validate a declared element/key count against the bytes actually left
    /// in the buffer *before* any allocation sized from it. Each element of
    /// the container needs at least `min_bytes_each` bytes of encoding, so a
    /// count exceeding `remaining / min_bytes_each` cannot possibly decode —
    /// reject it as malformed instead of letting `with_capacity` reserve
    /// attacker-chosen amounts of memory.
    fn check_count(&self, n: usize, min_bytes_each: usize) -> Result<(), CodecError> {
        let need = n.checked_mul(min_bytes_each);
        match need {
            Some(need) if need <= self.remaining() => Ok(()),
            _ => Err(CodecError(format!(
                "malformed input: declared count {n} needs >= {} bytes but only {} remain",
                n.saturating_mul(min_bytes_each),
                self.remaining()
            ))),
        }
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn string(&mut self) -> Result<String, CodecError> {
        let n = self.u32()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|e| CodecError(e.to_string()))
    }

    fn value(&mut self) -> Result<Value, CodecError> {
        match self.u8()? {
            TAG_INT => Ok(Value::Int(self.i64()?)),
            TAG_DOUBLE => Ok(Value::Double(f64::from_bits(self.u64()?))),
            TAG_BOOL => Ok(Value::Bool(self.u8()? != 0)),
            TAG_VOID => Ok(Value::Void),
            TAG_NULL => Ok(Value::Null),
            TAG_DOMAIN => Ok(Value::Domain(self.i64()?, self.i64()?)),
            TAG_ARRAY => {
                let n = self.u64()? as usize;
                // Every element takes at least one tag byte.
                self.check_count(n, 1)?;
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(self.value()?);
                }
                Ok(Value::array(v))
            }
            TAG_ARRAY_F64 => {
                let n = self.u64()? as usize;
                self.check_count(n, 8)?;
                // One bounds check for the whole run, then chunked LE
                // conversion straight off the slice.
                let run = self.take(n * 8)?;
                let v: Vec<Value> = run
                    .chunks_exact(8)
                    .map(|c| {
                        Value::Double(f64::from_bits(u64::from_le_bytes(
                            c.try_into().expect("8-byte chunk"),
                        )))
                    })
                    .collect();
                Ok(Value::array(v))
            }
            TAG_ARRAY_I64 => {
                let n = self.u64()? as usize;
                self.check_count(n, 8)?;
                let run = self.take(n * 8)?;
                let v: Vec<Value> = run
                    .chunks_exact(8)
                    .map(|c| Value::Int(i64::from_le_bytes(c.try_into().expect("8-byte chunk"))))
                    .collect();
                Ok(Value::array(v))
            }
            TAG_OBJECT => {
                let class = self.string()?;
                let n = self.u64()? as usize;
                // Each entry needs a 4-byte key length plus a 1-byte value tag.
                self.check_count(n, 5)?;
                let mut fields = HashMap::with_capacity(n);
                for _ in 0..n {
                    let k = self.string()?;
                    fields.insert(k, self.value()?);
                }
                Ok(Value::Object(Rc::new(RefCell::new(ObjectVal {
                    class,
                    fields,
                }))))
            }
            t => Err(CodecError(format!("unknown tag {t}"))),
        }
    }
}

/// Decode one value.
pub fn decode_value(buf: &[u8]) -> Result<Value, CodecError> {
    let mut r = Reader { buf, pos: 0 };
    r.value()
}

/// Decode a state map produced by [`encode_state`].
pub fn decode_state(buf: &[u8]) -> Result<HashMap<String, Value>, CodecError> {
    let mut r = Reader { buf, pos: 0 };
    let n = r.u64()? as usize;
    // Each entry needs a 4-byte key length plus a 1-byte value tag.
    r.check_count(n, 5)?;
    let mut out = HashMap::with_capacity(n);
    for _ in 0..n {
        let k = r.string()?;
        out.insert(k, r.value()?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Value) -> Value {
        let mut buf = Vec::new();
        encode_value(&v, &mut buf);
        let back = decode_value(&buf).unwrap();
        assert!(v.deep_eq(&back), "{v} vs {back}");
        back
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(Value::Int(-42));
        roundtrip(Value::Double(std::f64::consts::PI));
        roundtrip(Value::Bool(true));
        roundtrip(Value::Void);
        roundtrip(Value::Null);
        roundtrip(Value::Domain(3, 99));
    }

    #[test]
    fn nested_structures_roundtrip() {
        let arr = Value::new_array(3, Value::Double(1.5));
        let mut fields = HashMap::new();
        fields.insert("xs".to_string(), arr);
        fields.insert("n".to_string(), Value::Int(7));
        let obj = Value::new_object("Acc", fields);
        let outer = Value::array(vec![obj, Value::Null]);
        roundtrip(outer);
    }

    #[test]
    fn state_map_roundtrip() {
        let mut st = HashMap::new();
        st.insert("acc".to_string(), Value::new_object("A", HashMap::new()));
        st.insert("count".to_string(), Value::Int(10));
        let buf = encode_state(&st);
        let back = decode_state(&buf).unwrap();
        assert_eq!(back.len(), 2);
        assert!(back["count"].deep_eq(&Value::Int(10)));
    }

    #[test]
    fn homogeneous_arrays_use_bulk_tags_and_roundtrip() {
        // f64 run (larger than one conversion chunk, exercising the
        // chunked copy).
        let xs = Value::array((0..1000).map(|i| Value::Double(i as f64 * 0.5)).collect());
        let mut buf = Vec::new();
        encode_value(&xs, &mut buf);
        assert_eq!(buf[0], TAG_ARRAY_F64);
        assert_eq!(buf.len(), encoded_len(&xs));
        assert_eq!(
            buf.len(),
            9 + 8 * 1000,
            "count + raw run, no per-element tags"
        );
        assert!(decode_value(&buf).unwrap().deep_eq(&xs));

        // i64 run.
        let ys = Value::array((-500..500).map(Value::Int).collect());
        let mut buf = Vec::new();
        encode_value(&ys, &mut buf);
        assert_eq!(buf[0], TAG_ARRAY_I64);
        assert!(decode_value(&buf).unwrap().deep_eq(&ys));

        // Mixed arrays keep the generic element-wise encoding.
        let mixed = Value::array(vec![Value::Int(1), Value::Double(2.0)]);
        let mut buf = Vec::new();
        encode_value(&mixed, &mut buf);
        assert_eq!(buf[0], TAG_ARRAY);
        assert_eq!(buf.len(), encoded_len(&mixed));
        assert!(decode_value(&buf).unwrap().deep_eq(&mixed));
    }

    #[test]
    fn bulk_run_preserves_exotic_doubles() {
        let xs = Value::array(vec![
            Value::Double(f64::NAN),
            Value::Double(f64::INFINITY),
            Value::Double(-0.0),
            Value::Double(f64::MIN_POSITIVE),
        ]);
        let mut buf = Vec::new();
        encode_value(&xs, &mut buf);
        let Value::Array(back) = decode_value(&buf).unwrap() else {
            panic!("not an array");
        };
        let back = back.borrow();
        assert!(matches!(back.get(0), Some(&Value::Double(x)) if x.is_nan()));
        assert!(matches!(back.get(1), Some(&Value::Double(x)) if x == f64::INFINITY));
        assert!(matches!(back.get(2), Some(&Value::Double(x)) if x == 0.0 && x.is_sign_negative()));
    }

    #[test]
    fn truncated_bulk_run_errors() {
        let xs = Value::array((0..10).map(|i| Value::Double(i as f64)).collect());
        let mut buf = Vec::new();
        encode_value(&xs, &mut buf);
        buf.truncate(buf.len() - 3);
        assert!(decode_value(&buf).is_err());
    }

    #[test]
    fn truncated_input_errors() {
        let mut buf = Vec::new();
        encode_value(&Value::Int(5), &mut buf);
        buf.truncate(buf.len() - 1);
        assert!(decode_value(&buf).is_err());
    }

    /// Build a header-only frame: `tag` followed by a u64 count, no payload.
    fn count_frame(tag: u8, n: u64) -> Vec<u8> {
        let mut buf = vec![tag];
        buf.extend_from_slice(&n.to_le_bytes());
        buf
    }

    #[test]
    fn oversized_count_prefix_is_rejected_before_allocating() {
        // A hostile frame declaring billions of elements with (almost) no
        // payload must be rejected up front — decoding it must neither
        // reserve gigabytes nor loop over the phantom elements.
        for tag in [TAG_ARRAY, TAG_ARRAY_F64, TAG_ARRAY_I64] {
            for n in [u64::MAX, u64::MAX / 8, 1 << 40, 1 << 21] {
                let err = decode_value(&count_frame(tag, n)).unwrap_err();
                assert!(err.0.contains("malformed"), "tag={tag} n={n}: {err}");
            }
        }
        // Object field count, after an empty class name.
        let mut buf = vec![TAG_OBJECT];
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_value(&buf).unwrap_err().0.contains("malformed"));
        // State-map entry count.
        let buf = u64::MAX.to_le_bytes().to_vec();
        assert!(decode_state(&buf).unwrap_err().0.contains("malformed"));
    }

    #[test]
    fn count_times_width_overflow_does_not_wrap() {
        // n * 8 would wrap to a small number in release builds without the
        // checked multiply; the declared count must still be rejected.
        let n = (u64::MAX / 8) + 1; // n * 8 wraps to 8 on u64
        let mut buf = count_frame(TAG_ARRAY_F64, n);
        buf.extend_from_slice(&[0u8; 16]);
        assert!(decode_value(&buf).is_err());
    }

    #[test]
    fn truncated_prefix_fuzz_every_length() {
        // Every proper prefix of a valid nested encoding must fail cleanly
        // (no panic, no bogus success).
        let mut fields = HashMap::new();
        fields.insert(
            "xs".to_string(),
            Value::array((0..16).map(|i| Value::Double(i as f64)).collect()),
        );
        fields.insert("n".to_string(), Value::Int(7));
        let v = Value::array(vec![
            Value::new_object("Acc", fields),
            Value::Domain(1, 9),
            Value::Bool(true),
        ]);
        let mut buf = Vec::new();
        encode_value(&v, &mut buf);
        assert!(decode_value(&buf).is_ok());
        for cut in 0..buf.len() {
            assert!(decode_value(&buf[..cut]).is_err(), "prefix len {cut}");
        }
    }

    #[test]
    fn corrupted_count_bytes_never_panic() {
        // Flip each byte of a valid encoding to 0xff one at a time; decoding
        // may succeed or fail but must never panic or over-allocate.
        let mut st = HashMap::new();
        st.insert(
            "a".to_string(),
            Value::array((0..8).map(Value::Int).collect()),
        );
        let buf = encode_state(&st);
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] = 0xff;
            let _ = decode_state(&bad);
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let mut f1 = HashMap::new();
        f1.insert("b".to_string(), Value::Int(1));
        f1.insert("a".to_string(), Value::Int(2));
        let o = Value::new_object("C", f1);
        let mut b1 = Vec::new();
        encode_value(&o, &mut b1);
        let mut b2 = Vec::new();
        encode_value(&o, &mut b2);
        assert_eq!(b1, b2);
    }
}
