//! Runtime values for the dialect interpreter.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::rc::Rc;

/// A runtime value. Arrays and objects have reference semantics (shared
/// mutable), matching Java; everything else is a copied scalar.
#[derive(Debug, Clone)]
pub enum Value {
    Int(i64),
    Double(f64),
    Bool(bool),
    Void,
    /// Inclusive 1-D rectdomain `[lo, hi]`. `lo > hi` encodes an empty
    /// domain.
    Domain(i64, i64),
    Array(Rc<RefCell<ArrayVal>>),
    Object(Rc<RefCell<ObjectVal>>),
    Null,
}

/// Heap object: class name plus field values.
#[derive(Debug, Clone)]
pub struct ObjectVal {
    pub class: String,
    pub fields: HashMap<String, Value>,
}

/// Heap array: `len` logical slots, of which only a window
/// `[base, base + data.len())` is stored. Every in-range slot outside the
/// window reads as `Null`, so a packet's receive array holds its section
/// and nothing else. Arrays built whole (host bindings, `new T[n]`,
/// decoded state) have the window covering every slot.
#[derive(Debug)]
pub struct ArrayVal {
    base: usize,
    len: usize,
    data: Vec<Value>,
}

/// What every slot outside an array's window holds.
const NULL: &Value = &Value::Null;

impl ArrayVal {
    /// An array whose window is the `len` Null slots `window` (clipped to
    /// `len`); the rest is Null without being stored.
    pub fn windowed(len: usize, window: Range<usize>) -> ArrayVal {
        let end = window.end.min(len);
        let base = window.start.min(end);
        ArrayVal {
            base,
            len,
            data: vec![Value::Null; end - base],
        }
    }

    /// The logical length, which `a.length()` reports.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot `i`, or `None` when `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&Value> {
        // Below the window the subtraction wraps past `data.len()`.
        match self.data.get(i.wrapping_sub(self.base)) {
            Some(v) => Some(v),
            None => (i < self.len).then_some(NULL),
        }
    }

    /// Slot `i` for writing, or `None` when `i` is out of bounds. A slot
    /// outside the window grows the window to cover it.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> Option<&mut Value> {
        if i.wrapping_sub(self.base) >= self.data.len() {
            if i >= self.len {
                return None;
            }
            self.grow_to(i);
        }
        Some(&mut self.data[i - self.base])
    }

    /// Extend the window with Nulls to cover in-bounds slot `i`. Growth to
    /// the left at least doubles the window, so a run of descending writes
    /// stays amortised linear.
    #[cold]
    fn grow_to(&mut self, i: usize) {
        if self.data.is_empty() {
            self.base = i;
            self.data.push(Value::Null);
        } else if i < self.base {
            let need = (self.base - i).max(self.data.len()).min(self.base);
            self.data
                .splice(0..0, std::iter::repeat_n(Value::Null, need));
            self.base -= need;
        } else {
            self.data.resize(i - self.base + 1, Value::Null);
        }
    }

    /// Every slot in index order, Null outside the window.
    pub fn iter(&self) -> impl Iterator<Item = &Value> + '_ {
        let after = self.len - self.base - self.data.len();
        std::iter::repeat_n(NULL, self.base)
            .chain(&self.data)
            .chain(std::iter::repeat_n(NULL, after))
    }

    /// The slots as one slice when the window covers all of them.
    pub fn as_dense(&self) -> Option<&[Value]> {
        (self.data.len() == self.len).then_some(&self.data[..])
    }
}

impl Value {
    pub fn new_array(len: usize, fill: Value) -> Value {
        Value::array(vec![fill; len])
    }

    /// A dense array holding `items`.
    pub fn array(items: Vec<Value>) -> Value {
        Value::Array(Rc::new(RefCell::new(ArrayVal {
            base: 0,
            len: items.len(),
            data: items,
        })))
    }

    pub fn new_object(class: impl Into<String>, fields: HashMap<String, Value>) -> Value {
        Value::Object(Rc::new(RefCell::new(ObjectVal {
            class: class.into(),
            fields,
        })))
    }

    /// Numeric value as f64 (int widens); None for non-numerics.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Double(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Number of points in a domain value.
    pub fn domain_size(&self) -> Option<i64> {
        match self {
            Value::Domain(lo, hi) => Some((hi - lo + 1).max(0)),
            _ => None,
        }
    }

    /// Structural equality used by tests: deep for arrays/objects, bitwise
    /// for doubles.
    pub fn deep_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Double(a), Value::Double(b)) => a.to_bits() == b.to_bits(),
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Void, Value::Void) | (Value::Null, Value::Null) => true,
            (Value::Domain(a1, a2), Value::Domain(b1, b2)) => a1 == b1 && a2 == b2,
            (Value::Array(a), Value::Array(b)) => {
                let (a, b) = (a.borrow(), b.borrow());
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.deep_eq(y))
            }
            (Value::Object(a), Value::Object(b)) => {
                let (a, b) = (a.borrow(), b.borrow());
                a.class == b.class
                    && a.fields.len() == b.fields.len()
                    && a.fields
                        .iter()
                        .all(|(k, v)| b.fields.get(k).is_some_and(|w| v.deep_eq(w)))
            }
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Void => write!(f, "void"),
            Value::Null => write!(f, "null"),
            Value::Domain(lo, hi) => write!(f, "[{lo} : {hi}]"),
            Value::Array(a) => {
                let a = a.borrow();
                write!(f, "[")?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    if i >= 8 {
                        write!(f, "... ({} elems)", a.len())?;
                        break;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Object(o) => {
                let o = o.borrow();
                write!(f, "{}{{", o.class)?;
                let mut keys: Vec<_> = o.fields.keys().collect();
                keys.sort();
                for (i, k) in keys.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {}", o.fields[*k])?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_coercions() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Double(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Bool(true).as_f64(), None);
        assert_eq!(Value::Int(3).as_i64(), Some(3));
        assert_eq!(Value::Double(3.0).as_i64(), None);
    }

    #[test]
    fn domain_size_handles_empty() {
        assert_eq!(Value::Domain(0, 9).domain_size(), Some(10));
        assert_eq!(Value::Domain(5, 4).domain_size(), Some(0));
    }

    #[test]
    fn arrays_share_storage() {
        let a = Value::new_array(3, Value::Int(0));
        let b = a.clone();
        if let Value::Array(arr) = &a {
            *arr.borrow_mut().get_mut(0).unwrap() = Value::Int(7);
        }
        if let Value::Array(arr) = &b {
            assert_eq!(arr.borrow().get(0).unwrap().as_i64(), Some(7));
        }
    }

    #[test]
    fn deep_eq_arrays_and_objects() {
        let a = Value::new_array(2, Value::Int(1));
        let b = Value::new_array(2, Value::Int(1));
        assert!(a.deep_eq(&b));
        let mut f1 = HashMap::new();
        f1.insert("x".to_string(), Value::Double(1.0));
        let o1 = Value::new_object("P", f1.clone());
        let o2 = Value::new_object("P", f1);
        assert!(o1.deep_eq(&o2));
        assert!(!o1.deep_eq(&a));
    }

    #[test]
    fn window_reads_null_outside_and_none_past_len() {
        let mut a = ArrayVal::windowed(10, 6..8);
        *a.get_mut(7).unwrap() = Value::Int(7);
        assert_eq!(a.len(), 10);
        assert!(matches!(a.get(0), Some(Value::Null)));
        assert!(matches!(a.get(7), Some(Value::Int(7))));
        assert!(matches!(a.get(9), Some(Value::Null)));
        assert!(a.get(10).is_none() && a.get(usize::MAX).is_none());
        assert!(a.get_mut(10).is_none());
        assert!(a.as_dense().is_none());
        let logical: Vec<_> = a.iter().map(Value::as_i64).collect();
        let mut want = vec![None; 10];
        want[7] = Some(7);
        assert_eq!(logical, want);
    }

    #[test]
    fn writes_outside_the_window_grow_it() {
        let mut a = ArrayVal::windowed(8, 4..5);
        // Right, then left twice (the second inside the doubled growth),
        // then the far left edge: every slot lands where a dense array
        // would put it.
        for (i, v) in [(6, 6), (2, 2), (1, 1), (0, 0)] {
            *a.get_mut(i).unwrap() = Value::Int(v);
        }
        let got: Vec<_> = a.iter().map(Value::as_i64).collect();
        assert_eq!(
            got,
            [Some(0), Some(1), Some(2), None, None, None, Some(6), None]
        );
        let mut empty = ArrayVal::windowed(5, 0..0);
        *empty.get_mut(3).unwrap() = Value::Int(3);
        assert!(matches!(empty.get(3), Some(Value::Int(3))));
        assert!(matches!(empty.get(2), Some(Value::Null)));
    }

    #[test]
    fn a_window_compares_and_prints_like_its_dense_twin() {
        let mut a = ArrayVal::windowed(12, 9..11);
        *a.get_mut(9).unwrap() = Value::Double(9.5);
        let windowed = Value::Array(Rc::new(RefCell::new(a)));
        let mut slots = vec![Value::Null; 12];
        slots[9] = Value::Double(9.5);
        let dense = Value::array(slots);
        assert!(windowed.deep_eq(&dense) && dense.deep_eq(&windowed));
        assert_eq!(windowed.to_string(), dense.to_string());
        assert!(!windowed.deep_eq(&Value::new_array(12, Value::Null)));
    }

    #[test]
    fn display_truncates_long_arrays() {
        let a = Value::new_array(100, Value::Int(0));
        let s = a.to_string();
        assert!(s.contains("100 elems"));
    }
}
