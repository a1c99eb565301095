//! Property-style tests for the compiler's core data structures: the place
//! lattice, symbolic expressions, and the pack/unpack round trip. Cases
//! come from a seeded PRNG (the build is offline, so no proptest);
//! failures reproduce deterministically from the printed parameters.

use cgp_compiler::packing::{pack, unpack, PackEntry, PackLayout, RuntimeEnv, ScalarKind};
use cgp_compiler::place::{Place, PlaceSet, Section, Sectioning, SymExpr};
use cgp_lang::Value;
use cgp_obs::SmallRng;
use std::collections::HashMap;

// ---- SymExpr algebra -------------------------------------------------------

fn random_sym(rng: &mut SmallRng, depth: usize) -> SymExpr {
    if depth == 0 || rng.gen_bool(0.35) {
        if rng.gen_bool(0.5) {
            SymExpr::konst(rng.gen_range(0, 200) as i64 - 100)
        } else {
            SymExpr::sym(["x", "y", "pkt.lo"][rng.gen_range(0, 3)])
        }
    } else {
        match rng.gen_range(0, 3) {
            0 => random_sym(rng, depth - 1).add(&random_sym(rng, depth - 1)),
            1 => random_sym(rng, depth - 1).sub(&random_sym(rng, depth - 1)),
            _ => random_sym(rng, depth - 1).scale(rng.gen_range(0, 10) as i64 - 5),
        }
    }
}

fn env(x: i64, y: i64, p: i64) -> impl Fn(&str) -> Option<i64> {
    move |s: &str| match s {
        "x" => Some(x),
        "y" => Some(y),
        "pkt.lo" => Some(p),
        _ => None,
    }
}

#[test]
fn symexpr_add_commutes() {
    let mut rng = SmallRng::seed_from_u64(0xC0_0001);
    for _case in 0..200 {
        let a = random_sym(&mut rng, 3);
        let b = random_sym(&mut rng, 3);
        let x = rng.gen_range(0, 100) as i64 - 50;
        let y = rng.gen_range(0, 100) as i64 - 50;
        let e = env(x, y, 7);
        assert_eq!(a.add(&b).eval(&e), b.add(&a).eval(&e), "{a} + {b}");
    }
}

#[test]
fn symexpr_add_associates() {
    let mut rng = SmallRng::seed_from_u64(0xC0_0002);
    for _case in 0..200 {
        let a = random_sym(&mut rng, 3);
        let b = random_sym(&mut rng, 3);
        let c = random_sym(&mut rng, 3);
        let e = env(3, -4, 11);
        assert_eq!(
            a.add(&b).add(&c).eval(&e),
            a.add(&b.add(&c)).eval(&e),
            "{a}, {b}, {c}"
        );
    }
}

#[test]
fn symexpr_sub_is_add_neg() {
    let mut rng = SmallRng::seed_from_u64(0xC0_0003);
    for _case in 0..200 {
        let a = random_sym(&mut rng, 3);
        let b = random_sym(&mut rng, 3);
        let e = env(-2, 9, 0);
        assert_eq!(
            a.sub(&b).eval(&e),
            a.add(&b.scale(-1)).eval(&e),
            "{a} - {b}"
        );
    }
}

#[test]
fn symexpr_eval_matches_semantics() {
    let mut rng = SmallRng::seed_from_u64(0xC0_0004);
    for _case in 0..200 {
        let a = random_sym(&mut rng, 3);
        let x = rng.gen_range(0, 40) as i64 - 20;
        let y = rng.gen_range(0, 40) as i64 - 20;
        // Evaluate via substitution of constants, then is_const.
        let e = env(x, y, 5);
        let direct = a.eval(&e);
        let substituted = a
            .subst("x", &SymExpr::konst(x))
            .subst("y", &SymExpr::konst(y))
            .subst("pkt.lo", &SymExpr::konst(5));
        assert_eq!(direct, substituted.is_const(), "{a} at x={x} y={y}");
    }
}

#[test]
fn symexpr_const_diff_sound() {
    let mut rng = SmallRng::seed_from_u64(0xC0_0005);
    for _case in 0..200 {
        let a = random_sym(&mut rng, 3);
        let d = rng.gen_range(0, 100) as i64 - 50;
        let shifted = a.add(&SymExpr::konst(d));
        assert_eq!(shifted.const_diff(&a), Some(d), "{a} + {d}");
    }
}

// ---- place lattice ---------------------------------------------------------

fn random_place(rng: &mut SmallRng) -> Place {
    let root = ["a", "b", "t"][rng.gen_range(0, 3)];
    let sect = match rng.gen_range(0, 3) {
        0 => Sectioning::NotIndexed,
        1 => Sectioning::All,
        _ => {
            let lo = rng.gen_range(0, 50) as i64;
            let len = rng.gen_range(0, 50) as i64;
            Sectioning::Range(Section::dense(SymExpr::konst(lo), SymExpr::konst(lo + len)))
        }
    };
    let n_fields = rng.gen_range(0, 3);
    let fields = (0..n_fields)
        .map(|_| ["x", "y"][rng.gen_range(0, 2)].to_string())
        .collect();
    Place {
        root: root.to_string(),
        sect,
        fields,
    }
}

fn random_places(rng: &mut SmallRng, max: usize) -> Vec<Place> {
    let n = rng.gen_range(0, max + 1);
    (0..n).map(|_| random_place(rng)).collect()
}

#[test]
fn covers_is_reflexive() {
    let mut rng = SmallRng::seed_from_u64(0xC0_0006);
    for _case in 0..300 {
        let p = random_place(&mut rng);
        assert!(p.covers(&p), "{p}");
    }
}

#[test]
fn covers_is_transitive() {
    let mut rng = SmallRng::seed_from_u64(0xC0_0007);
    for _case in 0..2000 {
        let a = random_place(&mut rng);
        let b = random_place(&mut rng);
        let c = random_place(&mut rng);
        if a.covers(&b) && b.covers(&c) {
            assert!(a.covers(&c), "{a} ⊇ {b} ⊇ {c}");
        }
    }
}

#[test]
fn insert_is_idempotent() {
    let mut rng = SmallRng::seed_from_u64(0xC0_0008);
    for _case in 0..300 {
        let ps = random_places(&mut rng, 8);
        let p = random_place(&mut rng);
        let mut s1: PlaceSet = ps.iter().cloned().collect();
        s1.insert(p.clone());
        let mut s2 = s1.clone();
        s2.insert(p.clone());
        assert_eq!(s1.sorted(), s2.sorted(), "inserting {p}");
    }
}

#[test]
fn insert_preserves_coverage() {
    let mut rng = SmallRng::seed_from_u64(0xC0_0009);
    for _case in 0..300 {
        let ps = random_places(&mut rng, 8);
        let p = random_place(&mut rng);
        let mut set: PlaceSet = ps.iter().cloned().collect();
        // everything previously covered stays covered after any insert
        set.insert(p.clone());
        for q in &ps {
            assert!(set.covers_place(q), "{q} lost after inserting {p}");
        }
        assert!(set.covers_place(&p));
    }
}

#[test]
fn kill_removes_only_covered() {
    let mut rng = SmallRng::seed_from_u64(0xC0_000A);
    for _case in 0..300 {
        let ps = random_places(&mut rng, 8);
        let k = random_place(&mut rng);
        let set: PlaceSet = ps.iter().cloned().collect();
        let mut killed = set.clone();
        killed.kill(&k);
        for q in set.sorted() {
            if k.covers(q) {
                assert!(!killed.contains(q));
            } else {
                assert!(killed.contains(q), "{q} wrongly killed by {k}");
            }
        }
    }
}

// ---- pack / unpack round trip ----------------------------------------------

#[derive(Debug, Clone)]
struct WireCase {
    scalars: Vec<(String, i64)>,
    array_len: usize,
    doubles: Vec<f64>,
}

fn random_wire(rng: &mut SmallRng) -> WireCase {
    let n_ints = rng.gen_range(0, 4);
    let scalars = (0..n_ints)
        .map(|i| (format!("s{i}"), rng.gen_range(0, 2000) as i64 - 1000))
        .collect();
    let len = rng.gen_range(1, 64);
    let doubles = (0..len)
        .map(|_| (rng.gen_f64() - 0.5) * 2e6)
        .collect::<Vec<f64>>();
    WireCase {
        scalars,
        array_len: len,
        doubles,
    }
}

#[test]
fn pack_unpack_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0xC0_000B);
    for case_no in 0..200 {
        let case = random_wire(&mut rng);
        let field_wise = rng.gen_bool(0.5);

        let n = case.array_len as i64;
        let arr_place = Place::sliced(
            "xs",
            Section::dense(SymExpr::konst(0), SymExpr::konst(n - 1)),
        );
        let mut entries = vec![PackEntry {
            place: arr_place,
            first_consumer: 1,
            elem: ScalarKind::F64,
        }];
        for (name, _) in &case.scalars {
            entries.push(PackEntry {
                place: Place::var(name.clone()),
                first_consumer: 2,
                elem: ScalarKind::I64,
            });
        }
        let layout = if field_wise {
            PackLayout {
                field_wise: entries,
                ..Default::default()
            }
        } else {
            PackLayout {
                instance_wise: entries,
                ..Default::default()
            }
        };

        let mut vars: HashMap<String, Value> = HashMap::new();
        vars.insert(
            "xs".into(),
            Value::Array(std::rc::Rc::new(std::cell::RefCell::new(
                case.doubles.iter().map(|d| Value::Double(*d)).collect(),
            ))),
        );
        for (name, v) in &case.scalars {
            vars.insert(name.clone(), Value::Int(*v));
        }

        let env = RuntimeEnv::for_packet("pkt", 0, n - 1);
        let buf = pack(&layout, &vars, &env, (0, n - 1), None).unwrap();
        let un = unpack(&layout, &env, &buf).unwrap();
        assert_eq!(un.pkt, (0, n - 1), "case {case_no}");
        assert!(un.vars["xs"].deep_eq(&vars["xs"]), "case {case_no}");
        for (name, _) in &case.scalars {
            assert!(un.vars[name].deep_eq(&vars[name]), "case {case_no}: {name}");
        }
    }
}

#[test]
fn filtered_pack_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0xC0_000C);
    for case_no in 0..200 {
        let len = rng.gen_range(1, 64);
        let mask: Vec<bool> = (0..64).map(|_| rng.gen_bool(0.5)).collect();
        let lo = rng.gen_range(0, 1000) as i64;

        let n = len as i64;
        let place = Place::sliced(
            "v",
            Section::dense(
                SymExpr::konst(0),
                SymExpr::sym("pkt.hi").sub(&SymExpr::sym("pkt.lo")),
            ),
        );
        let layout = PackLayout {
            instance_wise: vec![PackEntry {
                place,
                first_consumer: 1,
                elem: ScalarKind::F64,
            }],
            filtered: Some(0),
            ..Default::default()
        };
        let vars: HashMap<String, Value> = [(
            "v".to_string(),
            Value::Array(std::rc::Rc::new(std::cell::RefCell::new(
                (0..len).map(|i| Value::Double(i as f64 * 1.25)).collect(),
            ))),
        )]
        .into_iter()
        .collect();
        let env = RuntimeEnv::for_packet("pkt", lo, lo + n - 1);
        let selection: Vec<i64> = (0..len)
            .filter(|i| mask[*i])
            .map(|i| lo + i as i64)
            .collect();
        let buf = pack(&layout, &vars, &env, (lo, lo + n - 1), Some(&selection)).unwrap();
        let un = unpack(&layout, &env, &buf).unwrap();
        assert_eq!(
            un.selection.as_deref(),
            Some(&selection[..]),
            "case {case_no}"
        );
        if selection.is_empty() {
            // Nothing crossed: the binding is absent (the receiving filter
            // re-allocates packet-local arrays it needs).
            assert!(!un.vars.contains_key("v"), "case {case_no}");
        } else {
            let Value::Array(arr) = &un.vars["v"] else {
                panic!("not array")
            };
            let arr = arr.borrow();
            for i in 0..len {
                if mask[i] {
                    assert!(
                        arr[i].deep_eq(&Value::Double(i as f64 * 1.25)),
                        "case {case_no}"
                    );
                }
            }
        }
        // volume proportional to selection
        assert!(
            buf.len() <= 16 + 8 + 8 * selection.len() + 8 * (selection.len() + 1) + 8,
            "case {case_no}"
        );
    }
}

// ---- interleaved codec: values, lengths, Null slots and wire bytes ---------

/// How a plain root's section sits relative to the packet `[lo, hi]`.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// `[pkt.lo : pkt.hi]` — absolute indices.
    Absolute,
    /// `[0 : pkt.hi - pkt.lo]` — a rebased packet-local array.
    Rebased,
    /// `[pkt.lo + 3 : pkt.hi + 3]` — a shifted (halo-style) window.
    Shifted,
    /// `[pkt.lo : pkt.hi : 2]` — strided; travels in full even when filtered.
    Strided,
}

impl Shape {
    fn section(self) -> Section {
        let (lo, hi) = (SymExpr::sym("pkt.lo"), SymExpr::sym("pkt.hi"));
        match self {
            Shape::Absolute => Section::dense(lo, hi),
            Shape::Rebased => Section::dense(SymExpr::konst(0), hi.sub(&lo)),
            Shape::Shifted => {
                Section::dense(lo.add(&SymExpr::konst(3)), hi.add(&SymExpr::konst(3)))
            }
            Shape::Strided => Section { lo, hi, stride: 2 },
        }
    }

    /// The slots this shape carries for packet `[lo, hi]` and an optional
    /// selection of absolute domain points.
    fn slots(self, lo: i64, hi: i64, sel: Option<&[i64]>) -> Vec<i64> {
        let (slo, shi, stride) = match self {
            Shape::Absolute => (lo, hi, 1),
            Shape::Rebased => (0, hi - lo, 1),
            Shape::Shifted => (lo + 3, hi + 3, 1),
            Shape::Strided => (lo, hi, 2),
        };
        match sel {
            Some(sel) if stride == 1 => sel.iter().map(|i| slo + (i - lo)).collect(),
            _ => (slo..=shi).step_by(stride as usize).collect(),
        }
    }
}

struct CodecCase {
    layout: PackLayout,
    vars: HashMap<String, Value>,
    pkt: (i64, i64),
    selection: Option<Vec<i64>>,
    /// Plain roots: (name, shape).
    roots: Vec<(String, Shape)>,
    /// Fields of `obj` that cross the cut.
    obj_fields: Vec<&'static str>,
}

fn random_scalar(rng: &mut SmallRng, kind: ScalarKind) -> Value {
    match kind {
        ScalarKind::F64 => Value::Double(rng.gen_f64() * 2e6 - 1e6),
        ScalarKind::I64 => Value::Int(rng.next_u64() as i64),
        ScalarKind::Bool => Value::Bool(rng.gen_bool(0.5)),
        ScalarKind::Domain => {
            let a = rng.gen_range(0, 1000) as i64;
            Value::Domain(a, a + rng.gen_range(0, 1000) as i64)
        }
    }
}

fn shared_array(items: Vec<Value>) -> Value {
    Value::Array(std::rc::Rc::new(std::cell::RefCell::new(items)))
}

/// 2–4 plain roots of mixed kinds and shapes, the field-path root `obj`
/// (one or two of its fields), and the scalar `k`, shuffled, mostly
/// instance-wise (interleaved) with an occasional field-wise tail. Packets
/// start anywhere in a 40 000-point domain; a third are filtered.
fn random_codec_case(rng: &mut SmallRng) -> CodecCase {
    let lo = rng.gen_range(0, 40_000) as i64;
    let n = rng.gen_range(1, 48) as i64;
    let hi = lo + n - 1;
    let selection = rng
        .gen_bool(0.35)
        .then(|| (lo..=hi).filter(|_| rng.gen_bool(0.5)).collect::<Vec<_>>());
    let shapes = [
        Shape::Absolute,
        Shape::Rebased,
        Shape::Shifted,
        Shape::Strided,
    ];
    let kinds = [ScalarKind::F64, ScalarKind::I64, ScalarKind::Bool];

    let mut entries = Vec::new();
    let mut vars = HashMap::new();
    let mut roots = Vec::new();
    for r in 0..rng.gen_range(2, 5) {
        let name = format!("r{r}");
        let shape = shapes[rng.gen_range(0, shapes.len())];
        let kind = kinds[rng.gen_range(0, kinds.len())];
        let len = hi as usize + 4 + rng.gen_range(0, 5);
        let items = (0..len).map(|_| random_scalar(rng, kind)).collect();
        vars.insert(name.clone(), shared_array(items));
        entries.push(PackEntry {
            place: Place::sliced(name.clone(), shape.section()),
            first_consumer: 1,
            elem: kind,
        });
        roots.push((name, shape));
    }

    let obj_fields: Vec<&'static str> = if rng.gen_bool(0.5) {
        vec!["x", "y"]
    } else {
        vec!["x"]
    };
    // Slots below the packet are never read: leave them Null (building
    // 40 000 objects per case would dominate the test's run time).
    let objs = (0..=hi + rng.gen_range(0, 5) as i64)
        .map(|j| {
            if j < lo {
                return Value::Null;
            }
            let fields = [
                ("x".to_string(), random_scalar(rng, ScalarKind::F64)),
                ("y".to_string(), random_scalar(rng, ScalarKind::I64)),
                ("z".to_string(), random_scalar(rng, ScalarKind::F64)),
            ];
            Value::new_object("P", fields.into_iter().collect())
        })
        .collect();
    vars.insert("obj".into(), shared_array(objs));
    for f in &obj_fields {
        entries.push(PackEntry {
            place: Place::sliced("obj", Shape::Absolute.section()).field(*f),
            first_consumer: 1,
            elem: if *f == "x" {
                ScalarKind::F64
            } else {
                ScalarKind::I64
            },
        });
    }

    vars.insert("k".into(), random_scalar(rng, ScalarKind::I64));
    entries.push(PackEntry {
        place: Place::var("k"),
        first_consumer: 1,
        elem: ScalarKind::I64,
    });

    rng.shuffle(&mut entries);
    let split = if rng.gen_bool(0.3) {
        entries.len() - rng.gen_range(1, 3)
    } else {
        entries.len()
    };
    let mut field_wise = entries.split_off(split);
    for e in &mut field_wise {
        e.first_consumer = 2;
    }
    CodecCase {
        layout: PackLayout {
            instance_wise: entries,
            field_wise,
            filtered: selection.as_ref().map(|_| 0),
        },
        vars,
        pkt: (lo, hi),
        selection,
        roots,
        obj_fields,
    }
}

/// Check one unpacked array root: absent when nothing crossed, otherwise
/// `max(top + 1, packet_len)` long with every slot outside `slots` Null and
/// every slot inside it passing `check`.
fn check_unpacked_array(
    case_no: usize,
    name: &str,
    got: Option<&Value>,
    slots: &[i64],
    packet_len: usize,
    mut check: impl FnMut(usize, &Value),
) {
    let Some(got) = got else {
        assert!(slots.is_empty(), "case {case_no}: `{name}` missing");
        return;
    };
    assert!(
        !slots.is_empty(),
        "case {case_no}: `{name}` bound but empty"
    );
    let Value::Array(a) = got else {
        panic!("case {case_no}: `{name}` is not an array")
    };
    let a = a.borrow();
    let top = *slots.iter().max().unwrap() as usize;
    assert_eq!(
        a.len(),
        (top + 1).max(packet_len),
        "case {case_no}: len of `{name}`"
    );
    for (j, v) in a.iter().enumerate() {
        if slots.contains(&(j as i64)) {
            check(j, v);
        } else {
            assert!(
                matches!(v, Value::Null),
                "case {case_no}: `{name}[{j}]` = {v}"
            );
        }
    }
}

/// FNV-1a over a byte stream: a stable digest of the wire format.
fn fnv1a(state: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *state ^= *b as u64;
        *state = state.wrapping_mul(0x100_0000_01b3);
    }
}

#[test]
fn interleaved_codec_roundtrips_with_exact_lengths_and_null_gaps() {
    let mut rng = SmallRng::seed_from_u64(0xC0_000D);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for case_no in 0..120 {
        let case = random_codec_case(&mut rng);
        let (lo, hi) = case.pkt;
        let packet_len = (hi - lo + 1) as usize;
        let env = RuntimeEnv::for_packet("pkt", lo, hi);
        let sel = case.selection.as_deref();
        let buf = pack(&case.layout, &case.vars, &env, case.pkt, sel).unwrap();
        fnv1a(&mut digest, &buf);
        let un = unpack(&case.layout, &env, &buf).unwrap();
        assert_eq!(un.pkt, case.pkt, "case {case_no}");
        assert_eq!(un.selection.as_deref(), sel, "case {case_no}");

        for (name, shape) in &case.roots {
            let Value::Array(src) = &case.vars[name] else {
                unreachable!()
            };
            let src = src.borrow();
            let slots = shape.slots(lo, hi, sel);
            check_unpacked_array(
                case_no,
                name,
                un.vars.get(name),
                &slots,
                packet_len,
                |j, v| {
                    assert!(
                        v.deep_eq(&src[j]),
                        "case {case_no}: `{name}[{j}]` {v} vs {}",
                        src[j]
                    );
                },
            );
        }

        let Value::Array(src) = &case.vars["obj"] else {
            unreachable!()
        };
        let src = src.borrow();
        let slots = Shape::Absolute.slots(lo, hi, sel);
        check_unpacked_array(
            case_no,
            "obj",
            un.vars.get("obj"),
            &slots,
            packet_len,
            |j, v| {
                let (Value::Object(got), Value::Object(want)) = (v, &src[j]) else {
                    panic!("case {case_no}: `obj[{j}]` = {v}")
                };
                let (got, want) = (got.borrow(), want.borrow());
                assert_eq!(
                    got.fields.len(),
                    case.obj_fields.len(),
                    "case {case_no}: obj[{j}]"
                );
                for f in &case.obj_fields {
                    assert!(
                        got.fields[*f].deep_eq(&want.fields[*f]),
                        "case {case_no}: obj[{j}].{f}"
                    );
                }
            },
        );

        assert!(un.vars["k"].deep_eq(&case.vars["k"]), "case {case_no}: k");
    }
    // Digest of every case's packed bytes, recorded from the per-element
    // codec this one replaced: the wire format must not drift.
    assert_eq!(digest, 4204181102520962563, "wire format changed");
}

/// One interleaved packet spelled out byte by byte: two plain roots (f64
/// absolute, i64 rebased), a field-path root and a scalar, filtered, at
/// domain offset 39 996.
#[test]
fn interleaved_pack_matches_golden_bytes() {
    let (lo, hi) = (39_996i64, 39_999i64);
    let xs = shared_array((0..40_000).map(|i| Value::Double(i as f64 * 0.5)).collect());
    let ids = shared_array((0..4).map(|i| Value::Int(100 + i)).collect());
    let pts = shared_array(
        (0..40_000)
            .map(|i| Value::new_object("P", [("x".to_string(), Value::Double(-(i as f64)))].into()))
            .collect(),
    );
    let vars: HashMap<String, Value> = [
        ("xs".to_string(), xs),
        ("ids".to_string(), ids),
        ("pts".to_string(), pts),
        ("k".to_string(), Value::Int(7)),
    ]
    .into();
    let entry = |place: Place, elem| PackEntry {
        place,
        first_consumer: 1,
        elem,
    };
    let layout = PackLayout {
        instance_wise: vec![
            entry(
                Place::sliced("xs", Shape::Absolute.section()),
                ScalarKind::F64,
            ),
            entry(Place::var("k"), ScalarKind::I64),
            entry(
                Place::sliced("ids", Shape::Rebased.section()),
                ScalarKind::I64,
            ),
            entry(
                Place::sliced("pts", Shape::Absolute.section()).field("x"),
                ScalarKind::F64,
            ),
        ],
        filtered: Some(0),
        ..Default::default()
    };
    let env = RuntimeEnv::for_packet("pkt", lo, hi);
    let buf = pack(&layout, &vars, &env, (lo, hi), Some(&[39_997, 39_999])).unwrap();
    let hex: String = buf.iter().map(|b| format!("{b:02x}")).collect();
    let golden = concat!(
        "3c9c000000000000", // pkt.lo 39996
        "3f9c000000000000", // pkt.hi 39999
        "0200000000000000", // selection count 2
        "3d9c000000000000", // selected 39997
        "3f9c000000000000", // selected 39999
        "0200000000000000", // interleave count 2
        "00000000a087d340", // xs[39997] 19998.5
        "0700000000000000", // k 7
        "6500000000000000", // ids[1] 101
        "00000000a087e3c0", // pts[39997].x -39997
        "00000000e087d340", // xs[39999] 19999.5
        "6700000000000000", // ids[3] 103
        "00000000e087e3c0", // pts[39999].x -39999
    );
    assert_eq!(hex, golden, "wire format changed");
}
