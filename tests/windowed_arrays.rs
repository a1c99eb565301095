//! Windowed receive arrays: a root that `unpack` delivers stores only the
//! packet's section, yet the tree-walker and the VM must both see exactly
//! what a dense array with the same logical contents shows — values, Null
//! outside the section, `length()`, bounds diagnostics — and the derived
//! forms (`Display`, `deep_eq`, `encode_state` bytes) must match too.

use cgp_compiler::packing::{pack, unpack, PackEntry, PackLayout, RuntimeEnv, ScalarKind};
use cgp_compiler::place::{Place, Section, SymExpr};
use cgp_core::codec::encode_state;
use cgp_lang::bytecode::{vm::Vm, ProgramCode};
use cgp_lang::interp::{HostEnv, Interp};
use cgp_lang::{frontend, Diagnostic, Value};
use std::collections::HashMap;

/// Points in the host array.
const DOMAIN: i64 = 40;
/// The last packet of the domain: its section is 5 of 35 logical slots.
const PKT: (i64, i64) = (30, 34);

fn host_value(i: i64) -> Value {
    Value::Double(i as f64 * 0.5)
}

/// `xs` as the receiving filter gets it: unpacked from the last packet of
/// a `DOMAIN`-point host array.
fn received() -> Value {
    let section = Section::dense(SymExpr::sym("pkt.lo"), SymExpr::sym("pkt.hi"));
    let layout = PackLayout {
        instance_wise: vec![PackEntry {
            place: Place::sliced("xs", section),
            first_consumer: 1,
            elem: ScalarKind::F64,
        }],
        ..Default::default()
    };
    let host = Value::array((0..DOMAIN).map(host_value).collect());
    let vars = HashMap::from([("xs".to_string(), host)]);
    let env = RuntimeEnv::for_packet("pkt", PKT.0, PKT.1);
    let buf = pack(&layout, &vars, &env, PKT, None).unwrap();
    let mut un = unpack(&layout, &env, &buf).unwrap();
    un.vars.remove("xs").expect("xs received")
}

/// The dense array with the same logical contents as [`received`].
fn dense() -> Value {
    let slot = |i| {
        if i >= PKT.0 {
            host_value(i)
        } else {
            Value::Null
        }
    };
    Value::array((0..=PKT.1).map(slot).collect())
}

fn state_bytes(xs: &Value) -> Vec<u8> {
    encode_state(&HashMap::from([("xs".to_string(), xs.clone())]))
}

/// The derived forms of `a` and `b` agree exactly.
fn assert_same_array(a: &Value, b: &Value, ctx: &str) {
    assert!(a.deep_eq(b) && b.deep_eq(a), "{ctx}: {a} vs {b}");
    assert_eq!(a.to_string(), b.to_string(), "{ctx}: Display");
    assert_eq!(state_bytes(a), state_bytes(b), "{ctx}: encode_state bytes");
}

/// What one engine observably did with `body`.
struct Outcome {
    result: Result<(), Diagnostic>,
    output: Vec<String>,
    /// `xs` after the run (the engines write through to the host binding).
    xs: Value,
}

/// Run `body` as `main` with `xs` bound as an extern, on the VM or the
/// tree-walker.
fn run(body: &str, xs: Value, vm: bool) -> Outcome {
    let src = format!("extern double[] xs; class A {{ void main() {{ {body} }} }}");
    let tp = frontend(&src).unwrap_or_else(|e| panic!("frontend: {e:?}\n{src}"));
    let (class, method) = tp.program.main().expect("main");
    let (cname, stmts) = (class.name.clone(), method.body.stmts.clone());
    let host = HostEnv::new().bind("xs", xs.clone());
    let mut vars = HashMap::new();
    let (result, output) = if vm {
        let prog = ProgramCode::lower(&tp);
        let slice = prog.lower_slice(&tp, &cname, &stmts);
        let mut vm = Vm::new(&prog, host);
        (vm.exec_slice(&slice, &mut vars), vm.output)
    } else {
        let mut it = Interp::new(&tp, host);
        (
            it.exec_stmts_with_vars(&cname, &stmts, &mut vars),
            it.output,
        )
    };
    Outcome { result, output, xs }
}

/// Run `body` on both engines over the received root and over its dense
/// twin; every run must match the tree-walker on the dense array, which
/// is returned.
fn assert_window_invisible(body: &str) -> Outcome {
    let want = run(body, dense(), false);
    for (vm, windowed) in [(true, false), (false, true), (true, true)] {
        let ctx = format!("`{body}` (vm {vm}, windowed {windowed})");
        let xs = if windowed { received() } else { dense() };
        let got = run(body, xs, vm);
        assert_eq!(got.result, want.result, "{ctx}: result");
        assert_eq!(got.output, want.output, "{ctx}: output");
        assert_same_array(&got.xs, &want.xs, &ctx);
    }
    want
}

#[test]
fn received_root_stores_only_its_section() {
    let Value::Array(a) = received() else {
        panic!("xs is not an array")
    };
    let a = a.borrow();
    assert_eq!(a.len(), (PKT.1 + 1) as usize);
    assert!(
        a.as_dense().is_none(),
        "the window must not cover every slot"
    );
}

#[test]
fn derived_forms_match_the_dense_array() {
    assert_same_array(&received(), &dense(), "as received");
    let other = received();
    if let Value::Array(a) = &other {
        *a.borrow_mut().get_mut(31).unwrap() = Value::Double(-1.0);
    }
    assert!(!other.deep_eq(&dense()), "a changed slot must be seen");
}

#[test]
fn read_outside_the_window_is_null() {
    let out = assert_window_invisible("print(xs[0]); print(xs[29]); print(xs[30]); print(xs[34]);");
    assert!(out.result.is_ok());
    assert_eq!(out.output, ["null", "null", "15", "17"]);
}

#[test]
fn length_is_the_logical_length() {
    let out = assert_window_invisible("print(xs.length());");
    assert_eq!(out.output, ["35"]);
}

#[test]
fn writes_land_where_a_dense_array_puts_them() {
    // Inside the window, left of it (twice, descending), in the gap, and
    // an int widened to double.
    let out = assert_window_invisible(
        "xs[31] = 4.0; xs[34] += 1.0; xs[33] -= 0.5; xs[10] = 3.0; \
         xs[2] = 1.25; xs[0] = 7.0; xs[32] = 3; \
         double s = 0.0; \
         for (int i = 0; i < xs.length(); i += 1) { if (i == 0 || i >= 30) { s += xs[i]; } } \
         print(s); print(xs[1]); print(xs[2]);",
    );
    assert!(out.result.is_ok());
    assert_eq!(out.output[1..], ["null", "1.25"]);
}

#[test]
fn out_of_bounds_diagnostics_match() {
    for body in [
        "print(xs[35]);",
        "xs[35] = 1.0;",
        "xs[-1] = 1.0;",
        "print(xs[-3]);",
    ] {
        let out = assert_window_invisible(body);
        let err = out.result.expect_err("out of bounds");
        assert!(err.message.contains("(len 35)"), "{body}: {}", err.message);
    }
}

#[test]
fn compound_assignment_on_an_unsent_slot_fails_alike() {
    let out = assert_window_invisible("xs[5] += 1.0;");
    let err = out.result.expect_err("Null target");
    assert!(
        err.message.contains("non-numeric target"),
        "{}",
        err.message
    );
}
