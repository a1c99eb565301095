//! Ablation A3: instance-wise vs field-wise packing cost (Section 5 /
//! Figure 4) over a packet of object fields, plus an interleaved layout of
//! plain `double` roots at a packet near the end of the domain. The
//! receiver stores only the packet's window of each root, so the tail
//! case costs time in the section size, not in the top index.

use cgp_compiler::packing::{pack, unpack, PackEntry, PackLayout, RuntimeEnv, ScalarKind};
use cgp_compiler::place::{Place, Section, SymExpr};
use cgp_lang::Value;
use cgp_obs::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::HashMap;

fn entry(root: &str, field: &str, n: i64, first: usize) -> PackEntry {
    let mut place = Place::sliced(
        root,
        Section::dense(SymExpr::konst(0), SymExpr::konst(n - 1)),
    );
    place.fields.push(field.to_string());
    PackEntry {
        place,
        first_consumer: first,
        elem: ScalarKind::F64,
    }
}

fn vars(n: usize) -> HashMap<String, Value> {
    let mk_obj = |x: f64| {
        let mut f = HashMap::new();
        f.insert("x".to_string(), Value::Double(x));
        f.insert("y".to_string(), Value::Double(-x));
        Value::new_object("T", f)
    };
    let arr = Value::array((0..n).map(|i| mk_obj(i as f64)).collect());
    let mut v = HashMap::new();
    v.insert("t".to_string(), arr);
    v
}

fn bench_packing(c: &mut Criterion) {
    let mut group = c.benchmark_group("packing");
    for &n in &[256usize, 4096] {
        let env = RuntimeEnv::for_packet("pkt", 0, n as i64 - 1);
        let instance = PackLayout {
            instance_wise: vec![entry("t", "x", n as i64, 1), entry("t", "y", n as i64, 1)],
            ..Default::default()
        };
        let field = PackLayout {
            field_wise: vec![entry("t", "x", n as i64, 1), entry("t", "y", n as i64, 2)],
            ..Default::default()
        };
        let v = vars(n);
        for (name, layout) in [("instance_wise", &instance), ("field_wise", &field)] {
            group.bench_with_input(
                BenchmarkId::new(format!("pack_{name}"), n),
                &(layout, &v, &env),
                |b, (layout, v, env)| {
                    b.iter(|| pack(layout, v, env, (0, n as i64 - 1), None).unwrap())
                },
            );
            let buf = pack(layout, &v, &env, (0, n as i64 - 1), None).unwrap();
            group.bench_with_input(
                BenchmarkId::new(format!("unpack_{name}"), n),
                &(layout, &buf, &env),
                |b, (layout, buf, env)| b.iter(|| unpack(layout, env, buf).unwrap()),
            );
        }
    }
    group.finish();
}

/// Three plain `double` roots `[pkt.lo : pkt.hi]` packed instance-wise
/// (the knn-default link shape), for the last packet of a 40 000-point
/// domain: position effects show here, not at offset 0.
fn bench_interleaved_tail(c: &mut Criterion) {
    const DOMAIN: i64 = 40_000;
    let mut group = c.benchmark_group("packing");
    for &n in &[312i64, 2500] {
        let (lo, hi) = (DOMAIN - n, DOMAIN - 1);
        let env = RuntimeEnv::for_packet("pkt", lo, hi);
        let roots = ["px", "py", "pz"];
        let layout = PackLayout {
            instance_wise: roots
                .iter()
                .map(|r| PackEntry {
                    place: Place::sliced(
                        *r,
                        Section::dense(SymExpr::sym("pkt.lo"), SymExpr::sym("pkt.hi")),
                    ),
                    first_consumer: 1,
                    elem: ScalarKind::F64,
                })
                .collect(),
            ..Default::default()
        };
        let v: HashMap<String, Value> = roots
            .iter()
            .map(|r| {
                let a = (0..DOMAIN).map(|i| Value::Double(i as f64 * 0.25));
                (r.to_string(), Value::array(a.collect()))
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("pack_interleaved3_tail", n),
            &(&layout, &v, &env),
            |b, (layout, v, env)| b.iter(|| pack(layout, v, env, (lo, hi), None).unwrap()),
        );
        let buf = pack(&layout, &v, &env, (lo, hi), None).unwrap();
        group.bench_with_input(
            BenchmarkId::new("unpack_interleaved3_tail", n),
            &(&layout, &buf, &env),
            |b, (layout, buf, env)| b.iter(|| unpack(layout, env, buf).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_packing, bench_interleaved_tail);
criterion_main!(benches);
