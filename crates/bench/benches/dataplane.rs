//! Data-plane microbenchmarks: packet-echo throughput (legacy vs
//! pooled-and-batched), bulk pack/unpack over plain `f64` arrays, and
//! codec encode/decode of homogeneous array runs.
//!
//! The packet-echo pair is the tentpole measurement; its best-of rates
//! are committed in `BENCH_dataplane.json` (regenerate with
//! `cargo run --release -p cgp-bench --bin dataplane_guard -- --record`).

use cgp_bench::dataplane::{run_packet_echo, EchoConfig};
use cgp_compiler::packing::{pack, unpack, PackEntry, PackLayout, RuntimeEnv, ScalarKind};
use cgp_compiler::place::{Place, Section, SymExpr};
use cgp_core::codec::{decode_state, encode_state};
use cgp_lang::Value;
use cgp_obs::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::HashMap;

fn bench_packet_echo(c: &mut Criterion) {
    let mut group = c.benchmark_group("packet_echo");
    let (packets, payload) = (512usize, 1024usize);
    for (name, cfg) in [
        ("legacy", EchoConfig::legacy(packets, payload)),
        ("batched_pooled", EchoConfig::batched(packets, payload)),
    ] {
        group.bench_with_input(
            BenchmarkId::new(name, format!("{packets}x{payload}B")),
            &cfg,
            |b, cfg| b.iter(|| run_packet_echo(cfg)),
        );
    }
    group.finish();
}

fn f64_array(n: usize) -> Value {
    Value::array((0..n).map(|i| Value::Double(i as f64)).collect())
}

fn bench_pack_bulk(c: &mut Criterion) {
    let mut group = c.benchmark_group("pack_bulk");
    for &n in &[4096usize, 65536] {
        let env = RuntimeEnv::for_packet("pkt", 0, n as i64 - 1);
        let layout = PackLayout {
            instance_wise: vec![PackEntry {
                place: Place::sliced(
                    "a",
                    Section::dense(SymExpr::konst(0), SymExpr::konst(n as i64 - 1)),
                ),
                first_consumer: 1,
                elem: ScalarKind::F64,
            }],
            ..Default::default()
        };
        let mut vars = HashMap::new();
        vars.insert("a".to_string(), f64_array(n));
        group.bench_with_input(
            BenchmarkId::new("pack_f64_run", n),
            &(&layout, &vars, &env),
            |b, (layout, vars, env)| {
                b.iter(|| pack(layout, vars, env, (0, n as i64 - 1), None).unwrap())
            },
        );
        let buf = pack(&layout, &vars, &env, (0, n as i64 - 1), None).unwrap();
        group.bench_with_input(
            BenchmarkId::new("unpack_f64_run", n),
            &(&layout, &buf, &env),
            |b, (layout, buf, env)| b.iter(|| unpack(layout, env, buf).unwrap()),
        );
    }
    group.finish();
}

fn bench_codec_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    for &n in &[1024usize, 16384] {
        let mut state = HashMap::new();
        state.insert("a".to_string(), f64_array(n));
        group.bench_with_input(BenchmarkId::new("encode_f64_run", n), &state, |b, state| {
            b.iter(|| encode_state(state))
        });
        let buf = encode_state(&state);
        group.bench_with_input(BenchmarkId::new("decode_f64_run", n), &buf, |b, buf| {
            b.iter(|| decode_state(buf).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_packet_echo,
    bench_pack_bulk,
    bench_codec_runs
);
criterion_main!(benches);
