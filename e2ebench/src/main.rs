//! End-to-end query benchmark for compiled pipelines.
//!
//! One client runs a closed loop of queries, one in flight: each query is
//! a full run of a compiled dialect plan through the real runtime (2
//! units, width 1). Every query's output is checked against the
//! tree-walking interpreter's. See `NOTES.md` beside this crate for the
//! workloads and metrics.
//!
//! ```sh
//! cgp-e2ebench --workload knn-default --seed 1 --seconds 10 --trace 0 --out-dir e2ebench/out
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs a traced
//! loop plus the per-layer probes and the smoke matrix, and prints the
//! per-layer metrics. The last stdout line is one JSON object.

mod layers;
mod ledger;
mod query;
mod smoke;
mod stats;
mod workload;

use cgp_obs::sink::{ChromeTraceSink, RingSink};
use cgp_obs::trace;
use ledger::Ledger;
use query::{Query, RingDir};
use stats::{median, tail};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Kind, Transport, Workload, UNITS};

/// Set-ups timed per run; `setup_s` is their median. (Repeating them
/// for seconds instead did not steady it: the spread is between
/// processes, not between repeats.)
const SETUP_REPS: usize = 41;
/// Untimed queries before the timed loop; `peak_rss_mb` is read after
/// the first.
const WARMUP_QUERIES: usize = 2;
/// Share of a traced run spent in the query loop; the rest goes to the
/// per-layer probes and the smoke matrix.
const TRACED_LOOP_SHARE: f64 = 0.7;
/// Minimum rounds of the traced loop, and sweeps of the probes.
const MIN_ROUNDS: usize = 3;
/// Trace events kept in memory (the oldest are dropped beyond this).
const TRACE_EVENTS: usize = 1 << 20;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(|| bad("a workload"))?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir: out_dir.ok_or("--out-dir is required")?,
    })
}

/// A metric line of the result object.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Query outputs kept until the reference is computed, after the timed
/// loop so the reference does not count in peak RSS.
#[derive(Default)]
struct Outputs(Vec<Result<Vec<String>, String>>);

impl Outputs {
    fn keep(&mut self, q: &Query) {
        self.0.push(q.output.clone());
    }
}

/// Queries attempted and failed: an error, or an output that differs
/// from the reference byte for byte.
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(outputs: &Outputs, reference: &[String]) -> Tally {
        let mut failed = 0;
        for out in &outputs.0 {
            match out {
                Ok(o) if o.as_slice() == reference => continue,
                Ok(o) => eprintln!("query output {o:?} != reference {reference:?}"),
                Err(e) => eprintln!("query failed: {e}"),
            }
            failed += 1;
        }
        Tally {
            attempted: outputs.0.len() as u64,
            failed,
        }
    }
}

/// The set-ups of one run: the last workload, and each phase's median.
struct Setups {
    workload: Workload,
    total: f64,
    gen: f64,
    frontend: f64,
    compile: f64,
}

fn set_up(args: &Args, rings: &RingDir) -> Result<Setups, String> {
    let (mut total, mut gen, mut frontend, mut compile) = (vec![], vec![], vec![], vec![]);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        let w = Workload::setup(args.kind, args.seed)?;
        if args.kind.transport() == Transport::Shm {
            drop(rings.create()?);
        }
        total.push(t0.elapsed().as_secs_f64());
        gen.push(w.times.gen);
        frontend.push(w.times.frontend);
        compile.push(w.times.compile);
        last = Some(w);
    }
    Ok(Setups {
        workload: last.expect("SETUP_REPS > 0"),
        total: median(&mut total),
        gen: median(&mut gen),
        frontend: median(&mut frontend),
        compile: median(&mut compile),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cgp-e2ebench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((tally, metrics)) => match metrics.iter().find(|m| !m.value.is_finite()) {
            None => println!("{}", result_json(&tally, &metrics)),
            Some(m) => {
                eprintln!("cgp-e2ebench: {} was not measured ({})", m.name, m.value);
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!("cgp-e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<(Tally, Vec<Metric>), String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("out dir {}: {e}", args.out_dir.display()))?;
    let rings = RingDir::new(&args.out_dir.join("rings"))?;
    let setups = set_up(args, &rings)?;
    let w = &setups.workload;
    println!(
        "workload {}  seed {}  {} elems/query  {} packets/query  threads available {}",
        w.kind.name(),
        args.seed,
        w.elems,
        w.packets,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    if args.trace {
        traced(args, &setups, &rings)
    } else {
        untraced(args, &setups, &rings)
    }
}

/// The end-to-end run: a timed closed loop with tracing off.
fn untraced(args: &Args, setups: &Setups, rings: &RingDir) -> Result<(Tally, Vec<Metric>), String> {
    let w = &setups.workload;
    let transport = w.kind.transport();
    // Peak RSS is read after the first query: from the second query on,
    // a third malloc arena can join at random and keep one host
    // binding's worth of freed memory resident, which would make the
    // figure bimodal.
    let mut outputs = Outputs::default();
    outputs.keep(&query::run(w, transport, rings));
    let peak_rss = peak_rss_mb()?;
    for _ in 1..WARMUP_QUERIES {
        outputs.keep(&query::run(w, transport, rings));
    }
    let mut walls = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while Instant::now() < deadline {
        let q = query::run(w, transport, rings);
        outputs.keep(&q);
        walls.push(q.wall);
    }
    let tally = Tally::check(&outputs, &w.reference()?);
    let elems_per_s = (w.elems * walls.len() as u64) as f64 / walls.iter().sum::<f64>();
    let p50 = median(&mut walls.clone());
    let t = tail(&mut walls);
    println!(
        "query_s p50 {p50:.6}  tail p{:.1} {:.6}  ({} queries, {} beyond the tail)",
        t.percentile, t.value, t.samples, t.beyond
    );
    println!(
        "elems_per_s {elems_per_s:.0}  setup_s {:.6} (median of {SETUP_REPS})  peak_rss_mb {peak_rss:.2}",
        setups.total
    );
    Ok((
        tally,
        vec![
            metric("elems_per_s", elems_per_s, "elem/s"),
            metric("query_s.p50", p50, "s"),
            metric("query_s.tail", t.value, "s"),
            metric("setup_s", setups.total, "s"),
            metric("peak_rss_mb", peak_rss, "MB"),
        ],
    ))
}

/// Walls of queries over each transport, and the shm link counters.
#[derive(Default)]
struct TransportPair {
    in_process: Vec<f64>,
    shm: Vec<f64>,
    frames: Vec<f64>,
    bytes: Vec<f64>,
}

impl TransportPair {
    fn record(&mut self, q: &Query, transport: Transport) {
        if q.output.is_err() {
            return;
        }
        match transport {
            Transport::InProcess => self.in_process.push(q.wall),
            Transport::Shm => {
                self.shm.push(q.wall);
                self.frames.push(q.link1.0 as f64);
                self.bytes.push(q.link1.1 as f64);
            }
        }
    }
}

/// The per-layer run: rounds of an untraced query (the ledger), the same
/// query traced, and the same plan over the other transport; then the
/// per-layer probes and the smoke matrix.
fn traced(args: &Args, setups: &Setups, rings: &RingDir) -> Result<(Tally, Vec<Metric>), String> {
    let w = &setups.workload;
    let own = w.kind.transport();
    let other = match own {
        Transport::InProcess => Transport::Shm,
        Transport::Shm => Transport::InProcess,
    };
    let mut outputs = Outputs::default();
    for _ in 0..WARMUP_QUERIES {
        outputs.keep(&query::run(w, own, rings));
    }
    w.host_binds.take();

    let sink = Arc::new(RingSink::new(TRACE_EVENTS));
    let loop_end = Instant::now() + Duration::from_secs_f64(args.seconds * TRACED_LOOP_SHARE);
    let mut ledger = Ledger::default();
    let mut pair = TransportPair::default();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let (mut bind_s, mut bind_calls) = (Vec::new(), Vec::new());
    while Instant::now() < loop_end || traced_walls.len() < MIN_ROUNDS {
        let q = query::run(w, own, rings);
        let (calls, secs) = w.host_binds.take();
        if calls > 0 {
            bind_s.push(secs / calls as f64);
            bind_calls.push(calls as f64);
        }
        outputs.keep(&q);
        plain_walls.push(q.wall);
        ledger.record(&q);
        pair.record(&q, own);

        trace::install_sink(sink.clone());
        let q = query::run(w, own, rings);
        trace::clear_sink();
        outputs.keep(&q);
        traced_walls.push(q.wall);

        let q = query::run(w, other, rings);
        outputs.keep(&q);
        pair.record(&q, other);
        w.host_binds.take();
    }
    let tally = Tally::check(&outputs, &w.reference()?);

    trace::install_sink(sink.clone());
    let probe_end =
        Instant::now() + Duration::from_secs_f64(args.seconds * (1.0 - TRACED_LOOP_SHARE));
    let probe = layers::Probe::new(w)?;
    probe.sweep()?; // warms the allocator and the lowering caches
    let mut probes = Vec::new();
    while probes.len() < MIN_ROUNDS || Instant::now() < probe_end {
        probes.push(probe.sweep()?);
    }
    trace::clear_sink();
    let pick =
        |f: fn(&layers::LayerTimes) -> f64| median(&mut probes.iter().map(f).collect::<Vec<_>>());

    let (smoke_cells, smoke_failed) = smoke::run(args.seed);
    println!("smoke: {smoke_failed} of {smoke_cells} cells failed (reported, not gated)");

    ledger.print();
    let events = sink.snapshot();
    let trace_path = args.out_dir.join(format!("trace-{}.json", w.kind.name()));
    std::fs::write(&trace_path, ChromeTraceSink::render(&events))
        .map_err(|e| format!("trace file {}: {e}", trace_path.display()))?;
    println!(
        "trace: {} events written to {}",
        events.len(),
        trace_path.display()
    );

    let packets = w.packets as f64;
    let rate = |walls: &[f64]| (w.elems * walls.len() as u64) as f64 / walls.iter().sum::<f64>();
    let st = &w.stage_times;
    let pred_bottleneck = st.comp.iter().chain(&st.comm).copied().fold(0.0, f64::max);
    let measured_bottleneck = (0..UNITS)
        .map(|j| ledger.stage(j).self_s)
        .fold(0.0, f64::max)
        / packets;
    let [f1, f2] = [ledger.stage(0), ledger.stage(1)];
    let metrics = vec![
        metric("apps.gen_s", setups.gen, "s"),
        metric("apps.host_bind_s", median(&mut bind_s), "s"),
        metric("apps.host_bind_calls", median(&mut bind_calls), "count"),
        metric("lang.frontend_s", setups.frontend, "s"),
        metric("compiler.compile_s", setups.compile, "s"),
        metric("compiler.pred_bottleneck_s_per_pkt", pred_bottleneck, "s"),
        metric(
            "compiler.model_ratio",
            measured_bottleneck / pred_bottleneck,
            "ratio",
        ),
        metric("compiler.pred_link_bytes_per_pkt", w.pred_link_bytes, "B"),
        metric(
            "vm.body_elems_per_s",
            pick(|l| l.body_elems_per_s),
            "elem/s",
        ),
        metric("stepper.f1.s_per_pkt", pick(|l| l.step_s_per_pkt[0]), "s"),
        metric("stepper.f2.s_per_pkt", pick(|l| l.step_s_per_pkt[1]), "s"),
        metric("codec.unpack_s_per_pkt", pick(|l| l.unpack_s_per_pkt), "s"),
        metric("codec.bytes_per_elem", pick(|l| l.bytes_per_elem), "B"),
        metric("dc.f1.self_s", f1.self_s, "s"),
        metric("dc.f1.send_wait_s", f1.send_wait_s, "s"),
        metric("dc.f1.recv_wait_s", f1.recv_wait_s, "s"),
        metric("dc.f1.buffers", f1.buffers, "count"),
        metric("dc.f1.bytes", f1.bytes, "B"),
        metric("dc.f2.self_s", f2.self_s, "s"),
        metric("dc.f2.send_wait_s", f2.send_wait_s, "s"),
        metric("dc.f2.recv_wait_s", f2.recv_wait_s, "s"),
        metric("dc.f2.buffers", f2.buffers, "count"),
        metric("dc.f2.bytes", f2.bytes, "B"),
        metric("dc.pool_hit_ratio", ledger.pool_hit_ratio(), "ratio"),
        metric("dc.build_teardown_s", ledger.build_teardown_s(), "s"),
        metric("dc.unaccounted_frac", ledger.unaccounted_frac(), "ratio"),
        metric("shm.link1.frames", median(&mut pair.frames), "count"),
        metric("shm.link1.bytes", median(&mut pair.bytes), "B"),
        metric(
            "shm.transport_s_per_pkt",
            (median(&mut pair.shm) - median(&mut pair.in_process)) / packets,
            "s",
        ),
        metric(
            "trace.overhead_frac",
            1.0 - rate(&traced_walls) / rate(&plain_walls),
            "ratio",
        ),
        metric("smoke.failed_cells", smoke_failed as f64, "count"),
    ];
    Ok((tally, metrics))
}

/// Peak resident set size of this process so far, in MiB: `VmHWM` of
/// its own memory map. (`getrusage`'s `ru_maxrss` would also count the
/// parent's image from before `exec`.)
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The result object: `correct`, `attempted`, `failed` and the metrics.
fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}
