//! The four workloads: what each generates from the seed, how it compiles
//! its plan, and the independent reference its output is checked against.

use cgp_compiler::cost::{FilterEngine, StageTimes};
use cgp_compiler::{compile, CompileOptions, Compiled, Decomposition, FilterPlan};
use cgp_core::apps::dialect::{iso_host_env, knn_host_env, KNN_SRC, ZBUF_SRC};
use cgp_core::apps::isosurface::ScalarGrid;
use cgp_core::apps::knn::generate_points;
use cgp_core::lang::{HostEnv, Interp, TypedProgram};
use cgp_core::{HostBuilder, PipelineEnv};
use cgp_obs::rng::SmallRng;
use cgp_obs::trace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pipeline units in every plan; with width 1 each this is one stage
/// thread per unit.
pub const UNITS: usize = 2;
/// Nearest neighbours kept by the knn reduction.
const KNN_K: i64 = 3;
/// Points per knn query.
const KNN_POINTS: usize = 40_000;
/// Packets per knn query.
const KNN_PACKETS: i64 = 64;
/// Grid points per axis of the z-buffer volume (`(n-1)^3` cubes).
const ZBUF_GRID: usize = 20;
/// Packets per z-buffer query.
const ZBUF_PACKETS: i64 = 32;
const ZBUF_ISOVALUE: f64 = 0.8;
const ZBUF_SCREEN: i64 = 64;
/// The compiler's selectivity estimate for the z-buffer crossing test.
const ZBUF_SELECTIVITY: f64 = 0.15;
/// Planning power for the z-buffer program. Its body is dominated by
/// boxed `cubes[c].vN` reads, which run well below the calibrated VM
/// rate, so it keeps the conservative 1e8 the figure harness uses.
const ZBUF_POWER: f64 = 1e8;

/// Trace row for the benchmark's own spans.
pub const PID_BENCH: u32 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// knn at the compiler's own cut: unit 0 runs the whole body.
    KnnDecomp,
    /// knn under the Default placement: unit 0 packs, unit 1 computes.
    KnnDefault,
    /// The z-buffer isosurface under the Default placement.
    ZbufDefault,
    /// `KnnDefault` with each unit run as a worker over shm rings.
    KnnDefaultShm,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Both units in one pipeline, joined by the in-process ring.
    InProcess,
    /// One worker per unit, joined by a same-host shm ring.
    Shm,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::KnnDecomp,
        Kind::KnnDefault,
        Kind::ZbufDefault,
        Kind::KnnDefaultShm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::KnnDecomp => "knn-decomp",
            Kind::KnnDefault => "knn-default",
            Kind::ZbufDefault => "zbuf-default",
            Kind::KnnDefaultShm => "knn-default-shm",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn transport(self) -> Transport {
        match self {
            Kind::KnnDefaultShm => Transport::Shm,
            _ => Transport::InProcess,
        }
    }

    fn default_placement(self) -> bool {
        !matches!(self, Kind::KnnDecomp)
    }
}

/// Calls into the host-binding closure and the time spent in them,
/// summed over every copy of every query since the last reset.
#[derive(Default)]
pub struct HostBindCounter {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl HostBindCounter {
    /// `(calls, total seconds)` since the last call, then reset.
    pub fn take(&self) -> (u64, f64) {
        let calls = self.calls.swap(0, Ordering::Relaxed);
        let nanos = self.nanos.swap(0, Ordering::Relaxed);
        (calls, nanos as f64 * 1e-9)
    }
}

/// Seed-derived inputs of one workload.
#[derive(Clone)]
enum Inputs {
    Knn {
        points: Arc<Vec<[f64; 3]>>,
        query: [f64; 3],
    },
    Zbuf {
        grid: Arc<ScalarGrid>,
    },
}

impl Inputs {
    fn generate(kind: Kind, seed: u64) -> Inputs {
        match kind {
            Kind::ZbufDefault => Inputs::Zbuf {
                grid: Arc::new(ScalarGrid::synthetic(ZBUF_GRID, ZBUF_GRID, ZBUF_GRID, seed)),
            },
            _ => {
                let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_0f4b_1100);
                let query = [rng.gen_f64(), rng.gen_f64(), rng.gen_f64()];
                Inputs::Knn {
                    points: Arc::new(generate_points(KNN_POINTS, seed)),
                    query,
                }
            }
        }
    }

    /// Domain elements one query processes.
    fn elems(&self) -> u64 {
        match self {
            Inputs::Knn { points, .. } => points.len() as u64,
            Inputs::Zbuf { grid } => grid.cubes() as u64,
        }
    }

    fn packets(&self) -> u64 {
        match self {
            Inputs::Knn { .. } => KNN_PACKETS as u64,
            Inputs::Zbuf { .. } => ZBUF_PACKETS as u64,
        }
    }

    fn source(&self) -> &'static str {
        match self {
            Inputs::Knn { .. } => KNN_SRC,
            Inputs::Zbuf { .. } => ZBUF_SRC,
        }
    }

    fn options(&self) -> CompileOptions {
        match self {
            Inputs::Knn { points, .. } => CompileOptions::new(
                PipelineEnv::same_host(UNITS, FilterEngine::Vm.power()),
                points.len() as i64 / KNN_PACKETS,
            )
            .with_symbol("npoints", points.len() as i64)
            .with_symbol("k", KNN_K),
            Inputs::Zbuf { grid } => CompileOptions::new(
                PipelineEnv::same_host(UNITS, ZBUF_POWER),
                grid.cubes() as i64 / ZBUF_PACKETS,
            )
            .with_symbol("ncubes", grid.cubes() as i64)
            .with_symbol("screen", ZBUF_SCREEN)
            .with_selectivity(0, ZBUF_SELECTIVITY),
        }
    }

    fn host(&self) -> HostEnv {
        match self {
            Inputs::Knn { points, query } => knn_host_env(points, *query, KNN_K, KNN_PACKETS),
            Inputs::Zbuf { grid } => iso_host_env(grid, ZBUF_ISOVALUE, ZBUF_SCREEN, ZBUF_PACKETS),
        }
    }
}

/// Wall time of the timed set-up phases.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub gen: f64,
    pub frontend: f64,
    pub compile: f64,
}

/// Everything a query needs, built once per set-up.
pub struct Workload {
    pub kind: Kind,
    pub plan: Arc<FilterPlan>,
    /// The host-binding closure each filter copy calls; counted.
    pub host: HostBuilder,
    pub host_binds: Arc<HostBindCounter>,
    /// Domain elements per query.
    pub elems: u64,
    /// Packets per query.
    pub packets: u64,
    pub typed: TypedProgram,
    pub stage_times: StageTimes,
    /// Predicted bytes per packet on the link between the two units.
    pub pred_link_bytes: f64,
    pub times: SetupTimes,
    inputs: Inputs,
}

fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = trace::span(name, "setup", PID_BENCH, 0);
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

impl Workload {
    /// Generate the inputs, run the frontend, compile the plan and build
    /// the host binding: the benchmark's set-up, timed by phase.
    pub fn setup(kind: Kind, seed: u64) -> Result<Workload, String> {
        let (inputs, gen) = timed("apps.gen", || Inputs::generate(kind, seed));
        let src = inputs.source();
        let (typed, frontend) = timed("lang.frontend", || cgp_core::lang::frontend(src));
        let typed = typed.map_err(|e| format!("frontend: {e:?}"))?;
        let options = inputs.options();
        let (compiled, compile_s) = timed("compiler.compile", || {
            compile_for(src, &options, kind.default_placement())
        });
        let compiled = compiled?;
        let stage_times = compiled.stage_times();
        let carried = compiled.plan.decomposition.carried_task(UNITS)[0];
        let pred_link_bytes = compiled.problem.volumes[carried];
        let (host, host_binds) = counted_host(&inputs);
        Ok(Workload {
            kind,
            plan: Arc::new(compiled.plan),
            host,
            host_binds,
            elems: inputs.elems(),
            packets: inputs.packets(),
            typed,
            stage_times,
            pred_link_bytes,
            times: SetupTimes {
                gen,
                frontend,
                compile: compile_s,
            },
            inputs,
        })
    }

    /// A fresh host environment, outside the counted closure (for the
    /// reference and the per-layer probes).
    pub fn host_env(&self) -> HostEnv {
        self.inputs.host()
    }

    /// The reference output: the tree-walking interpreter on the
    /// unmodified program, independent of the compiler and the VM.
    pub fn reference(&self) -> Result<Vec<String>, String> {
        let mut interp = Interp::new(&self.typed, self.host_env());
        interp.run_main().map_err(|e| format!("reference: {e:?}"))?;
        Ok(interp.output)
    }

    /// The same program compiled onto a single unit, for the filter-body
    /// sweep.
    pub fn single_unit_plan(&self) -> Result<FilterPlan, String> {
        let mut options = self.inputs.options();
        options.pipeline = PipelineEnv::same_host(1, options.pipeline.power[0]);
        compile(self.inputs.source(), &options)
            .map(|c| c.plan)
            .map_err(|e| format!("compile (single unit): {e}"))
    }
}

/// Compile at the compiler's own cut, or under the paper's Default
/// placement (which needs the task count of a first compile).
pub fn compile_for(
    src: &str,
    options: &CompileOptions,
    default_placement: bool,
) -> Result<Compiled, String> {
    let m = options.pipeline.m();
    let compiled = compile(src, options).map_err(|e| format!("compile: {e}"))?;
    if !default_placement {
        return Ok(compiled);
    }
    let forced = options
        .clone()
        .with_decomposition(Decomposition::default_style(compiled.problem.n_tasks(), m));
    compile(src, &forced).map_err(|e| format!("compile (default placement): {e}"))
}

fn counted_host(inputs: &Inputs) -> (HostBuilder, Arc<HostBindCounter>) {
    let counter = Arc::new(HostBindCounter::default());
    let inputs = inputs.clone();
    let c = Arc::clone(&counter);
    let host: HostBuilder = Arc::new(move || {
        let _span = trace::span("apps.host_bind", "apps", PID_BENCH, 1);
        let t0 = Instant::now();
        let env = inputs.host();
        c.nanos
            .fetch_add(duration_nanos(t0.elapsed()), Ordering::Relaxed);
        c.calls.fetch_add(1, Ordering::Relaxed);
        env
    });
    (host, counter)
}

fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
