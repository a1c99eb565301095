//! End-to-end compilation driver: source → [`FilterPlan`].

use crate::codegen::{build_plan, FilterPlan};
use crate::cost::{chain_costs, volume_bytes, CostEnv, PipelineEnv};
use crate::decompose::{decompose_bottleneck_optimal, decompose_dp, Decomposition, Problem};
use crate::error::CompileResult;
use crate::graph::build_graph;
use crate::normalize::normalize;
use crate::report::{build_report, DecisionReport};
use crate::reqcomm::{atom_sets_with, propagate_reqcomm};
use cgp_lang::frontend;
use cgp_obs::trace::{self, PID_COMPILER};
use std::collections::HashMap;

/// Run one compiler phase inside a trace span (tid 0 = the driver).
/// Allocation-free when no trace sink is installed.
fn phase<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _s = trace::span(name, "compiler-phase", PID_COMPILER, 0);
    f()
}

/// Which objective the decomposition minimizes.
///
/// The paper's DP (Figure 3) minimizes **per-packet latency** — the time
/// one packet takes end-to-end. With the paper's `ReqComm(end) = ∅`
/// convention the final link is free, so on a uniform pipeline the
/// latency-optimal placement can degenerate to "everything on the data
/// host". The **steady-state** objective instead minimizes the paper's
/// Section 4.3 total-time formula `(N−1)·T(bottleneck) + fill`, which is
/// what the evaluation actually measures and which spreads work across the
/// pipeline; it is solved by exhaustive search (fine at these sizes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// The paper's `O(nm)` dynamic program.
    PerPacketLatency,
    /// Bottleneck-aware total time over `n_packets` packets.
    SteadyState { n_packets: u64 },
}

/// Compilation options: the workload/environment knowledge the compiler
/// uses to choose a decomposition.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// The target pipeline (unit powers, link bandwidths/latencies).
    pub pipeline: PipelineEnv,
    /// Expected points per packet (drives trip counts and volumes).
    pub packet_size: i64,
    /// Extern scalar values known at compile time (e.g. dataset sizes).
    pub symbols: Vec<(String, i64)>,
    /// Estimated selectivity per conditional id.
    pub selectivity: Vec<(usize, f64)>,
    /// Override the decomposition instead of running the DP
    /// (`Decomposition::default_style` gives the paper's Default baseline).
    pub force_decomposition: Option<Decomposition>,
    /// Decomposition objective (default: the paper's latency DP).
    pub objective: Objective,
}

impl CompileOptions {
    pub fn new(pipeline: PipelineEnv, packet_size: i64) -> Self {
        CompileOptions {
            pipeline,
            packet_size,
            symbols: Vec::new(),
            selectivity: Vec::new(),
            force_decomposition: None,
            objective: Objective::PerPacketLatency,
        }
    }

    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    pub fn with_symbol(mut self, name: impl Into<String>, v: i64) -> Self {
        self.symbols.push((name.into(), v));
        self
    }

    pub fn with_selectivity(mut self, cond_id: usize, s: f64) -> Self {
        self.selectivity.push((cond_id, s));
        self
    }

    pub fn with_decomposition(mut self, d: Decomposition) -> Self {
        self.force_decomposition = Some(d);
        self
    }

    /// The cost environment implied by these options.
    pub fn cost_env(&self) -> CostEnv {
        let mut env = CostEnv::for_packet(self.packet_size);
        for (k, v) in &self.symbols {
            env.symbols.insert(k.clone(), *v);
        }
        for (c, s) in &self.selectivity {
            env.selectivity.insert(*c, *s);
        }
        env
    }
}

/// Everything the compiler produced, for inspection and execution.
#[derive(Debug, Clone)]
pub struct Compiled {
    pub plan: FilterPlan,
    /// The decomposition problem the DP solved (virtual source included).
    pub problem: Problem,
    /// The options' pipeline environment.
    pub pipeline: PipelineEnv,
    /// Why this decomposition won: boundary graph, per-boundary volumes,
    /// candidate costs (see [`crate::report`]).
    pub report: DecisionReport,
}

impl Compiled {
    /// Per-packet stage times of the chosen decomposition.
    pub fn stage_times(&self) -> crate::cost::StageTimes {
        crate::decompose::stage_times(
            &self.problem,
            &self.pipeline,
            &self.plan.decomposition.unit_of,
        )
    }
}

/// One point of a packet-size sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketSizePoint {
    pub num_packets: i64,
    pub packet_size: i64,
    /// Predicted total time under the paper's §4.3 formula, with the best
    /// decomposition for that packet size.
    pub predicted_time: f64,
}

/// Automatic packet-size selection (the paper's Section 8 lists this as
/// future work: "Automatically choosing the packet size is another
/// issue"). For each candidate packet count the chain costs are
/// re-estimated at the implied packet size, the best decomposition is
/// chosen, and the steady-state total time is predicted; the minimizing
/// count wins. Returns the sweep (sorted by packet count) and the best
/// point.
///
/// The trade-off captured: few packets → poor overlap and load balance
/// (the `(N−1)·bottleneck + fill` formula degenerates toward fill); many
/// packets → per-packet link latency and per-buffer overheads dominate.
pub fn choose_packet_count(
    src: &str,
    options: &CompileOptions,
    domain_size: i64,
    candidates: &[i64],
) -> CompileResult<(PacketSizePoint, Vec<PacketSizePoint>)> {
    if candidates.is_empty() {
        return Err(crate::error::CompileError::new(
            "no packet-count candidates",
        ));
    }
    let mut sweep = Vec::with_capacity(candidates.len());
    for &n in candidates {
        if n < 1 || n > domain_size.max(1) {
            continue;
        }
        let packet_size = (domain_size / n).max(1);
        let mut opts = options.clone();
        opts.packet_size = packet_size;
        let compiled = compile(src, &opts)?;
        let st = compiled.stage_times();
        sweep.push(PacketSizePoint {
            num_packets: n,
            packet_size,
            predicted_time: st.total_time(n as u64),
        });
    }
    if sweep.is_empty() {
        return Err(crate::error::CompileError::new(
            "no valid packet-count candidate for this domain size",
        ));
    }
    sweep.sort_by_key(|p| p.num_packets);
    let best = sweep
        .iter()
        .min_by(|a, b| {
            a.predicted_time
                .partial_cmp(&b.predicted_time)
                .expect("finite times")
        })
        .cloned()
        .expect("non-empty sweep");
    Ok((best, sweep))
}

/// Compile dialect source into a filter plan for the given environment.
///
/// When a [`cgp_obs`] trace sink is installed each of the seven phases —
/// normalize, graph, gencons, reqcomm, cost, decompose, codegen — is
/// recorded as a span under [`PID_COMPILER`].
pub fn compile(src: &str, options: &CompileOptions) -> CompileResult<Compiled> {
    if trace::enabled() {
        trace::name_process(PID_COMPILER, "cgp-compiler");
        trace::name_thread(PID_COMPILER, 0, "driver");
    }
    let _all = trace::span("compile", "compiler", PID_COMPILER, 0);
    // Phase 1 — normalize: frontend + loop fission / scalar expansion.
    let np = phase("normalize", || -> CompileResult<_> {
        let typed = frontend(src)?;
        normalize(&typed)
    })?;
    // Phase 2 — graph: the candidate filter boundary chain.
    let graph = phase("graph", || build_graph(&np))?;
    let consts: HashMap<String, i64> = options.symbols.iter().cloned().collect();
    // Phase 3 — gencons: per-atom Gen/Cons sets.
    let atom_sets = phase("gencons", || atom_sets_with(&np, &graph, &consts))?;
    // Phase 4 — reqcomm: backward propagation over the chain.
    let analysis = phase("reqcomm", || propagate_reqcomm(&np, &graph, atom_sets))?;
    // Phase 5 — cost: op counting and volume estimation.
    let env = options.cost_env();
    let problem = phase("cost", || {
        let costs = chain_costs(&np, &graph, &analysis.reqcomm, &env);
        let input_vol = volume_bytes(&np, &analysis.input_set, &env, None);
        Problem::from_chain(&costs, input_vol)
    });
    // Phase 6 — decompose: pick the placement and build the report.
    let (decomposition, report) = phase("decompose", || {
        let (decomposition, name): (Decomposition, &'static str) =
            match (&options.force_decomposition, options.objective) {
                (Some(d), _) => (d.clone(), "forced"),
                (None, Objective::PerPacketLatency) => {
                    (decompose_dp(&problem, &options.pipeline), "latency-dp")
                }
                (None, Objective::SteadyState { n_packets }) => (
                    decompose_bottleneck_optimal(&problem, &options.pipeline, n_packets),
                    "steady-state",
                ),
            };
        let n_packets_hint = match options.objective {
            Objective::SteadyState { n_packets } => n_packets,
            Objective::PerPacketLatency => 64,
        };
        let report = build_report(
            &np,
            &graph,
            &analysis,
            &analysis.atom_sets,
            &env,
            &problem,
            &options.pipeline,
            &decomposition,
            name,
            n_packets_hint,
        );
        (decomposition, report)
    });
    // Phase 7 — codegen: the executable filter plan.
    let plan = phase("codegen", || {
        build_plan(&np, &graph, &analysis, &decomposition, options.pipeline.m())
    })?;
    Ok(Compiled {
        plan,
        problem,
        pipeline: options.pipeline.clone(),
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::run_plan_sequential;
    use cgp_lang::interp::{HostEnv, Interp};
    use cgp_lang::Value;

    const SRC: &str = r#"
        extern int n;
        extern double[] data;
        runtime_define int num_packets;
        class Acc implements Reducinterface {
            double total;
            void reduce(Acc other) { total = total + other.total; }
            void add(double x) { total = total + x; }
        }
        class A {
            void main() {
                RectDomain<1> all = [0 : n - 1];
                Acc acc = new Acc();
                PipelinedLoop (pkt in all; num_packets) {
                    foreach (i in pkt) {
                        double v = data[i] * 3.0;
                        if (v > 150.0) {
                            acc.add(v - 150.0);
                        }
                    }
                }
                print(acc.total);
            }
        }
    "#;

    fn host(n: i64) -> HostEnv {
        let data = Value::array((0..n).map(|i| Value::Double((i % 97) as f64)).collect());
        HostEnv::new()
            .bind("n", Value::Int(n))
            .bind("num_packets", Value::Int(8))
            .bind("data", data)
    }

    #[test]
    fn compile_end_to_end_and_run() {
        let opts = CompileOptions::new(PipelineEnv::uniform(3, 1e7, 1e6, 1e-5), 64)
            .with_symbol("n", 512)
            .with_selectivity(0, 0.4);
        let c = compile(SRC, &opts).unwrap();
        assert_eq!(c.plan.m, 3);
        assert!(c.plan.decomposition.cost.is_finite());
        let h = host(512);
        let out = run_plan_sequential(&c.plan, &h).unwrap();
        let tp = cgp_lang::frontend(SRC).unwrap();
        let mut it = Interp::new(&tp, h);
        it.run_main().unwrap();
        assert_eq!(out, it.output);
    }

    #[test]
    fn dp_decomposition_beats_default_on_cost() {
        let opts = CompileOptions::new(PipelineEnv::uniform(3, 1e7, 1e5, 1e-4), 256)
            .with_symbol("n", 4096)
            .with_selectivity(0, 0.3);
        let dp = compile(SRC, &opts).unwrap();
        let n_tasks = dp.problem.n_tasks();
        let default = Decomposition::default_style(n_tasks, 3);
        let default_cost = crate::decompose::evaluate(&dp.problem, &dp.pipeline, &default.unit_of);
        assert!(
            dp.plan.decomposition.cost <= default_cost + 1e-12,
            "dp {} vs default {default_cost}",
            dp.plan.decomposition.cost
        );
    }

    #[test]
    fn stage_times_available() {
        let opts =
            CompileOptions::new(PipelineEnv::uniform(3, 1e7, 1e6, 0.0), 64).with_symbol("n", 512);
        let c = compile(SRC, &opts).unwrap();
        let st = c.stage_times();
        assert_eq!(st.comp.len(), 3);
        assert_eq!(st.comm.len(), 2);
        assert!(st.total_time(100) > 0.0);
    }

    #[test]
    fn packet_sweep_finds_an_interior_optimum() {
        // With link latency, 1 packet (no overlap) and too many packets
        // (latency per packet) both lose to an interior count.
        let opts = CompileOptions::new(PipelineEnv::uniform(3, 1e7, 1e7, 5e-3), 64)
            .with_symbol("n", 65536)
            .with_selectivity(0, 0.3)
            .with_objective(Objective::SteadyState { n_packets: 16 });
        let candidates: Vec<i64> = (0..=14).map(|e| 1i64 << e).collect();
        let (best, sweep) = choose_packet_count(SRC, &opts, 65536, &candidates).unwrap();
        assert_eq!(sweep.len(), 15);
        assert!(sweep
            .windows(2)
            .all(|w| w[0].num_packets < w[1].num_packets));
        let t1 = sweep.first().unwrap().predicted_time;
        let tmax = sweep.last().unwrap().predicted_time;
        assert!(best.predicted_time <= t1);
        assert!(best.predicted_time <= tmax);
        assert!(
            best.num_packets > 1 && best.num_packets < 16384,
            "best = {best:?}
sweep = {sweep:#?}"
        );
        assert_eq!(best.packet_size, 65536 / best.num_packets);
    }

    #[test]
    fn packet_sweep_rejects_empty_candidates() {
        let opts =
            CompileOptions::new(PipelineEnv::uniform(2, 1e7, 1e7, 1e-4), 64).with_symbol("n", 100);
        assert!(choose_packet_count(SRC, &opts, 100, &[]).is_err());
        assert!(choose_packet_count(SRC, &opts, 100, &[200]).is_err());
    }

    #[test]
    fn forced_decomposition_respected() {
        let opts0 =
            CompileOptions::new(PipelineEnv::uniform(2, 1e7, 1e6, 0.0), 64).with_symbol("n", 512);
        let c0 = compile(SRC, &opts0).unwrap();
        let forced = Decomposition::default_style(c0.problem.n_tasks(), 2);
        let opts = opts0.with_decomposition(forced.clone());
        let c = compile(SRC, &opts).unwrap();
        assert_eq!(c.plan.decomposition.unit_of, forced.unit_of);
    }
}
