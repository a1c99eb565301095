//! Code generation (Section 5): turn a decomposition into an executable
//! [`FilterPlan`].
//!
//! Each computing unit gets one filter. A filter's code is the sequence of
//! atomic filters assigned to its unit; buffers between filters follow the
//! [`crate::packing`] layouts computed from ReqComm at the chosen cuts.
//!
//! Special handling:
//!
//! - **Filtering cuts** — when a `CondSelect`/`CondBody` pair is split
//!   across a link, the upstream filter evaluates the condition per point
//!   and emits the passing-index list; sectioned buffer entries carry only
//!   passing elements; the downstream filter executes the guarded body for
//!   passing points only. When both halves land on the same filter, the
//!   original conditional foreach is reconstituted.
//! - **Replicated allocations** — packet-local arrays (scalar expansion
//!   temporaries) whose *contents* are produced downstream of their
//!   allocation site are re-allocated locally by the consuming filter; the
//!   analysis guarantees their contents are fully written before use.
//! - **Reduction finalization** — each filter owns a replicated copy of
//!   every reduction variable (initialized by the replicated prologue, which
//!   must construct the reduction identity); after the last packet the
//!   copies are merged with `reduce` and the epilogue runs at the final
//!   filter.
//!
//! The module also provides [`run_plan_sequential`] — a single-threaded
//! Path-A executor that moves real packed buffers between filter stages and
//! is compared against the sequential interpreter in tests. The threaded
//! DataCutter-backed executor in `cgp-core` reuses the same per-filter step
//! logic through [`FilterStepper`].

use crate::decompose::Decomposition;
use crate::error::{CompileError, CompileResult};
use crate::graph::{AtomCode, BoundaryGraph, BoundaryKind};
use crate::normalize::NormalizedPipeline;
use crate::packing::{compute_layout, pack, unpack, PackLayout, RuntimeEnv};
use crate::place::PlaceSet;
use crate::reqcomm::ChainAnalysis;
use cgp_lang::ast::*;
use cgp_lang::bytecode::{vm::Vm, CodeBlock, ProgramCode};
use cgp_lang::interp::{split_domain, HostEnv, Interp};
use cgp_lang::span::Span;
use cgp_lang::value::Value;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One filter of the generated pipeline.
#[derive(Debug, Clone)]
pub struct FilterSpec {
    /// Pipeline unit index this filter runs on.
    pub unit: usize,
    pub name: String,
    /// Atom indices (into the boundary graph) executed here, in order.
    pub atoms: Vec<usize>,
    /// VarDecl statements replicated from upstream atoms for packet-local
    /// arrays this filter writes before reading.
    pub replicated_decls: Vec<Stmt>,
}

/// An executable decomposition.
#[derive(Debug, Clone)]
pub struct FilterPlan {
    pub np: NormalizedPipeline,
    pub graph: BoundaryGraph,
    pub analysis: ChainAnalysis,
    pub decomposition: Decomposition,
    /// Number of pipeline units `m`.
    pub m: usize,
    pub filters: Vec<FilterSpec>,
    /// Buffer layout for each link (`m − 1` entries).
    pub layouts: Vec<PackLayout>,
    /// Register bytecode for every filter's atom sequence, lowered once
    /// at plan-build time and shared (read-only) by all filter copies.
    pub lowered: Arc<LoweredPlan>,
}

/// Plan-time lowered bytecode: the whole program's methods plus one step
/// sequence per filter mirroring [`FilterSpec::atoms`] (a
/// `CondSelect`/`CondBody` pair sharing a filter collapses into one
/// reconstituted slice, exactly as the interpreter path does).
#[derive(Debug)]
pub struct LoweredPlan {
    pub prog: ProgramCode,
    pub steps: Vec<Vec<LoweredStep>>,
    /// Per-filter replicated packet-local allocations.
    pub replicated: Vec<Option<CodeBlock>>,
}

/// One VM-executable unit of a filter's packet step.
#[derive(Debug)]
pub enum LoweredStep {
    /// Straight-line statements, a foreach atom, or a reconstituted
    /// conditional foreach.
    Slice(CodeBlock),
    /// Filtering-cut condition probe (fills the `__pass` mask).
    Select(CodeBlock),
    /// Guarded body run per passing point, bound to `var`.
    Body { var: String, code: CodeBlock },
}

/// Lower every filter's atoms for the VM path. Pairing logic must match
/// [`FilterStepper::step`]'s interpreter loop so both engines execute the
/// same statements in the same order.
fn lower_filters(
    np: &NormalizedPipeline,
    graph: &BoundaryGraph,
    filters: &[FilterSpec],
) -> LoweredPlan {
    let tp = &np.typed;
    let prog = ProgramCode::lower(tp);
    let class = &np.class;
    let mut steps = Vec::with_capacity(filters.len());
    let mut replicated = Vec::with_capacity(filters.len());
    for f in filters {
        replicated.push(if f.replicated_decls.is_empty() {
            None
        } else {
            Some(prog.lower_slice(tp, class, &f.replicated_decls))
        });
        let mut list = Vec::new();
        let atoms = &f.atoms;
        let mut k = 0usize;
        while k < atoms.len() {
            let a = atoms[k];
            match &graph.atoms[a].code {
                AtomCode::Straight(ss) => {
                    list.push(LoweredStep::Slice(prog.lower_slice(tp, class, ss)));
                }
                AtomCode::Foreach(s) => {
                    list.push(LoweredStep::Slice(prog.lower_slice(
                        tp,
                        class,
                        std::slice::from_ref(s),
                    )));
                }
                AtomCode::CondSelect {
                    var,
                    domain,
                    cond,
                    cond_id,
                } => {
                    let body_here = k + 1 < atoms.len()
                        && matches!(&graph.atoms[atoms[k+1]].code, AtomCode::CondBody { cond_id: c2, .. } if c2 == cond_id);
                    if body_here {
                        let AtomCode::CondBody { body, .. } = &graph.atoms[atoms[k + 1]].code
                        else {
                            unreachable!("checked above");
                        };
                        let merged = reconstitute(var, domain, cond, body);
                        list.push(LoweredStep::Slice(prog.lower_slice(
                            tp,
                            class,
                            std::slice::from_ref(&merged),
                        )));
                        k += 2;
                        continue;
                    }
                    let probe = select_probe(var, domain, cond);
                    list.push(LoweredStep::Select(prog.lower_slice(tp, class, &probe)));
                }
                AtomCode::CondBody { var, body, .. } => {
                    list.push(LoweredStep::Body {
                        var: var.clone(),
                        code: prog.lower_slice(tp, class, &body.stmts),
                    });
                }
            }
            k += 1;
        }
        steps.push(list);
    }
    LoweredPlan {
        prog,
        steps,
        replicated,
    }
}

impl FilterPlan {
    /// Human-readable summary (which atoms run where, what crosses where).
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for f in &self.filters {
            let labels: Vec<&str> = f
                .atoms
                .iter()
                .map(|a| self.graph.atoms[*a].label.as_str())
                .collect();
            let _ = writeln!(
                s,
                "filter {} on C{}: [{}]",
                f.name,
                f.unit + 1,
                labels.join(", ")
            );
        }
        for (l, lay) in self.layouts.iter().enumerate() {
            let places: Vec<String> = lay.entries().map(|e| e.place.to_string()).collect();
            let _ = writeln!(
                s,
                "link L{}: {} {}",
                l + 1,
                places.join(", "),
                if lay.filtered.is_some() {
                    "(filtered)"
                } else {
                    ""
                }
            );
        }
        s
    }
}

/// Build the filter plan for a decomposition over `m` units.
pub fn build_plan(
    np: &NormalizedPipeline,
    graph: &BoundaryGraph,
    analysis: &ChainAnalysis,
    decomposition: &Decomposition,
    m: usize,
) -> CompileResult<FilterPlan> {
    let n_tasks = decomposition.unit_of.len();
    if n_tasks != graph.atoms.len() + 1 {
        return Err(CompileError::new(format!(
            "decomposition covers {} tasks but the chain has {} atoms (+1 virtual source)",
            n_tasks,
            graph.atoms.len()
        )));
    }

    // Atoms per unit (task i ↦ atom i-1).
    let mut filters: Vec<FilterSpec> = (0..m)
        .map(|j| FilterSpec {
            unit: j,
            name: format!("f{}", j + 1),
            atoms: Vec::new(),
            replicated_decls: Vec::new(),
        })
        .collect();
    for (task, &unit) in decomposition.unit_of.iter().enumerate().skip(1) {
        if unit >= m {
            return Err(CompileError::new(
                "assignment references a unit beyond the pipeline",
            ));
        }
        filters[unit].atoms.push(task - 1);
    }

    // Per-filter Cons (for layout first-consumer classification), plus the
    // epilogue's consumption folded into the last filter.
    let mut filter_cons: Vec<PlaceSet> = Vec::with_capacity(m);
    for f in &filters {
        let mut set = PlaceSet::new();
        for &a in &f.atoms {
            set.extend(&analysis.atom_sets[a].cons);
        }
        filter_cons.push(set);
    }
    if let Ok(ep) = crate::gencons::analyze_stmts(np, &np.epilogue) {
        filter_cons[m - 1].extend(&ep.cons);
    }

    // Layouts per link.
    let carried = decomposition.carried_task(m);
    let mut layouts = Vec::with_capacity(m.saturating_sub(1));
    let empty = PlaceSet::new();
    for (l, &t) in carried.iter().enumerate() {
        // t == 0: raw input crosses. t == n+1 (all atoms upstream): nothing
        // crosses per packet — the paper's ReqComm(end) = ∅; results travel
        // through the reduction channel at finalize.
        let set = if t == 0 {
            &analysis.input_set
        } else {
            analysis.reqcomm.get(t - 1).unwrap_or(&empty)
        };
        let filtered = if t >= 1 && t - 1 < graph.atoms.len() {
            match (&graph.boundaries.get(t - 1), &graph.atoms[t - 1].code) {
                (Some(b), AtomCode::CondSelect { cond_id, .. })
                    if b.kind == BoundaryKind::CondFilter =>
                {
                    Some(*cond_id)
                }
                _ => None,
            }
        } else {
            None
        };
        let layout = compute_layout(np, set, &filter_cons[l + 1..], l + 1, filtered)?;
        layouts.push(layout);
    }

    // Replicated allocations: roots a filter's atoms touch that are neither
    // received, locally declared, prologue/extern, nor loop vars.
    let decls = collect_decls(graph);
    for (j, f) in filters.iter_mut().enumerate() {
        let received: HashSet<String> = if j == 0 {
            HashSet::new()
        } else {
            layouts[j - 1]
                .entries()
                .map(|e| e.place.root.clone())
                .collect()
        };
        let mut declared: HashSet<String> = HashSet::new();
        let mut needed: Vec<String> = Vec::new();
        for &a in &f.atoms {
            atom_names(&graph.atoms[a].code, &mut declared, &mut needed);
        }
        for root in needed {
            if received.contains(&root)
                || declared.contains(&root)
                || analysis.prologue_roots.contains(&root)
                || analysis.reduction_roots.contains(&root)
                || np.typed.symbols.externs.contains_key(&root)
                || root == np.pkt_var
            {
                continue;
            }
            if let Some(d) = decls.get(&root) {
                if !f.replicated_decls.iter().any(|s| stmt_declares(s, &root)) {
                    f.replicated_decls.push(d.clone());
                }
            }
        }
    }

    let lowered = Arc::new(lower_filters(np, graph, &filters));
    Ok(FilterPlan {
        np: np.clone(),
        graph: graph.clone(),
        analysis: analysis.clone(),
        decomposition: decomposition.clone(),
        m,
        filters,
        layouts,
        lowered,
    })
}

fn stmt_declares(s: &Stmt, name: &str) -> bool {
    matches!(&s.kind, StmtKind::VarDecl { name: n, .. } if n == name)
}

/// All VarDecl statements in the chain, by name (for replication).
fn collect_decls(graph: &BoundaryGraph) -> HashMap<String, Stmt> {
    let mut out = HashMap::new();
    for atom in &graph.atoms {
        let stmts: Vec<&Stmt> = match &atom.code {
            AtomCode::Straight(ss) => ss.iter().collect(),
            AtomCode::Foreach(s) => vec![s],
            _ => vec![],
        };
        for s in stmts {
            s.visit(&mut |st| {
                if let StmtKind::VarDecl { name, .. } = &st.kind {
                    out.entry(name.clone()).or_insert_with(|| st.clone());
                }
            });
        }
    }
    out
}

/// Collect declared names and used (read or written) roots of an atom.
fn atom_names(code: &AtomCode, declared: &mut HashSet<String>, needed: &mut Vec<String>) {
    fn visit_stmt(s: &Stmt, declared: &mut HashSet<String>, needed: &mut Vec<String>) {
        s.visit(&mut |st| {
            if let StmtKind::VarDecl { name, .. } = &st.kind {
                declared.insert(name.clone());
            }
            if let StmtKind::Foreach { var, .. } = &st.kind {
                declared.insert(var.clone());
            }
            collect_stmt_var_reads(st, needed);
        });
    }
    match code {
        AtomCode::Straight(ss) => {
            for s in ss {
                visit_stmt(s, declared, needed);
            }
        }
        AtomCode::Foreach(s) => visit_stmt(s, declared, needed),
        AtomCode::CondSelect { var, cond, .. } => {
            declared.insert(var.clone());
            collect_expr_vars(cond, needed);
        }
        AtomCode::CondBody { var, body, .. } => {
            declared.insert(var.clone());
            for s in &body.stmts {
                visit_stmt(s, declared, needed);
            }
        }
    }
}

fn collect_stmt_var_reads(s: &Stmt, out: &mut Vec<String>) {
    match &s.kind {
        StmtKind::VarDecl { init: Some(e), .. } => {
            collect_expr_vars(e, out);
        }
        StmtKind::Assign { target, value, .. } => {
            collect_expr_vars(value, out);
            match target {
                LValue::Var(n) => out.push(n.clone()),
                LValue::Field(b, _) => collect_expr_vars(b, out),
                LValue::Index(b, i) => {
                    collect_expr_vars(b, out);
                    collect_expr_vars(i, out);
                }
            }
        }
        StmtKind::If { cond, .. } => collect_expr_vars(cond, out),
        StmtKind::While { cond, .. } => collect_expr_vars(cond, out),
        StmtKind::For { cond: Some(c), .. } => {
            collect_expr_vars(c, out);
        }
        StmtKind::Foreach { domain, .. } => collect_expr_vars(domain, out),
        StmtKind::Return(Some(e)) | StmtKind::Expr(e) => collect_expr_vars(e, out),
        _ => {}
    }
}

fn collect_expr_vars(e: &Expr, out: &mut Vec<String>) {
    match &e.kind {
        ExprKind::Var(n) => out.push(n.clone()),
        ExprKind::Field(b, _) => collect_expr_vars(b, out),
        ExprKind::Index(b, i) => {
            collect_expr_vars(b, out);
            collect_expr_vars(i, out);
        }
        ExprKind::Unary(_, x) => collect_expr_vars(x, out),
        ExprKind::Binary(_, l, r) => {
            collect_expr_vars(l, out);
            collect_expr_vars(r, out);
        }
        ExprKind::Ternary(c, a, b) => {
            collect_expr_vars(c, out);
            collect_expr_vars(a, out);
            collect_expr_vars(b, out);
        }
        ExprKind::Call { recv, args, .. } => {
            if let Some(r) = recv {
                collect_expr_vars(r, out);
            }
            for a in args {
                collect_expr_vars(a, out);
            }
        }
        ExprKind::NewArray(_, len) => collect_expr_vars(len, out),
        ExprKind::DomainLit(lo, hi) => {
            collect_expr_vars(lo, out);
            collect_expr_vars(hi, out);
        }
        _ => {}
    }
}

// ---------------------------------------------------------------------------
// Path-A execution

/// Per-filter execution driver shared by the sequential oracle runner here
/// and the threaded DataCutter executor in `cgp-core`.
pub struct FilterStepper<'p> {
    pub plan: &'p FilterPlan,
    /// Persistent per-filter state (prologue results, reduction copies),
    /// built on first use: a copy that runs one filter builds one state.
    state: Vec<Option<HashMap<String, Value>>>,
    /// Scalar extern config visible to every filter.
    config: HashMap<String, Value>,
    /// Full host bindings (arrays included) — only the source filter sees
    /// these, which keeps the oracle honest about data placement.
    source_env: HashMap<String, Value>,
    /// Execute packet steps on the register VM instead of the tree
    /// walker. Off by default so [`run_plan_sequential`] stays an
    /// independent interpreter-backed oracle; the threaded executor in
    /// `cgp-core` turns it on unless `CGP_NO_VM` says otherwise.
    use_vm: bool,
}

impl<'p> FilterStepper<'p> {
    /// Bind the host's scalar config. Each filter's state comes from the
    /// replicated prologue, run when the filter is first used.
    pub fn new(plan: &'p FilterPlan, host: &HostEnv) -> CompileResult<Self> {
        let tp = &plan.np.typed;
        let mut config = HashMap::new();
        for e in &tp.program.externs {
            let v = host.values.get(&e.name).ok_or_else(|| {
                CompileError::new(format!("extern `{}` not bound by host", e.name))
            })?;
            if !matches!(e.ty, Type::Array(_)) {
                config.insert(e.name.clone(), v.clone());
            }
        }
        Ok(FilterStepper {
            plan,
            state: vec![None; plan.m],
            config,
            source_env: host.values.clone(),
            use_vm: false,
        })
    }

    /// Filter `j`'s persistent state. The first call runs the prologue
    /// against the full host env (the prologue must be cheap and
    /// deterministic — documented).
    fn state(&mut self, j: usize) -> CompileResult<&HashMap<String, Value>> {
        if self.state[j].is_none() {
            let plan = self.plan;
            let mut interp = Interp::new(
                &plan.np.typed,
                HostEnv {
                    values: self.source_env.clone(),
                },
            );
            let mut vars = HashMap::new();
            interp
                .exec_stmts_with_vars(&plan.np.class, &plan.np.prologue, &mut vars)
                .map_err(CompileError::from)?;
            self.state[j] = Some(vars);
        }
        Ok(self.state[j].as_ref().expect("built above"))
    }

    /// Select the packet-step engine: the register VM (`true`) or the
    /// tree-walking interpreter (`false`, the default). Prologue, loop
    /// bounds, reduction merge, and epilogue always use the interpreter —
    /// they run once per unit of work, not per packet.
    pub fn with_vm(mut self, on: bool) -> Self {
        self.use_vm = on;
        self
    }

    /// Evaluate the pipelined loop's domain and packet count using filter
    /// 0's post-prologue state.
    pub fn loop_bounds(&mut self) -> CompileResult<((i64, i64), i64)> {
        let plan = self.plan;
        let tp = &plan.np.typed;
        let mut interp = Interp::new(
            tp,
            HostEnv {
                values: self.source_env.clone(),
            },
        );
        let mut vars = self.state(0)?.clone();
        let mut ids = NodeIdGen::above(&tp.program);
        let probe = vec![
            Stmt::new(
                ids.fresh(),
                Span::synthetic(),
                StmtKind::VarDecl {
                    name: "__dom".into(),
                    ty: Type::RectDomain(1),
                    init: Some(plan.np.domain.clone()),
                },
            ),
            Stmt::new(
                ids.fresh(),
                Span::synthetic(),
                StmtKind::VarDecl {
                    name: "__np".into(),
                    ty: Type::Int,
                    init: Some(plan.np.num_packets.clone()),
                },
            ),
        ];
        interp
            .exec_stmts_with_vars(&plan.np.class, &probe, &mut vars)
            .map_err(CompileError::from)?;
        let Some(Value::Domain(lo, hi)) = vars.get("__dom").cloned() else {
            return Err(CompileError::new("could not evaluate PipelinedLoop domain"));
        };
        let Some(Value::Int(np_)) = vars.get("__np").cloned() else {
            return Err(CompileError::new("could not evaluate num_packets"));
        };
        if np_ <= 0 {
            return Err(CompileError::new("num_packets must be positive"));
        }
        Ok(((lo, hi), np_))
    }

    /// Runtime env for section evaluation (packet + scalar config symbols).
    fn runtime_env(&self, lo: i64, hi: i64) -> RuntimeEnv {
        let mut env = RuntimeEnv::for_packet(&self.plan.np.pkt_var, lo, hi);
        for (k, v) in &self.config {
            if let Value::Int(i) = v {
                env.symbols.insert(k.clone(), *i);
            }
        }
        env
    }

    /// Run filter `j` for packet `(lo, hi)`. `input` is the buffer received
    /// from upstream (`None` for the source filter); the result is the
    /// buffer to send downstream (`None` for the final filter).
    pub fn step(
        &mut self,
        j: usize,
        pkt: (i64, i64),
        input: Option<&[u8]>,
    ) -> CompileResult<Option<Vec<u8>>> {
        if self.use_vm {
            return self.step_vm(j, pkt, input);
        }
        let plan = self.plan;
        let tp = &plan.np.typed;
        let (lo, hi) = pkt;
        let renv = self.runtime_env(lo, hi);

        // Visible globals: full host env at the source, config-only
        // downstream (so a miscompiled plan fails loudly instead of
        // silently reading data it should have received).
        let globals = if j == 0 {
            self.source_env.clone()
        } else {
            self.config.clone()
        };
        let mut interp = Interp::new(tp, HostEnv { values: globals });

        // Packet-local bindings: persistent state + unpacked buffer.
        let mut vars: HashMap<String, Value> = self.state(j)?.clone();
        let mut selection: Option<Vec<i64>> = None;
        if j > 0 {
            let input = input
                .ok_or_else(|| CompileError::new(format!("filter {j} expected an input buffer")))?;
            let un = unpack(&plan.layouts[j - 1], &renv, input)?;
            selection = un.selection;
            for (k, v) in un.vars {
                vars.insert(k, v);
            }
        }
        vars.insert(plan.np.pkt_var.clone(), Value::Domain(lo, hi));
        if j == 0 {
            // The source filter owns the extern data arrays; make them
            // packable/bindable alongside the state.
            for (name, ty) in &tp.symbols.externs {
                if matches!(ty, Type::Array(_)) {
                    if let Some(v) = self.source_env.get(name) {
                        vars.insert(name.clone(), v.clone());
                    }
                }
            }
        }

        // Replicated packet-local allocations.
        let spec = &plan.filters[j];
        if !spec.replicated_decls.is_empty() {
            let decls = spec.replicated_decls.clone();
            interp
                .exec_stmts_with_vars(&plan.np.class, &decls, &mut vars)
                .map_err(CompileError::from)?;
        }

        // Execute atoms.
        let atoms = spec.atoms.clone();
        let mut k = 0usize;
        while k < atoms.len() {
            let a = atoms[k];
            match &plan.graph.atoms[a].code {
                AtomCode::Straight(ss) => {
                    let ss = ss.clone();
                    interp
                        .exec_stmts_with_vars(&plan.np.class, &ss, &mut vars)
                        .map_err(CompileError::from)?;
                }
                AtomCode::Foreach(s) => {
                    let s = s.clone();
                    interp
                        .exec_stmts_with_vars(&plan.np.class, std::slice::from_ref(&s), &mut vars)
                        .map_err(CompileError::from)?;
                }
                AtomCode::CondSelect {
                    var,
                    domain,
                    cond,
                    cond_id,
                } => {
                    // Same-filter body? Reconstitute the conditional foreach.
                    let body_here = k + 1 < atoms.len()
                        && matches!(&plan.graph.atoms[atoms[k+1]].code, AtomCode::CondBody { cond_id: c2, .. } if c2 == cond_id);
                    if body_here {
                        let AtomCode::CondBody { body, .. } = &plan.graph.atoms[atoms[k + 1]].code
                        else {
                            unreachable!("checked above");
                        };
                        let merged = reconstitute(var, domain, cond, body);
                        interp
                            .exec_stmts_with_vars(
                                &plan.np.class,
                                std::slice::from_ref(&merged),
                                &mut vars,
                            )
                            .map_err(CompileError::from)?;
                        k += 2;
                        continue;
                    }
                    // Cut here: evaluate the condition per point, collect
                    // passing absolute indices.
                    let mut passing = Vec::new();
                    let (var, domain, cond) = (var.clone(), domain.clone(), cond.clone());
                    let probe = select_probe(&var, &domain, &cond);
                    let mut pv = vars.clone();
                    interp
                        .exec_stmts_with_vars(&plan.np.class, &probe, &mut pv)
                        .map_err(CompileError::from)?;
                    if let Some(Value::Array(mask)) = pv.get("__pass") {
                        for (off, v) in mask.borrow().iter().enumerate() {
                            if matches!(v, Value::Bool(true)) {
                                passing.push(lo + off as i64);
                            }
                        }
                    }
                    selection = Some(passing);
                }
                AtomCode::CondBody { var, body, .. } => {
                    // Executed for passing points only (received or locally
                    // produced selection).
                    let sel = selection
                        .clone()
                        .ok_or_else(|| CompileError::new("CondBody without a selection list"))?;
                    let var = var.clone();
                    let body = body.clone();
                    for i in sel {
                        vars.insert(var.clone(), Value::Int(i));
                        interp
                            .exec_stmts_with_vars(&plan.np.class, &body.stmts, &mut vars)
                            .map_err(CompileError::from)?;
                    }
                    vars.remove(&var);
                }
            }
            k += 1;
        }

        // Persist reduction-root mutations (Rc-shared, so already visible in
        // state) — nothing to copy back explicitly. Pack for downstream.
        if j < plan.m - 1 {
            let layout = &plan.layouts[j];
            let buf = pack(layout, &vars, &renv, (lo, hi), selection.as_deref())?;
            Ok(Some(buf))
        } else {
            Ok(None)
        }
    }

    /// [`FilterStepper::step`] on the register VM: same globals, same
    /// packet-local bindings, same atom order (via the plan's lowered
    /// step list), same pack/unpack — only the statement executor
    /// changes. Divergence from the interpreter path is a bug; the
    /// differential suites in `cgp-lang` and `cgp-core` enforce that.
    fn step_vm(
        &mut self,
        j: usize,
        pkt: (i64, i64),
        input: Option<&[u8]>,
    ) -> CompileResult<Option<Vec<u8>>> {
        let plan = self.plan;
        let tp = &plan.np.typed;
        let (lo, hi) = pkt;
        let renv = self.runtime_env(lo, hi);
        let lowered = &plan.lowered;

        let globals = if j == 0 {
            self.source_env.clone()
        } else {
            self.config.clone()
        };
        let mut vm = Vm::new(&lowered.prog, HostEnv { values: globals });

        let mut vars: HashMap<String, Value> = self.state(j)?.clone();
        let mut selection: Option<Vec<i64>> = None;
        if j > 0 {
            let input = input
                .ok_or_else(|| CompileError::new(format!("filter {j} expected an input buffer")))?;
            let un = unpack(&plan.layouts[j - 1], &renv, input)?;
            selection = un.selection;
            for (k, v) in un.vars {
                vars.insert(k, v);
            }
        }
        vars.insert(plan.np.pkt_var.clone(), Value::Domain(lo, hi));
        if j == 0 {
            for (name, ty) in &tp.symbols.externs {
                if matches!(ty, Type::Array(_)) {
                    if let Some(v) = self.source_env.get(name) {
                        vars.insert(name.clone(), v.clone());
                    }
                }
            }
        }

        if let Some(code) = &lowered.replicated[j] {
            vm.exec_slice(code, &mut vars).map_err(CompileError::from)?;
        }

        for step in &lowered.steps[j] {
            match step {
                LoweredStep::Slice(code) => {
                    vm.exec_slice(code, &mut vars).map_err(CompileError::from)?;
                }
                LoweredStep::Select(code) => {
                    let mut pv = vars.clone();
                    vm.exec_slice(code, &mut pv).map_err(CompileError::from)?;
                    let mut passing = Vec::new();
                    if let Some(Value::Array(mask)) = pv.get("__pass") {
                        for (off, v) in mask.borrow().iter().enumerate() {
                            if matches!(v, Value::Bool(true)) {
                                passing.push(lo + off as i64);
                            }
                        }
                    }
                    selection = Some(passing);
                }
                LoweredStep::Body { var, code } => {
                    let sel = selection
                        .clone()
                        .ok_or_else(|| CompileError::new("CondBody without a selection list"))?;
                    for i in sel {
                        vars.insert(var.clone(), Value::Int(i));
                        vm.exec_slice(code, &mut vars).map_err(CompileError::from)?;
                    }
                    vars.remove(var);
                }
            }
        }

        if j < plan.m - 1 {
            let layout = &plan.layouts[j];
            let buf = pack(layout, &vars, &renv, (lo, hi), selection.as_deref())?;
            Ok(Some(buf))
        } else {
            Ok(None)
        }
    }

    /// Filter `j`'s reduction-variable bindings (for shipping at
    /// end-of-work in distributed executions).
    pub fn reduction_state(&mut self, j: usize) -> CompileResult<HashMap<String, Value>> {
        let roots = &self.plan.analysis.reduction_roots;
        let state = self.state(j)?;
        Ok(roots
            .iter()
            .filter_map(|r| state.get(r).map(|v| (r.clone(), v.clone())))
            .collect())
    }

    /// Merge an upstream filter's reduction partials into filter `j`'s
    /// copies via each object's `reduce` method.
    pub fn merge_reduction(
        &mut self,
        j: usize,
        partial: &HashMap<String, Value>,
    ) -> CompileResult<()> {
        let tp = &self.plan.np.typed;
        let mut interp = Interp::new(
            tp,
            HostEnv {
                values: self.config.clone(),
            },
        );
        let state = self.state(j)?;
        for (root, part) in partial {
            let Some(Value::Object(own)) = state.get(root).cloned() else {
                continue;
            };
            let class = own.borrow().class.clone();
            interp
                .call_method(&class, "reduce", Some(own), vec![part.clone()])
                .map_err(CompileError::from)?;
        }
        Ok(())
    }

    /// Run the epilogue against filter `j`'s state (after all partials have
    /// been merged into it). Returns the captured `print` output.
    pub fn epilogue_at(&mut self, j: usize) -> CompileResult<Vec<String>> {
        let tp = &self.plan.np.typed;
        let mut interp = Interp::new(
            tp,
            HostEnv {
                values: self.config.clone(),
            },
        );
        let mut vars = self.state(j)?.clone();
        let epi = self.plan.np.epilogue.clone();
        interp
            .exec_stmts_with_vars(&self.plan.np.class, &epi, &mut vars)
            .map_err(CompileError::from)?;
        Ok(interp.output)
    }

    /// Merge reduction copies into the last filter's state and run the
    /// epilogue there. Returns the interpreter's captured `print` output.
    pub fn finalize(&mut self, host: &HostEnv) -> CompileResult<Vec<String>> {
        let plan = self.plan;
        let tp = &plan.np.typed;
        let mut interp = Interp::new(
            tp,
            HostEnv {
                values: host.values.clone(),
            },
        );
        let last = plan.m - 1;
        let red_roots: Vec<String> = plan.analysis.reduction_roots.iter().cloned().collect();
        for root in &red_roots {
            let Some(Value::Object(final_obj)) = self.state(last)?.get(root).cloned() else {
                continue;
            };
            let class = final_obj.borrow().class.clone();
            for j in 0..last {
                if let Some(partial) = self.state(j)?.get(root).cloned() {
                    interp
                        .call_method(&class, "reduce", Some(final_obj.clone()), vec![partial])
                        .map_err(CompileError::from)?;
                }
            }
        }
        let mut vars = self.state(last)?.clone();
        let epi = plan.np.epilogue.clone();
        interp
            .exec_stmts_with_vars(&plan.np.class, &epi, &mut vars)
            .map_err(CompileError::from)?;
        Ok(interp.output)
    }
}

/// `foreach (var in domain) { if (cond) { body } }` — rebuilt when both
/// halves share a filter.
fn reconstitute(var: &str, domain: &Expr, cond: &Expr, body: &Block) -> Stmt {
    let iff = Stmt::new(
        NodeId(u32::MAX - 2),
        Span::synthetic(),
        StmtKind::If {
            cond: cond.clone(),
            then_blk: body.clone(),
            else_blk: None,
        },
    );
    Stmt::new(
        NodeId(u32::MAX - 3),
        Span::synthetic(),
        StmtKind::Foreach {
            var: var.to_string(),
            domain: domain.clone(),
            body: Block::new(vec![iff]),
        },
    )
}

/// Statements computing `__pass[i - domain.lo()] = cond` for every point.
fn select_probe(var: &str, domain: &Expr, cond: &Expr) -> Vec<Stmt> {
    let mk = |kind| Stmt::new(NodeId(u32::MAX - 4), Span::synthetic(), kind);
    let size = Expr::new(
        Span::synthetic(),
        ExprKind::Call {
            recv: Some(Box::new(domain.clone())),
            method: "size".into(),
            args: vec![],
        },
    );
    let lo = Expr::new(
        Span::synthetic(),
        ExprKind::Call {
            recv: Some(Box::new(domain.clone())),
            method: "lo".into(),
            args: vec![],
        },
    );
    let idx = Expr::new(
        Span::synthetic(),
        ExprKind::Binary(
            BinOp::Sub,
            Box::new(Expr::new(Span::synthetic(), ExprKind::Var(var.to_string()))),
            Box::new(lo),
        ),
    );
    vec![
        mk(StmtKind::VarDecl {
            name: "__pass".into(),
            ty: Type::array_of(Type::Bool),
            init: Some(Expr::new(
                Span::synthetic(),
                ExprKind::NewArray(Type::Bool, Box::new(size)),
            )),
        }),
        mk(StmtKind::Foreach {
            var: var.to_string(),
            domain: domain.clone(),
            body: Block::new(vec![mk(StmtKind::Assign {
                target: LValue::Index(
                    Box::new(Expr::new(Span::synthetic(), ExprKind::Var("__pass".into()))),
                    Box::new(idx),
                ),
                op: AssignOp::Set,
                value: cond.clone(),
            })]),
        }),
    ]
}

/// Run the whole plan single-threaded: every packet flows through all
/// filters with real buffer packing between them; reduction merge and
/// epilogue at the end. Returns the captured `print` output (compare with a
/// sequential interpreter run of the same program).
pub fn run_plan_sequential(plan: &FilterPlan, host: &HostEnv) -> CompileResult<Vec<String>> {
    let mut stepper = FilterStepper::new(plan, host)?;
    // Build every filter's state before any packet runs, in filter order,
    // so a prologue never observes an earlier filter's steps.
    for j in 0..plan.m {
        stepper.state(j)?;
    }
    let ((dlo, dhi), n_packets) = stepper.loop_bounds()?;
    for (lo, hi) in split_domain(dlo, dhi, n_packets as usize) {
        let mut buf: Option<Vec<u8>> = None;
        for j in 0..plan.m {
            buf = stepper.step(j, (lo, hi), buf.as_deref())?;
        }
    }
    stepper.finalize(host)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{chain_costs, CostEnv};
    use crate::decompose::{decompose_dp, Problem};
    use crate::graph::build_graph;
    use crate::normalize::normalize;
    use crate::reqcomm::analyze_chain;
    use cgp_lang::frontend;
    use cgp_lang::interp::Interp as SeqInterp;

    /// Compile a source with a fixed decomposition style for `m` units.
    fn make_plan(src: &str, m: usize, decomp: DecompStyle) -> FilterPlan {
        let np = normalize(&frontend(src).unwrap()).unwrap();
        let g = build_graph(&np).unwrap();
        let ca = analyze_chain(&np, &g).unwrap();
        let n_tasks = g.atoms.len() + 1;
        let d = match decomp {
            DecompStyle::Default => Decomposition::default_style(n_tasks, m),
            DecompStyle::Spread => {
                // round-robin-ish monotone split of atoms over units
                let mut unit_of = vec![0usize];
                for i in 0..g.atoms.len() {
                    unit_of.push(((i + 1) * m / n_tasks).min(m - 1));
                }
                Decomposition {
                    unit_of,
                    cost: f64::NAN,
                }
            }
            DecompStyle::Dp => {
                let env = CostEnv::for_packet(64).with_symbol("n", 256);
                let costs = chain_costs(&np, &g, &ca.reqcomm, &env);
                let input_vol = crate::cost::volume_bytes(&np, &ca.input_set, &env, None);
                let problem = Problem::from_chain(&costs, input_vol);
                let penv = crate::cost::PipelineEnv::uniform(m, 1e6, 1e5, 1e-5);
                decompose_dp(&problem, &penv)
            }
        };
        build_plan(&np, &g, &ca, &d, m).unwrap()
    }

    enum DecompStyle {
        Default,
        Spread,
        Dp,
    }

    fn oracle(src: &str, host: &HostEnv) -> Vec<String> {
        let tp = frontend(src).unwrap();
        let mut it = SeqInterp::new(&tp, host.clone());
        it.run_main().unwrap();
        it.output
    }

    const BASE: &str = r#"
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
                        double v = data[i] * 2.0 + 1.0;
                        if (v > 50.0) {
                            acc.add(v);
                        }
                    }
                }
                print(acc.total);
            }
        }
    "#;

    fn base_host(n: i64, num_packets: i64) -> HostEnv {
        let data = Value::array(
            (0..n)
                .map(|i| Value::Double((i * 7 % 100) as f64))
                .collect(),
        );
        HostEnv::new()
            .bind("n", Value::Int(n))
            .bind("num_packets", Value::Int(num_packets))
            .bind("data", data)
    }

    #[test]
    fn plan_structure_covers_all_atoms() {
        let plan = make_plan(BASE, 3, DecompStyle::Spread);
        let total: usize = plan.filters.iter().map(|f| f.atoms.len()).sum();
        assert_eq!(total, plan.graph.atoms.len());
        assert_eq!(plan.layouts.len(), 2);
        assert!(!plan.describe().is_empty());
    }

    #[test]
    fn sequential_plan_matches_oracle_default() {
        let host = base_host(100, 5);
        let plan = make_plan(BASE, 3, DecompStyle::Default);
        let out = run_plan_sequential(&plan, &host).unwrap();
        assert_eq!(out, oracle(BASE, &host));
    }

    #[test]
    fn sequential_plan_matches_oracle_spread() {
        let host = base_host(100, 4);
        let plan = make_plan(BASE, 3, DecompStyle::Spread);
        let out = run_plan_sequential(&plan, &host).unwrap();
        assert_eq!(out, oracle(BASE, &host));
    }

    #[test]
    fn sequential_plan_matches_oracle_dp() {
        let host = base_host(128, 8);
        let plan = make_plan(BASE, 3, DecompStyle::Dp);
        let out = run_plan_sequential(&plan, &host).unwrap();
        assert_eq!(out, oracle(BASE, &host));
    }

    #[test]
    fn works_across_pipeline_sizes_and_packet_counts() {
        for m in 1..=4 {
            for np_ in [1, 3, 7] {
                let host = base_host(64, np_);
                let plan = make_plan(BASE, m, DecompStyle::Spread);
                let out = run_plan_sequential(&plan, &host).unwrap();
                assert_eq!(out, oracle(BASE, &host), "m={m} packets={np_}");
            }
        }
    }

    #[test]
    fn filtering_cut_reduces_buffer_volume() {
        // Compare buffer sizes: a plan cut exactly at the filtering boundary
        // (upstream evaluates the condition) should ship fewer bytes than a
        // plan cutting before the select when selectivity < 1.
        let src = r#"
            extern int n;
            extern double[] data;
            class Acc implements Reducinterface {
                double total;
                void reduce(Acc other) { total = total + other.total; }
                void add(double x) { total = total + x; }
            }
            class A { void main() {
                RectDomain<1> all = [0 : n - 1];
                Acc acc = new Acc();
                PipelinedLoop (pkt in all; 2) {
                    foreach (i in pkt) {
                        double v = data[i];
                        if (v > 90.0) {
                            acc.add(v);
                        }
                    }
                }
                print(acc.total);
            } }
        "#;
        let np = normalize(&frontend(src).unwrap()).unwrap();
        let g = build_graph(&np).unwrap();
        let ca = analyze_chain(&np, &g).unwrap();
        let n_tasks = g.atoms.len() + 1;
        // cond boundary index:
        let (_, cond_b) = g.cond_boundaries[0];
        // Plan A: cut exactly at the filtering boundary (atoms ≤ cond_b on
        // unit 0, rest on unit 1).
        let mut unit_of = vec![0usize; n_tasks];
        for (t, u) in unit_of.iter_mut().enumerate().skip(1) {
            *u = if t - 1 <= cond_b { 0 } else { 1 };
        }
        let plan_a = build_plan(&np, &g, &ca, &Decomposition { unit_of, cost: 0.0 }, 2).unwrap();
        // Plan B: Default (everything downstream).
        let plan_b =
            build_plan(&np, &g, &ca, &Decomposition::default_style(n_tasks, 2), 2).unwrap();

        let host = base_host(100, 1);
        // Run one packet through filter 0 of each plan and compare buffers.
        let mut sa = FilterStepper::new(&plan_a, &host).unwrap();
        let buf_a = sa.step(0, (0, 99), None).unwrap().unwrap();
        let mut sb = FilterStepper::new(&plan_b, &host).unwrap();
        let buf_b = sb.step(0, (0, 99), None).unwrap().unwrap();
        assert!(
            buf_a.len() < buf_b.len() / 2,
            "filtered buffer {} vs raw {}",
            buf_a.len(),
            buf_b.len()
        );
        // And both plans still agree with the oracle.
        assert_eq!(
            run_plan_sequential(&plan_a, &host).unwrap(),
            oracle(src, &host)
        );
        assert_eq!(
            run_plan_sequential(&plan_b, &host).unwrap(),
            oracle(src, &host)
        );
    }

    #[test]
    fn a_filter_builds_its_state_on_first_use() {
        // The prologue bumps a host counter, so each run of it shows.
        let src = BASE
            .replace("extern int n;", "extern int n; extern int[] hits;")
            .replace("Acc acc = new Acc();", "Acc acc = new Acc(); hits[0] += 1;");
        let plan = make_plan(&src, 3, DecompStyle::Default);
        let hits = Value::new_array(1, Value::Int(0));
        let host = base_host(64, 4).bind("hits", hits.clone());
        let count = || match &hits {
            Value::Array(a) => a.borrow().get(0).and_then(Value::as_i64),
            _ => None,
        };
        let mut stepper = FilterStepper::new(&plan, &host).unwrap();
        assert_eq!(count(), Some(0), "construction runs no prologue");
        stepper.loop_bounds().unwrap();
        let buf = stepper.step(0, (0, 15), None).unwrap();
        assert_eq!(
            count(),
            Some(1),
            "the source filter built only its own state"
        );
        stepper.step(1, (0, 15), buf.as_deref()).unwrap();
        let buf = stepper.step(0, (16, 31), None).unwrap();
        stepper.step(1, (16, 31), buf.as_deref()).unwrap();
        assert_eq!(count(), Some(2), "filter 1 built its state once");

        // The sequential runner still builds all three filters' states.
        let out = run_plan_sequential(&plan, &host).unwrap();
        assert_eq!(count(), Some(2 + 3));
        assert_eq!(out, oracle(&src, &host));
    }

    /// [`run_plan_sequential`] with the stepper flipped onto the VM.
    fn run_plan_sequential_vm(plan: &FilterPlan, host: &HostEnv) -> CompileResult<Vec<String>> {
        let mut stepper = FilterStepper::new(plan, host)?.with_vm(true);
        let ((dlo, dhi), n_packets) = stepper.loop_bounds()?;
        for (lo, hi) in split_domain(dlo, dhi, n_packets as usize) {
            let mut buf: Option<Vec<u8>> = None;
            for j in 0..plan.m {
                buf = stepper.step(j, (lo, hi), buf.as_deref())?;
            }
        }
        stepper.finalize(host)
    }

    #[test]
    fn vm_stepper_matches_interpreter_stepper() {
        // Same plan, same packets, both engines — including filtering
        // cuts (Select/Body steps) and reconstituted conditionals.
        for m in 1..=4 {
            for np_ in [1, 3, 7] {
                let host = base_host(64, np_);
                let plan = make_plan(BASE, m, DecompStyle::Spread);
                let vm_out = run_plan_sequential_vm(&plan, &host).unwrap();
                let it_out = run_plan_sequential(&plan, &host).unwrap();
                assert_eq!(vm_out, it_out, "m={m} packets={np_}");
                assert_eq!(vm_out, oracle(BASE, &host), "m={m} packets={np_}");
            }
        }
    }

    #[test]
    fn vm_stepper_handles_filtering_cut_plans() {
        let host = base_host(100, 5);
        let np = normalize(&frontend(BASE).unwrap()).unwrap();
        let g = build_graph(&np).unwrap();
        let ca = analyze_chain(&np, &g).unwrap();
        let n_tasks = g.atoms.len() + 1;
        let (_, cond_b) = g.cond_boundaries[0];
        // Cut exactly at the filtering boundary so the VM executes the
        // Select probe upstream and the guarded Body downstream.
        let mut unit_of = vec![0usize; n_tasks];
        for (t, u) in unit_of.iter_mut().enumerate().skip(1) {
            *u = if t - 1 <= cond_b { 0 } else { 1 };
        }
        let plan = build_plan(&np, &g, &ca, &Decomposition { unit_of, cost: 0.0 }, 2).unwrap();
        assert!(
            plan.lowered
                .steps
                .iter()
                .flatten()
                .any(|s| matches!(s, LoweredStep::Select(_))),
            "this plan must exercise a filtering cut"
        );
        assert_eq!(
            run_plan_sequential_vm(&plan, &host).unwrap(),
            oracle(BASE, &host)
        );
    }

    #[test]
    fn multi_stage_program_with_objects() {
        let src = r#"
            extern int n;
            extern double[] xs;
            runtime_define int num_packets;
            class P { double a; double b; }
            class Stats implements Reducinterface {
                double sum;
                int cnt;
                void reduce(Stats o) { sum = sum + o.sum; cnt = cnt + o.cnt; }
                void push(double v) { sum = sum + v; cnt = cnt + 1; }
            }
            class A {
                double f(double x) { return x * x - 1.0; }
                void main() {
                    RectDomain<1> all = [0 : n - 1];
                    Stats st = new Stats();
                    PipelinedLoop (pkt in all; num_packets) {
                        foreach (i in pkt) {
                            P p = new P();
                            p.a = xs[i];
                            p.b = f(p.a);
                            if (p.b > 0.5) {
                                st.push(p.b - p.a);
                            }
                        }
                    }
                    print(st.sum);
                    print(st.cnt);
                }
            }
        "#;
        let n = 90;
        let xs = Value::array(
            (0..n)
                .map(|i| Value::Double((i % 13) as f64 * 0.31))
                .collect(),
        );
        let host = HostEnv::new()
            .bind("n", Value::Int(n))
            .bind("num_packets", Value::Int(6))
            .bind("xs", xs);
        for m in [2, 3, 4] {
            let plan = make_plan(src, m, DecompStyle::Spread);
            let out = run_plan_sequential(&plan, &host).unwrap();
            assert_eq!(out, oracle(src, &host), "m={m}\n{}", plan.describe());
        }
    }
}
