//! One query: a full compiled-pipeline run through the real runtime,
//! either in one process or as one worker per unit over shm rings.

use crate::workload::{Transport, Workload, PID_BENCH, UNITS};
use cgp_core::datacutter::{RunStats, ShmIngress, StageStats, DEFAULT_SHM_CAPACITY, SHM_PREFIX};
use cgp_core::{run_plan_threaded_stats, run_plan_worker_io, ExecOptions, WorkerIngress};
use cgp_obs::trace;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What one query returned.
pub struct Query {
    /// Wall time from the first runtime call to the last join.
    pub wall: f64,
    /// The epilogue output, or the error that ended the query.
    pub output: Result<Vec<String>, String>,
    /// Stats of stage `f{j+1}`, from the process slice that ran it.
    pub stages: Vec<StageStats>,
    /// Longest `RunStats::wall` over the slices.
    pub runtime_wall: f64,
    /// `(frames, bytes)` on the link into unit 1 (shm only).
    pub link1: (u64, u64),
}

/// Where a query's shm ring files go (a directory inside the checkout).
pub struct RingDir {
    dir: PathBuf,
    next: AtomicU64,
}

impl RingDir {
    pub fn new(dir: &Path) -> Result<RingDir, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("ring dir {}: {e}", dir.display()))?;
        let dir = dir
            .canonicalize()
            .map_err(|e| format!("ring dir {}: {e}", dir.display()))?;
        Ok(RingDir {
            dir,
            next: AtomicU64::new(0),
        })
    }

    /// Create the consumer rings of a fresh link; the files go away when
    /// the returned ingress is dropped.
    pub fn create(&self) -> Result<ShmIngress, String> {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let base = self
            .dir
            .join(format!("link-{}-{n}", std::process::id()))
            .display()
            .to_string();
        ShmIngress::create(&base, 1, DEFAULT_SHM_CAPACITY, None).map_err(|e| e.to_string())
    }
}

/// Run one query of `w` over `transport`.
pub fn run(w: &Workload, transport: Transport, rings: &RingDir) -> Query {
    match transport {
        Transport::InProcess => in_process(w),
        Transport::Shm => over_shm(w, rings),
    }
}

fn in_process(w: &Workload) -> Query {
    let _span = trace::span("query", "bench", PID_BENCH, 0);
    let t0 = Instant::now();
    let res = run_plan_threaded_stats(
        Arc::clone(&w.plan),
        Arc::clone(&w.host),
        None,
        &ExecOptions::default(),
    );
    let wall = t0.elapsed().as_secs_f64();
    match res {
        Ok((out, stats)) => Query {
            wall,
            output: Ok(out),
            runtime_wall: stats.wall.as_secs_f64(),
            stages: stats.stages,
            link1: (0, 0),
        },
        Err(e) => failed(wall, e.to_string()),
    }
}

fn over_shm(w: &Workload, rings: &RingDir) -> Query {
    // Ring creation is set-up, timed there; the query starts once the
    // consumer side exists, as it would after a launcher's announce.
    let ingress = match rings.create() {
        Ok(i) => i,
        Err(e) => return failed(0.0, format!("shm ring: {e}")),
    };
    let connect = format!("{SHM_PREFIX}{}", ingress.base());
    let _span = trace::span("query", "bench", PID_BENCH, 0);
    let t0 = Instant::now();
    let opts = ExecOptions::default();
    let results: Vec<_> = std::thread::scope(|s| {
        let mut ingress = Some(WorkerIngress::Shm(ingress));
        let handles: Vec<_> = (0..UNITS)
            .map(|unit| {
                let plan = Arc::clone(&w.plan);
                let host = Arc::clone(&w.host);
                let ingress = if unit > 0 { ingress.take() } else { None };
                let connect = (unit + 1 < UNITS).then(|| connect.clone());
                let opts = &opts;
                s.spawn(move || run_plan_worker_io(plan, host, unit, ingress, connect, None, opts))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(res) => res.map_err(|e| e.to_string()),
                Err(_) => Err("panicked".to_string()),
            })
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut stages = Vec::with_capacity(UNITS);
    let mut runtime_wall = 0.0f64;
    let mut link1 = (0, 0);
    let mut output = Vec::new();
    for (unit, res) in results.into_iter().enumerate() {
        let (out, stats) = match res {
            Ok(r) => r,
            Err(e) => return failed(wall, format!("worker {unit}: {e}")),
        };
        runtime_wall = runtime_wall.max(stats.wall.as_secs_f64());
        stages.push(stage_of(&stats, unit));
        if unit == 1 {
            if let Some((_, l)) = stats.net_links.iter().find(|(link, _)| *link == 1) {
                link1 = (l.frames, l.bytes);
            }
        }
        if unit + 1 == UNITS {
            output = out;
        }
    }
    Query {
        wall,
        output: Ok(output),
        stages,
        runtime_wall,
        link1,
    }
}

fn stage_of(stats: &RunStats, unit: usize) -> StageStats {
    let name = format!("f{}", unit + 1);
    stats
        .stages
        .iter()
        .find(|s| s.name == name)
        .cloned()
        .unwrap_or_default()
}

fn failed(wall: f64, err: String) -> Query {
    Query {
        wall,
        output: Err(err),
        stages: Vec::new(),
        runtime_wall: 0.0,
        link1: (0, 0),
    }
}
