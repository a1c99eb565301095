//! Correctness smoke matrix: every dialect app at a small size, at the
//! compiler's cut and under the Default placement, on 2 and 3 units, run
//! by the sequential plan runner and by the threaded runtime, each
//! checked against the tree-walking interpreter. Reported, not gated.

use crate::workload::compile_for;
use cgp_compiler::cost::FilterEngine;
use cgp_compiler::{run_plan_sequential, CompileOptions};
use cgp_core::apps::dialect::{
    iso_host_env, knn_host_env, vmscope_host_env, APIX_SRC, KNN_SRC, VMSCOPE_SRC, ZBUF_SRC,
};
use cgp_core::apps::isosurface::ScalarGrid;
use cgp_core::apps::knn::generate_points;
use cgp_core::apps::vmscope::Slide;
use cgp_core::lang::{HostEnv, Interp};
use cgp_core::{run_plan_threaded, HostBuilder, PipelineEnv};
use std::sync::Arc;

struct App {
    name: &'static str,
    src: &'static str,
    host: HostBuilder,
    options: fn(usize) -> CompileOptions,
}

fn apps(seed: u64) -> Vec<App> {
    let grid = Arc::new(ScalarGrid::synthetic(8, 8, 8, seed));
    let iso = {
        let grid = Arc::clone(&grid);
        move || iso_host_env(&grid, 0.8, 16, 4)
    };
    let points = generate_points(300, seed);
    let slide = Slide::synthetic(32, 32, seed);
    let iso_options = |m| {
        CompileOptions::new(PipelineEnv::uniform(m, 1e8, 1e6, 1e-5), 128)
            .with_symbol("ncubes", 343)
            .with_symbol("screen", 16)
            .with_selectivity(0, 0.15)
    };
    vec![
        App {
            name: "zbuf",
            src: ZBUF_SRC,
            host: Arc::new(iso.clone()),
            options: iso_options,
        },
        App {
            name: "apix",
            src: APIX_SRC,
            host: Arc::new(iso),
            options: iso_options,
        },
        App {
            name: "knn",
            src: KNN_SRC,
            host: Arc::new(move || knn_host_env(&points, [0.3, 0.6, 0.2], 3, 6)),
            options: |m| {
                CompileOptions::new(
                    PipelineEnv::uniform(m, FilterEngine::Vm.power(), 1e6, 1e-5),
                    64,
                )
                .with_symbol("npoints", 300)
                .with_symbol("k", 3)
            },
        },
        App {
            name: "vmscope",
            src: VMSCOPE_SRC,
            host: Arc::new(move || vmscope_host_env(&slide, 2, 4)),
            options: |m| {
                CompileOptions::new(
                    PipelineEnv::uniform(m, FilterEngine::Vm.power(), 1e6, 1e-5),
                    8,
                )
                .with_symbol("height", 32)
                .with_symbol("width", 32)
                .with_symbol("subsample", 2)
                .with_selectivity(0, 0.5)
            },
        },
    ]
}

fn oracle(src: &str, host: HostEnv) -> Result<Vec<String>, String> {
    let typed = cgp_core::lang::frontend(src).map_err(|e| format!("frontend: {e:?}"))?;
    let mut interp = Interp::new(&typed, host);
    interp
        .run_main()
        .map_err(|e| format!("interpreter: {e:?}"))?;
    Ok(interp.output)
}

/// Run the matrix, print one line per cell, and return
/// `(cells, failed cells)`.
pub fn run(seed: u64) -> (u64, u64) {
    let (mut cells, mut failed) = (0u64, 0u64);
    for app in apps(seed) {
        let reference = oracle(app.src, (app.host)());
        for default_placement in [false, true] {
            let placement = if default_placement { "default" } else { "cut" };
            for m in [2, 3] {
                let compiled = compile_for(app.src, &(app.options)(m), default_placement);
                for engine in ["sequential", "threaded"] {
                    let out = compiled.as_ref().map_err(Clone::clone).and_then(|c| {
                        if engine == "sequential" {
                            run_plan_sequential(&c.plan, &(app.host)()).map_err(|e| e.to_string())
                        } else {
                            run_plan_threaded(Arc::new(c.plan.clone()), Arc::clone(&app.host), None)
                                .map_err(|e| e.to_string())
                        }
                    });
                    let verdict = match (&out, &reference) {
                        (Ok(o), Ok(r)) if o == r => "ok".to_string(),
                        (Ok(o), Ok(r)) => format!("FAIL: output {o:?} != reference {r:?}"),
                        (Err(e), _) => format!("FAIL: {e}"),
                        (_, Err(e)) => format!("FAIL: {e}"),
                    };
                    cells += 1;
                    if verdict != "ok" {
                        failed += 1;
                    }
                    println!(
                        "smoke  {:<8} {placement:<8} m={m}  {engine:<10} {verdict}",
                        app.name
                    );
                }
            }
        }
    }
    (cells, failed)
}
