//! Per-layer probes: the VM filter body, each filter's stepper and the
//! codec, timed from outside through the layers' public functions and
//! without any transport.

use crate::workload::{Workload, PID_BENCH};
use cgp_compiler::packing::{unpack, RuntimeEnv};
use cgp_compiler::{FilterPlan, FilterStepper};
use cgp_core::lang::{split_domain, HostEnv, Value};
use cgp_obs::trace;
use std::time::Instant;

/// One sweep of each probe.
pub struct LayerTimes {
    /// Domain elements per second through the single-unit filter body.
    pub body_elems_per_s: f64,
    /// Seconds per packet of `FilterStepper::step` for unit 0 and unit 1.
    pub step_s_per_pkt: [f64; 2],
    /// Seconds per packet of `packing::unpack` on unit 0's buffers.
    pub unpack_s_per_pkt: f64,
    /// Bytes unit 0 packs per domain element.
    pub bytes_per_elem: f64,
}

/// The probes of one workload, over its own inputs.
pub struct Probe<'w> {
    w: &'w Workload,
    host: HostEnv,
    single: FilterPlan,
}

impl<'w> Probe<'w> {
    pub fn new(w: &'w Workload) -> Result<Probe<'w>, String> {
        Ok(Probe {
            w,
            host: w.host_env(),
            single: w.single_unit_plan()?,
        })
    }

    pub fn sweep(&self) -> Result<LayerTimes, String> {
        let w = self.w;
        let body = body_sweep(&self.single, &self.host)?;
        let (s1, s2, u, bytes) = split_sweep(&w.plan, &self.host)?;
        let packets = w.packets as f64;
        Ok(LayerTimes {
            body_elems_per_s: w.elems as f64 / body,
            step_s_per_pkt: [s1 / packets, s2 / packets],
            unpack_s_per_pkt: u / packets,
            bytes_per_elem: bytes as f64 / w.elems as f64,
        })
    }
}

/// Seconds for one single-unit sweep of every packet (the body alone).
fn body_sweep(plan: &FilterPlan, host: &HostEnv) -> Result<f64, String> {
    let _span = trace::span("vm.body_sweep", "vm", PID_BENCH, 2);
    let mut stepper = FilterStepper::new(plan, host)
        .map_err(|e| e.to_string())?
        .with_vm(true);
    let ((lo, hi), n_packets) = stepper.loop_bounds().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    for pkt in split_domain(lo, hi, n_packets as usize) {
        let out = stepper.step(0, pkt, None).map_err(|e| e.to_string())?;
        std::hint::black_box(out);
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// One sweep of the two-unit plan with no transport: every packet through
/// unit 0, then every buffer through unit 1, then every buffer through
/// `unpack` alone. Returns `(unit-0 s, unit-1 s, unpack s, bytes packed)`.
fn split_sweep(plan: &FilterPlan, host: &HostEnv) -> Result<(f64, f64, f64, usize), String> {
    let _span = trace::span("stepper.sweep", "stepper", PID_BENCH, 2);
    let mut stepper = FilterStepper::new(plan, host)
        .map_err(|e| e.to_string())?
        .with_vm(true);
    let ((lo, hi), n_packets) = stepper.loop_bounds().map_err(|e| e.to_string())?;
    let packets = split_domain(lo, hi, n_packets as usize);
    let mut bufs = Vec::with_capacity(packets.len());
    let t0 = Instant::now();
    for &pkt in &packets {
        let out = stepper.step(0, pkt, None).map_err(|e| e.to_string())?;
        bufs.push(out.ok_or("unit 0 emitted no buffer")?);
    }
    let s1 = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    for (&pkt, buf) in packets.iter().zip(&bufs) {
        let out = stepper.step(1, pkt, Some(buf)).map_err(|e| e.to_string())?;
        std::hint::black_box(out);
    }
    let s2 = t1.elapsed().as_secs_f64();
    let symbols: Vec<(&String, i64)> = host
        .values
        .iter()
        .filter_map(|(k, v)| match v {
            Value::Int(i) => Some((k, *i)),
            _ => None,
        })
        .collect();
    let envs: Vec<RuntimeEnv> = packets
        .iter()
        .map(|&(plo, phi)| {
            symbols.iter().fold(
                RuntimeEnv::for_packet(&plan.np.pkt_var, plo, phi),
                |env, (k, v)| env.with(k.as_str(), *v),
            )
        })
        .collect();
    let t2 = Instant::now();
    for (env, buf) in envs.iter().zip(&bufs) {
        let un = unpack(&plan.layouts[0], env, buf).map_err(|e| e.to_string())?;
        std::hint::black_box(un);
    }
    let u = t2.elapsed().as_secs_f64();
    Ok((s1, s2, u, bufs.iter().map(Vec::len).sum()))
}
