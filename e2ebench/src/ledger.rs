//! The per-stage ledger: where a query's wall time went, from the
//! runtime's own `RunStats` counters.
//!
//! `StageStats.busy` is a stage thread's wall time inside the filter and
//! includes both waits, so a stage's self time is busy − send wait −
//! recv wait. The query wall splits into the runtime's wall plus the
//! pipeline build and teardown around it; what the busiest stage does
//! not cover of the runtime's wall is reported as unaccounted.

use crate::query::Query;
use crate::stats::median;
use crate::workload::UNITS;

/// Per-query ledger samples; every field holds one value per query.
#[derive(Default)]
pub struct Ledger {
    wall: Vec<f64>,
    self_s: [Vec<f64>; UNITS],
    send_wait_s: [Vec<f64>; UNITS],
    recv_wait_s: [Vec<f64>; UNITS],
    buffers: [Vec<f64>; UNITS],
    bytes: [Vec<f64>; UNITS],
    build_teardown_s: Vec<f64>,
    unaccounted_frac: Vec<f64>,
    pool_hits: u64,
    pool_allocs: u64,
}

/// Medians of one stage's ledger.
pub struct StageLedger {
    pub self_s: f64,
    pub send_wait_s: f64,
    pub recv_wait_s: f64,
    /// Buffers the stage sent (unit 0) or received (unit 1).
    pub buffers: f64,
    /// Bytes in those buffers.
    pub bytes: f64,
}

impl Ledger {
    /// Add a successful query's counters; failed queries carry none.
    pub fn record(&mut self, q: &Query) {
        if q.output.is_err() || q.stages.len() != UNITS {
            return;
        }
        self.wall.push(q.wall);
        self.build_teardown_s.push(q.wall - q.runtime_wall);
        let busiest = q
            .stages
            .iter()
            .map(|s| s.busy.as_secs_f64())
            .fold(0.0, f64::max);
        self.unaccounted_frac
            .push((q.runtime_wall - busiest).max(0.0) / q.wall);
        for (j, st) in q.stages.iter().enumerate() {
            let (buffers, bytes) = if j == 0 {
                (st.buffers_out, st.bytes_out)
            } else {
                (st.buffers_in, st.bytes_in)
            };
            let send = st.blocked_send.as_secs_f64();
            let recv = st.blocked_recv.as_secs_f64();
            self.self_s[j].push(st.busy.as_secs_f64() - send - recv);
            self.send_wait_s[j].push(send);
            self.recv_wait_s[j].push(recv);
            self.buffers[j].push(buffers as f64);
            self.bytes[j].push(bytes as f64);
            self.pool_hits += st.pool_hits;
            self.pool_allocs += st.pool_hits + st.pool_misses;
        }
    }

    pub fn stage(&self, j: usize) -> StageLedger {
        let m = |xs: &[f64]| median(&mut xs.to_vec());
        StageLedger {
            self_s: m(&self.self_s[j]),
            send_wait_s: m(&self.send_wait_s[j]),
            recv_wait_s: m(&self.recv_wait_s[j]),
            buffers: m(&self.buffers[j]),
            bytes: m(&self.bytes[j]),
        }
    }

    pub fn wall(&self) -> f64 {
        median(&mut self.wall.clone())
    }

    pub fn build_teardown_s(&self) -> f64 {
        median(&mut self.build_teardown_s.clone())
    }

    pub fn unaccounted_frac(&self) -> f64 {
        median(&mut self.unaccounted_frac.clone())
    }

    /// Packet allocations served from the buffer pool, over all stages.
    pub fn pool_hit_ratio(&self) -> f64 {
        self.pool_hits as f64 / self.pool_allocs.max(1) as f64
    }

    /// Print the ledger against the query wall.
    pub fn print(&self) {
        let wall = self.wall();
        let pct = |x: f64| 100.0 * x / wall;
        println!(
            "ledger (medians over {} queries; query wall {wall:.6} s):",
            self.wall.len()
        );
        for j in 0..UNITS {
            let s = self.stage(j);
            println!(
                "  f{}  self {:.6} s ({:4.1}%)  send wait {:.6} s ({:4.1}%)  recv wait {:.6} s ({:4.1}%)",
                j + 1,
                s.self_s,
                pct(s.self_s),
                s.send_wait_s,
                pct(s.send_wait_s),
                s.recv_wait_s,
                pct(s.recv_wait_s),
            );
        }
        let bt = self.build_teardown_s();
        println!(
            "  build + teardown {bt:.6} s ({:4.1}%)  unaccounted {:4.1}% of the query wall",
            pct(bt),
            100.0 * self.unaccounted_frac()
        );
    }
}
