//! One measured pass over a workload: epochs of set-up and a closed loop
//! of ops for the run's seconds, then the audit.

use std::time::Instant;

use erebor::{MigrationReport, PlatformError};

use crate::inputs::{epoch_seed, Shape, Workload};
use crate::stats::{Digest, Tracer, SETUP_OP};
use crate::world::{self, Probe};

/// Everything one pass measured.
#[derive(Debug)]
pub struct Pass {
    /// Host seconds of each set-up, boot to first op.
    pub setups: Vec<f64>,
    /// Ops run.
    pub attempted: u64,
    /// Ops that failed or returned a wrong reply.
    pub failed: u64,
    /// FNV digest over the simulated epochs' counter deltas and replies.
    pub digest: u64,
    /// Simulated cycles of each sample op in the simulated epochs.
    pub cycles: Vec<u64>,
    /// Whether a timer tick landed during each of those sample ops.
    pub ticked: Vec<bool>,
    /// Counter totals over the simulated epochs (all ops).
    pub totals: Option<Probe>,
    /// Migration accounting summed over the simulated epochs.
    pub migration: MigrationReport,
    /// Host sample ops per second, one per block of `Shape::block_ops`.
    pub block_rates: Vec<f64>,
    /// Host ms of each migration's downtime (all epochs).
    pub downtime_ms: Vec<f64>,
    /// Host seconds spent in ops (set-ups excluded).
    pub measured_s: f64,
    /// The last epoch's platforms passed `Platform::audit`.
    pub audit_clean: bool,
    /// The spans recorded (none when untraced).
    pub tracer: Tracer,
}

impl Pass {
    /// Sample ops in the simulated epochs.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.cycles.len()
    }
}

/// Run epochs of `w` until `shape.sim_epochs` are done and `seconds` of
/// host time have gone into ops, then audit the last epoch's platforms.
/// At least `min_setups` set-ups are timed.
///
/// # Errors
/// A set-up failure.
pub fn pass(
    w: Workload,
    shape: Shape,
    seed: u64,
    seconds: f64,
    trace: bool,
    min_setups: usize,
) -> Result<Pass, PlatformError> {
    let mut tracer = Tracer::new(trace);
    let mut digest = Digest::default();
    let mut out = Pass {
        setups: Vec::new(),
        attempted: 0,
        failed: 0,
        digest: 0,
        cycles: Vec::new(),
        ticked: Vec::new(),
        totals: None,
        migration: MigrationReport::default(),
        block_rates: Vec::new(),
        downtime_ms: Vec::new(),
        measured_s: 0.0,
        audit_clean: false,
        tracer: Tracer::new(false),
    };
    let mut sample_end_s = Vec::new();
    let mut epoch = 0usize;
    let world = loop {
        tracer.op = SETUP_OP;
        let t0 = Instant::now();
        let mut world = world::setup(w, shape, epoch_seed(seed, epoch as u64), &mut tracer)?;
        out.setups.push(t0.elapsed().as_secs_f64());
        let simulated = epoch < shape.sim_epochs;
        let period = world.period();
        let start = Instant::now();
        for i in 0..period {
            tracer.op = (epoch * period + i) as u64;
            let op = tracer.span("op", |t| world.op(i, t));
            let now = out.measured_s + start.elapsed().as_secs_f64();
            out.attempted += 1;
            if !op.ok {
                out.failed += 1;
            }
            if op.sample {
                sample_end_s.push(now);
            }
            if let Some(ns) = op.downtime_ns {
                out.downtime_ms.push(ns as f64 / 1e6);
            }
            if simulated {
                digest.words(&op.delta.sim_words());
                digest.bytes(&op.replies);
                match &mut out.totals {
                    Some(t) => t.add(&op.delta),
                    None => out.totals = Some(op.delta),
                }
                if op.sample {
                    out.cycles.push(op.delta.snap.cycles);
                    out.ticked.push(op.delta.snap.kernel.timer_ticks > 0);
                }
                if let Some(r) = op.migration {
                    let m = &mut out.migration;
                    m.precopy_pages += r.precopy_pages;
                    m.precopy_rounds += r.precopy_rounds;
                    m.stopcopy_pages += r.stopcopy_pages;
                    m.sections += r.sections;
                    m.records_sealed += r.records_sealed;
                }
            }
        }
        out.measured_s += start.elapsed().as_secs_f64();
        epoch += 1;
        if epoch >= shape.sim_epochs && out.measured_s >= seconds {
            break world;
        }
    };
    out.audit_clean = world.audit_clean();
    drop(world);
    while out.setups.len() < min_setups {
        let t0 = Instant::now();
        drop(world::setup(w, shape, seed, &mut Tracer::new(false))?);
        out.setups.push(t0.elapsed().as_secs_f64());
    }
    out.digest = digest.value();
    out.block_rates = block_rates(&sample_end_s, shape.block_ops);
    out.tracer = tracer;
    Ok(out)
}

/// Ops per second of each consecutive block of `block` sample ops, from
/// the host time at which each sample op ended.
#[must_use]
pub fn block_rates(end_s: &[f64], block: usize) -> Vec<f64> {
    let block = block.max(1);
    let mut rates = Vec::new();
    let mut prev = 0.0;
    for chunk in end_s.chunks_exact(block) {
        let last = chunk[block - 1];
        if last > prev {
            rates.push(block as f64 / (last - prev));
        }
        prev = last;
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_rates_use_whole_blocks() {
        let ends = [0.5, 1.0, 1.5, 2.0, 2.25];
        assert_eq!(block_rates(&ends, 2), vec![2.0, 2.0]);
        assert_eq!(block_rates(&ends, 1).len(), 5);
        assert!(block_rates(&[], 3).is_empty());
    }
}
