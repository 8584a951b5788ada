//! End-to-end and per-layer benchmark of the Erebor request path.
//!
//! One process runs one workload as a closed loop with one request
//! outstanding. The untraced run reports the end-to-end metrics; the
//! traced run wraps every call into a layer in a span and reports the
//! per-layer metrics. `README.md` in this directory lists the workloads,
//! the metrics and which layer metric should move which end-to-end one.

#![forbid(unsafe_code)]

pub mod inputs;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod world;
