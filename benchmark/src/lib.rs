//! The repo's benchmark: four workloads over one rekey interval, end-to-end
//! metrics from the product's own loops, and a per-layer budget measured from
//! outside by timing calls into each layer's public functions. See
//! `README.md` for the workloads, the metrics and how to run them.

pub mod layers;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workload;
