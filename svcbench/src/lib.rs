//! The System R/X service benchmark: three protocol-v2 workloads driven
//! from a closed loop and checked against oracles, plus a traced in-process
//! replay that splits each request kind into its layers.

pub mod bench;
pub mod drive;
pub mod fixture;
pub mod oracle;
pub mod report;
pub mod rng;
pub mod trace;
pub mod workload;
