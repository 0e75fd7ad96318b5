//! Experiment harness: regenerates every table and figure of the paper's evaluation.
//!
//! | Paper artefact | Module | Command |
//! |---|---|---|
//! | Table I (Algorithm 2 trace) | [`table1`] | `cargo run --release -p bmp-experiments -- table1` |
//! | Figures 1, 2, 5 (running example) | [`paper_figures`] | `cargo run --release -p bmp-experiments -- paper_figures` |
//! | Figures 6, 18, Theorems 6.1/6.3 | [`worst_case`] | `cargo run --release -p bmp-experiments -- worst_case` |
//! | Figure 7 (worst-case ratio grid) | [`fig7`] | `cargo run --release -p bmp-experiments -- fig7` |
//! | Figure 19 (average-case ratios) | [`fig19`] | `cargo run --release -p bmp-experiments -- fig19` |
//!
//! Extension experiments (the future-work directions listed in the paper's conclusion):
//!
//! | Extension | Module | Command |
//! |---|---|---|
//! | Churn: residual throughput and repair quality | [`churn_exp`] | `cargo run --release -p bmp-experiments -- churn` |
//! | Churn: repair-vs-static *delivered* goodput (session engine) | [`sim_churn_exp`] | `cargo run --release -p bmp-experiments -- sim_churn` |
//! | Fault storms: survival/recovery of the hardened repair pipeline | [`fault_storm_exp`] | `cargo run --release -p bmp-experiments -- fault_storm` |
//! | Depth/delay of the produced overlays | [`depth_exp`] | `cargo run --release -p bmp-experiments -- depth` |
//! | Chunk-policy ablation of the data plane | [`policy_exp`] | `cargo run --release -p bmp-experiments -- policies` |
//!
//! Each row is an entry of [`registry::EXPERIMENTS`]; `-- all` runs all ten in table order.
//!
//! Supporting modules: [`stats`] (boxplot summaries), [`csvout`] (CSV output),
//! [`parallel`] (scoped-thread fan-out) and [`runner`] (the command line).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn_exp;
pub mod csvout;
pub mod depth_exp;
pub mod fault_storm_exp;
pub mod fig19;
pub mod fig7;
pub mod paper_figures;
pub mod parallel;
pub mod policy_exp;
pub mod registry;
pub mod runner;
pub mod sim_churn_exp;
pub mod stats;
pub mod table1;
pub mod worst_case;
