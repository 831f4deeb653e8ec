//! # perfbench — the end-to-end and per-layer benchmark
//!
//! Two closed-loop workloads, one caller on one thread: `sweep-grid` and
//! `sweep-cyclic` run a generated sweep spec through the calls the `sweep`
//! CLI makes with its defaults (dedup on, no cache, one shard, one job):
//! [`anet_sweep::run_shard_to_file_with_opts`], then
//! [`anet_sweep::merge_shard_files`].
//!
//! Every input is a pure function of the workload seed ([`inputs`]); every
//! output is checked against the pinned default-seed outputs or the protocols'
//! own predicates ([`gate`]). See `README.md` beside this crate for why each
//! workload exists and which per-layer metric should move which end-to-end
//! metric.

pub mod gate;
pub mod host;
pub mod inputs;
pub mod report;
pub mod sweep;
