#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! Benchmark crate: the `benches/` targets write the `BENCH_*.json`
//! artifacts at the repo root; `tests/bench_schema.rs` validates them.
