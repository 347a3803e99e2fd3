//! The dependency-free [`harness`] behind the `engine` bench, whose
//! reports the `bench_check` binary gates. Every paper figure is
//! reproduced by the `repro` binary of `dctcp-scenario`.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod harness;
pub use harness::Runner;
