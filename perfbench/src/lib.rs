//! The benchmark of `dpsd-serve`: seeded workloads against an
//! in-process server over a loopback socket, one client thread on one
//! keep-alive connection in a closed loop, every answer checked. A
//! traced run replays the same requests through each layer's public
//! calls. See `README.md` next to this package for how to run it.

#![forbid(unsafe_code)]

pub mod bench;
pub mod inputs;
mod speed;
mod stats;
mod trace;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Unique rects: every lookup misses and runs the kernel.
    QueryCold,
    /// Rounds of rebuild, hot swap, Zipf reads that hit the cache,
    /// ingest and JSON publish.
    WriteMix,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::QueryCold, Workload::WriteMix];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::QueryCold => "query_cold",
            Workload::WriteMix => "write_mix",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}
