//! # dpsd-serve — hosting published synopses
//!
//! The paper's end state is a *published* private spatial decomposition
//! that many analysts query without ever touching the raw data. The
//! rest of the workspace builds, releases, and round-trips those
//! synopses; this crate **hosts** them: a multi-tenant, concurrent
//! query server over plain `std::net` — zero dependencies beyond the
//! workspace — speaking a minimal HTTP/1.1 + JSON protocol.
//!
//! Pieces, each its own module:
//!
//! * [`registry`] — named, versioned, `Arc`-shared synopses with
//!   atomic hot-swap on re-publish, accepting both published formats
//!   (JSON synopsis and `dpsd-bin/v1`) in any dimension `1..=4`;
//! * [`cache`] — a sharded read-through LRU keyed on
//!   `(name, version, exact rect bits)`, making cached answers
//!   bit-identical to uncached ones by construction and stale answers
//!   unreachable after a hot swap;
//! * [`http`] / [`client`] — a hardened HTTP/1.1 subset and its
//!   blocking client counterpart;
//! * [`server`] — routing, handlers, keep-alive connection threads;
//!   batch queries dispatch through
//!   [`query_batch_parallel`](dpsd_core::synopsis::ParallelQuery::query_batch_parallel),
//!   so the exec layer's bit-identical sharding guarantee carries all
//!   the way to the wire;
//! * [`metrics`] — per-endpoint counters and log-scale latency
//!   histograms behind `GET /stats`;
//! * [`workload`] — seeded uniform / Zipf-hotspot / cache-busting
//!   query generators shared by the `loadgen` binary and the stress
//!   suites.
//!
//! Binaries: `dpsd-serve` (the server) and `loadgen` (replays seeded
//! workloads against a server, verifies bit-identity against a direct
//! [`ReleasedSynopsis`](dpsd_core::tree::ReleasedSynopsis), and emits
//! a `BENCH_serve.json` in the workspace's criterion-JSON format).
//!
//! ```no_run
//! use dpsd_serve::client::Client;
//! use dpsd_serve::server::{ServeConfig, Server};
//!
//! let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
//! let handle = server.spawn().unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let artifact = std::fs::read_to_string("locations.dpsd.json").unwrap();
//! client.post("/synopses/locations", &artifact).unwrap();
//! let response = client
//!     .post(
//!         "/synopses/locations/query",
//!         r#"{"rect": [-118.0, 33.5, -114.0, 37.5]}"#,
//!     )
//!     .unwrap();
//! println!("{}", response.body);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod error;
pub mod http;
pub mod metrics;
pub mod registry;
pub mod server;
pub mod stream;
pub mod sync;
pub mod workload;

pub use cache::{CacheKey, LruCache, ShardedCache};
pub use client::Client;
pub use error::ServeError;
pub use registry::{AnySynopsis, PublishedSynopsis, SynopsisRegistry};
pub use server::{ServeConfig, Server, ServerHandle};
