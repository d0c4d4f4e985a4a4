//! # fork-serve
//!
//! A long-running archive query daemon plus a load generator — the network
//! face of [`fork_query`].
//!
//! The paper's pipeline is *archive then re-analyze*; the ROADMAP
//! north-star is that re-analysis as a **service**: one `fork-served`
//! process opens an archive once (one shared
//! [`ReaderPool`](fork_query::ReaderPool) + frame cache) and multiplexes
//! typed queries from many concurrent clients over a compact
//! length-prefixed wire protocol whose frames are sealed with the sim's
//! own [`fork_net::seal_frame`] integrity checksums — a corrupted frame
//! dies at the transport, exactly as in the simulated gossip layer.
//!
//! The pieces:
//!
//! - [`wire`]: the frame format and payload codec (typed requests,
//!   responses, and errors; total decoding — corrupt input yields typed
//!   errors, never panics).
//! - [`server`]: the daemon core — per-connection backpressure, global
//!   admission control with typed `Overloaded` rejections, read/write
//!   timeouts with idle reaping, graceful draining shutdown, and
//!   per-endpoint `serve.latency.*` histograms behind a `/stats`-style
//!   control request. The observability plane rides here too: per-request
//!   stage tracing (`serve.stage.*` histograms + a bounded slow-query
//!   log), a sampled [`SeriesRing`](fork_telemetry::SeriesRing) of daemon
//!   gauges, and a Prometheus text-exposition `Metrics` endpoint.
//! - [`client`]: a small blocking client (sequential calls or raw
//!   pipelining).
//! - [`load`]: the load generator — hundreds of concurrent connections,
//!   mixed cold/warm workload, client-side p50/p90/p99 via the same
//!   [`HistogramSnapshot`](fork_telemetry::HistogramSnapshot) percentile
//!   path the server's telemetry uses.
//!
//! Binaries: `fork-served` (the daemon) and `fork-load` (the generator,
//! with a `--p99-budget-us` exit-code gate for CI).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod load;
pub mod server;
pub mod wire;

pub use client::{ClientError, ServeClient};
pub use load::{
    run_load, workload_queries, LoadConfig, LoadError, LoadReport, PhaseStats, RETRY_BACKOFF_CAP,
};
pub use server::{
    archive_meta, endpoint_index, lookup_endpoint_index, ServeConfig, ServeError, Server,
    ServerHandle, ENDPOINTS, STAGES,
};
pub use wire::{
    append_frame, append_frame_with, decode_request, decode_response, encode_request,
    encode_request_into, encode_response, encode_response_into, read_frame, write_frame,
    write_frame_with, DecodeError, ErrorKind, FrameError, FrameReader, Request, RequestBody,
    Response, ResponseBody, ServeMeta, SlowQueryRecord, StageBreakdown, WireError, MAX_FRAME_LEN,
};
