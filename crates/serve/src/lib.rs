//! `greem_serve`: the simulation-as-a-service layer.
//!
//! Campaigns on machines like K are not run by hand-invoking binaries;
//! they sit behind a scheduler that admits jobs, bounds concurrency,
//! streams progress to watchers and survives node failures. This crate
//! is that layer for the greem stack: a long-running daemon that turns
//! the whole pipeline — simulated MPI world, parallel TreePM driver,
//! fault injection, rollback-restart recovery, metrics, tracing — into
//! a multi-tenant service with an HTTP/1.1 API:
//!
//! | route | what |
//! |---|---|
//! | `POST /jobs` | submit a job (`{"n", "steps", "ranks", "scenario", ...}`); 202 with an id, or 429 + `Retry-After` when the queue is full |
//! | `GET /jobs` | list every job with state and queue depth |
//! | `GET /jobs/:id` | one job's status, config echo, final summary |
//! | `GET /jobs/:id/stream` | chunked NDJSON snapshot stream (`?from=0` replays retained history) |
//! | `GET /metrics` | Prometheus exposition: the shared registry plus live `serve_*` gauges |
//! | `GET /telemetry` | chunked NDJSON feed of job lifecycle events (`?from=N` replays), each `finished` line carrying the mergeable cross-job duration sketch (p50/p95/p99) |
//! | `GET /trace/:id` | Perfetto/Chrome trace JSON of a `"trace": true` job |
//! | `GET /healthz` | liveness |
//! | `POST /shutdown` | graceful drain (same path as SIGTERM in the binary) |
//!
//! The architectural pieces, each its own module:
//!
//! * [`ring`] — single-producer broadcast ring. The simulation never
//!   blocks on a consumer; slow subscribers skip forward with counted
//!   drops; late joiners see the latest snapshot first.
//! * [`http`] — hand-rolled HTTP/1.1 (server + client) on `std::net`.
//!   No async runtime: connections are threads, the bounded resource is
//!   the worker pool.
//! * [`job`] — validated job configs, the snapshot message, and the
//!   executor that runs `ResilientSim` with a per-step publish hook, so
//!   an injected mid-job crash rolls back, re-executes and the stream
//!   *continues* (the rollback counter jumping is the only evidence).
//! * [`server`] — accept loop, worker pool, admission control (429 on a
//!   full queue), per-job trace capture under a process-global gate,
//!   graceful drain.

#![forbid(unsafe_code)]

pub mod http;
pub mod job;
pub mod ring;
pub mod server;

pub use job::{JobConfig, JobSummary, Scenario, SnapshotMsg};
pub use ring::{Broadcast, Recv, RecvTimeoutError, Subscriber};
pub use server::{start, JobState, ServerConfig, ServerHandle};
