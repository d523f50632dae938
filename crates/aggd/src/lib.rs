//! papi-aggd: a multi-tenant counter aggregation daemon.
//!
//! The paper's end-state for hardware counters is not one process reading
//! its own registers — it is a fleet: thousands of monitored sessions
//! streaming counter deltas into a shared service that answers "what is
//! tenant X's FP-op rate, and what does its read-latency tail look like?"
//! This crate is that service, built on the suite's own observability
//! primitives:
//!
//! * **Exactly-once ingestion** ([`tenant`]): every source stream carries
//!   gapless sequence numbers; an IPsec-style anti-replay window detects
//!   duplicates and reordering, so a retried frame is *never* applied
//!   twice and a late frame is applied exactly once.  Counter deltas
//!   commute, which is what makes out-of-order application sound.
//! * **Bounded state** ([`bucket`]): per-series time buckets live in a
//!   fixed ring of windows; lifetime totals are kept separately so window
//!   eviction never corrupts aggregate reconciliation.  Per-tenant frame
//!   quotas backpressure runaway sources.  Nothing is dropped silently:
//!   every shed frame or evicted window increments an `aggd.*` counter in
//!   the daemon's own [`papi_obs`] registry.
//! * **Histograms**: latency distributions travel as sparse
//!   `(bucket, count)` pairs and merge into per-series
//!   [`papi_obs::LogHistogram`]s, so p50/p95/p99 are served without the
//!   daemon ever seeing raw samples.
//! * **Serving surface** ([`server`], [`proto`]): a length-prefixed wire
//!   protocol over a local TCP socket carries both the ingest stream and
//!   queries; scrapes reuse the [`papi_obs::export::exposition`] writer so
//!   the output validates as Prometheus text exposition format.
//!
//! [`workload`] is the correctness harness: a seeded multi-tenant
//! generator whose aggregate totals must reconcile exactly against a
//! sequential replay, including under `fault[chaos]:` substrates.

pub mod aggregator;
pub mod bucket;
pub mod proto;
pub mod push;
pub mod server;
pub mod tenant;
pub mod workload;

pub use aggregator::{AggdConfig, AggdStats, Aggregator, ConnCtx, SeriesQuantiles, SeriesSum};
pub use proto::{Frame, FrameBuf, ProtoError};
pub use push::SnapshotPusher;
pub use server::{AggdClient, AggdServer};
pub use tenant::{IngestOutcome, Tenant};
pub use workload::{
    ingest_bench, reconcile, run_workload, IngestBench, ReconcileReport, WorkloadCfg,
    WorkloadReport,
};
