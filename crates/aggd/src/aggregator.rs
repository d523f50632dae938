//! The daemon core: tenant table, connection dispatch, queries, scrape.
//!
//! Tenants live in an `RwLock<HashMap>` that the hot path never touches:
//! a connection binds tenant ids once ([`ConnCtx`]) and every subsequent
//! frame dispatches through the connection's `Arc<Tenant>` table — a
//! vector index, no map lookup, no allocation.  The tenant table itself is
//! bounded: registering tenant `max_tenants + 1` evicts the
//! least-recently-active tenant (journaled and counted, never silent).

use crate::proto::{self, Frame, ProtoError};
use crate::tenant::{IngestOutcome, Tenant};
use papi_obs::export::exposition::Exposition;
use papi_obs::json::{FromJson, JsonError, ToJson, Value};
use papi_obs::{Counter, JournalEvent, Obs, ObsHandle};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Daemon shape: window geometry, tenant capacity, quotas.
#[derive(Debug, Clone)]
pub struct AggdConfig {
    /// Virtual-cycle width of one time bucket.
    pub window_cycles: u64,
    /// Live windows retained per series (the ring length).
    pub windows: usize,
    /// Tenant-table capacity; registering beyond it evicts the LRU tenant.
    pub max_tenants: usize,
    /// Frames admitted per tenant per window before backpressure sheds.
    pub frames_per_window_quota: u32,
    /// Journal capacity for tenant lifecycle events (0 disables).
    pub journal_capacity: usize,
}

impl Default for AggdConfig {
    fn default() -> Self {
        AggdConfig {
            window_cycles: 10_000,
            windows: 16,
            max_tenants: 64,
            frames_per_window_quota: u32::MAX,
            journal_capacity: 1024,
        }
    }
}

/// Lifetime + windowed totals for one series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesSum {
    /// Sum of every applied delta ever (eviction-immune).
    pub lifetime: u64,
    /// Sum over the windows still live in the ring.
    pub windowed: u64,
    /// Live `(window_start_cycles, value)` pairs, oldest first.
    pub windows: Vec<(u64, u64)>,
}

/// Histogram serving statistics for one series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesQuantiles {
    /// Recorded values.
    pub count: u64,
    /// Sum of recorded values (bucket-bound approximated).
    pub sum: u64,
    /// Largest recorded value (bucket-bound approximated).
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// Daemon-wide accounting snapshot (from the obs registry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AggdStats {
    /// Frames received (every outcome).
    pub frames_in: u64,
    /// Frames applied exactly once, read through [`AggdStats::applied`].
    applied: u64,
    /// Duplicates / beyond-window frames dropped.
    pub dup_dropped: u64,
    /// Applied frames that arrived out of order.
    pub out_of_order: u64,
    /// Frames shed by per-tenant quotas.
    pub dropped_frames: u64,
    /// Frames for a tenant id not bound on their connection.
    pub unknown_tenant: u64,
    /// Non-empty windows overwritten by newer ones.
    pub evicted_windows: u64,
    /// Applied deltas older than the ring horizon.
    pub stale_windows: u64,
    /// Delta entries referencing unbound series ids.
    pub unknown_series: u64,
    /// Tenants ever registered.
    pub tenants_registered: u64,
    /// Tenants evicted from the table.
    pub tenants_evicted: u64,
    /// Sources closed gaplessly complete.
    pub sources_closed: u64,
    /// Sources closed incomplete (gap or explicit give-up).
    pub sources_incomplete: u64,
    /// Tenants currently resident.
    pub tenants_live: u64,
    /// Series currently resident across tenants.
    pub series_live: u64,
    /// Approximate resident bytes per live tenant.
    pub bytes_per_tenant: u64,
    /// Ingest messages that did not decode (not part of `frames_in`).
    pub malformed_frames: u64,
    /// Messages refused for a length prefix above
    /// [`proto::MAX_FRAME`]; each closed its connection (not part of
    /// `frames_in`).
    pub oversize_frames: u64,
}

impl AggdStats {
    /// Frames applied exactly once.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// The zero-silent-drop identity over the whole daemon: every decoded
    /// frame was applied, dropped as a duplicate, shed by a quota or
    /// refused for an unbound tenant, each counted where it happened.
    /// Messages that never decoded are counted apart, in
    /// `malformed_frames` and `oversize_frames`.  The counters are read
    /// one by one, so only a snapshot taken while no frame is in flight is
    /// sure to hold it.
    pub fn accounted(&self) -> bool {
        self.frames_in
            == self.applied + self.dup_dropped + self.dropped_frames + self.unknown_tenant
    }
}

/// The flat `{"aggd.<name>": u64, ...}` object of [`Aggregator::stats_json`].
impl ToJson for AggdStats {
    fn to_json(&self) -> Value {
        Value::object(
            [
                ("aggd.frames_in", self.frames_in),
                ("aggd.applied", self.applied()),
                ("aggd.dup_dropped", self.dup_dropped),
                ("aggd.out_of_order", self.out_of_order),
                ("aggd.dropped_frames", self.dropped_frames),
                ("aggd.unknown_tenant", self.unknown_tenant),
                ("aggd.evicted_windows", self.evicted_windows),
                ("aggd.stale_windows", self.stale_windows),
                ("aggd.unknown_series", self.unknown_series),
                ("aggd.tenants_registered", self.tenants_registered),
                ("aggd.tenants_evicted", self.tenants_evicted),
                ("aggd.sources_closed", self.sources_closed),
                ("aggd.sources_incomplete", self.sources_incomplete),
                ("aggd.tenants_live", self.tenants_live),
                ("aggd.series_live", self.series_live),
                ("aggd.bytes_per_tenant", self.bytes_per_tenant),
                ("aggd.malformed_frames", self.malformed_frames),
                ("aggd.oversize_frames", self.oversize_frames),
            ]
            .map(|(k, v)| (k, v.to_json())),
        )
    }
}

impl FromJson for AggdStats {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(AggdStats {
            frames_in: v.field("aggd.frames_in")?,
            applied: v.field("aggd.applied")?,
            dup_dropped: v.field("aggd.dup_dropped")?,
            out_of_order: v.field("aggd.out_of_order")?,
            dropped_frames: v.field("aggd.dropped_frames")?,
            unknown_tenant: v.field("aggd.unknown_tenant")?,
            evicted_windows: v.field("aggd.evicted_windows")?,
            stale_windows: v.field("aggd.stale_windows")?,
            unknown_series: v.field("aggd.unknown_series")?,
            tenants_registered: v.field("aggd.tenants_registered")?,
            tenants_evicted: v.field("aggd.tenants_evicted")?,
            sources_closed: v.field("aggd.sources_closed")?,
            sources_incomplete: v.field("aggd.sources_incomplete")?,
            tenants_live: v.field("aggd.tenants_live")?,
            series_live: v.field("aggd.series_live")?,
            bytes_per_tenant: v.field("aggd.bytes_per_tenant")?,
            malformed_frames: v.field("aggd.malformed_frames")?,
            oversize_frames: v.field("aggd.oversize_frames")?,
        })
    }
}

/// Per-connection binding table: tenant ids and series ids are
/// connection-local, resolved once at bind time so the frame hot path is
/// an index into these vectors.
#[derive(Debug, Default)]
pub struct ConnCtx {
    tenants: Vec<Option<ConnTenant>>,
}

#[derive(Debug)]
struct ConnTenant {
    tenant: Arc<Tenant>,
    /// Connection-local sid -> tenant series index.
    sids: Vec<u16>,
}

impl ConnCtx {
    /// An empty binding table.
    pub fn new() -> Self {
        ConnCtx::default()
    }

    fn bind(&mut self, tid: u16, tenant: Arc<Tenant>) {
        let idx = tid as usize;
        if self.tenants.len() <= idx {
            self.tenants.resize_with(idx + 1, || None);
        }
        self.tenants[idx] = Some(ConnTenant {
            tenant,
            sids: Vec::new(),
        });
    }

    fn tenant(&self, tid: u16) -> Option<&ConnTenant> {
        self.tenants.get(tid as usize)?.as_ref()
    }
}

/// The aggregation daemon core (transport-independent; [`crate::server`]
/// puts it behind a socket).
pub struct Aggregator {
    cfg: AggdConfig,
    obs: ObsHandle,
    tenants: RwLock<HashMap<String, Arc<Tenant>>>,
    /// Logical activity clock for LRU tenant eviction.
    activity: AtomicU64,
}

impl Aggregator {
    /// A fresh daemon with `cfg`'s shape.
    pub fn new(cfg: AggdConfig) -> Aggregator {
        let obs = Obs::new();
        if cfg.journal_capacity > 0 {
            obs.enable_journal(cfg.journal_capacity);
        }
        Aggregator {
            cfg,
            obs,
            tenants: RwLock::new(HashMap::new()),
            activity: AtomicU64::new(0),
        }
    }

    /// The daemon's own observability registry (`aggd.*` counters and the
    /// tenant-lifecycle journal live here).
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// The configured shape.
    pub fn config(&self) -> &AggdConfig {
        &self.cfg
    }

    /// Register (or look up) a tenant.  At capacity, the
    /// least-recently-active tenant is evicted first — journaled and
    /// counted, never silent.
    pub fn bind_tenant(&self, name: &str) -> Arc<Tenant> {
        if let Some(t) = self.tenants.read().unwrap().get(name) {
            return Arc::clone(t);
        }
        let mut map = self.tenants.write().unwrap();
        if let Some(t) = map.get(name) {
            return Arc::clone(t);
        }
        if map.len() >= self.cfg.max_tenants {
            if let Some(lru) = map
                .values()
                .min_by_key(|t| t.last_active.load(Ordering::Relaxed))
                .map(|t| t.name().to_string())
            {
                map.remove(&lru);
                self.obs.inc(Counter::AggdTenantsEvicted);
                self.obs.record(self.activity.load(Ordering::Relaxed), || {
                    JournalEvent::TenantEvicted {
                        tenant: lru.clone(),
                        reason: "capacity",
                    }
                });
            }
        }
        let t = Arc::new(Tenant::new(
            name,
            self.cfg.window_cycles,
            self.cfg.windows,
            self.cfg.frames_per_window_quota,
        ));
        t.last_active.store(
            self.activity.fetch_add(1, Ordering::Relaxed),
            Ordering::Relaxed,
        );
        map.insert(name.to_string(), Arc::clone(&t));
        self.obs.inc(Counter::AggdTenantsRegistered);
        self.obs.record(self.activity.load(Ordering::Relaxed), || {
            JournalEvent::TenantRegistered {
                tenant: name.to_string(),
            }
        });
        t
    }

    /// Explicitly evict a tenant; `true` if it was resident.
    pub fn evict_tenant(&self, name: &str) -> bool {
        let removed = self.tenants.write().unwrap().remove(name).is_some();
        if removed {
            self.obs.inc(Counter::AggdTenantsEvicted);
            self.obs.record(self.activity.load(Ordering::Relaxed), || {
                JournalEvent::TenantEvicted {
                    tenant: name.to_string(),
                    reason: "explicit",
                }
            });
        }
        removed
    }

    /// Look up a resident tenant.
    pub fn tenant(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants.read().unwrap().get(name).map(Arc::clone)
    }

    /// Number of resident tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.read().unwrap().len()
    }

    /// Apply one decoded ingest frame through a connection's bindings.
    ///
    /// Steady-state (`Snapshot`/`Hist` with everything bound) performs
    /// zero heap allocations.
    pub fn apply(&self, ctx: &mut ConnCtx, frame: &Frame<'_>) -> IngestOutcome {
        match frame {
            Frame::BindTenant { tid, name } => {
                let t = self.bind_tenant(name);
                ctx.bind(*tid, t);
                IngestOutcome::Applied
            }
            Frame::RegSeries { tid, sid, name } => {
                let Some(ct) = ctx.tenants.get_mut(*tid as usize).and_then(|t| t.as_mut()) else {
                    self.obs.inc(Counter::AggdUnknownSeries);
                    return self.unknown_tenant();
                };
                let idx = ct
                    .tenant
                    .register_series(name, self.cfg.window_cycles, self.cfg.windows);
                let slot = *sid as usize;
                if ct.sids.len() <= slot {
                    ct.sids.resize(slot + 1, u16::MAX);
                }
                ct.sids[slot] = idx;
                IngestOutcome::Applied
            }
            Frame::Snapshot {
                tid,
                source,
                seq,
                cycles,
                deltas,
            } => {
                let Some(ct) = ctx.tenant(*tid) else {
                    return self.unknown_tenant();
                };
                ct.tenant.last_active.store(
                    self.activity.fetch_add(1, Ordering::Relaxed),
                    Ordering::Relaxed,
                );
                ct.tenant
                    .ingest_snapshot(&self.obs, *source, *seq, *cycles, *deltas, &ct.sids)
            }
            Frame::Hist {
                tid,
                sid,
                source,
                seq,
                cycles,
                buckets,
            } => {
                let Some(ct) = ctx.tenant(*tid) else {
                    return self.unknown_tenant();
                };
                ct.tenant.last_active.store(
                    self.activity.fetch_add(1, Ordering::Relaxed),
                    Ordering::Relaxed,
                );
                ct.tenant
                    .ingest_hist(&self.obs, *source, *seq, *cycles, *sid, *buckets, &ct.sids)
            }
            Frame::CloseSource {
                tid,
                source,
                frames_sent,
                complete,
            } => {
                let Some(ct) = ctx.tenant(*tid) else {
                    return self.unknown_tenant();
                };
                ct.tenant
                    .close_source(&self.obs, *source, *frames_sent, *complete);
                IngestOutcome::Applied
            }
            Frame::Flush => IngestOutcome::Applied,
        }
    }

    /// Count a frame whose tenant id is not bound on its connection.
    fn unknown_tenant(&self) -> IngestOutcome {
        self.obs.inc(Counter::AggdFramesIn);
        self.obs.inc(Counter::AggdUnknownTenant);
        IngestOutcome::UnknownTenant
    }

    /// Decode and apply one ingest payload (server receive path).  A
    /// payload that does not decode is counted in
    /// `aggd.malformed_frames` and changes nothing else.
    pub fn ingest(&self, ctx: &mut ConnCtx, payload: &[u8]) -> Result<IngestOutcome, ProtoError> {
        match proto::decode(payload) {
            Ok(frame) => Ok(self.apply(ctx, &frame)),
            Err(e) => {
                self.obs.inc(Counter::AggdMalformedFrames);
                Err(e)
            }
        }
    }

    /// Lifetime/windowed totals for one series.
    pub fn query_sum(&self, tenant: &str, series: &str) -> Option<SeriesSum> {
        self.tenant(tenant)?
            .with_series(series, |ring, _| SeriesSum {
                lifetime: ring.lifetime_total(),
                windowed: ring.windowed_total(),
                windows: ring.windows(),
            })
    }

    /// Latency quantiles for one series.
    pub fn query_quantiles(&self, tenant: &str, series: &str) -> Option<SeriesQuantiles> {
        self.tenant(tenant)?.with_series(series, |_, hist| {
            let s = hist.snapshot();
            SeriesQuantiles {
                count: s.count,
                sum: s.sum,
                max: s.max,
                p50: s.quantile(0.50),
                p95: s.quantile(0.95),
                p99: s.quantile(0.99),
            }
        })
    }

    /// Daemon-wide accounting.
    pub fn stats(&self) -> AggdStats {
        let map = self.tenants.read().unwrap();
        let tenants_live = map.len() as u64;
        let series_live: u64 = map.values().map(|t| t.series_count() as u64).sum();
        let bytes: u64 = map.values().map(|t| t.approx_bytes() as u64).sum();
        AggdStats {
            frames_in: self.obs.get(Counter::AggdFramesIn),
            applied: self.obs.get(Counter::AggdApplied),
            dup_dropped: self.obs.get(Counter::AggdDupDropped),
            out_of_order: self.obs.get(Counter::AggdOutOfOrder),
            dropped_frames: self.obs.get(Counter::AggdDroppedFrames),
            unknown_tenant: self.obs.get(Counter::AggdUnknownTenant),
            evicted_windows: self.obs.get(Counter::AggdEvictedWindows),
            stale_windows: self.obs.get(Counter::AggdStaleWindows),
            unknown_series: self.obs.get(Counter::AggdUnknownSeries),
            tenants_registered: self.obs.get(Counter::AggdTenantsRegistered),
            tenants_evicted: self.obs.get(Counter::AggdTenantsEvicted),
            sources_closed: self.obs.get(Counter::AggdSourcesClosed),
            sources_incomplete: self.obs.get(Counter::AggdSourcesIncomplete),
            tenants_live,
            series_live,
            bytes_per_tenant: bytes.checked_div(tenants_live).unwrap_or(0),
            malformed_frames: self.obs.get(Counter::AggdMalformedFrames),
            oversize_frames: self.obs.get(Counter::AggdOversizeFrames),
        }
    }

    /// Flat JSON of [`AggdStats`] (read back with
    /// [`papi_obs::json::from_str`]).
    pub fn stats_json(&self) -> String {
        self.stats().to_json().to_compact()
    }

    /// Full Prometheus text-exposition scrape: per-series totals, live
    /// window sums, latency summaries, and the daemon's own accounting.
    /// The output validates under
    /// [`papi_obs::export::exposition::validate`].
    pub fn scrape(&self) -> String {
        struct Row {
            tenant: String,
            series: String,
            lifetime: u64,
            windowed: u64,
            q: Option<SeriesQuantiles>,
        }
        let mut rows: Vec<Row> = Vec::new();
        {
            let map = self.tenants.read().unwrap();
            let mut names: Vec<&String> = map.keys().collect();
            names.sort();
            for name in names {
                let t = &map[name];
                t.visit_series(|series, ring, hist| {
                    let s = hist.snapshot();
                    rows.push(Row {
                        tenant: name.clone(),
                        series: series.to_string(),
                        lifetime: ring.lifetime_total(),
                        windowed: ring.windowed_total(),
                        q: if s.count > 0 {
                            Some(SeriesQuantiles {
                                count: s.count,
                                sum: s.sum,
                                max: s.max,
                                p50: s.quantile(0.50),
                                p95: s.quantile(0.95),
                                p99: s.quantile(0.99),
                            })
                        } else {
                            None
                        },
                    });
                });
            }
        }
        let mut e = Exposition::new();
        e.family(
            "papi_aggd_series_total",
            "Lifetime sum of applied counter deltas per series",
            "counter",
        );
        for r in &rows {
            e.sample(
                "papi_aggd_series_total",
                &[("tenant", &r.tenant), ("series", &r.series)],
                r.lifetime,
            );
        }
        e.family(
            "papi_aggd_series_window",
            "Sum over the live time windows per series",
            "gauge",
        );
        for r in &rows {
            e.sample(
                "papi_aggd_series_window",
                &[("tenant", &r.tenant), ("series", &r.series)],
                r.windowed,
            );
        }
        e.family(
            "papi_aggd_latency",
            "Merged latency distribution per series (bucket upper bounds)",
            "summary",
        );
        for r in &rows {
            let Some(q) = r.q else { continue };
            for (label, v) in [("0.5", q.p50), ("0.95", q.p95), ("0.99", q.p99)] {
                e.sample(
                    "papi_aggd_latency",
                    &[
                        ("tenant", &r.tenant),
                        ("series", &r.series),
                        ("quantile", label),
                    ],
                    v,
                );
            }
            e.sample(
                "papi_aggd_latency_sum",
                &[("tenant", &r.tenant), ("series", &r.series)],
                q.sum,
            );
            e.sample(
                "papi_aggd_latency_count",
                &[("tenant", &r.tenant), ("series", &r.series)],
                q.count,
            );
        }
        let s = self.stats();
        e.family(
            "papi_aggd_self",
            "Aggregation daemon self-accounting",
            "counter",
        );
        for (name, v) in [
            ("frames_in", s.frames_in),
            ("dup_dropped", s.dup_dropped),
            ("out_of_order", s.out_of_order),
            ("dropped_frames", s.dropped_frames),
            ("evicted_windows", s.evicted_windows),
            ("stale_windows", s.stale_windows),
            ("unknown_series", s.unknown_series),
            ("tenants_registered", s.tenants_registered),
            ("tenants_evicted", s.tenants_evicted),
            ("sources_closed", s.sources_closed),
            ("sources_incomplete", s.sources_incomplete),
        ] {
            e.sample("papi_aggd_self", &[("counter", name)], v);
        }
        e.family("papi_aggd_tenants", "Resident tenants", "gauge");
        e.sample("papi_aggd_tenants", &[], s.tenants_live);
        e.finish()
    }

    /// Serve one query payload; the response (status byte + body) is
    /// appended to `out`.
    pub fn serve_query(&self, payload: &[u8], out: &mut Vec<u8>) {
        let Some(&op) = payload.first() else {
            out.push(proto::STATUS_BAD_REQUEST);
            return;
        };
        match op {
            proto::OP_QUERY_SERIES | proto::OP_QUERY_SUM => {
                let Ok((_, tenant, series)) = proto::decode_query(payload) else {
                    out.push(proto::STATUS_BAD_REQUEST);
                    return;
                };
                match self.query_sum(tenant, series) {
                    None => out.push(proto::STATUS_NOT_FOUND),
                    Some(sum) => {
                        out.push(proto::STATUS_OK);
                        out.extend_from_slice(&sum.lifetime.to_le_bytes());
                        out.extend_from_slice(&sum.windowed.to_le_bytes());
                        out.extend_from_slice(&(sum.windows.len() as u32).to_le_bytes());
                        if op == proto::OP_QUERY_SERIES {
                            for (w, v) in &sum.windows {
                                out.extend_from_slice(&w.to_le_bytes());
                                out.extend_from_slice(&v.to_le_bytes());
                            }
                        }
                    }
                }
            }
            proto::OP_QUERY_QUANTILES => {
                let Ok((_, tenant, series)) = proto::decode_query(payload) else {
                    out.push(proto::STATUS_BAD_REQUEST);
                    return;
                };
                match self.query_quantiles(tenant, series) {
                    None => out.push(proto::STATUS_NOT_FOUND),
                    Some(q) => {
                        out.push(proto::STATUS_OK);
                        for v in [q.count, q.sum, q.max, q.p50, q.p95, q.p99] {
                            out.extend_from_slice(&v.to_le_bytes());
                        }
                    }
                }
            }
            proto::OP_SCRAPE => {
                out.push(proto::STATUS_OK);
                out.extend_from_slice(self.scrape().as_bytes());
            }
            proto::OP_STATS => {
                out.push(proto::STATUS_OK);
                out.extend_from_slice(self.stats_json().as_bytes());
            }
            _ => out.push(proto::STATUS_BAD_REQUEST),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::FrameBuf;

    fn ingest_msg(agg: &Aggregator, ctx: &mut ConnCtx, msg: &[u8]) -> IngestOutcome {
        agg.ingest(ctx, &msg[4..]).unwrap()
    }

    #[test]
    fn bind_register_ingest_query() {
        let agg = Aggregator::new(AggdConfig::default());
        let mut ctx = ConnCtx::new();
        let mut fb = FrameBuf::new();
        let msg = fb.bind_tenant(0, "web").to_vec();
        ingest_msg(&agg, &mut ctx, &msg);
        let msg = fb.reg_series(0, 0, "papi.tot_ins").to_vec();
        ingest_msg(&agg, &mut ctx, &msg);
        let msg = fb.snapshot(0, 1, 0, 5_000, &[(0, 123)]).to_vec();
        assert_eq!(ingest_msg(&agg, &mut ctx, &msg), IngestOutcome::Applied);
        let sum = agg.query_sum("web", "papi.tot_ins").unwrap();
        assert_eq!(sum.lifetime, 123);
        assert_eq!(sum.windows, vec![(0, 123)]);
        assert!(agg.query_sum("web", "nope").is_none());
        assert!(agg.query_sum("nope", "papi.tot_ins").is_none());
    }

    #[test]
    fn tenant_capacity_evicts_lru_and_journals() {
        let cfg = AggdConfig {
            max_tenants: 2,
            ..AggdConfig::default()
        };
        let agg = Aggregator::new(cfg);
        agg.bind_tenant("a");
        agg.bind_tenant("b");
        // Touch "a" so "b" is LRU.
        let mut ctx = ConnCtx::new();
        let mut fb = FrameBuf::new();
        let msg = fb.bind_tenant(0, "a").to_vec();
        ingest_msg(&agg, &mut ctx, &msg);
        let msg = fb.reg_series(0, 0, "s").to_vec();
        ingest_msg(&agg, &mut ctx, &msg);
        let msg = fb.snapshot(0, 1, 0, 10, &[(0, 1)]).to_vec();
        ingest_msg(&agg, &mut ctx, &msg);
        agg.bind_tenant("c");
        assert_eq!(agg.tenant_count(), 2);
        assert!(agg.tenant("a").is_some());
        assert!(agg.tenant("b").is_none(), "LRU tenant b evicted");
        assert!(agg.tenant("c").is_some());
        let stats = agg.stats();
        assert_eq!(stats.tenants_registered, 3);
        assert_eq!(stats.tenants_evicted, 1);
        let kinds: Vec<&str> = agg
            .obs()
            .journal_records()
            .iter()
            .map(|r| r.event.kind())
            .collect();
        assert!(kinds.contains(&"obs.tenant_registered"));
        assert!(kinds.contains(&"obs.tenant_evicted"));
    }

    #[test]
    fn scrape_is_valid_exposition() {
        let agg = Aggregator::new(AggdConfig::default());
        let mut ctx = ConnCtx::new();
        let mut fb = FrameBuf::new();
        for m in [
            fb.bind_tenant(0, "web \"prod\"\n").to_vec(),
            fb.reg_series(0, 0, "papi.tot_ins").to_vec(),
            fb.snapshot(0, 1, 0, 100, &[(0, 9)]).to_vec(),
            fb.hist(0, 0, 1, 1, 100, &[(4, 2), (9, 1)]).to_vec(),
        ] {
            ingest_msg(&agg, &mut ctx, &m);
        }
        let text = agg.scrape();
        papi_obs::export::exposition::validate(&text)
            .unwrap_or_else(|e| panic!("invalid scrape: {e}\n{text}"));
        assert!(text.contains("papi_aggd_series_total"));
        assert!(text.contains(r#"tenant="web \"prod\"\n""#));
        assert!(text.contains("quantile=\"0.99\""));
        assert!(text.contains("papi_aggd_self{counter=\"frames_in\"} 2"));
    }

    #[test]
    fn stats_json_roundtrips_through_reader() {
        let agg = Aggregator::new(AggdConfig::default());
        let mut ctx = ConnCtx::new();
        let mut fb = FrameBuf::new();
        for m in [
            fb.bind_tenant(0, "t").to_vec(),
            fb.reg_series(0, 0, "s").to_vec(),
            fb.snapshot(0, 1, 0, 10, &[(0, 1)]).to_vec(),
            fb.snapshot(0, 1, 0, 10, &[(0, 1)]).to_vec(),
        ] {
            ingest_msg(&agg, &mut ctx, &m);
        }
        let back: AggdStats = papi_obs::json::from_str(&agg.stats_json()).unwrap();
        assert_eq!(back, agg.stats());
        assert_eq!(back.frames_in, 2);
        assert_eq!(back.dup_dropped, 1);
        assert_eq!(back.tenants_live, 1);
        assert!(back.bytes_per_tenant > 0);
    }

    /// 10^5 served sessions, each a frame and a close, with source ids
    /// strided by the tenant count: the tenants keep a bit per session,
    /// where a full anti-replay window each would reach ~800 KB.
    #[test]
    fn closed_sessions_keep_tenant_memory_small() {
        const TENANTS: u64 = 8;
        let agg = Aggregator::new(AggdConfig::default());
        let mut ctx = ConnCtx::new();
        let mut fb = FrameBuf::new();
        for t in 0..TENANTS as u16 {
            ingest_msg(&agg, &mut ctx, fb.bind_tenant(t, &format!("t{t}")));
            ingest_msg(&agg, &mut ctx, fb.reg_series(t, 0, "s"));
        }
        for source in 0..100_000u64 {
            let tid = (source % TENANTS) as u16;
            ingest_msg(&agg, &mut ctx, fb.snapshot(tid, source, 0, 10, &[(0, 1)]));
            ingest_msg(&agg, &mut ctx, fb.close_source(tid, source, 1, true));
        }
        let st = agg.stats();
        assert_eq!(st.sources_closed, 100_000);
        assert_eq!(st.applied(), 100_000);
        assert!(
            st.bytes_per_tenant < 64 * 1024,
            "{} B per tenant",
            st.bytes_per_tenant
        );
    }

    #[test]
    fn unknown_tenant_is_counted_not_panicked() {
        let agg = Aggregator::new(AggdConfig::default());
        let mut ctx = ConnCtx::new();
        let mut fb = FrameBuf::new();
        let msg = fb.snapshot(9, 1, 0, 10, &[(0, 1)]).to_vec();
        assert_eq!(
            ingest_msg(&agg, &mut ctx, &msg),
            IngestOutcome::UnknownTenant
        );
        assert_eq!(agg.stats().frames_in, 1);
        assert_eq!(agg.stats().applied(), 0);
        assert_eq!(agg.stats().unknown_tenant, 1);
        assert!(agg.stats().accounted());
    }

    /// `accounted()` is an equality over separately counted outcomes, so
    /// a frame that reached no outcome breaks it.
    #[test]
    fn a_frame_with_no_outcome_is_not_accounted() {
        let whole = AggdStats {
            frames_in: 4,
            applied: 1,
            dup_dropped: 1,
            dropped_frames: 1,
            unknown_tenant: 1,
            ..AggdStats::default()
        };
        assert!(whole.accounted());
        let lost = AggdStats {
            frames_in: 5,
            ..whole
        };
        assert!(!lost.accounted());
    }
}
