//! Live session → daemon snapshot streaming (`papirun --push-aggd`).
//!
//! [`SnapshotPusher`] turns a session's [`papi_obs`] state into wire
//! frames: every counter becomes a series named `subsystem.counter`, every
//! latency histogram a series carrying sparse bucket deltas.  The pusher
//! is *incremental* — each [`SnapshotPusher::push`] sends only what changed
//! since the previous push, so a long-running session streams bounded
//! deltas, and the daemon's windowed buckets reflect when the activity
//! actually happened rather than when the session ended.
//!
//! Sequence numbers are gapless per source, so daemon-side anti-replay
//! dedups retried pushes and the close-time accounting can certify the
//! stream complete.

use crate::server::AggdClient;
use papi_obs::histogram::HistSnapshot;
use papi_obs::{Hist, LogHistogram, Obs, COUNTERS, HISTS};
use std::io;
use std::net::ToSocketAddrs;

/// Streams incremental obs deltas from one session to an aggregation
/// daemon over a socket.
pub struct SnapshotPusher {
    client: AggdClient,
    tid: u16,
    source: u64,
    seq: u64,
    prev: Vec<u64>,
    prev_hists: Vec<HistSnapshot>,
    scratch: Vec<(u16, u64)>,
    closed: bool,
}

impl SnapshotPusher {
    /// Connect to the daemon and register this session's series: one per
    /// obs counter (named `subsystem.counter`) plus one per latency
    /// histogram.  `source` must be new to the tenant: the daemon drops
    /// every frame of a source id it has seen closed.
    pub fn connect(
        addr: impl ToSocketAddrs,
        tenant: &str,
        source: u64,
    ) -> io::Result<SnapshotPusher> {
        let mut client = AggdClient::connect(addr)?;
        let tid = 0u16;
        client.bind_tenant(tid, tenant)?;
        for (i, c) in COUNTERS.iter().enumerate() {
            let name = format!("{}.{}", c.subsystem(), c.name());
            client.reg_series(tid, i as u16, &name)?;
        }
        for (j, h) in HISTS.iter().enumerate() {
            client.reg_series(tid, Self::hist_sid(j), h.name())?;
        }
        Ok(SnapshotPusher {
            client,
            tid,
            source,
            seq: 0,
            prev: vec![0; COUNTERS.len()],
            prev_hists: HISTS
                .iter()
                .map(|_| LogHistogram::new().snapshot())
                .collect(),
            scratch: Vec::with_capacity(COUNTERS.len()),
            closed: false,
        })
    }

    fn hist_sid(slot: usize) -> u16 {
        (COUNTERS.len() + slot) as u16
    }

    /// The series name a histogram slot is registered under.
    pub fn hist_series_name(h: Hist) -> &'static str {
        h.name()
    }

    /// Frames sent so far (the close-time `frames_sent`).
    pub fn frames_sent(&self) -> u64 {
        self.seq
    }

    /// Push everything that changed since the last push, stamped at
    /// virtual time `cycles`, and wait until the daemon has applied it.
    /// Returns the number of frames sent (0 when the session was idle, in
    /// which case nothing goes on the wire).
    pub fn push(&mut self, obs: &Obs, cycles: u64) -> io::Result<u64> {
        let mut sent = 0u64;
        self.scratch.clear();
        for (i, &c) in COUNTERS.iter().enumerate() {
            let cur = obs.get(c);
            let delta = cur.saturating_sub(self.prev[i]);
            if delta > 0 {
                self.scratch.push((i as u16, delta));
                self.prev[i] = cur;
            }
        }
        if !self.scratch.is_empty() {
            // scratch is moved out to appease the borrow checker (snapshot
            // borrows &mut self via the client), then restored.
            let pairs = std::mem::take(&mut self.scratch);
            let r = self
                .client
                .snapshot(self.tid, self.source, self.seq, cycles, &pairs);
            self.scratch = pairs;
            r?;
            self.seq += 1;
            sent += 1;
        }
        for (j, &h) in HISTS.iter().enumerate() {
            let cur = obs.hist(h).snapshot();
            let delta = cur.delta(&self.prev_hists[j]);
            let pairs = delta.nonzero_buckets();
            if !pairs.is_empty() {
                self.client.hist(
                    self.tid,
                    Self::hist_sid(j),
                    self.source,
                    self.seq,
                    cycles,
                    &pairs,
                )?;
                self.prev_hists[j] = cur;
                self.seq += 1;
                sent += 1;
            }
        }
        if sent > 0 {
            self.client.flush()?;
        }
        Ok(sent)
    }

    /// Close the stream: the daemon checks the sequence numbers are
    /// gapless and records the source complete (or, with
    /// `complete = false`, explicitly incomplete — a session that gave
    /// up).  Idempotent.
    pub fn finish(&mut self, complete: bool) -> io::Result<()> {
        if self.closed {
            return Ok(());
        }
        self.closed = true;
        self.client
            .close_source(self.tid, self.source, self.seq, complete)?;
        self.client.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::{AggdConfig, Aggregator};
    use crate::server::AggdServer;
    use papi_obs::Counter;

    #[test]
    fn pusher_streams_counter_and_hist_deltas() {
        let server =
            AggdServer::bind("127.0.0.1:0", Aggregator::new(AggdConfig::default())).unwrap();
        let obs = Obs::new();
        let mut p = SnapshotPusher::connect(server.local_addr(), "push-test", 7).unwrap();

        obs.add(Counter::Reads, 5);
        obs.observe_cycles(Counter::CyclesInRead, 120);
        assert!(p.push(&obs, 1_000).unwrap() >= 1);
        // Idle push sends nothing and burns no sequence numbers.
        assert_eq!(p.push(&obs, 2_000).unwrap(), 0);
        obs.add(Counter::Reads, 3);
        assert_eq!(p.push(&obs, 3_000).unwrap(), 1);
        p.finish(true).unwrap();

        let mut c = AggdClient::connect(server.local_addr()).unwrap();
        let sum = c
            .query_series("push-test", "eventset.reads")
            .unwrap()
            .expect("series exists");
        assert_eq!(sum.lifetime, 8, "two incremental deltas, not cumulative");
        let q = c
            .query_quantiles("push-test", Hist::ReadCycles.name())
            .unwrap()
            .expect("hist series exists");
        assert_eq!(q.count, 1);
        assert_eq!(c.stats().unwrap().sources_closed, 1);
        server.shutdown();
    }

    #[test]
    fn a_push_is_applied_before_it_returns() {
        let server =
            AggdServer::bind("127.0.0.1:0", Aggregator::new(AggdConfig::default())).unwrap();
        let obs = Obs::new();
        let mut p = SnapshotPusher::connect(server.local_addr(), "live", 1).unwrap();
        let mut c = AggdClient::connect(server.local_addr()).unwrap();
        for (round, reads) in [(1u64, 5u64), (2, 3)] {
            obs.add(Counter::Reads, reads);
            assert_eq!(p.push(&obs, round * 1_000).unwrap(), 1);
            // No finish yet: the push itself waited for the daemon.
            let sum = c.query_series("live", "eventset.reads").unwrap();
            assert_eq!(sum.map(|s| s.lifetime), Some(obs.get(Counter::Reads)));
        }
        server.shutdown();
    }
}
