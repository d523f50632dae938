//! Bounded structured event journal.
//!
//! The journal is a fixed-capacity ring of typed records describing what the
//! library did to itself: event-set lifecycle, start/stop/read traffic,
//! multiplex rotations and flushes, overflow deliveries, allocation solves.
//! When the ring is full the oldest record is dropped and the drop is
//! counted, so a long run degrades to "most recent window" rather than
//! unbounded memory growth.
//!
//! Records are plain data, so a journal can be exported next to an
//! application trace and replayed onto the same timeline (see
//! `papi_toolkit::obs_trace`).

use std::collections::VecDeque;

/// Default ring capacity when none is specified.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

/// One typed journal event.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// An event set was created.
    EventsetCreated {
        /// Event-set handle.
        set: usize,
    },
    /// An event set was destroyed.
    EventsetDestroyed {
        /// Event-set handle.
        set: usize,
    },
    /// A set was started.
    Start {
        /// Event-set handle.
        set: usize,
        /// Number of native events in the set.
        natives: usize,
        /// Whether the set runs under software multiplexing.
        multiplexed: bool,
    },
    /// A set was stopped.
    Stop {
        /// Event-set handle.
        set: usize,
    },
    /// Counters were read through the API.
    Read {
        /// Event-set handle.
        set: usize,
        /// Virtual cycles the read itself consumed.
        cost_cycles: u64,
    },
    /// Counters were accumulated (read + reset) through the API.
    Accum {
        /// Event-set handle.
        set: usize,
    },
    /// Counters were reset through the API.
    Reset {
        /// Event-set handle.
        set: usize,
    },
    /// An overflow interrupt fired.
    OverflowFired {
        /// Hardware counter index that overflowed.
        counter: usize,
        /// Event code registered for overflow.
        code: u32,
        /// Interrupted program counter.
        pc: u64,
        /// True when routed to a user handler, false when routed to a
        /// `profil` histogram.
        to_handler: bool,
    },
    /// A batch of profil histogram hits was recorded.
    ProfilHitBatch {
        /// Number of hits in the batch.
        hits: u64,
        /// Program counter of the last hit in the batch.
        pc: u64,
    },
    /// The multiplexer rotated to the next partition.
    MpxRotate {
        /// Partition index rotated away from.
        from_partition: usize,
        /// Partition index now live.
        to_partition: usize,
        /// Virtual cycles the rotation consumed.
        cost_cycles: u64,
    },
    /// The live multiplex partition was flushed into its estimates.
    MpxFlush {
        /// Partition index flushed.
        partition: usize,
        /// Cycles the partition had been live since the previous flush.
        live_cycles: u64,
    },
    /// A counter-allocation solve ran.
    AllocAttempt {
        /// Number of events in the request.
        events: usize,
        /// Whether a feasible assignment was found.
        success: bool,
        /// Augmenting-path probe calls spent searching.
        augment_steps: u64,
        /// Events displaced and re-placed during the search.
        backtracks: u64,
    },
    /// An OS thread registered into a session table and received its
    /// own substrate context.
    ThreadRegistered {
        /// Session-table slot the thread's session occupies.
        slot: usize,
    },
    /// An OS thread unregistered; its session slot was vacated for reuse.
    ThreadUnregistered {
        /// Session-table slot the thread's session occupied.
        slot: usize,
    },
    /// A transient substrate error was absorbed and the operation retried.
    TransientRetried {
        /// Which portable-layer operation retried (`"read"`, `"start"`, ...).
        op: &'static str,
        /// Retry attempt number (1-based).
        attempt: u32,
    },
    /// The retry budget was exhausted; the transient error surfaced to the
    /// caller as `PAPI_EMISC`.
    TransientGaveUp {
        /// Which portable-layer operation gave up.
        op: &'static str,
        /// Total attempts made (initial try + retries).
        attempts: u32,
    },
    /// A tenant registered into an aggregation daemon's tenant table.
    TenantRegistered {
        /// Tenant name.
        tenant: String,
    },
    /// A tenant was evicted from an aggregation daemon's tenant table.
    TenantEvicted {
        /// Tenant name.
        tenant: String,
        /// Why it was evicted (`"capacity"`, `"explicit"`).
        reason: &'static str,
    },
}

impl JournalEvent {
    /// Stable short kind name, used as the event label when journal records
    /// are converted to an application-trace timeline.
    pub fn kind(&self) -> &'static str {
        match self {
            JournalEvent::EventsetCreated { .. } => "obs.eventset_created",
            JournalEvent::EventsetDestroyed { .. } => "obs.eventset_destroyed",
            JournalEvent::Start { .. } => "obs.start",
            JournalEvent::Stop { .. } => "obs.stop",
            JournalEvent::Read { .. } => "obs.read",
            JournalEvent::Accum { .. } => "obs.accum",
            JournalEvent::Reset { .. } => "obs.reset",
            JournalEvent::OverflowFired { .. } => "obs.overflow",
            JournalEvent::ProfilHitBatch { .. } => "obs.profil_hits",
            JournalEvent::MpxRotate { .. } => "obs.mpx_rotate",
            JournalEvent::MpxFlush { .. } => "obs.mpx_flush",
            JournalEvent::AllocAttempt { .. } => "obs.alloc",
            JournalEvent::ThreadRegistered { .. } => "obs.thread_registered",
            JournalEvent::ThreadUnregistered { .. } => "obs.thread_unregistered",
            JournalEvent::TransientRetried { .. } => "obs.transient_retried",
            JournalEvent::TransientGaveUp { .. } => "obs.transient_gave_up",
            JournalEvent::TenantRegistered { .. } => "obs.tenant_registered",
            JournalEvent::TenantEvicted { .. } => "obs.tenant_evicted",
        }
    }
}

/// One journal record: an event stamped with virtual time and a sequence
/// number.
///
/// Sequence numbers are assigned at append time and never reused, so gaps in
/// an exported journal reveal exactly how many records were dropped and
/// where.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Substrate virtual time (cycles) when the event was recorded.
    pub cycles: u64,
    /// Monotonic sequence number of this record.
    pub seq: u64,
    /// The event payload.
    pub event: JournalEvent,
}

/// Fixed-capacity ring of [`JournalRecord`]s.
#[derive(Debug)]
pub struct Journal {
    cap: usize,
    buf: VecDeque<JournalRecord>,
    next_seq: u64,
    dropped: u64,
}

impl Journal {
    /// A journal holding at most `capacity` records (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        Journal {
            cap,
            buf: VecDeque::with_capacity(cap),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Append an event at virtual time `cycles`, evicting the oldest record
    /// if the ring is full.  Returns the record's sequence number.
    pub fn push(&mut self, cycles: u64, event: JournalEvent) -> u64 {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.buf.push_back(JournalRecord { cycles, seq, event });
        seq
    }

    /// Records currently held, oldest first.
    pub fn records(&self) -> Vec<JournalRecord> {
        self.buf.iter().cloned().collect()
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total records ever appended (held + dropped).
    pub fn total_appended(&self) -> u64 {
        self.next_seq
    }

    /// Discard all held records (sequence numbering continues).
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_order() {
        let mut j = Journal::new(8);
        assert!(j.is_empty());
        j.push(
            10,
            JournalEvent::Start {
                set: 0,
                natives: 2,
                multiplexed: false,
            },
        );
        j.push(
            20,
            JournalEvent::Read {
                set: 0,
                cost_cycles: 5,
            },
        );
        j.push(30, JournalEvent::Stop { set: 0 });
        let recs = j.records();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].seq, 0);
        assert_eq!(recs[2].seq, 2);
        assert!(recs.windows(2).all(|w| w[0].cycles <= w[1].cycles));
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn ring_bounds_and_drop_accounting() {
        let mut j = Journal::new(4);
        for i in 0..10u64 {
            j.push(i, JournalEvent::Reset { set: 0 });
        }
        assert_eq!(j.len(), 4);
        assert_eq!(j.capacity(), 4);
        assert_eq!(j.dropped(), 6);
        assert_eq!(j.total_appended(), 10);
        let recs = j.records();
        // Oldest surviving record is seq 6: exactly `dropped` seqs are gone.
        assert_eq!(recs[0].seq, 6);
        assert_eq!(recs[3].seq, 9);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut j = Journal::new(0);
        j.push(1, JournalEvent::Stop { set: 0 });
        j.push(2, JournalEvent::Stop { set: 1 });
        assert_eq!(j.len(), 1);
        assert_eq!(j.dropped(), 1);
    }

    #[test]
    fn kinds_are_stable_and_distinct() {
        let evs = [
            JournalEvent::EventsetCreated { set: 0 },
            JournalEvent::EventsetDestroyed { set: 0 },
            JournalEvent::Start {
                set: 0,
                natives: 1,
                multiplexed: true,
            },
            JournalEvent::Stop { set: 0 },
            JournalEvent::Read {
                set: 0,
                cost_cycles: 0,
            },
            JournalEvent::Accum { set: 0 },
            JournalEvent::Reset { set: 0 },
            JournalEvent::OverflowFired {
                counter: 0,
                code: 0,
                pc: 0,
                to_handler: true,
            },
            JournalEvent::ProfilHitBatch { hits: 1, pc: 0 },
            JournalEvent::MpxRotate {
                from_partition: 0,
                to_partition: 1,
                cost_cycles: 0,
            },
            JournalEvent::MpxFlush {
                partition: 0,
                live_cycles: 0,
            },
            JournalEvent::AllocAttempt {
                events: 1,
                success: true,
                augment_steps: 0,
                backtracks: 0,
            },
            JournalEvent::ThreadRegistered { slot: 0 },
            JournalEvent::ThreadUnregistered { slot: 0 },
            JournalEvent::TransientRetried {
                op: "read",
                attempt: 1,
            },
            JournalEvent::TransientGaveUp {
                op: "read",
                attempts: 4,
            },
            JournalEvent::TenantRegistered {
                tenant: "t0".into(),
            },
            JournalEvent::TenantEvicted {
                tenant: "t0".into(),
                reason: "capacity",
            },
        ];
        let mut kinds: Vec<&str> = evs.iter().map(|e| e.kind()).collect();
        assert!(kinds.iter().all(|k| k.starts_with("obs.")));
        kinds.sort();
        kinds.dedup();
        assert_eq!(kinds.len(), evs.len());
    }
}
