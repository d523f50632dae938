//! Thread-scalable counting: a flat session table with per-thread
//! EventSets and a lock-free steady-state read path.
//!
//! The paper's low-level interface is explicitly built for threaded
//! runtimes: "PAPI supports measurements per-thread" via
//! `PAPI_thread_init`, with each thread owning its own counter context so
//! the substrate virtualizes the hardware per thread of execution. This
//! module is that model's portable-layer half:
//!
//! * [`ThreadedPapi`] is the shareable library handle (`Arc<ThreadedPapi>`
//!   is usable from N threads). Its session table is flat and append-only:
//!   a cell, once created, never moves or leaves it, so readers index it
//!   with no lock. Unregistering vacates a cell for the next registration,
//!   so the table grows with the peak number of threads registered at
//!   once, not with churn. No lock is ever taken to *find* a session.
//! * [`ThreadedPapi::register_thread`] mirrors `PAPI_register_thread`:
//!   the calling OS thread receives a [`PapiThread`] token wrapping a
//!   complete private [`Papi`] session — its **own substrate context** —
//!   so two threads' counts cannot bleed by construction.
//! * EventSet ids handed out through a token are [`TaggedSetId`]s carrying
//!   the owning slot and occupant number; using another thread's id is
//!   detected arithmetically and rejected with [`PapiError::Inval`]
//!   (counted as `threads.cross_thread_denied` when observability is
//!   attached), never a panic or a silent read of foreign counters. An id
//!   kept after its owner unregistered names an earlier occupant of its
//!   cell, so it never reaches the cell's next occupant.
//!
//! ## Hot path (lock-free)
//!
//! A [`PapiThread`] caches the `Arc` of its own session cell. The cell is
//! a [`SeqCell`], not a mutex: `start`/`read_into`/`accum`/`stop` enter
//! the cell's odd sequence phase with a single uncontended
//! compare-exchange and leave it with a single store — no OS mutex, no
//! parking, no poisoning. Observers on *other* threads never touch that
//! word at all: every successful `read_into` also publishes its values
//! into the cell's [`PublishedCounts`] seqlock area, which
//! [`ThreadedPapi::snapshot_counts`] reads wait-free from any thread
//! (spin-retrying torn copies, never blocking the owner). Reprogramming
//! operations (`start`/`reset`/`stop`/`accum`) bump the published
//! *generation*, so an observer can always tell "the counters restarted"
//! from "the counters advanced" and can never see a mix of two
//! programming epochs.
//!
//! See DESIGN.md "Memory model of the read path" for the full invariant
//! list (who writes each stamp, why torn derived-event terms are
//! unobservable, and how this orders against papi-obs journal sequence
//! numbers).
//!
//! Overflow dispatch is safe under concurrency for the same reason as
//! before: each session's handlers and `profil` histograms live inside
//! that session's exclusive phase, so a handler only ever runs on the
//! thread driving its own session.

use crate::error::{PapiError, Result};
use crate::eventset::{EventSetId, SetState};
use crate::registry::SubstrateRegistry;
use crate::seqlock::{CountSnapshot, PublishedCounts, SeqCell};
use crate::session::Papi;
use crate::substrate::{BoxSubstrate, Substrate};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::ThreadId as OsThreadId;

/// Field widths of a [`TaggedSetId`], from the top: slot, occupant
/// number (a `u8`), session-local id.
const SLOT_BITS: u32 = 24;
const LOCAL_BITS: u32 = 32;
const LOCAL_MASK: u64 = (1 << LOCAL_BITS) - 1;

/// A thread-tagged EventSet id: `slot (24 bits) | occupant (8 bits) |
/// session-local id (32 bits)`.
///
/// The tag names the session-table slot whose session owns the id and
/// which occupant of that slot's cell minted it: the cell's registrations
/// are numbered modulo 256. Its upper 32 bits let any API entry point
/// prove with one comparison that an id belongs to the calling thread's
/// session before touching counter state, and they tell an id kept past
/// its owner's unregistration from the next occupant's ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaggedSetId(u64);

impl TaggedSetId {
    /// Pack a `(slot, occupant, local)` triple into a tagged id.
    ///
    /// Panics if `slot` or `local` exceeds its field (2^24 threads
    /// registered at once, more than Linux's limit of 2^22 threads, and
    /// 2^32 sets per session are far beyond any real session table).
    pub fn new(slot: usize, occupant: u8, local: EventSetId) -> Self {
        assert!((slot as u64) < 1 << SLOT_BITS, "slot {slot} out of range");
        assert!(
            (local as u64) <= LOCAL_MASK,
            "local id {local} out of range"
        );
        let owner = (slot as u64) << u8::BITS | occupant as u64;
        TaggedSetId(owner << LOCAL_BITS | local as u64)
    }

    /// Slot component of the tag.
    pub fn slot(self) -> usize {
        (self.0 >> (u8::BITS + LOCAL_BITS)) as usize
    }

    /// Which registration of the slot's cell minted the id, modulo 256.
    pub fn occupant(self) -> u8 {
        (self.0 >> LOCAL_BITS) as u8
    }

    /// Session-local [`EventSetId`].
    pub fn local(self) -> EventSetId {
        (self.0 & LOCAL_MASK) as EventSetId
    }

    /// Slot and occupant together: the upper 32 bits.
    fn owner(self) -> u32 {
        (self.0 >> LOCAL_BITS) as u32
    }

    /// Raw packed representation (e.g. for FFI transport).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuild from a raw packed representation.
    pub fn from_raw(raw: u64) -> Self {
        TaggedSetId(raw)
    }
}

/// One slot's session cell. It is created vacant with its table segment
/// and never moves or leaves the table: unregistration vacates it in
/// place, and a later registration reuses it.
///
/// `session` holds the occupant's private [`Papi`] behind a [`SeqCell`]:
/// exclusive access is one uncontended compare-exchange for the owning
/// token (and a spin for the rare cross-thread inspector). It is `None`
/// while the cell is vacant. `occupant` numbers the cell's registrations
/// and says whether the cell is vacant, also to observers that never take
/// the session stamp: an id minted by any other occupant, or looked up in
/// a vacant cell, answers [`PapiError::NoEvst`].
///
/// `published` is the seqlock snapshot area observers read without ever
/// touching the exclusive word; `generation` stamps which programming
/// epoch the published values belong to. It carries over from one
/// occupant to the next, so a slot never repeats a generation.
struct ThreadCell<S: Substrate + Send> {
    session: SeqCell<Option<Papi<S>>>,
    /// The current (or, with [`VACANT`] set, the last) occupant's number.
    /// Stored (`Release`) after each change of occupant and loaded
    /// (`Acquire`) by observers, so one that finds the cell held by an
    /// id's occupant also sees the publication area as that occupant
    /// received it.
    occupant: AtomicU32,
    published: PublishedCounts,
    generation: AtomicU64,
}

/// Set in [`ThreadCell::occupant`] while the cell has no occupant, so a
/// vacant cell matches no id's occupant number.
const VACANT: u32 = 1 << u8::BITS;

impl<S: Substrate + Send> ThreadCell<S> {
    /// Whether the cell is occupied by the occupant that minted `id`.
    fn holds(&self, id: TaggedSetId) -> bool {
        self.occupant.load(Ordering::Acquire) == id.occupant() as u32
    }
}

/// Segment `k` of the table: `2^k` cells, created together when the
/// first of their slots is handed out.
type Segment<S> = OnceLock<Box<[Arc<ThreadCell<S>>]>>;

/// The flat, append-only session table: slot `i` is entry `i + 1 - 2^k`
/// of segment `k = ilog2(i + 1)`, and 24 segments cover every slot tag
/// but the last. Segments and cells are only ever added, under the
/// registration lock, and never move, so lock-free readers index the
/// table directly.
struct SlotTable<S: Substrate + Send> {
    segments: [Segment<S>; SLOT_BITS as usize],
}

impl<S: Substrate + Send> SlotTable<S> {
    /// `(segment, index)` of `slot`.
    fn locate(slot: usize) -> (usize, usize) {
        let k = (slot as u64 + 1).ilog2();
        (k as usize, (slot as u64 + 1 - (1 << k)) as usize)
    }

    /// The cell at `slot`, if the table ever created it.
    fn cell(&self, slot: usize) -> Option<&Arc<ThreadCell<S>>> {
        let (k, i) = Self::locate(slot);
        self.segments.get(k)?.get()?.get(i)
    }

    /// The cell at `slot`, creating its segment on first use. Only the
    /// holder of the registration lock calls this.
    fn cell_or_insert(&self, slot: usize) -> &Arc<ThreadCell<S>> {
        let (k, i) = Self::locate(slot);
        let vacant = || {
            Arc::new(ThreadCell {
                session: SeqCell::new(None),
                // Numbered as if occupant 255 had left: the first is 0.
                occupant: AtomicU32::new(VACANT | u8::MAX as u32),
                published: PublishedCounts::default(),
                generation: AtomicU64::new(0),
            })
        };
        &self.segments[k].get_or_init(|| (0..1usize << k).map(|_| vacant()).collect())[i]
    }
}

/// Registration bookkeeping, guarded by [`ThreadedPapi`]'s `reg` mutex.
/// Every slot the table has created is either occupied or free.
#[derive(Default)]
struct Registrations {
    /// Registered OS threads.
    threads: HashSet<OsThreadId>,
    /// Vacated slots, handed out again before the table grows.
    free: Vec<usize>,
}

type SessionFactory<S> = Box<dyn Fn(u64) -> Result<Papi<S>> + Send + Sync>;

/// The thread-shareable library handle: a flat table of per-thread
/// [`Papi`] sessions plus the factory that builds each registered thread's
/// private substrate context.
///
/// `ThreadedPapi` is `Send + Sync`; wrap it in an `Arc` and clone the
/// handle into every thread that should count.
pub struct ThreadedPapi<S: Substrate + Send = BoxSubstrate> {
    /// The session table. Readers index it without a lock; only the
    /// holder of `reg` adds cells or changes who occupies one.
    table: SlotTable<S>,
    /// Registered OS threads and free slots. Cold-path only — never on
    /// the counting or snapshot hot paths.
    reg: Mutex<Registrations>,
    factory: SessionFactory<S>,
    next_seed: AtomicU64,
    obs: Option<papi_obs::ObsHandle>,
}

impl<S: Substrate + Send> ThreadedPapi<S> {
    /// A session table whose registered threads get sessions built by
    /// `factory`, seeded `base_seed`, `base_seed + 1`, ... in registration
    /// order. Factory errors surface from [`ThreadedPapi::register_thread`].
    pub fn new(
        base_seed: u64,
        factory: impl Fn(u64) -> Result<Papi<S>> + Send + Sync + 'static,
    ) -> Self {
        ThreadedPapi {
            table: SlotTable {
                segments: std::array::from_fn(|_| OnceLock::new()),
            },
            reg: Mutex::new(Registrations::default()),
            factory: Box::new(factory),
            next_seed: AtomicU64::new(base_seed),
            obs: None,
        }
    }

    /// Attach a shared self-instrumentation context. Sessions registered
    /// from here on feed the same registry and journal (both are safe
    /// under concurrent writers). Call before sharing the table.
    pub fn attach_obs(&mut self, obs: papi_obs::ObsHandle) {
        self.obs = Some(obs);
    }

    /// The attached self-instrumentation context, if any.
    pub fn obs(&self) -> Option<&papi_obs::ObsHandle> {
        self.obs.as_ref()
    }

    /// The registration bookkeeping.
    fn registrations(&self) -> std::sync::MutexGuard<'_, Registrations> {
        self.reg
            .lock()
            .expect("a registration panicked while holding the lock")
    }

    /// Number of currently registered threads.
    pub fn registered_threads(&self) -> usize {
        self.registrations().threads.len()
    }

    /// Whether the calling OS thread is currently registered.
    pub fn is_registered(&self) -> bool {
        let tid = std::thread::current().id();
        self.registrations().threads.contains(&tid)
    }

    /// `PAPI_register_thread`: give the calling OS thread its own private
    /// session (fresh substrate context) and return the token that owns
    /// it. The session seed is drawn from the table's counter.
    pub fn register_thread(self: &Arc<Self>) -> Result<PapiThread<S>> {
        let seed = self.next_seed.fetch_add(1, Ordering::Relaxed);
        self.register_thread_seeded(seed)
    }

    /// [`ThreadedPapi::register_thread`] with an explicit substrate seed,
    /// for deterministic tests that replay a thread's workload
    /// single-threadedly.
    ///
    /// Registering a thread that is already registered fails with
    /// [`PapiError::Cnflct`] without building a session.
    pub fn register_thread_seeded(self: &Arc<Self>, seed: u64) -> Result<PapiThread<S>> {
        let tid = std::thread::current().id();
        if self.is_registered() {
            return Err(PapiError::Cnflct);
        }
        // Build the session without the registration lock: session init
        // dominates registration, and concurrent registrations must not
        // queue behind one another's.
        let mut session = (self.factory)(seed)?;
        if let Some(obs) = &self.obs {
            session.attach_obs(obs.clone());
        }
        let now = session.get_real_cyc();
        let mut reg = self.registrations();
        if reg.threads.contains(&tid) {
            return Err(PapiError::Cnflct);
        }
        // With no slot free, every created slot is occupied.
        let slot = reg.free.pop().unwrap_or(reg.threads.len());
        let cell = self.table.cell_or_insert(slot).clone();
        // The VACANT bit lies above the number, so the cast drops it.
        let occupant = (cell.occupant.load(Ordering::Relaxed) as u8).wrapping_add(1);
        *cell.session.lock() = Some(session);
        cell.occupant.store(occupant as u32, Ordering::Release);
        reg.threads.insert(tid);
        drop(reg);
        if let Some(obs) = &self.obs {
            obs.inc(papi_obs::Counter::ThreadsRegistered);
            obs.record(now, || papi_obs::JournalEvent::ThreadRegistered { slot });
        }
        Ok(PapiThread {
            cell,
            slot,
            owner: TaggedSetId::new(slot, occupant, 0).owner(),
            tid,
            obs: self.obs.clone(),
        })
    }

    /// `PAPI_unregister_thread`: vacate `token`'s session slot for reuse
    /// and hand the private [`Papi`] session back to the caller.
    ///
    /// Rejected (returning the token so the thread can clean up and
    /// retry) when the session still owns live EventSets — mirroring real
    /// PAPI, which refuses to unregister a thread with active counting
    /// state — or when the token belongs to a different session table.
    #[allow(clippy::result_large_err)]
    pub fn unregister_thread(
        &self,
        token: PapiThread<S>,
    ) -> std::result::Result<Papi<S>, (PapiThread<S>, PapiError)> {
        if !self
            .table
            .cell(token.slot)
            .is_some_and(|cell| Arc::ptr_eq(cell, &token.cell))
        {
            return Err((
                token,
                PapiError::Inval("token does not belong to this session table"),
            ));
        }
        // Vacate the cell completely before its slot can be handed out
        // again: the next occupant finds no session, no publication and
        // a generation its predecessor never published under.
        let mut reg = self.registrations();
        let mut guard = token.cell.session.lock();
        if guard
            .as_ref()
            .is_some_and(|p| p.sets.iter().any(Option::is_some))
        {
            drop(guard);
            return Err((
                token,
                PapiError::Inval("thread still owns live EventSets; destroy them first"),
            ));
        }
        token.cell.published.clear();
        token.cell.generation.fetch_add(1, Ordering::Relaxed);
        let session = guard
            .take()
            .expect("a live token's cell always holds its session");
        drop(guard);
        token.cell.occupant.fetch_or(VACANT, Ordering::Release);
        reg.threads.remove(&token.tid);
        reg.free.push(token.slot);
        drop(reg);
        if let Some(obs) = &token.obs {
            obs.inc(papi_obs::Counter::ThreadsUnregistered);
            let now = session.get_real_cyc();
            let slot = token.slot;
            obs.record(now, || papi_obs::JournalEvent::ThreadUnregistered { slot });
        }
        Ok(session)
    }

    /// Run `f` against the session owning `id`, from any thread. The
    /// lookup is lock-free (an index into the table); entering the
    /// session spins on its sequence stamp until the owner is quiescent.
    /// Fails with [`PapiError::NoEvst`] when the slot is vacant or was
    /// never created, or when `id` was minted by another occupant.
    ///
    /// This is the cross-thread escape hatch (inspection, third-party
    /// mutation); it *excludes* the owner while `f` runs. Pure observers
    /// should prefer [`ThreadedPapi::snapshot_counts`], which never
    /// disturbs the owner at all.
    pub fn with_session_of<R>(
        &self,
        id: TaggedSetId,
        f: impl FnOnce(&mut Papi<S>) -> R,
    ) -> Result<R> {
        let cell = self
            .table
            .cell(id.slot())
            .ok_or(PapiError::NoEvst(id.local()))?;
        let mut guard = cell.session.lock();
        // Checked inside the session: a session found here was installed
        // after its predecessor marked the cell vacant, so an earlier
        // occupant's id cannot match.
        let session = guard
            .as_mut()
            .filter(|_| cell.holds(id))
            .ok_or(PapiError::NoEvst(id.local()))?;
        Ok(f(session))
    }

    /// Wait-free observation of the latest counter values the owning
    /// thread published for `id`'s session: an index into the table, an
    /// occupant check and a seqlock snapshot copy. Never blocks the owner
    /// and is never blocked *by* the owner — a torn copy (owner
    /// mid-publish) retries the copy, not the session.
    ///
    /// The snapshot's `generation` changes whenever the owner reprograms
    /// (`start`/`reset`/`accum`/`stop`), so values from two programming
    /// epochs can never be compared as if continuous. Within one
    /// generation, successive snapshots are monotone non-decreasing for
    /// monotone events.
    ///
    /// Fails with [`PapiError::NoEvst`] for a vacant or never-created
    /// slot or an id minted by another occupant, and
    /// [`PapiError::NotRun`] when the owner has not published since the
    /// last reprogram (e.g. the set is stopped).
    pub fn snapshot_counts(&self, id: TaggedSetId) -> Result<CountSnapshot> {
        let cell = self
            .table
            .cell(id.slot())
            .filter(|cell| cell.holds(id))
            .ok_or(PapiError::NoEvst(id.local()))?;
        cell.published.snapshot().ok_or(PapiError::NotRun)
    }
}

/// A registered thread's handle to its own private session.
///
/// Obtained from [`ThreadedPapi::register_thread`]; the token caches the
/// session cell, so every operation is tag-check + one uncontended
/// sequence-stamp compare-exchange (no OS mutex anywhere). All EventSet
/// ids it hands out are [`TaggedSetId`]s; passing an id minted by another
/// thread's token is rejected with [`PapiError::Inval`].
pub struct PapiThread<S: Substrate + Send> {
    cell: Arc<ThreadCell<S>>,
    slot: usize,
    /// The upper 32 bits of every id this token mints.
    owner: u32,
    tid: OsThreadId,
    obs: Option<papi_obs::ObsHandle>,
}

impl<S: Substrate + Send> std::fmt::Debug for PapiThread<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PapiThread")
            .field("slot", &self.slot)
            .field("tid", &self.tid)
            .finish_non_exhaustive()
    }
}

impl<S: Substrate + Send> std::fmt::Debug for ThreadedPapi<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedPapi")
            .field("registered_threads", &self.registered_threads())
            .finish_non_exhaustive()
    }
}

impl<S: Substrate + Send> PapiThread<S> {
    /// Session-table slot this thread's session occupies.
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Tag a session-local id with this thread's slot and occupant.
    fn tag(&self, local: EventSetId) -> TaggedSetId {
        // The low byte of `owner` is the occupant number.
        TaggedSetId::new(self.slot, self.owner as u8, local)
    }

    /// Untag `id`, proving it belongs to this thread's session.
    fn check(&self, id: TaggedSetId) -> Result<EventSetId> {
        if id.owner() == self.owner {
            Ok(id.local())
        } else {
            if let Some(obs) = &self.obs {
                obs.inc(papi_obs::Counter::CrossThreadDenied);
            }
            Err(PapiError::Inval(
                "EventSet id is tagged for a different thread's session",
            ))
        }
    }

    /// Enter the session's exclusive phase and run `f`. One uncontended
    /// compare-exchange on the owner path.
    #[inline]
    fn session<R>(&self, f: impl FnOnce(&mut Papi<S>) -> R) -> R {
        let mut guard = self.cell.session.lock();
        let papi = guard
            .as_mut()
            .expect("a live token's cell always holds its session");
        f(papi)
    }

    /// Run an operation that rebases or reprograms `id`'s counters; on
    /// success, advance the published generation and empty the
    /// publication area.
    fn reprogram<R>(
        &self,
        id: TaggedSetId,
        op: impl FnOnce(&mut Papi<S>, EventSetId) -> Result<R>,
    ) -> Result<R> {
        let local = self.check(id)?;
        let r = self.session(|p| op(p, local))?;
        self.cell.generation.fetch_add(1, Ordering::Relaxed);
        self.cell.published.clear();
        Ok(r)
    }

    /// Full access to the underlying session, for the parts of the API
    /// not mirrored here (sampling, profil, timers, substrate access).
    /// EventSet ids inside the closure are session-local.
    ///
    /// Conservatively bumps the published generation: the closure may
    /// have reprogrammed or rebased counters, and observers must never
    /// interpret post-closure values as continuous with pre-closure ones.
    pub fn with<R>(&self, f: impl FnOnce(&mut Papi<S>) -> R) -> R {
        let r = self.session(f);
        self.cell.generation.fetch_add(1, Ordering::Relaxed);
        r
    }

    /// `PAPI_create_eventset`, returning a thread-tagged id.
    pub fn create_eventset(&self) -> TaggedSetId {
        self.tag(self.session(|p| p.create_eventset()))
    }

    /// `PAPI_destroy_eventset`.
    pub fn destroy_eventset(&self, id: TaggedSetId) -> Result<()> {
        let local = self.check(id)?;
        self.session(|p| p.destroy_eventset(local))
    }

    /// `PAPI_add_event`.
    pub fn add_event(&self, id: TaggedSetId, code: u32) -> Result<()> {
        let local = self.check(id)?;
        self.session(|p| p.add_event(local, code))
    }

    /// `PAPI_add_events`.
    pub fn add_events(&self, id: TaggedSetId, codes: &[u32]) -> Result<()> {
        let local = self.check(id)?;
        self.session(|p| p.add_events(local, codes))
    }

    /// `PAPI_remove_event`.
    pub fn remove_event(&self, id: TaggedSetId, code: u32) -> Result<()> {
        let local = self.check(id)?;
        self.session(|p| p.remove_event(local, code))
    }

    /// `PAPI_num_events`.
    pub fn num_events(&self, id: TaggedSetId) -> Result<usize> {
        let local = self.check(id)?;
        self.session(|p| p.num_events(local))
    }

    /// `PAPI_state`.
    pub fn state(&self, id: TaggedSetId) -> Result<SetState> {
        let local = self.check(id)?;
        self.session(|p| p.state(local))
    }

    /// `PAPI_set_multiplex` (the multiplex timer is per-session, hence
    /// per-thread: one thread's rotations never touch another's
    /// hardware).
    pub fn set_multiplex(&self, id: TaggedSetId) -> Result<()> {
        let local = self.check(id)?;
        self.session(|p| p.set_multiplex(local))
    }

    /// `PAPI_start`. Opens a fresh published generation: observers see
    /// the restart as a generation bump, never as counts going backwards.
    pub fn start(&self, id: TaggedSetId) -> Result<()> {
        self.reprogram(id, |p, set| p.start(set))
    }

    /// `PAPI_read` into a caller buffer — the per-thread lock-free hot
    /// path: tag check (arithmetic), one uncontended sequence-stamp
    /// compare-exchange, the vectorized cached read plan, then a seqlock
    /// publication of the fresh values for wait-free observers.
    pub fn read_into(&self, id: TaggedSetId, out: &mut [i64]) -> Result<()> {
        let local = self.check(id)?;
        self.session(|p| p.read_into(local, out))?;
        self.cell
            .published
            .publish(self.cell.generation.load(Ordering::Relaxed), out);
        Ok(())
    }

    /// `PAPI_read`, allocating the result vector.
    pub fn read(&self, id: TaggedSetId) -> Result<Vec<i64>> {
        let local = self.check(id)?;
        let values = self.session(|p| p.read(local))?;
        self.cell
            .published
            .publish(self.cell.generation.load(Ordering::Relaxed), &values);
        Ok(values)
    }

    /// `PAPI_accum`. Resets the counters, so the published generation
    /// advances.
    pub fn accum(&self, id: TaggedSetId, values: &mut [i64]) -> Result<()> {
        self.reprogram(id, |p, set| p.accum(set, values))
    }

    /// `PAPI_reset`. Advances the published generation.
    pub fn reset(&self, id: TaggedSetId) -> Result<()> {
        self.reprogram(id, |p, set| p.reset(set))
    }

    /// `PAPI_stop`. Advances the published generation and empties the
    /// publication area (there is no running counter state to observe).
    pub fn stop(&self, id: TaggedSetId) -> Result<Vec<i64>> {
        self.reprogram(id, |p, set| p.stop(set))
    }

    /// Run this thread's application to completion (see
    /// [`Papi::run_app`]).
    pub fn run_app(&self) -> Result<()> {
        self.session(|p| p.run_app())
    }

    /// Run this thread's application for `budget` cycles (see
    /// [`Papi::run_for`]).
    pub fn run_for(&self, budget: u64) -> Result<crate::dispatch::AppExit> {
        self.session(|p| p.run_for(budget))
    }
}

impl ThreadedPapi<BoxSubstrate> {
    /// A session table whose threads get registry-selected substrates
    /// (e.g. `"sim:x86"`), seeded from `base_seed`.
    pub fn named(name: &str, base_seed: u64) -> Self {
        Self::from_registry(Arc::new(SubstrateRegistry::with_builtin()), name, base_seed)
    }

    /// [`ThreadedPapi::named`] against a caller-supplied registry (one
    /// that other crates have added their backends to). Unknown names
    /// surface as errors from [`ThreadedPapi::register_thread`].
    pub fn from_registry(reg: Arc<SubstrateRegistry>, name: &str, base_seed: u64) -> Self {
        let name = name.to_string();
        Self::new(base_seed, move |seed| {
            Papi::init_from_registry(&reg, &name, seed)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::SimSubstrate;
    use crate::testutil::MockSubstrate;
    use crate::Preset;
    use simcpu::{platform, Machine, ProgramBuilder};

    fn pool() -> Arc<ThreadedPapi<SimSubstrate>> {
        Arc::new(ThreadedPapi::new(100, |seed| {
            let mut m = Machine::new(platform::sim_generic(), seed);
            let mut b = ProgramBuilder::new();
            b.func("main", |f| {
                f.loop_(1000, |f| {
                    f.ffma(4);
                });
            });
            m.load(b.build("main"));
            Papi::init(SimSubstrate::new(m))
        }))
    }

    #[test]
    fn tagged_id_roundtrip() {
        for &(slot, occupant, local) in &[
            (0usize, 0u8, 0usize),
            ((1 << SLOT_BITS) - 1, u8::MAX, LOCAL_MASK as usize),
            (7, 3, 11),
        ] {
            let id = TaggedSetId::new(slot, occupant, local);
            assert_eq!(id.slot(), slot);
            assert_eq!(id.occupant(), occupant);
            assert_eq!(id.local(), local);
            assert_eq!(TaggedSetId::from_raw(id.raw()), id);
        }
    }

    #[test]
    fn threaded_papi_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ThreadedPapi<SimSubstrate>>();
        assert_send_sync::<ThreadedPapi<BoxSubstrate>>();
        fn assert_send<T: Send>() {}
        assert_send::<PapiThread<SimSubstrate>>();
        assert_send::<Papi<BoxSubstrate>>();
    }

    #[test]
    fn register_count_and_unregister() {
        let pool = pool();
        let token = pool.register_thread().unwrap();
        assert!(pool.is_registered());
        assert_eq!(pool.registered_threads(), 1);

        let set = token.create_eventset();
        token.add_event(set, Preset::FpOps.code()).unwrap();
        token.start(set).unwrap();
        token.run_app().unwrap();
        let counts = token.stop(set).unwrap();
        assert_eq!(counts[0], 8000);

        token.destroy_eventset(set).unwrap();
        let session = pool.unregister_thread(token).expect("no live sets");
        assert!(session.get_real_cyc() > 0);
        assert!(!pool.is_registered());
        assert_eq!(pool.registered_threads(), 0);
    }

    #[test]
    fn double_register_rejected() {
        let pool = pool();
        let token = pool.register_thread().unwrap();
        assert!(matches!(pool.register_thread(), Err(PapiError::Cnflct)));
        // After unregistering, the same thread may register again.
        let session = pool.unregister_thread(token).unwrap();
        drop(session);
        let token2 = pool.register_thread().unwrap();
        drop(token2);
    }

    #[test]
    fn unregister_with_live_eventsets_rejected_and_returns_token() {
        let pool = pool();
        let token = pool.register_thread().unwrap();
        let set = token.create_eventset();
        token.add_event(set, Preset::TotCyc.code()).unwrap();
        let (token, err) = pool.unregister_thread(token).unwrap_err();
        assert!(matches!(err, PapiError::Inval(_)));
        // The token still works; cleanup and retry succeeds.
        token.destroy_eventset(set).unwrap();
        pool.unregister_thread(token).expect("retry after cleanup");
    }

    #[test]
    fn cross_thread_id_rejected_not_panicking() {
        let pool = pool();
        let token = pool.register_thread().unwrap();
        let set = token.create_eventset();
        // Forge an id tagged for a different slot.
        let foreign = TaggedSetId::new(set.slot() + 1, set.occupant(), set.local());
        for err in [
            token.start(foreign).unwrap_err(),
            token.read_into(foreign, &mut [0i64; 4]).unwrap_err(),
            token.destroy_eventset(foreign).unwrap_err(),
        ] {
            assert!(matches!(err, PapiError::Inval(_)));
        }
        // The legitimate id still works.
        token.add_event(set, Preset::TotCyc.code()).unwrap();
    }

    #[test]
    fn cross_thread_denials_are_counted() {
        let pool = {
            let mut p = ThreadedPapi::new(7, |seed| {
                let m = Machine::new(platform::sim_generic(), seed);
                Papi::init(SimSubstrate::new(m))
            });
            p.attach_obs(papi_obs::Obs::new());
            Arc::new(p)
        };
        let token = pool.register_thread().unwrap();
        let set = token.create_eventset();
        let foreign = TaggedSetId::new(set.slot() + 1, set.occupant(), set.local());
        assert!(token.start(foreign).is_err());
        let obs = pool.obs().unwrap();
        assert_eq!(obs.get(papi_obs::Counter::CrossThreadDenied), 1);
        assert_eq!(obs.get(papi_obs::Counter::ThreadsRegistered), 1);
    }

    #[test]
    fn registration_from_many_threads_lands_in_slots() {
        let pool = pool();
        let mut joins = Vec::new();
        for _ in 0..8 {
            let pool = pool.clone();
            joins.push(std::thread::spawn(move || {
                let token = pool.register_thread().unwrap();
                let set = token.create_eventset();
                token.add_event(set, Preset::TotIns.code()).unwrap();
                token.start(set).unwrap();
                token.run_app().unwrap();
                let counts = token.stop(set).unwrap();
                token.destroy_eventset(set).unwrap();
                pool.unregister_thread(token).unwrap();
                counts[0]
            }));
        }
        let counts: Vec<i64> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        // Every thread ran its own identical program on its own machine.
        assert!(counts.iter().all(|&c| c == counts[0] && c > 0));
        assert_eq!(pool.registered_threads(), 0);
    }

    #[test]
    fn with_session_of_routes_by_tag() {
        let pool = pool();
        let token = pool.register_thread().unwrap();
        let set = token.create_eventset();
        token.add_event(set, Preset::TotCyc.code()).unwrap();
        let n = pool
            .with_session_of(set, |papi| papi.num_events(set.local()).unwrap())
            .unwrap();
        assert_eq!(n, 1);
        // A vacant slot is a NoEvst error, not a panic.
        let vacant = TaggedSetId::new(set.slot() + 1, 0, 0);
        assert!(pool.with_session_of(vacant, |_| ()).is_err());
        // Every raw id names a slot: a forged one is missing, not invalid.
        let forged = TaggedSetId::from_raw(u64::MAX);
        assert!(matches!(
            pool.snapshot_counts(forged),
            Err(PapiError::NoEvst(_))
        ));
        let forged_session = pool.with_session_of(forged, |_| ());
        assert!(matches!(forged_session, Err(PapiError::NoEvst(_))));
    }

    #[test]
    fn snapshot_counts_sees_published_reads_and_generations() {
        let pool = pool();
        let token = pool.register_thread().unwrap();
        let set = token.create_eventset();
        token.add_event(set, Preset::TotIns.code()).unwrap();
        // Nothing published before the first read.
        assert!(matches!(pool.snapshot_counts(set), Err(PapiError::NotRun)));
        token.start(set).unwrap();
        token.run_for(10_000).unwrap();
        let mut out = [0i64; 1];
        token.read_into(set, &mut out).unwrap();
        let s1 = pool.snapshot_counts(set).unwrap();
        assert_eq!(s1.len, 1);
        assert_eq!(s1.values[0], out[0]);
        // More work: same generation, monotone values.
        token.run_for(10_000).unwrap();
        token.read_into(set, &mut out).unwrap();
        let s2 = pool.snapshot_counts(set).unwrap();
        assert_eq!(s2.generation, s1.generation);
        assert!(s2.values[0] >= s1.values[0]);
        // Reset opens a new generation and empties the publication until
        // the next read.
        token.reset(set).unwrap();
        assert!(matches!(pool.snapshot_counts(set), Err(PapiError::NotRun)));
        token.read_into(set, &mut out).unwrap();
        let s3 = pool.snapshot_counts(set).unwrap();
        assert!(s3.generation > s2.generation);
        token.stop(set).unwrap();
        assert!(matches!(pool.snapshot_counts(set), Err(PapiError::NotRun)));
        token.destroy_eventset(set).unwrap();
        pool.unregister_thread(token).unwrap();
        // Vacated slot: NoEvst, not NotRun.
        assert!(matches!(
            pool.snapshot_counts(set),
            Err(PapiError::NoEvst(_))
        ));
    }

    /// A pool of sessions over the scripted mock substrate: no simulator,
    /// so registration churn costs only the portable layer's own work.
    fn mock_pool() -> Arc<ThreadedPapi<MockSubstrate>> {
        Arc::new(ThreadedPapi::new(0, |_| Papi::init(MockSubstrate::new())))
    }

    /// One occupancy of a slot: register, publish one read, clean up and
    /// unregister. Returns the set's id and its published generation.
    fn occupy(pool: &Arc<ThreadedPapi<MockSubstrate>>) -> (TaggedSetId, u64) {
        let token = pool.register_thread().unwrap();
        let set = token.create_eventset();
        token.add_event(set, Preset::TotIns.code()).unwrap();
        token.start(set).unwrap();
        token.read_into(set, &mut [0i64; 1]).unwrap();
        let generation = pool.snapshot_counts(set).unwrap().generation;
        token.stop(set).unwrap();
        token.destroy_eventset(set).unwrap();
        pool.unregister_thread(token).unwrap();
        (set, generation)
    }

    #[test]
    fn generation_never_repeats_across_occupants_of_a_slot() {
        // A reused slot continues its generation, so no occupant's
        // publication can pass for an earlier one's.
        let pool = mock_pool();
        let (first_id, first_gen) = occupy(&pool);
        let (second_id, second_gen) = occupy(&pool);
        assert_eq!(
            second_id.slot(),
            first_id.slot(),
            "the vacated slot is reused in place"
        );
        assert!(
            second_gen > first_gen,
            "generation {second_gen} after {first_gen}"
        );
    }

    #[test]
    fn table_stays_dense_under_register_unregister_churn() {
        // One thread at a time: every registration reuses slot 0, and the
        // table never creates a second cell.
        let pool = mock_pool();
        for _ in 0..1_000 {
            assert_eq!(occupy(&pool).0.slot(), 0);
        }
        assert_eq!(pool.registered_threads(), 0);
        assert!(pool.table.cell(1).is_none());
    }

    #[test]
    fn sessions_are_built_outside_the_registration_lock() {
        // Each factory announces itself, then waits for the other to
        // start. Were the registration lock held across the factory, the
        // second could not start and the first would time out.
        let started = (Mutex::new(0u32), std::sync::Condvar::new());
        let pool = Arc::new(ThreadedPapi::new(0, move |_| {
            let (count, cv) = &started;
            let mut n = count.lock().unwrap();
            *n += 1;
            cv.notify_all();
            let five_s = std::time::Duration::from_secs(5);
            let (_n, wait) = cv.wait_timeout_while(n, five_s, |n| *n < 2).unwrap();
            if wait.timed_out() {
                return Err(PapiError::Inval("the other session never started"));
            }
            Papi::init(MockSubstrate::new())
        }));
        std::thread::scope(|s| {
            let register = || s.spawn(|| pool.register_thread().map(|t| pool.unregister_thread(t)));
            for j in [register(), register()] {
                assert!(matches!(j.join().unwrap(), Ok(Ok(_))));
            }
        });
    }

    #[test]
    fn stale_id_does_not_reach_the_next_occupant() {
        // A thread keeps an id past its unregistration; the same thread
        // registers again and lands on the same cell.
        let pool = mock_pool();
        let first = pool.register_thread().unwrap();
        let old = first.create_eventset();
        first.destroy_eventset(old).unwrap();
        pool.unregister_thread(first).unwrap();
        let second = pool.register_thread().unwrap();
        let set = second.create_eventset();
        second.add_event(set, Preset::TotIns.code()).unwrap();
        second.start(set).unwrap();
        second.read_into(set, &mut [0i64; 1]).unwrap();
        assert_eq!(set.slot(), old.slot());
        let inspected = pool.with_session_of(old, |p| p.num_events(old.local()));
        assert!(
            matches!(inspected, Err(PapiError::NoEvst(_))),
            "with_session_of reached the next occupant: {inspected:?}"
        );
        assert!(matches!(
            pool.snapshot_counts(old),
            Err(PapiError::NoEvst(_))
        ));
        assert!(matches!(second.num_events(old), Err(PapiError::Inval(_))));
        // The current occupant's own id still answers.
        assert_eq!(pool.snapshot_counts(set).unwrap().len, 1);
    }
}
