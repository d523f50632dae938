//! # papi-capi — the C API surface of the PAPI specification
//!
//! PAPI is specified as a C library; this crate exposes the specification's
//! function names and calling conventions (`PAPI_library_init`,
//! `PAPI_create_eventset`, `PAPI_start`, `PAPI_flops`, …) as
//! `extern "C"` symbols over `papi-core`, using the C API's global-session
//! model and its negative `PAPI_E*` return codes.
//!
//! Because the monitored "process" is a simulated machine, two `PAPIx_*`
//! extensions (not in the C spec) stand in for process creation: selecting
//! a platform and loading a workload. Everything else follows the spec.
//!
//! Safety: the C entry points take raw pointers; each documents and checks
//! its contract (null pointers are rejected with `PAPI_EINVAL`).

use papi_core::{
    BoxSubstrate, Papi, PapiError, PapiThread, Preset, Substrate, SubstrateRegistry, ThreadedPapi,
};
use std::cell::RefCell;
use std::ffi::{c_char, c_int, c_longlong, c_uint, c_ulong, CStr};
use std::sync::{Arc, Mutex};

/// `PAPI_VER_CURRENT` of the version we implement (3.0.0 encoded as in the
/// C header: major<<24 | minor<<16 | revision<<8).
#[allow(clippy::identity_op, clippy::erasing_op)]
pub const PAPI_VER_CURRENT: c_int = (3 << 24) | (0 << 16) | (0 << 8);

// The spec's return codes.
pub const PAPI_OK: c_int = 0;
pub const PAPI_EINVAL: c_int = -1;
pub const PAPI_ENOMEM: c_int = -2;
pub const PAPI_ESYS: c_int = -3;
pub const PAPI_ESBSTR: c_int = -4;
pub const PAPI_ENOEVNT: c_int = -7;
pub const PAPI_ECNFLCT: c_int = -8;
pub const PAPI_ENOTRUN: c_int = -9;
pub const PAPI_EISRUN: c_int = -10;
pub const PAPI_ENOEVST: c_int = -11;
pub const PAPI_ENOTPRESET: c_int = -12;
pub const PAPI_ENOCNTR: c_int = -13;
pub const PAPI_EMISC: c_int = -14;
pub const PAPI_ENOSUPP: c_int = -19;
pub const PAPI_ENOINIT: c_int = -22;

fn errno(e: &PapiError) -> c_int {
    match e {
        PapiError::Inval(_) => PAPI_EINVAL,
        PapiError::NoEvnt(_) => PAPI_ENOEVNT,
        PapiError::NotPreset(_) => PAPI_ENOTPRESET,
        PapiError::NoCntr => PAPI_ENOCNTR,
        PapiError::Cnflct => PAPI_ECNFLCT,
        PapiError::NotRun => PAPI_ENOTRUN,
        PapiError::IsRun => PAPI_EISRUN,
        PapiError::NoEvst(_) => PAPI_ENOEVST,
        PapiError::NoSupp(_) => PAPI_ENOSUPP,
        PapiError::Substrate(_) => PAPI_ESBSTR,
        // Transient substrate faults that survived the portable layer's
        // retry budget: distinguishable from permanent ESBSTR so C callers
        // can implement their own backoff.
        PapiError::SubstrateTransient(_) => PAPI_EMISC,
    }
}

// The C library's global session holds its substrate behind dynamic
// dispatch: `PAPIx_init_platform` picks any registry backend by name.
static SESSION: Mutex<Option<Papi<BoxSubstrate>>> = Mutex::new(None);

// Thread support, mirroring `PAPI_thread_init`/`PAPI_register_thread`:
// the platform name selected at init (new registered threads get their own
// substrate of the same platform), the per-thread session table,
// and the user-supplied thread-id function.
//
// The POOL mutex guards only this *handle slot* (swapped on init/shutdown).
// A registered thread's C calls never take it: they route through the
// thread-local TOKEN below, whose session lives behind papi-core's
// sequence-stamped cell — one uncontended compare-exchange per call, no OS
// mutex, so N registered C threads count without serializing on each
// other.
static PLATFORM: Mutex<Option<String>> = Mutex::new(None);
static POOL: Mutex<Option<Arc<ThreadedPapi<BoxSubstrate>>>> = Mutex::new(None);
static THREAD_ID_FN: Mutex<Option<extern "C" fn() -> c_ulong>> = Mutex::new(None);

thread_local! {
    // A registered thread's token: while present, every C API call from
    // this thread routes to the thread's own private session.
    static TOKEN: RefCell<Option<PapiThread<BoxSubstrate>>> = const { RefCell::new(None) };
}

fn with_papi<F: FnOnce(&mut Papi<BoxSubstrate>) -> c_int>(f: F) -> c_int {
    // A registered thread operates on its own session — same functions,
    // same EventSet handles, per-thread counters (the C API's per-thread
    // model: handles are only meaningful on the thread that made them).
    enum Routed<F> {
        Done(c_int),
        Global(F),
    }
    let routed = TOKEN.with(|t| match t.borrow().as_ref() {
        Some(token) => Routed::Done(token.with(|p| f(p))),
        None => Routed::Global(f),
    });
    let f = match routed {
        Routed::Done(rc) => return rc,
        Routed::Global(f) => f,
    };
    let mut guard = match SESSION.lock() {
        Ok(g) => g,
        Err(_) => return PAPI_EMISC,
    };
    match guard.as_mut() {
        Some(p) => f(p),
        None => PAPI_ENOINIT,
    }
}

/// `PAPI_library_init(PAPI_VER_CURRENT)`. Initializes the library on the
/// `sim-generic` platform (use [`PAPIx_init_platform`] for another). Returns
/// the version on success, like the C API.
///
/// # Safety
/// Safe to call from any thread; the session is a process-global guarded by
/// a mutex, as in the C library.
#[no_mangle]
pub extern "C" fn PAPI_library_init(version: c_int) -> c_int {
    if version != PAPI_VER_CURRENT {
        return PAPI_EINVAL;
    }
    init_platform("sim-generic")
}

fn registry() -> SubstrateRegistry {
    let mut reg = SubstrateRegistry::with_builtin();
    perfctr_emu::register_substrates(&mut reg);
    reg
}

fn init_platform(name: &str) -> c_int {
    match Papi::init_from_registry(&registry(), name, 42) {
        Ok(p) => {
            *SESSION.lock().unwrap() = Some(p);
            *PLATFORM.lock().unwrap() = Some(name.to_string());
            // A new platform invalidates the old per-thread session table;
            // threads registered after this point get the new substrate.
            *POOL.lock().unwrap() = None;
            PAPI_VER_CURRENT
        }
        Err(_) => PAPI_ESBSTR,
    }
}

/// Extension: initialize on a named substrate — any simulated platform
/// (`sim:x86`, or the legacy `sim-x86` spelling) or the `perfctr`
/// kernel-patch emulation.
///
/// # Safety
/// `name` must be a valid NUL-terminated C string.
#[no_mangle]
pub unsafe extern "C" fn PAPIx_init_platform(name: *const c_char) -> c_int {
    if name.is_null() {
        return PAPI_EINVAL;
    }
    let Ok(s) = CStr::from_ptr(name).to_str() else {
        return PAPI_EINVAL;
    };
    init_platform(s)
}

/// Extension: load a named demo workload (`matmul`, `dense_fp`, `stream`,
/// `chase`, `cg`) into the monitored machine.
///
/// # Safety
/// `name` must be a valid NUL-terminated C string.
#[no_mangle]
pub unsafe extern "C" fn PAPIx_load_workload(name: *const c_char) -> c_int {
    if name.is_null() {
        return PAPI_EINVAL;
    }
    let Ok(s) = CStr::from_ptr(name).to_str() else {
        return PAPI_EINVAL;
    };
    let program = match s {
        "matmul" => papi_workloads::matmul(24).program,
        "dense_fp" => papi_workloads::dense_fp(100_000, 4, 2).program,
        "stream" => papi_workloads::stream_copy(1 << 18, 2).program,
        "chase" => papi_workloads::pointer_chase(1 << 20, 100_000).program,
        "cg" => papi_workloads::cg_like(256, 8, 4).program,
        _ => return PAPI_EINVAL,
    };
    with_papi(|p| match p.substrate_mut().load_program(program.clone()) {
        Ok(()) => PAPI_OK,
        Err(e) => errno(&e),
    })
}

/// Extension: run the monitored application to completion.
#[no_mangle]
pub extern "C" fn PAPIx_run_app() -> c_int {
    with_papi(|p| match p.run_app() {
        Ok(()) => PAPI_OK,
        Err(e) => errno(&e),
    })
}

/// `PAPI_shutdown`.
///
/// Clears the global session, the per-thread session table, and the
/// calling thread's registration. Tokens held by *other* still-registered
/// threads keep their private sessions alive until those threads exit (or
/// call [`PAPI_unregister_thread`]); they can no longer be unregistered
/// through the retired table.
#[no_mangle]
pub extern "C" fn PAPI_shutdown() {
    *SESSION.lock().unwrap() = None;
    *POOL.lock().unwrap() = None;
    *THREAD_ID_FN.lock().unwrap() = None;
    TOKEN.with(|t| t.borrow_mut().take());
}

/// `PAPI_thread_init(id_fn)`: enable thread support, supplying the
/// function that names the calling OS thread (`pthread_self` in C).
/// Must follow `PAPI_library_init`; required before
/// [`PAPI_register_thread`].
///
/// # Safety
/// `id_fn` must be callable for the lifetime of the library (it is a plain
/// function pointer; a NULL pointer on the C side arrives as `None` and is
/// rejected with `PAPI_EINVAL`).
#[no_mangle]
pub extern "C" fn PAPI_thread_init(id_fn: Option<extern "C" fn() -> c_ulong>) -> c_int {
    let Some(id_fn) = id_fn else {
        return PAPI_EINVAL;
    };
    if SESSION.lock().map(|g| g.is_none()).unwrap_or(true) {
        return PAPI_ENOINIT;
    }
    *THREAD_ID_FN.lock().unwrap() = Some(id_fn);
    PAPI_OK
}

/// `PAPI_thread_id()`: the calling thread's id as reported by the
/// function given to [`PAPI_thread_init`], or `(unsigned long)-1` when
/// thread support is not initialized.
#[no_mangle]
pub extern "C" fn PAPI_thread_id() -> c_ulong {
    match *THREAD_ID_FN.lock().unwrap() {
        Some(f) => f(),
        None => c_ulong::MAX,
    }
}

/// `PAPI_register_thread()`: give the calling OS thread its own counter
/// context. From this call until [`PAPI_unregister_thread`], every PAPI
/// call from this thread operates on the thread's private session (its
/// own substrate, its own EventSet handles — handles are per-thread, as
/// in the C library).
///
/// Errors: `PAPI_ENOINIT` before `PAPI_library_init`, `PAPI_EMISC` before
/// [`PAPI_thread_init`], `PAPI_ECNFLCT` if the thread is already
/// registered.
#[no_mangle]
pub extern "C" fn PAPI_register_thread() -> c_int {
    if THREAD_ID_FN.lock().unwrap().is_none() {
        return PAPI_EMISC;
    }
    let Some(platform) = PLATFORM.lock().unwrap().clone() else {
        return PAPI_ENOINIT;
    };
    let pool = {
        let mut pool = POOL.lock().unwrap();
        pool.get_or_insert_with(|| {
            Arc::new(ThreadedPapi::from_registry(
                Arc::new(registry()),
                &platform,
                // Per-thread machines get seeds distinct from the global
                // session's fixed seed 42.
                1000,
            ))
        })
        .clone()
    };
    match pool.register_thread() {
        Ok(token) => {
            TOKEN.with(|t| *t.borrow_mut() = Some(token));
            PAPI_OK
        }
        Err(e) => errno(&e),
    }
}

/// `PAPI_unregister_thread()`: retire the calling thread's private
/// session and route its future PAPI calls back to the global session.
///
/// Fails with `PAPI_EINVAL` if the thread is not registered or still owns
/// live EventSets (destroy them first — real PAPI makes the same demand).
#[no_mangle]
pub extern "C" fn PAPI_unregister_thread() -> c_int {
    let Some(token) = TOKEN.with(|t| t.borrow_mut().take()) else {
        return PAPI_EINVAL;
    };
    let Some(pool) = POOL.lock().unwrap().clone() else {
        // The table was torn down (shutdown/platform change) while this
        // thread was registered; dropping the token frees its session.
        return PAPI_OK;
    };
    match pool.unregister_thread(token) {
        Ok(_session) => PAPI_OK,
        Err((token, e)) => {
            // Registration stands; the thread keeps its session.
            TOKEN.with(|t| *t.borrow_mut() = Some(token));
            errno(&e)
        }
    }
}

/// `PAPI_is_initialized`.
#[no_mangle]
pub extern "C" fn PAPI_is_initialized() -> c_int {
    if SESSION.lock().map(|g| g.is_some()).unwrap_or(false) {
        1 // PAPI_LOW_LEVEL_INITED
    } else {
        0 // PAPI_NOT_INITED
    }
}

/// `PAPI_num_counters`.
#[no_mangle]
pub extern "C" fn PAPI_num_counters() -> c_int {
    let mut out = PAPI_ENOINIT;
    let _ = with_papi(|p| {
        out = p.num_counters() as c_int;
        PAPI_OK
    });
    out
}

/// `PAPI_create_eventset(&es)`. `*es` must be `PAPI_NULL` (-1) on entry.
///
/// # Safety
/// `es` must be a valid, writable pointer.
#[no_mangle]
pub unsafe extern "C" fn PAPI_create_eventset(es: *mut c_int) -> c_int {
    if es.is_null() || *es != -1 {
        return PAPI_EINVAL;
    }
    with_papi(|p| {
        *es = p.create_eventset() as c_int;
        PAPI_OK
    })
}

/// `PAPI_destroy_eventset(&es)`; resets `*es` to `PAPI_NULL` on success.
///
/// # Safety
/// `es` must be a valid, writable pointer.
#[no_mangle]
pub unsafe extern "C" fn PAPI_destroy_eventset(es: *mut c_int) -> c_int {
    if es.is_null() || *es < 0 {
        return PAPI_EINVAL;
    }
    let id = *es as usize;
    with_papi(|p| match p.destroy_eventset(id) {
        Ok(()) => {
            *es = -1;
            PAPI_OK
        }
        Err(e) => errno(&e),
    })
}

/// `PAPI_add_event`.
#[no_mangle]
pub extern "C" fn PAPI_add_event(es: c_int, code: c_uint) -> c_int {
    if es < 0 {
        return PAPI_ENOEVST;
    }
    with_papi(|p| match p.add_event(es as usize, code) {
        Ok(()) => PAPI_OK,
        Err(e) => errno(&e),
    })
}

/// `PAPI_set_multiplex`.
#[no_mangle]
pub extern "C" fn PAPI_set_multiplex(es: c_int) -> c_int {
    if es < 0 {
        return PAPI_ENOEVST;
    }
    with_papi(|p| match p.set_multiplex(es as usize) {
        Ok(()) => PAPI_OK,
        Err(e) => errno(&e),
    })
}

/// `PAPI_start`.
#[no_mangle]
pub extern "C" fn PAPI_start(es: c_int) -> c_int {
    if es < 0 {
        return PAPI_ENOEVST;
    }
    with_papi(|p| match p.start(es as usize) {
        Ok(()) => PAPI_OK,
        Err(e) => errno(&e),
    })
}

unsafe fn copy_out(values: *mut c_longlong, v: &[i64]) -> c_int {
    if values.is_null() {
        return PAPI_EINVAL;
    }
    for (i, &x) in v.iter().enumerate() {
        *values.add(i) = x;
    }
    PAPI_OK
}

/// `PAPI_stop(es, values)`. `values` must have room for one `long long`
/// per event in the set.
///
/// # Safety
/// `values` must point to at least `PAPI_num_events(es)` writable slots.
#[no_mangle]
pub unsafe extern "C" fn PAPI_stop(es: c_int, values: *mut c_longlong) -> c_int {
    if es < 0 {
        return PAPI_ENOEVST;
    }
    with_papi(|p| match p.stop(es as usize) {
        Ok(v) => copy_out(values, &v),
        Err(e) => errno(&e),
    })
}

/// `PAPI_read(es, values)`.
///
/// Delegates to the zero-allocation `read_into` path: the caller's buffer is
/// filled in place, with no intermediate vector on this side of the FFI
/// boundary either.
///
/// # Safety
/// `values` must point to at least `PAPI_num_events(es)` writable slots.
#[no_mangle]
pub unsafe extern "C" fn PAPI_read(es: c_int, values: *mut c_longlong) -> c_int {
    if es < 0 {
        return PAPI_ENOEVST;
    }
    with_papi(|p| {
        let n = match p.num_events(es as usize) {
            Ok(n) => n,
            Err(e) => return errno(&e),
        };
        if values.is_null() {
            return PAPI_EINVAL;
        }
        let out = std::slice::from_raw_parts_mut(values, n);
        match p.read_into(es as usize, out) {
            Ok(()) => PAPI_OK,
            Err(e) => errno(&e),
        }
    })
}

/// `PAPI_accum(es, values)`.
///
/// # Safety
/// `values` must point to at least `PAPI_num_events(es)` readable+writable
/// slots.
#[no_mangle]
pub unsafe extern "C" fn PAPI_accum(es: c_int, values: *mut c_longlong) -> c_int {
    if es < 0 {
        return PAPI_ENOEVST;
    }
    with_papi(|p| {
        let n = match p.num_events(es as usize) {
            Ok(n) => n,
            Err(e) => return errno(&e),
        };
        if values.is_null() {
            return PAPI_EINVAL;
        }
        // Accumulate straight into the caller's buffer: `accum` stages its
        // read in per-session scratch, so no allocation happens here either.
        let acc = std::slice::from_raw_parts_mut(values, n);
        match p.accum(es as usize, acc) {
            Ok(()) => PAPI_OK,
            Err(e) => errno(&e),
        }
    })
}

/// `PAPI_reset`.
#[no_mangle]
pub extern "C" fn PAPI_reset(es: c_int) -> c_int {
    if es < 0 {
        return PAPI_ENOEVST;
    }
    with_papi(|p| match p.reset(es as usize) {
        Ok(()) => PAPI_OK,
        Err(e) => errno(&e),
    })
}

/// `PAPI_query_event`.
#[no_mangle]
pub extern "C" fn PAPI_query_event(code: c_uint) -> c_int {
    with_papi(|p| {
        if p.query_event(code) {
            PAPI_OK
        } else {
            PAPI_ENOEVNT
        }
    })
}

/// `PAPI_event_name_to_code`.
///
/// # Safety
/// `name` must be a valid NUL-terminated C string; `code` must be writable.
#[no_mangle]
pub unsafe extern "C" fn PAPI_event_name_to_code(name: *const c_char, code: *mut c_uint) -> c_int {
    if name.is_null() || code.is_null() {
        return PAPI_EINVAL;
    }
    let Ok(n) = CStr::from_ptr(name).to_str() else {
        return PAPI_EINVAL;
    };
    with_papi(|p| match p.event_name_to_code(n) {
        Ok(c) => {
            *code = c;
            PAPI_OK
        }
        Err(e) => errno(&e),
    })
}

/// `PAPI_get_real_usec`.
#[no_mangle]
pub extern "C" fn PAPI_get_real_usec() -> c_longlong {
    let mut out = 0;
    let _ = with_papi(|p| {
        out = p.get_real_usec() as c_longlong;
        PAPI_OK
    });
    out
}

/// `PAPI_get_real_cyc`.
#[no_mangle]
pub extern "C" fn PAPI_get_real_cyc() -> c_longlong {
    let mut out = 0;
    let _ = with_papi(|p| {
        out = p.get_real_cyc() as c_longlong;
        PAPI_OK
    });
    out
}

/// `PAPI_get_virt_usec` (thread 0, like the single-threaded C default).
#[no_mangle]
pub extern "C" fn PAPI_get_virt_usec() -> c_longlong {
    let mut out = 0;
    let _ = with_papi(|p| {
        out = p.get_virt_usec(0).unwrap_or(0) as c_longlong;
        PAPI_OK
    });
    out
}

/// `PAPI_flops(&rtime, &ptime, &flpops, &mflops)` — the spec's easy entry
/// point: first call starts counting, later calls report.
///
/// # Safety
/// All four pointers must be valid and writable.
#[no_mangle]
pub unsafe extern "C" fn PAPI_flops(
    rtime: *mut f32,
    ptime: *mut f32,
    flpops: *mut c_longlong,
    mflops: *mut f32,
) -> c_int {
    if rtime.is_null() || ptime.is_null() || flpops.is_null() || mflops.is_null() {
        return PAPI_EINVAL;
    }
    with_papi(|p| match p.flops() {
        Ok(f) => {
            *rtime = (f.real_us / 1e6) as f32;
            *ptime = (f.proc_us / 1e6) as f32;
            *flpops = f.flpops;
            *mflops = f.mflops as f32;
            PAPI_OK
        }
        Err(e) => errno(&e),
    })
}

/// The preset code of `PAPI_TOT_CYC` etc., exported as constants for C
/// callers (the header would `#define` these).
#[no_mangle]
pub extern "C" fn PAPI_preset_code(index: c_int) -> c_uint {
    Preset::ALL
        .get(index as usize)
        .map(|p| p.code())
        .unwrap_or(0)
}

/// `PAPI_num_events(es)`.
#[no_mangle]
pub extern "C" fn PAPI_num_events(es: c_int) -> c_int {
    if es < 0 {
        return PAPI_ENOEVST;
    }
    let mut out = PAPI_ENOEVST;
    let rc = with_papi(|p| match p.num_events(es as usize) {
        Ok(n) => {
            out = n as c_int;
            PAPI_OK
        }
        Err(e) => errno(&e),
    });
    if rc == PAPI_OK {
        out
    } else {
        rc
    }
}

/// `PAPI_list_events(es, codes, &n)`: on entry `*n` is the buffer size; on
/// exit it is the number of events written.
///
/// # Safety
/// `codes` must point to at least `*n` writable `c_uint` slots; `n` must be
/// valid and writable.
#[no_mangle]
pub unsafe extern "C" fn PAPI_list_events(es: c_int, codes: *mut c_uint, n: *mut c_int) -> c_int {
    if es < 0 {
        return PAPI_ENOEVST;
    }
    if codes.is_null() || n.is_null() || *n < 0 {
        return PAPI_EINVAL;
    }
    let cap = *n as usize;
    with_papi(|p| match p.list_events(es as usize) {
        Ok(evts) => {
            let k = evts.len().min(cap);
            for (i, &c) in evts.iter().take(k).enumerate() {
                *codes.add(i) = c;
            }
            *n = k as c_int;
            PAPI_OK
        }
        Err(e) => errno(&e),
    })
}

/// `PAPI_event_code_to_name(code, buf, len)`: NUL-terminated, truncating.
///
/// # Safety
/// `buf` must point to at least `len` writable bytes.
#[no_mangle]
pub unsafe extern "C" fn PAPI_event_code_to_name(
    code: c_uint,
    buf: *mut c_char,
    len: c_int,
) -> c_int {
    if buf.is_null() || len <= 0 {
        return PAPI_EINVAL;
    }
    with_papi(|p| match p.event_code_to_name(code) {
        Ok(name) => {
            let bytes = name.as_bytes();
            let k = bytes.len().min(len as usize - 1);
            for (i, &b) in bytes.iter().take(k).enumerate() {
                *buf.add(i) = b as c_char;
            }
            *buf.add(k) = 0;
            PAPI_OK
        }
        Err(e) => errno(&e),
    })
}

/// `PAPI_strerror(code)`: static description of an error code, or NULL for
/// an unknown code (as in the C library).
#[no_mangle]
pub extern "C" fn PAPI_strerror(code: c_int) -> *const c_char {
    let s: &'static CStr = match code {
        PAPI_OK => c"No error",
        PAPI_EINVAL => c"Invalid argument",
        PAPI_ENOMEM => c"Insufficient memory",
        PAPI_ESYS => c"A system or C library call failed",
        PAPI_ESBSTR => c"Substrate returned an error",
        PAPI_ENOEVNT => c"Event does not exist",
        PAPI_ECNFLCT => c"Event exists, but cannot be counted due to hardware resource limits",
        PAPI_ENOTRUN => c"EventSet is currently not running",
        PAPI_EISRUN => c"EventSet is currently counting",
        PAPI_ENOEVST => c"No such EventSet available",
        PAPI_ENOTPRESET => c"Event in argument is not a valid preset",
        PAPI_ENOCNTR => c"Hardware does not support performance counters",
        PAPI_EMISC => c"Unknown error code",
        PAPI_ENOSUPP => c"Not supported",
        PAPI_ENOINIT => c"PAPI hasn't been initialized yet",
        _ => return std::ptr::null(),
    };
    s.as_ptr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ffi::CString;

    // The global session serializes these tests.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn cstr(s: &str) -> CString {
        CString::new(s).unwrap()
    }

    #[test]
    fn c_api_full_flow() {
        let _g = TEST_LOCK.lock().unwrap();
        assert_eq!(PAPI_library_init(PAPI_VER_CURRENT), PAPI_VER_CURRENT);
        assert_eq!(PAPI_is_initialized(), 1);
        unsafe {
            assert_eq!(PAPIx_load_workload(cstr("matmul").as_ptr()), PAPI_OK);
            let mut es: c_int = -1;
            assert_eq!(PAPI_create_eventset(&mut es), PAPI_OK);
            assert!(es >= 0);
            let mut code: c_uint = 0;
            assert_eq!(
                PAPI_event_name_to_code(cstr("PAPI_FP_OPS").as_ptr(), &mut code),
                PAPI_OK
            );
            assert_eq!(PAPI_add_event(es, code), PAPI_OK);
            assert_eq!(PAPI_start(es), PAPI_OK);
            assert_eq!(PAPIx_run_app(), PAPI_OK);
            let mut values: [c_longlong; 1] = [0];
            assert_eq!(PAPI_stop(es, values.as_mut_ptr()), PAPI_OK);
            assert_eq!(values[0], 2 * 24i64.pow(3));
            assert_eq!(PAPI_destroy_eventset(&mut es), PAPI_OK);
            assert_eq!(es, -1);
        }
        PAPI_shutdown();
        assert_eq!(PAPI_is_initialized(), 0);
    }

    #[test]
    fn c_api_init_on_named_substrates() {
        let _g = TEST_LOCK.lock().unwrap();
        unsafe {
            // Registry spelling, legacy spelling, and the perfctr backend
            // all initialize; unknown names map to PAPI_ESBSTR.
            for name in ["sim:power3", "sim-power3", "perfctr"] {
                assert_eq!(
                    PAPIx_init_platform(cstr(name).as_ptr()),
                    PAPI_VER_CURRENT,
                    "{name}"
                );
            }
            assert_eq!(PAPIx_init_platform(cstr("sim-vax").as_ptr()), PAPI_ESBSTR);
            // The perfctr session counts like any other.
            assert_eq!(
                PAPIx_init_platform(cstr("perfctr").as_ptr()),
                PAPI_VER_CURRENT
            );
            assert_eq!(PAPIx_load_workload(cstr("matmul").as_ptr()), PAPI_OK);
            let mut es: c_int = -1;
            assert_eq!(PAPI_create_eventset(&mut es), PAPI_OK);
            let mut code: c_uint = 0;
            assert_eq!(
                PAPI_event_name_to_code(cstr("PAPI_FP_OPS").as_ptr(), &mut code),
                PAPI_OK
            );
            assert_eq!(PAPI_add_event(es, code), PAPI_OK);
            assert_eq!(PAPI_start(es), PAPI_OK);
            assert_eq!(PAPIx_run_app(), PAPI_OK);
            let mut values: [c_longlong; 1] = [0];
            assert_eq!(PAPI_stop(es, values.as_mut_ptr()), PAPI_OK);
            assert_eq!(values[0], 2 * 24i64.pow(3));
        }
        PAPI_shutdown();
    }

    #[test]
    fn c_api_error_codes() {
        let _g = TEST_LOCK.lock().unwrap();
        PAPI_shutdown();
        // Not initialized.
        assert_eq!(PAPI_start(0), PAPI_ENOINIT);
        assert_eq!(PAPI_library_init(123), PAPI_EINVAL);
        assert_eq!(PAPI_library_init(PAPI_VER_CURRENT), PAPI_VER_CURRENT);
        unsafe {
            // Bad eventset handles.
            assert_eq!(PAPI_add_event(-1, 0), PAPI_ENOEVST);
            assert_eq!(PAPI_add_event(99, PAPI_preset_code(0)), PAPI_ENOEVST);
            let mut es: c_int = 5; // must be PAPI_NULL on entry
            assert_eq!(PAPI_create_eventset(&mut es), PAPI_EINVAL);
            es = -1;
            assert_eq!(PAPI_create_eventset(&mut es), PAPI_OK);
            // Unknown event.
            assert_eq!(PAPI_add_event(es, 0x4abc_0000), PAPI_ENOEVNT);
            // Stop before start.
            let mut v: [c_longlong; 1] = [0];
            assert_eq!(PAPI_stop(es, v.as_mut_ptr()), PAPI_ENOTRUN);
            // Unknown workload / null pointers.
            assert_eq!(PAPIx_load_workload(cstr("nope").as_ptr()), PAPI_EINVAL);
            assert_eq!(PAPIx_load_workload(std::ptr::null()), PAPI_EINVAL);
            let mut code: c_uint = 0;
            assert_eq!(
                PAPI_event_name_to_code(std::ptr::null(), &mut code),
                PAPI_EINVAL
            );
        }
        PAPI_shutdown();
    }

    #[test]
    fn c_api_introspection_and_strerror() {
        let _g = TEST_LOCK.lock().unwrap();
        assert_eq!(PAPI_library_init(PAPI_VER_CURRENT), PAPI_VER_CURRENT);
        unsafe {
            let mut es: c_int = -1;
            PAPI_create_eventset(&mut es);
            let c0 = PAPI_preset_code(0);
            let c1 = PAPI_preset_code(1);
            PAPI_add_event(es, c0);
            PAPI_add_event(es, c1);
            assert_eq!(PAPI_num_events(es), 2);
            let mut codes = [0u32; 8];
            let mut n: c_int = 8;
            assert_eq!(PAPI_list_events(es, codes.as_mut_ptr(), &mut n), PAPI_OK);
            assert_eq!(n, 2);
            assert_eq!(codes[0], c0);
            let mut buf = [0i8; 32];
            assert_eq!(PAPI_event_code_to_name(c0, buf.as_mut_ptr(), 32), PAPI_OK);
            let name = CStr::from_ptr(buf.as_ptr()).to_str().unwrap();
            assert_eq!(name, "PAPI_TOT_CYC");
            // Truncation keeps NUL termination.
            let mut tiny = [0i8; 6];
            assert_eq!(PAPI_event_code_to_name(c0, tiny.as_mut_ptr(), 6), PAPI_OK);
            assert_eq!(CStr::from_ptr(tiny.as_ptr()).to_str().unwrap(), "PAPI_");
            // strerror
            let msg = CStr::from_ptr(PAPI_strerror(PAPI_ECNFLCT))
                .to_str()
                .unwrap();
            assert!(msg.contains("hardware resource"));
            assert!(PAPI_strerror(-999).is_null());
        }
        PAPI_shutdown();
    }

    #[test]
    fn c_api_flops_easy_path() {
        let _g = TEST_LOCK.lock().unwrap();
        assert_eq!(PAPI_library_init(PAPI_VER_CURRENT), PAPI_VER_CURRENT);
        unsafe {
            assert_eq!(PAPIx_load_workload(cstr("dense_fp").as_ptr()), PAPI_OK);
            let (mut rt, mut pt, mut fl, mut mf) = (0f32, 0f32, 0i64, 0f32);
            assert_eq!(PAPI_flops(&mut rt, &mut pt, &mut fl, &mut mf), PAPI_OK);
            assert_eq!(fl, 0);
            assert_eq!(PAPIx_run_app(), PAPI_OK);
            assert_eq!(PAPI_flops(&mut rt, &mut pt, &mut fl, &mut mf), PAPI_OK);
            assert_eq!(fl, 100_000 * 10); // 4 FMA x2 + 2 adds
            assert!(mf > 0.0 && rt > 0.0 && pt > 0.0);
        }
        PAPI_shutdown();
    }

    extern "C" fn fake_tid() -> c_ulong {
        7
    }

    #[test]
    fn c_api_thread_registration_flow() {
        let _g = TEST_LOCK.lock().unwrap();
        assert_eq!(PAPI_library_init(PAPI_VER_CURRENT), PAPI_VER_CURRENT);
        // Thread support is opt-in, as in the C library.
        assert_eq!(PAPI_thread_id(), c_ulong::MAX);
        assert_eq!(PAPI_register_thread(), PAPI_EMISC);
        assert_eq!(PAPI_thread_init(None), PAPI_EINVAL);
        assert_eq!(PAPI_thread_init(Some(fake_tid)), PAPI_OK);
        assert_eq!(PAPI_thread_id(), 7);
        // Unregistering a never-registered thread is an error, not a panic.
        assert_eq!(PAPI_unregister_thread(), PAPI_EINVAL);

        let mut joins = Vec::new();
        for _ in 0..4 {
            joins.push(std::thread::spawn(|| unsafe {
                assert_eq!(PAPI_register_thread(), PAPI_OK);
                // Double registration of the same OS thread conflicts.
                assert_eq!(PAPI_register_thread(), PAPI_ECNFLCT);
                // From here, every call operates on this thread's private
                // session: its own machine, workload, and EventSet handles.
                assert_eq!(PAPIx_load_workload(cstr("matmul").as_ptr()), PAPI_OK);
                let mut es: c_int = -1;
                assert_eq!(PAPI_create_eventset(&mut es), PAPI_OK);
                let mut code: c_uint = 0;
                assert_eq!(
                    PAPI_event_name_to_code(cstr("PAPI_FP_OPS").as_ptr(), &mut code),
                    PAPI_OK
                );
                assert_eq!(PAPI_add_event(es, code), PAPI_OK);
                assert_eq!(PAPI_start(es), PAPI_OK);
                assert_eq!(PAPIx_run_app(), PAPI_OK);
                let mut v: [c_longlong; 1] = [0];
                assert_eq!(PAPI_stop(es, v.as_mut_ptr()), PAPI_OK);
                // Unregistering with a live EventSet is rejected; the
                // registration (and the handle) survive for cleanup.
                assert_eq!(PAPI_unregister_thread(), PAPI_EINVAL);
                assert_eq!(PAPI_destroy_eventset(&mut es), PAPI_OK);
                assert_eq!(PAPI_unregister_thread(), PAPI_OK);
                v[0]
            }));
        }
        let counts: Vec<c_longlong> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        // Four private machines ran four private matmuls: identical, exact.
        assert!(counts.iter().all(|&c| c == 2 * 24i64.pow(3)), "{counts:?}");
        PAPI_shutdown();
        assert_eq!(PAPI_thread_id(), c_ulong::MAX);
    }

    #[test]
    fn c_api_registered_thread_does_not_disturb_global_session() {
        let _g = TEST_LOCK.lock().unwrap();
        assert_eq!(PAPI_library_init(PAPI_VER_CURRENT), PAPI_VER_CURRENT);
        assert_eq!(PAPI_thread_init(Some(fake_tid)), PAPI_OK);
        unsafe {
            // Global session counts matmul on the main thread...
            assert_eq!(PAPIx_load_workload(cstr("matmul").as_ptr()), PAPI_OK);
            let mut es: c_int = -1;
            assert_eq!(PAPI_create_eventset(&mut es), PAPI_OK);
            let mut code: c_uint = 0;
            PAPI_event_name_to_code(cstr("PAPI_FP_OPS").as_ptr(), &mut code);
            assert_eq!(PAPI_add_event(es, code), PAPI_OK);
            assert_eq!(PAPI_start(es), PAPI_OK);
            // ...while a registered thread counts a different workload on
            // its own machine, concurrently.
            let t = std::thread::spawn(move || {
                assert_eq!(PAPI_register_thread(), PAPI_OK);
                assert_eq!(PAPIx_load_workload(cstr("dense_fp").as_ptr()), PAPI_OK);
                let mut es: c_int = -1;
                assert_eq!(PAPI_create_eventset(&mut es), PAPI_OK);
                assert_eq!(PAPI_add_event(es, code), PAPI_OK);
                assert_eq!(PAPI_start(es), PAPI_OK);
                assert_eq!(PAPIx_run_app(), PAPI_OK);
                let mut v: [c_longlong; 1] = [0];
                assert_eq!(PAPI_stop(es, v.as_mut_ptr()), PAPI_OK);
                assert_eq!(PAPI_destroy_eventset(&mut es), PAPI_OK);
                assert_eq!(PAPI_unregister_thread(), PAPI_OK);
                v[0]
            });
            let thread_flops = t.join().unwrap();
            assert_eq!(thread_flops, 100_000 * 10);
            // The global session's count is untouched by the thread's run.
            assert_eq!(PAPIx_run_app(), PAPI_OK);
            let mut v: [c_longlong; 1] = [0];
            assert_eq!(PAPI_stop(es, v.as_mut_ptr()), PAPI_OK);
            assert_eq!(v[0], 2 * 24i64.pow(3));
        }
        PAPI_shutdown();
    }

    #[test]
    fn c_api_accum_and_reset() {
        let _g = TEST_LOCK.lock().unwrap();
        assert_eq!(PAPI_library_init(PAPI_VER_CURRENT), PAPI_VER_CURRENT);
        unsafe {
            assert_eq!(PAPIx_load_workload(cstr("dense_fp").as_ptr()), PAPI_OK);
            let mut es: c_int = -1;
            PAPI_create_eventset(&mut es);
            let mut code: c_uint = 0;
            PAPI_event_name_to_code(cstr("PAPI_FMA_INS").as_ptr(), &mut code);
            PAPI_add_event(es, code);
            PAPI_start(es);
            PAPIx_run_app();
            let mut acc: [c_longlong; 1] = [1000];
            assert_eq!(PAPI_accum(es, acc.as_mut_ptr()), PAPI_OK);
            assert_eq!(acc[0], 1000 + 400_000);
            let mut v: [c_longlong; 1] = [0];
            assert_eq!(PAPI_read(es, v.as_mut_ptr()), PAPI_OK);
            assert_eq!(v[0], 0); // accum reset the counter
            PAPI_stop(es, v.as_mut_ptr());
        }
        PAPI_shutdown();
    }
}
