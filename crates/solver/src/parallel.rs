//! Workspace-wide parallel execution layer.
//!
//! Every data-parallel hot path in the workspace — CSR SpMV and the
//! BLAS-1 kernels here in `ppdl-solver`, GEMM row blocks and minibatch
//! chunks in `ppdl-nn`, per-scenario solves in `ppdl-analysis`, per-γ
//! sweeps and synthesis candidates in `ppdl-core`, request batches in
//! `ppdl-service` — runs through the four primitives in this module
//! ([`par_chunks_mut`], [`par_row_chunks_mut`], [`par_reduce`],
//! [`par_map_vec`]), so one configuration governs the whole stack:
//!
//! * **Thread count** — `PPDL_THREADS` env override (sampled once, at
//!   the first kernel use — see [`current_threads`]), else the hardware
//!   parallelism; [`set_threads`] overrides at runtime (`0` resets).
//! * **Threshold** — inputs smaller than [`par_threshold`] elements stay
//!   on the sequential code path, so small grids pay no thread-spawn
//!   overhead ([`set_par_threshold`] tunes it).
//!
//! # One level of parallelism under one thread budget
//!
//! The four primitives share one private `fork` helper with three
//! rules:
//!
//! 1. **The caller does a share.** The calling thread runs part 0 of a
//!    region itself, so a region split `n` ways spawns `n - 1` scoped
//!    threads.
//! 2. **Nested calls run inline.** A thread-local flag marks workers,
//!    and the caller while it runs its part. A primitive reached under
//!    that flag — a GEMM inside a `par_map_vec` chunk, a CG dot product
//!    inside a per-scenario solve — runs on the current thread.
//! 3. **One shared budget.** The whole process may have at most
//!    `current_threads() - 1` spawned workers at once. A region claims
//!    workers from that atomic budget and a `Drop` guard returns them,
//!    also when a worker panics. A region that gets no budget — say,
//!    the second of two connection threads serving requests at once —
//!    runs inline, so concurrent callers add no threads beyond the
//!    budget.
//!
//! So a region uses at most `current_threads()` threads, and all
//! regions together at most `current_threads() - 1` threads beyond
//! their callers. Scoped threads are spawned per region rather than
//! kept in a persistent pool: a pool that runs closures borrowing the
//! caller's stack needs lifetime-erasing `unsafe`, which this workspace
//! forbids, and a region costs only a few spawns once nesting and
//! oversubscription are gone.
//!
//! # Determinism guarantee
//!
//! Results are **bit-stable across thread counts**. The rules that make
//! this hold, which every caller must preserve:
//!
//! 1. Work decomposition depends only on the input *size* (fixed
//!    [`REDUCTION_CHUNK`]-element chunks, or per-element independence),
//!    never on the thread count or on how much budget a region got.
//! 2. Reductions compute one partial per fixed chunk and fold them on
//!    the calling thread in ascending chunk order ([`par_reduce`]).
//! 3. Element-wise kernels write disjoint output ranges whose values do
//!    not depend on the split ([`par_chunks_mut`], [`par_map_vec`]).
//!
//! Thread counts therefore change only *where* chunks execute, never
//! what is computed — `PPDL_THREADS=1` and `PPDL_THREADS=64` produce
//! bitwise-identical solver output and identical trained-model weights.
//!
//! # Telemetry
//!
//! With `ppdl_obs` collection on, each region carries its caller's open
//! span path into its workers (a span opened inside a `par_map_vec`
//! closure records under the caller's path), and the counters
//! `parallel/spawned` (workers started) and `parallel/inline` (regions
//! that would have forked but ran inline, nested or without budget)
//! show how the budget is spent.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

/// Default sequential-fallback threshold, in elements (rows for SpMV).
///
/// Below this size the cost of spawning scoped threads dominates the
/// kernel itself; the value is conservative so the ibmpg1-scale grids
/// keep their single-threaded performance profile.
pub const DEFAULT_PAR_THRESHOLD: usize = 4096;

/// Fixed reduction chunk size, in elements.
///
/// Chunk boundaries are a function of input length only — **never** of
/// the thread count — which is what makes chunked reductions bit-stable
/// across `PPDL_THREADS` settings.
pub const REDUCTION_CHUNK: usize = 4096;

/// Sentinel meaning "no runtime override installed".
const UNSET: usize = usize::MAX;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(UNSET);
static THRESHOLD: AtomicUsize = AtomicUsize::new(DEFAULT_PAR_THRESHOLD);
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

fn hardware_threads() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn env_or_hardware_threads() -> usize {
    *ENV_THREADS.get_or_init(|| {
        std::env::var("PPDL_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(hardware_threads)
    })
}

/// The number of worker threads parallel kernels may use.
///
/// Resolution order: [`set_threads`] override → `PPDL_THREADS` env
/// variable (read once, first use) → hardware parallelism.
///
/// # Read-once semantics
///
/// `PPDL_THREADS` is sampled into a `OnceLock` the **first** time this
/// function runs (every kernel entry point calls it), and that sample
/// is final: mutating the env var afterwards — from a test, or from
/// code that runs after the first solve — is silently ignored. Two
/// consequences for callers:
///
/// * Set `PPDL_THREADS` in the *environment of the process*, before
///   any kernel executes, never via `std::env::set_var` mid-run.
/// * Anything that wants to change the count at runtime must go
///   through [`set_threads`], which always wins over the cached env
///   value. The `ppdl` CLI and `ppdl-bench` both route their
///   `--threads` flags through [`set_threads`] before the first kernel
///   use for exactly this reason.
#[must_use]
pub fn current_threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        UNSET => env_or_hardware_threads(),
        n => n,
    }
}

/// Overrides the worker-thread count at runtime; `0` removes the
/// override, restoring the `PPDL_THREADS`/hardware default.
///
/// Takes effect for subsequent kernel invocations process-wide (the
/// determinism guarantee means results do not change, only speed).
pub fn set_threads(threads: usize) {
    let v = if threads == 0 { UNSET } else { threads };
    THREAD_OVERRIDE.store(v, Ordering::Relaxed);
}

/// The sequential-fallback threshold in elements: inputs smaller than
/// this run on the calling thread.
#[must_use]
pub fn par_threshold() -> usize {
    THRESHOLD.load(Ordering::Relaxed)
}

/// Tunes the sequential-fallback threshold (process-wide).
///
/// Note that [`par_reduce`] ties its *decomposition* to
/// [`REDUCTION_CHUNK`], not to this threshold, so changing the
/// threshold never changes reduction results — only which sizes bother
/// spawning threads.
pub fn set_par_threshold(threshold: usize) {
    THRESHOLD.store(threshold, Ordering::Relaxed);
}

/// Snapshot of the effective parallel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads kernels may use (see [`current_threads`]).
    pub threads: usize,
    /// Sequential-fallback threshold in elements.
    pub threshold: usize,
}

/// Reads the effective configuration.
#[must_use]
pub fn parallel_config() -> ParallelConfig {
    ParallelConfig {
        threads: current_threads(),
        threshold: par_threshold(),
    }
}

/// Splits `0..len` into `parts` near-equal contiguous ranges.
fn split_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, len.max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Spawned workers currently claimed, process-wide (rule 3).
static BUSY_WORKERS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while this thread runs a part of a region (rule 2).
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as inside a region until dropped, restoring
/// the previous mark (also on unwind).
struct RegionMark {
    was: bool,
}

impl RegionMark {
    fn enter() -> Self {
        Self {
            was: IN_REGION.with(|flag| flag.replace(true)),
        }
    }
}

impl Drop for RegionMark {
    fn drop(&mut self) {
        IN_REGION.with(|flag| flag.set(self.was));
    }
}

/// Workers claimed from the process budget; returned on drop, so a
/// panicking region gives them back too.
struct Claim {
    workers: usize,
}

impl Claim {
    /// Claims up to `want` workers: none from inside a region, else as
    /// many as the budget of `current_threads() - 1` has free.
    fn new(want: usize) -> Self {
        if want == 0 || IN_REGION.with(Cell::get) {
            return Self { workers: 0 };
        }
        let limit = current_threads().saturating_sub(1);
        let mut workers = 0;
        let _ = BUSY_WORKERS.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |busy| {
            workers = want.min(limit.saturating_sub(busy));
            (workers > 0).then_some(busy + workers)
        });
        Self { workers }
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        if self.workers > 0 {
            BUSY_WORKERS.fetch_sub(self.workers, Ordering::SeqCst);
        }
    }
}

/// The one spawn/join path behind every primitive: claims up to
/// `max_parts - 1` workers, cuts the work with `split(parts)` for the
/// granted part count, runs part 0 on the calling thread and the rest
/// on scoped workers, and returns the results in part order. With no
/// workers granted, `split(1)` runs inline. A worker panic re-raises
/// its original payload on the caller.
fn fork<P, R>(
    max_parts: usize,
    split: impl FnOnce(usize) -> Vec<P>,
    run: impl Fn(P) -> R + Sync,
) -> Vec<R>
where
    P: Send,
    R: Send,
{
    let claim = Claim::new(max_parts.saturating_sub(1));
    let mut parts = split(claim.workers + 1).into_iter();
    let _mark = RegionMark::enter();
    if claim.workers == 0 {
        ppdl_obs::counter_add("parallel/inline", 1);
        return parts.map(&run).collect();
    }
    let Some(first) = parts.next() else {
        return Vec::new();
    };
    ppdl_obs::counter_add("parallel/spawned", parts.len() as u64);
    let context = ppdl_obs::span_context();
    thread::scope(|scope| {
        let handles: Vec<_> = parts
            .map(|part| {
                let (run, context) = (&run, &context);
                scope.spawn(move || {
                    let _mark = RegionMark::enter();
                    let _spans = context.enter();
                    run(part)
                })
            })
            .collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(run(first));
        // Re-raise a worker panic on the calling thread instead of
        // replacing it with a second panic message
        // (robustness/unwrap-in-lib).
        out.extend(handles.into_iter().map(|h| {
            h.join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
        }));
        out
    })
}

/// Splits `out` into `parts` contiguous chunks whose lengths are
/// multiples of `width`, each paired with the index of its first row.
fn row_chunks<T>(out: &mut [T], width: usize, parts: usize) -> Vec<(usize, &mut [T])> {
    let mut rest = out;
    split_ranges(rest.len() / width, parts)
        .into_iter()
        .map(|rows| {
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(rows.len() * width);
            rest = tail;
            (rows.start, chunk)
        })
        .collect()
}

/// Runs `f(offset, chunk)` over disjoint contiguous chunks of `out`,
/// in parallel when `out` is at least [`par_threshold`] elements and
/// more than one worker thread is configured; otherwise `f(0, out)`
/// runs on the calling thread.
///
/// Determinism: callers must compute each element identically however
/// the slice is split (true for element-wise kernels and for row-wise
/// SpMV, where each output element depends only on shared inputs).
pub fn par_chunks_mut<T, F>(out: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    par_row_chunks_mut(out, 1, f);
}

/// Row-aligned variant of [`par_chunks_mut`]: runs `f(row0, chunk)`
/// over disjoint chunks of `out` whose boundaries always fall on
/// multiples of `width` elements, so a caller can treat `out` as a
/// row-major matrix and hand each worker whole rows. `f` receives the
/// index of the first row in its chunk.
///
/// Parallel when the matrix has at least [`par_threshold`] *elements*
/// and more than one worker thread is configured; otherwise `f(0, out)`
/// runs inline. The GEMM row-block kernels in `ppdl-nn` are built on
/// this: each output row is a fixed-order accumulation independent of
/// the split, so results are bitwise identical at every thread count.
///
/// # Panics
///
/// Panics if `width == 0` or `out.len()` is not a multiple of `width`.
pub fn par_row_chunks_mut<T, F>(out: &mut [T], width: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(width > 0, "par_row_chunks_mut: width must be positive");
    assert_eq!(
        out.len() % width,
        0,
        "par_row_chunks_mut: slice length {} is not a multiple of row width {width}",
        out.len()
    );
    let rows = out.len() / width;
    let threads = current_threads();
    if threads <= 1 || out.len() < par_threshold() {
        f(0, out);
        return;
    }
    fork(
        threads.min(rows),
        |parts| row_chunks(out, width, parts),
        |(row0, chunk)| f(row0, chunk),
    );
}

/// Deterministic chunked map-reduce over `0..len`.
///
/// The index space is cut into fixed [`REDUCTION_CHUNK`]-element chunks
/// (boundaries depend on `len` only), `map` produces one partial per
/// chunk, and the partials are folded with `fold` on the calling thread
/// in ascending chunk order — so the result is bitwise identical for
/// any thread count, including one. Returns `None` when `len == 0`.
///
/// Below the [`par_threshold`] the single remaining chunk is mapped
/// inline, which is exactly the sequential kernel.
pub fn par_reduce<T, M, F>(len: usize, map: M, mut fold: F) -> Option<T>
where
    T: Send,
    M: Fn(Range<usize>) -> T + Sync,
    F: FnMut(T, T) -> T,
{
    if len == 0 {
        return None;
    }
    let n_chunks = len.div_ceil(REDUCTION_CHUNK);
    let chunk_range = |c: usize| c * REDUCTION_CHUNK..((c + 1) * REDUCTION_CHUNK).min(len);
    let threads = current_threads();
    if threads <= 1 || n_chunks <= 1 || len < par_threshold() {
        return (0..n_chunks).map(|c| map(chunk_range(c))).reduce(&mut fold);
    }
    // Contiguous chunk-index spans per part keep the concatenated
    // partials in ascending chunk order.
    fork(
        threads.min(n_chunks),
        |parts| split_ranges(n_chunks, parts),
        |span| span.map(|c| map(chunk_range(c))).collect::<Vec<T>>(),
    )
    .into_iter()
    .flatten()
    .reduce(&mut fold)
}

/// Index-preserving parallel map: `out[i] = f(i, &items[i])`.
///
/// Parallel when `items` has at least two elements, more than one
/// worker thread is configured, and `f` is presumed expensive (this
/// entry point is for coarse-grained work such as per-scenario solves;
/// it ignores the element threshold). Each item is computed
/// independently, so results never depend on the split.
pub fn par_map_vec<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = current_threads();
    if threads <= 1 || items.len() < 2 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    fork(
        threads.min(items.len()),
        |parts| split_ranges(items.len(), parts),
        |span| span.map(|i| f(i, &items[i])).collect::<Vec<R>>(),
    )
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises tests that mutate the global config.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn split_ranges_cover_everything() {
        for len in [0usize, 1, 5, 17, 4096, 4097] {
            for parts in [1usize, 2, 3, 8] {
                let ranges = split_ranges(len, parts);
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    expect = r.end;
                }
                assert_eq!(expect, len);
            }
        }
    }

    #[test]
    fn config_roundtrip() {
        let _g = LOCK.lock().unwrap();
        set_threads(3);
        assert_eq!(current_threads(), 3);
        set_threads(0);
        assert!(current_threads() >= 1);
        let old = par_threshold();
        set_par_threshold(128);
        assert_eq!(parallel_config().threshold, 128);
        set_par_threshold(old);
    }

    #[test]
    fn par_chunks_mut_writes_every_element() {
        let _g = LOCK.lock().unwrap();
        let old = par_threshold();
        set_par_threshold(16);
        set_threads(4);
        let mut v = vec![0.0_f64; 1000];
        par_chunks_mut(&mut v, |offset, chunk| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = (offset + i) as f64;
            }
        });
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i as f64);
        }
        set_threads(0);
        set_par_threshold(old);
    }

    #[test]
    fn par_row_chunks_mut_respects_row_boundaries() {
        let _g = LOCK.lock().unwrap();
        let old = par_threshold();
        set_par_threshold(16);
        set_threads(3);
        const WIDTH: usize = 7;
        let mut v = vec![0usize; 100 * WIDTH];
        par_row_chunks_mut(&mut v, WIDTH, |row0, chunk| {
            assert_eq!(chunk.len() % WIDTH, 0, "chunk not row-aligned");
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = (row0 * WIDTH + i) % WIDTH + row0 + i / WIDTH;
            }
        });
        set_threads(0);
        set_par_threshold(old);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i % WIDTH + i / WIDTH, "element {i}");
        }
    }

    #[test]
    #[should_panic(expected = "multiple of row width")]
    fn par_row_chunks_mut_rejects_misaligned_slice() {
        let mut v = vec![0.0_f64; 10];
        par_row_chunks_mut(&mut v, 3, |_, _| {});
    }

    #[test]
    fn par_reduce_is_bit_stable_across_thread_counts() {
        let _g = LOCK.lock().unwrap();
        let old = par_threshold();
        set_par_threshold(16);
        let data: Vec<f64> = (0..100_000)
            .map(|i| ((i * 37) % 101) as f64 * 0.7)
            .collect();
        let sum = |r: Range<usize>| data[r].iter().sum::<f64>();
        let mut results = Vec::new();
        for threads in [1usize, 2, 4, 7] {
            set_threads(threads);
            results.push(par_reduce(data.len(), sum, |a, b| a + b).unwrap());
        }
        set_threads(0);
        set_par_threshold(old);
        for w in results.windows(2) {
            assert_eq!(w[0].to_bits(), w[1].to_bits());
        }
    }

    #[test]
    fn par_reduce_empty_is_none() {
        assert!(par_reduce(0, |_r| 0.0_f64, |a, b| a + b).is_none());
    }

    #[test]
    fn par_map_vec_preserves_order() {
        let _g = LOCK.lock().unwrap();
        set_threads(4);
        let items: Vec<usize> = (0..97).collect();
        let out = par_map_vec(&items, |i, &v| {
            assert_eq!(i, v);
            v * 2
        });
        set_threads(0);
        assert_eq!(out, (0..97).map(|v| v * 2).collect::<Vec<_>>());
    }

    /// Runs `f` with `threads` threads and the default threshold,
    /// restoring the defaults afterwards.
    fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        let _g = LOCK.lock().unwrap();
        set_threads(threads);
        set_par_threshold(DEFAULT_PAR_THRESHOLD);
        let out = f();
        set_threads(0);
        out
    }

    /// Retries `f` until its region ran part of the work on a spawned
    /// worker: other tests in this binary may hold the budget for a
    /// moment, but a leaked claim never comes back.
    fn until_a_worker_runs<R>(mut f: impl FnMut() -> (bool, R)) -> R {
        for _ in 0..200 {
            let (forked, out) = f();
            if forked {
                return out;
            }
            thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("no region got a worker in 200 tries");
    }

    #[test]
    fn nested_call_runs_on_the_workers_own_thread() {
        let inner = with_threads(4, || {
            until_a_worker_runs(|| {
                let caller = thread::current().id();
                // Two items claim one of the three spare workers, so
                // budget is left that the nested calls must not take.
                let outer = par_map_vec(&[0usize; 2], |_, _| {
                    let me = thread::current().id();
                    let mut m = vec![0u8; 2 * DEFAULT_PAR_THRESHOLD];
                    let seen = std::sync::Mutex::new(Vec::new());
                    par_row_chunks_mut(&mut m, 8, |_, _| {
                        seen.lock().unwrap().push(thread::current().id());
                    });
                    (me, seen.into_inner().unwrap())
                });
                (outer.iter().any(|(id, _)| *id != caller), outer)
            })
        });
        for (me, seen) in &inner {
            assert_eq!(seen, &vec![*me], "nested region left its thread");
        }
    }

    #[test]
    fn concurrent_callers_share_one_budget() {
        const THREADS: usize = 3;
        let active = AtomicUsize::new(0);
        let max_active = AtomicUsize::new(0);
        let workers = AtomicUsize::new(0);
        let max_workers = AtomicUsize::new(0);
        let start = std::sync::Barrier::new(2);
        with_threads(THREADS, || {
            let body = |caller: thread::ThreadId| {
                start.wait();
                par_map_vec(&[(); 12], |_, ()| {
                    let is_worker = thread::current().id() != caller;
                    let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                    max_active.fetch_max(now, Ordering::SeqCst);
                    if is_worker {
                        let now = workers.fetch_add(1, Ordering::SeqCst) + 1;
                        max_workers.fetch_max(now, Ordering::SeqCst);
                    }
                    // Holds the thread in the closure so callers and
                    // workers overlap; the bounds below hold for any
                    // interleaving.
                    thread::sleep(std::time::Duration::from_millis(2));
                    if is_worker {
                        workers.fetch_sub(1, Ordering::SeqCst);
                    }
                    active.fetch_sub(1, Ordering::SeqCst);
                });
            };
            thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| body(thread::current().id()));
                }
            });
        });
        // Spawned workers never exceed the budget of THREADS - 1, so
        // the two callers plus their workers stay within THREADS + 1
        // (per-call spawning reached 2 x THREADS here).
        assert!(max_workers.load(Ordering::SeqCst) < THREADS);
        assert!(max_active.load(Ordering::SeqCst) <= THREADS + 1);
    }

    #[test]
    fn panics_keep_their_payload_and_return_the_budget() {
        with_threads(2, || {
            // Item 0 panics on the caller's part, item 7 on the worker's.
            for bad in [0usize, 7] {
                let payload = until_a_worker_runs(|| {
                    let caller = thread::current().id();
                    let forked = AtomicUsize::new(0);
                    let caught = std::panic::catch_unwind(|| {
                        par_map_vec(&[0usize; 8], |i, _| {
                            if thread::current().id() != caller {
                                forked.fetch_add(1, Ordering::SeqCst);
                            }
                            if i == bad {
                                std::panic::panic_any(format!("boom {i}"));
                            }
                        })
                    });
                    (forked.load(Ordering::SeqCst) > 0, caught)
                })
                .expect_err("the closure panicked");
                assert_eq!(
                    payload.downcast_ref::<String>(),
                    Some(&format!("boom {bad}"))
                );
                assert!(!IN_REGION.with(Cell::get), "region mark leaked");
            }
            // With one spare worker, a claim kept by a panicked region
            // would leave every later region inline.
            until_a_worker_runs(|| {
                let caller = thread::current().id();
                let ids = par_map_vec(&[0usize; 8], |_, _| thread::current().id());
                (ids.iter().any(|id| *id != caller), ())
            });
        });
    }

    #[test]
    fn spans_opened_in_workers_keep_the_callers_path() {
        let (spawned, stray) = with_threads(2, || {
            ppdl_obs::set_enabled(true);
            let spawned = ppdl_obs::global().counter("parallel/spawned");
            let before = spawned.get();
            until_a_worker_runs(|| {
                let caller = thread::current().id();
                let _outer = ppdl_obs::span("fork_outer");
                let ids = par_map_vec(&[0usize; 4], |_, _| {
                    let _inner = ppdl_obs::span("fork_inner");
                    thread::current().id()
                });
                (ids.iter().any(|id| *id != caller), ())
            });
            ppdl_obs::set_enabled(false);
            (
                spawned.get() - before,
                ppdl_obs::global().span_stats("fork_inner"),
            )
        });
        assert!(spawned >= 1, "parallel/spawned did not count the worker");
        assert!(
            ppdl_obs::global()
                .span_stats("fork_outer/fork_inner")
                .is_some(),
            "the caller's span recorded no nested path"
        );
        assert!(stray.is_none(), "a worker span lost its parent path");
    }
}
