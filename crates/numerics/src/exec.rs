//! Serial-vs-parallel execution policy and the chunked executor behind the
//! toolchain's data-parallel stages — map building, model selection and the
//! serve engine's batches all run here.
//!
//! [`ExecPolicy`] selects the arm *at runtime*, so one build can run the
//! same pipeline both ways and verify the outputs are identical (the
//! determinism tests do exactly that). The parallel arm's worker count is
//! `AEROREM_EXEC_THREADS` when set, else the detected core count; setting
//! it to 1 runs every parallel call inline on the caller's thread.
//!
//! # The granularity model
//!
//! Work is never distributed item-by-item. Every entry point first splits
//! the input into contiguous **chunks** whose length is a pure function of
//! the item count and the caller's [`Granularity`] hint — *never* of the
//! worker count, the machine, or the policy. Workers then claim chunks
//! dynamically (an atomic ticket counter, so an expensive chunk on one
//! thread never strands cheap chunks behind it) and results are reassembled
//! in input order. Because both policies process the **identical** chunk
//! partition and per-item calls, `ExecPolicy::Serial` and
//! `ExecPolicy::Parallel` produce bit-identical outputs by construction —
//! including chunk-level reductions such as the blocked variogram, whose
//! partial sums are combined in ascending chunk order either way.
//!
//! # Scratch reuse
//!
//! [`ScratchPool`] hands each worker thread one reusable scratch value
//! (kNN candidate heaps, distance buffers, activation matrices) for the
//! whole run instead of allocating per item. Scratch is a *buffer*, not
//! state: a checked-out value may contain residue from earlier items, and
//! closures must overwrite rather than accumulate. The pool never lends the
//! same value to two workers at once, so `&mut` access is race-free, and
//! the proptests in this module verify scratch reuse cannot leak one item's
//! state into another's result.
//!
//! This module lives in `aerorem-numerics` (the workspace's dependency
//! root) so that every layer — `aerorem-ml`'s grid search and k-fold CV as
//! much as `aerorem-core`'s pipeline stages — shares one policy type;
//! `aerorem-core::exec` re-exports it unchanged.

use std::num::NonZeroUsize;
use std::panic;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// How the toolchain's data-parallel stages execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecPolicy {
    /// One thread, plain iterators — the reference path for determinism
    /// checks and single-core targets.
    Serial,
    /// Worker threads over chunked work items, reassembled in input order
    /// (the default). Identical results to [`ExecPolicy::Serial`].
    #[default]
    Parallel,
}

impl ExecPolicy {
    /// Short lowercase name (`"serial"` / `"parallel"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ExecPolicy::Serial => "serial",
            ExecPolicy::Parallel => "parallel",
        }
    }

    /// Worker threads this policy may use on the current machine.
    ///
    /// `AEROREM_EXEC_THREADS` overrides the detected core count for the
    /// parallel arm. It is read on every call, because the `scaling` bench
    /// sweeps thread counts by setting it between arms. Worker count never
    /// affects results, only wall time.
    #[must_use]
    pub fn threads(self) -> usize {
        match self {
            ExecPolicy::Serial => 1,
            ExecPolicy::Parallel => std::env::var("AEROREM_EXEC_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(detected_cores),
        }
    }
}

/// `std::thread::available_parallelism`, detected once per process: on
/// Linux each detection reads cgroup files (~20 µs), which would otherwise
/// be paid by every parallel call.
fn detected_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

impl std::fmt::Display for ExecPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for ExecPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "serial" => Ok(ExecPolicy::Serial),
            "parallel" => Ok(ExecPolicy::Parallel),
            other => Err(format!("unknown exec policy {other:?} (serial|parallel)")),
        }
    }
}

/// Target number of chunks a full-size input is split into, independent of
/// the machine: enough oversubscription that dynamic claiming balances
/// heterogeneous chunk costs across any realistic core count, few enough
/// that per-chunk bookkeeping stays invisible.
const TARGET_CHUNKS: usize = 64;

/// The caller's cost hint for one work item, steering chunk sizing.
///
/// Both fields are *item counts*. `min_chunk` is the floor: a chunk never
/// holds fewer items, because below it the per-chunk overhead (a ticket
/// claim, a scratch checkout, a result slot) would be measurable next to
/// the work itself. `items_hint` is the preferred chunk length once the
/// input is large — the cap that keeps chunks claimable for load balance.
/// Expensive items (a model fit, a `predict_batch` over a thousand rows)
/// want `per_item()`; cheap items (encoding one feature row) want
/// `rows()`-scale chunks so the closure-call overhead amortizes.
///
/// The resulting partition is a pure function of `(len, self)` — never of
/// the policy, worker count, or machine — which is what makes chunk-level
/// reductions bit-identical across [`ExecPolicy`] arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Granularity {
    /// Minimum items per chunk (0 is treated as 1).
    pub min_chunk: usize,
    /// Preferred items per chunk for large inputs (values below
    /// `min_chunk` are treated as `min_chunk`).
    pub items_hint: usize,
}

impl Granularity {
    /// A granularity with an explicit floor and preferred chunk length.
    #[must_use]
    pub const fn new(min_chunk: usize, items_hint: usize) -> Self {
        Granularity {
            min_chunk,
            items_hint,
        }
    }

    /// For expensive items (model fits, chunk-sized batch predictions):
    /// every item is its own chunk, maximizing load balance.
    #[must_use]
    pub const fn per_item() -> Self {
        Granularity::new(1, 1)
    }

    /// For cheap per-row items (feature encoding, candidate scoring):
    /// chunks of at least 128 rows so the per-chunk overhead amortizes.
    #[must_use]
    pub const fn rows() -> Self {
        Granularity::new(128, 1024)
    }

    /// Items per chunk for an input of `len` items — a pure function of
    /// `(len, self)`, identical on every machine and policy.
    #[must_use]
    pub fn chunk_len(&self, len: usize) -> usize {
        let min = self.min_chunk.max(1);
        let hint = self.items_hint.max(min);
        len.div_ceil(TARGET_CHUNKS).clamp(min, hint)
    }
}

impl Default for Granularity {
    fn default() -> Self {
        Granularity::per_item()
    }
}

/// The executor's decision for one run: how many chunks of what length,
/// spread over how many worker threads. Pipeline instrumentation records
/// plans per stage so granularity regressions show up in `aerorem demo`
/// output rather than a profiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPlan {
    /// Worker threads the run will use (1 means the inline serial path).
    pub workers: usize,
    /// Items per chunk (the last chunk may be shorter).
    pub chunk: usize,
    /// Total chunks.
    pub chunks: usize,
}

/// Computes the execution plan for `len` items under `policy` and `gran` —
/// the same arithmetic every entry point in this module uses.
#[must_use]
pub fn plan(policy: ExecPolicy, len: usize, gran: Granularity) -> ExecPlan {
    let chunk = gran.chunk_len(len);
    let chunks = len.div_ceil(chunk.max(1));
    // A lone chunk runs inline under either policy: skip worker detection.
    let workers = if chunks <= 1 {
        1
    } else {
        policy.threads().min(chunks)
    };
    ExecPlan {
        workers,
        chunk,
        chunks,
    }
}

/// A pool of reusable scratch values, one lent per worker thread at a time.
///
/// `take` pops a previously returned value or builds a fresh one; `give`
/// returns it for the next borrower. A value is owned by exactly one
/// thread between `take` and `give`, so there is no sharing to synchronize
/// beyond the pool's own free list. Values are **buffers, not state**:
/// they arrive dirty, and borrowers must fully overwrite whatever they
/// read back out — which is also why a poisoned free list is used as is:
/// the lock only ever guards a `push` or a `pop`.
pub struct ScratchPool<S, F: Fn() -> S> {
    make: F,
    free: Mutex<Vec<S>>,
}

impl<S, F: Fn() -> S> ScratchPool<S, F> {
    /// A pool that builds fresh scratch values with `make`.
    pub fn new(make: F) -> Self {
        ScratchPool {
            make,
            free: Mutex::new(Vec::new()),
        }
    }

    /// Checks out a scratch value (reused if available, fresh otherwise).
    pub fn take(&self) -> S {
        let reused = self
            .free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        reused.unwrap_or_else(|| (self.make)())
    }

    /// Returns a scratch value to the pool for reuse.
    pub fn give(&self, s: S) {
        self.free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(s);
    }

    /// Runs `f` with a checked-out scratch value, returning it afterwards.
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        let mut s = self.take();
        let out = f(&mut s);
        self.give(s);
        out
    }

    /// Number of values currently parked in the pool (test observability).
    #[must_use]
    pub fn idle(&self) -> usize {
        self.free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

/// A unit pool for entry points whose callers need no scratch.
fn unit_pool() -> ScratchPool<(), fn() -> ()> {
    ScratchPool::new(|| ())
}

/// Core executor: runs `job(scratch, chunk_index)` for every chunk index in
/// `0..n_chunks`, reassembling outputs in chunk order. With one worker the
/// chunks run inline on the caller's thread; otherwise `workers` scoped
/// threads claim chunk tickets from an atomic counter, each holding one
/// scratch value from `pool` for its whole lifetime.
fn run_chunks<S, FM, C, J>(workers: usize, n_chunks: usize, pool: &ScratchPool<S, FM>, job: J) -> Vec<C>
where
    S: Send,
    FM: Fn() -> S + Sync,
    C: Send,
    J: Fn(&mut S, usize) -> C + Sync,
{
    if workers <= 1 || n_chunks <= 1 {
        return pool.with(|s| (0..n_chunks).map(|ci| job(s, ci)).collect());
    }
    let next = AtomicUsize::new(0);
    // Every ticket below `n_chunks` is claimed exactly once, so the sorted
    // claims are chunks 0, 1, …, n_chunks − 1.
    on_workers(workers, pool, |s| {
        let mut got = Vec::new();
        loop {
            let ci = next.fetch_add(1, Ordering::Relaxed);
            if ci >= n_chunks {
                break;
            }
            got.push((ci, job(s, ci)));
        }
        got
    })
    .into_iter()
    .map(|(_, c)| c)
    .collect()
}

/// Fallible [`run_chunks`]: stops claiming new chunks once any chunk has
/// failed, and returns the error of the lowest-indexed failing chunk.
///
/// Chunk tickets are claimed in ascending order, so the claimed set is
/// always a contiguous prefix — every chunk before the first failure runs
/// to completion, which is what makes "first error in input order" exact
/// even with early abort.
fn try_run_chunks<S, FM, C, E, J>(
    workers: usize,
    n_chunks: usize,
    pool: &ScratchPool<S, FM>,
    job: J,
) -> Result<Vec<C>, E>
where
    S: Send,
    FM: Fn() -> S + Sync,
    C: Send,
    E: Send,
    J: Fn(&mut S, usize) -> Result<C, E> + Sync,
{
    if workers <= 1 || n_chunks <= 1 {
        return pool.with(|s| (0..n_chunks).map(|ci| job(s, ci)).collect());
    }
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    // Only an `Err` stops the claiming short of `n_chunks`, and every chunk
    // before it is present, so collecting in chunk order yields either all
    // outputs or the first error.
    on_workers(workers, pool, |s| {
        let mut got = Vec::new();
        while !abort.load(Ordering::Relaxed) {
            let ci = next.fetch_add(1, Ordering::Relaxed);
            if ci >= n_chunks {
                break;
            }
            let r = job(s, ci);
            if r.is_err() {
                abort.store(true, Ordering::Relaxed);
            }
            got.push((ci, r));
        }
        got
    })
    .into_iter()
    .map(|(_, r)| r)
    .collect()
}

/// Runs `work` on `workers` scoped threads, each holding one scratch value
/// from `pool`, and returns every worker's `(chunk index, output)` pairs
/// sorted by chunk index. A worker's panic is re-raised on the caller's
/// thread with its original payload, so callers that catch it (the serve
/// engine) still see the message.
fn on_workers<S, FM, C, W>(workers: usize, pool: &ScratchPool<S, FM>, work: W) -> Vec<(usize, C)>
where
    S: Send,
    FM: Fn() -> S + Sync,
    C: Send,
    W: Fn(&mut S) -> Vec<(usize, C)> + Sync,
{
    let mut claimed = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| scope.spawn(|| pool.with(&work)))
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(
                h.join()
                    .unwrap_or_else(|payload| panic::resume_unwind(payload)),
            );
        }
        all
    });
    claimed.sort_unstable_by_key(|&(ci, _)| ci);
    claimed
}

/// Concatenates per-chunk outputs in chunk order. A lone chunk's `Vec` is
/// returned as it is rather than copied.
fn concat<R>(mut chunked: Vec<Vec<R>>, len: usize) -> Vec<R> {
    if chunked.len() == 1 {
        return chunked.pop().unwrap_or_default();
    }
    let mut out = Vec::with_capacity(len);
    for c in chunked {
        out.extend(c);
    }
    out
}

/// Bounds of chunk `ci` in an input of `len` items.
fn chunk_bounds(len: usize, chunk: usize, ci: usize) -> (usize, usize) {
    let start = ci * chunk;
    (start, (start + chunk).min(len))
}

/// Maps `f` over the contiguous chunks of `items`, preserving chunk order:
/// `f(offset, slice)` receives each chunk's starting offset and contents,
/// and the per-chunk outputs come back in ascending offset order.
///
/// The chunk partition depends only on `(items.len(), gran)`, so both
/// policies call `f` with identical arguments in an order-independent way —
/// chunk-level reductions stay bit-identical as long as the caller combines
/// the returned chunk outputs in the returned (ascending) order.
pub fn map_chunks<T, C, F>(policy: ExecPolicy, gran: Granularity, items: &[T], f: F) -> Vec<C>
where
    T: Sync,
    C: Send,
    F: Fn(usize, &[T]) -> C + Sync,
{
    let p = plan(policy, items.len(), gran);
    if items.is_empty() {
        return Vec::new();
    }
    run_chunks(p.workers, p.chunks, &unit_pool(), |(), ci| {
        let (lo, hi) = chunk_bounds(items.len(), p.chunk, ci);
        f(lo, &items[lo..hi])
    })
}

/// Maps `f(scratch, item)` over `items` with per-worker-thread scratch from
/// `pool`, preserving input order. The scratch value a worker holds is
/// reused across every item that worker processes — closures must treat it
/// as a dirty buffer, never as carried state.
pub fn map_vec_with<T, R, S, FM, F>(
    policy: ExecPolicy,
    gran: Granularity,
    pool: &ScratchPool<S, FM>,
    items: &[T],
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    S: Send,
    FM: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let p = plan(policy, items.len(), gran);
    if items.is_empty() {
        return Vec::new();
    }
    let chunked: Vec<Vec<R>> = run_chunks(p.workers, p.chunks, pool, |s, ci| {
        let (lo, hi) = chunk_bounds(items.len(), p.chunk, ci);
        items[lo..hi].iter().map(|t| f(s, t)).collect()
    });
    concat(chunked, items.len())
}

/// Fallible [`map_vec_with`]: collects into `Result`, returning the first
/// error in input order.
///
/// # Errors
///
/// Returns the first `Err` produced by `f`, in input order.
pub fn try_map_vec_with<T, R, E, S, FM, F>(
    policy: ExecPolicy,
    gran: Granularity,
    pool: &ScratchPool<S, FM>,
    items: &[T],
    f: F,
) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    S: Send,
    FM: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> Result<R, E> + Sync,
{
    let p = plan(policy, items.len(), gran);
    if items.is_empty() {
        return Ok(Vec::new());
    }
    let chunked: Vec<Vec<R>> = try_run_chunks(p.workers, p.chunks, pool, |s, ci| {
        let (lo, hi) = chunk_bounds(items.len(), p.chunk, ci);
        let mut c = Vec::with_capacity(hi - lo);
        for t in &items[lo..hi] {
            c.push(f(s, t)?);
        }
        Ok(c)
    })?;
    Ok(concat(chunked, items.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_parse_and_display() {
        assert_eq!("serial".parse::<ExecPolicy>(), Ok(ExecPolicy::Serial));
        assert_eq!("parallel".parse::<ExecPolicy>(), Ok(ExecPolicy::Parallel));
        assert!("threads".parse::<ExecPolicy>().is_err());
        assert_eq!(ExecPolicy::Serial.to_string(), "serial");
        assert_eq!(ExecPolicy::default(), ExecPolicy::Parallel);
        assert_eq!(ExecPolicy::Serial.threads(), 1);
        assert!(ExecPolicy::Parallel.threads() >= 1);
    }

    #[test]
    fn chunk_len_is_a_pure_clamp() {
        // Floor: min_chunk wins on small inputs.
        assert_eq!(Granularity::new(128, 1024).chunk_len(100), 128);
        // Cap: items_hint wins on huge inputs.
        assert_eq!(Granularity::new(128, 1024).chunk_len(10_000_000), 1024);
        // In between: len / TARGET_CHUNKS.
        assert_eq!(Granularity::new(1, 100_000).chunk_len(6400), 100);
        // Degenerate hints are sanitized.
        assert_eq!(Granularity::new(0, 0).chunk_len(10), 1);
        // A hint below the floor is raised to it, so the cap is min_chunk.
        assert_eq!(Granularity::new(8, 2).chunk_len(1000), 8);
        // Empty input still yields a non-zero chunk length.
        assert!(Granularity::per_item().chunk_len(0) >= 1);
    }

    #[test]
    fn plan_counts_chunks_and_caps_workers() {
        let p = plan(ExecPolicy::Serial, 1000, Granularity::rows());
        assert_eq!(p.workers, 1);
        assert_eq!(p.chunk, 128);
        assert_eq!(p.chunks, 8);
        let p = plan(ExecPolicy::Parallel, 3, Granularity::per_item());
        assert!(p.workers <= 3);
        assert_eq!(p.chunks, 3);
        let p = plan(ExecPolicy::Parallel, 0, Granularity::per_item());
        assert_eq!(p.chunks, 0);
        assert_eq!(p.workers, 1);
    }

    #[test]
    fn map_chunks_sees_the_full_partition_in_order() {
        let items: Vec<u32> = (0..1000).collect();
        let gran = Granularity::new(64, 64);
        for policy in [ExecPolicy::Serial, ExecPolicy::Parallel] {
            let spans = map_chunks(policy, gran, &items, |off, chunk| {
                (off, chunk.to_vec())
            });
            let mut expect_off = 0;
            let mut seen = Vec::new();
            for (off, chunk) in &spans {
                assert_eq!(*off, expect_off, "{policy}");
                expect_off += chunk.len();
                seen.extend(chunk.iter().copied());
            }
            assert_eq!(seen, items, "{policy}");
            assert!(spans.iter().all(|(_, c)| c.len() <= 64));
        }
    }

    #[test]
    fn map_chunks_empty_input() {
        let out: Vec<usize> =
            map_chunks(ExecPolicy::Parallel, Granularity::per_item(), &[0u8; 0], |_, c| c.len());
        assert!(out.is_empty());
    }

    #[test]
    fn map_vec_with_reuses_scratch_and_preserves_order() {
        let items: Vec<u64> = (0..2000).collect();
        let pool = ScratchPool::new(Vec::<u64>::new);
        let gran = Granularity::new(32, 128);
        for policy in [ExecPolicy::Serial, ExecPolicy::Parallel] {
            let out = map_vec_with(policy, gran, &pool, &items, |buf, &i| {
                // Scratch is a dirty buffer: overwrite, then read back.
                buf.clear();
                buf.extend((0..(i % 7)).map(|j| j + i));
                i * 2 + buf.len() as u64
            });
            let want: Vec<u64> = items.iter().map(|&i| i * 2 + i % 7).collect();
            assert_eq!(out, want, "{policy}");
        }
        // Scratch values were returned to the pool, not leaked.
        assert!(pool.idle() >= 1);
    }

    #[test]
    fn try_map_vec_with_first_error_in_input_order() {
        let items: Vec<u32> = (0..300).collect();
        let pool = ScratchPool::new(|| 0u32);
        for policy in [ExecPolicy::Serial, ExecPolicy::Parallel] {
            let r: Result<Vec<u32>, u32> =
                try_map_vec_with(policy, Granularity::new(8, 8), &pool, &items, |_, &i| {
                    if i >= 133 {
                        Err(i)
                    } else {
                        Ok(i)
                    }
                });
            assert_eq!(r.unwrap_err(), 133, "{policy}");
        }
    }

    #[test]
    fn scratch_pool_reuses_allocations() {
        let pool = ScratchPool::new(|| Vec::<f64>::with_capacity(0));
        let mut a = pool.take();
        a.reserve(4096);
        let cap = a.capacity();
        pool.give(a);
        assert_eq!(pool.idle(), 1);
        let b = pool.take();
        assert!(b.capacity() >= cap, "reused value keeps its allocation");
        assert_eq!(pool.idle(), 0);
        pool.give(b);
        // Concurrent checkouts get distinct values.
        let x = pool.take();
        let y = pool.take();
        assert_eq!(pool.idle(), 0);
        pool.give(x);
        pool.give(y);
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn forced_multi_worker_chunks_match_serial() {
        // Exercise the multi-worker claim/scatter path directly, independent
        // of how many cores the host has.
        let pool = ScratchPool::new(|| ());
        for n_chunks in [0usize, 1, 2, 7, 64] {
            for workers in [2usize, 3, 5] {
                let par = run_chunks(workers, n_chunks, &pool, |(), ci| ci * ci);
                let ser = run_chunks(1, n_chunks, &pool, |(), ci| ci * ci);
                assert_eq!(par, ser, "workers={workers} chunks={n_chunks}");
            }
        }
    }

    #[test]
    fn forced_multi_worker_try_chunks_first_error() {
        let pool = ScratchPool::new(|| ());
        for workers in [2usize, 4] {
            let r: Result<Vec<usize>, usize> =
                try_run_chunks(workers, 40, &pool, |(), ci| if ci >= 13 { Err(ci) } else { Ok(ci) });
            assert_eq!(r.unwrap_err(), 13, "workers={workers}");
        }
    }

    #[test]
    fn a_worker_panic_is_re_raised_with_its_original_message() {
        // Two forced workers, so the panicking chunk runs on a spawned
        // thread whatever the host's core count.
        let pool = ScratchPool::new(|| ());
        let message =
            |payload: Box<dyn std::any::Any + Send>| payload.downcast_ref::<&str>().copied();
        let caught = std::panic::catch_unwind(|| {
            run_chunks(2, 8, &pool, |(), ci| {
                if ci == 5 {
                    panic!("chunk five failed")
                } else {
                    ci
                }
            })
        })
        .unwrap_err();
        assert_eq!(message(caught), Some("chunk five failed"));
        let caught = std::panic::catch_unwind(|| {
            try_run_chunks::<_, _, usize, (), _>(2, 8, &pool, |(), ci| {
                if ci == 3 {
                    panic!("chunk three failed")
                }
                Ok(ci)
            })
        })
        .unwrap_err();
        assert_eq!(message(caught), Some("chunk three failed"));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A float op with order-sensitive rounding: if the executor ever
        /// re-associated work across chunks, bits would differ.
        fn crunch(i: u64) -> f64 {
            let x = (i as f64) * 0.37 + 1.0;
            (x.sqrt() + 1.0 / x).ln()
        }

        proptest! {
            // Chunked-parallel ≡ chunked-serial ≡ legacy per-item map,
            // bit-for-bit, across arbitrary item counts and chunk hints
            // (including the 0 / 1 / len+1 edge cases the strategy covers).
            #[test]
            fn chunked_arms_and_legacy_map_agree(
                len in 0usize..200,
                min_chunk in 0usize..202,
                hint in 0usize..202,
                workers in 1usize..5,
            ) {
                let items: Vec<u64> = (0..len as u64).collect();
                let gran = Granularity::new(min_chunk, hint);
                let legacy: Vec<f64> = items.iter().map(|&i| crunch(i)).collect();

                let serial = map_vec_with(
                    ExecPolicy::Serial, gran, &ScratchPool::new(|| ()), &items, |(), &i| crunch(i));
                prop_assert_eq!(&serial, &legacy);

                // Drive the multi-worker path explicitly so the property
                // holds even on single-core hosts.
                let p = plan(ExecPolicy::Serial, items.len(), gran);
                let chunked: Vec<Vec<f64>> = run_chunks(
                    workers, p.chunks, &ScratchPool::new(|| ()), |(), ci| {
                        let (lo, hi) = chunk_bounds(items.len(), p.chunk, ci);
                        items[lo..hi].iter().map(|&i| crunch(i)).collect()
                    });
                let flat: Vec<f64> = chunked.into_iter().flatten().collect();
                prop_assert_eq!(&flat, &legacy);

                let via_chunks: Vec<f64> = map_chunks(
                    ExecPolicy::Parallel, gran, &items, |_, c| {
                        c.iter().map(|&i| crunch(i)).collect::<Vec<f64>>()
                    }).into_iter().flatten().collect();
                prop_assert_eq!(&via_chunks, &legacy);
            }

            // Scratch reuse must be unobservable: a closure that smears
            // item-dependent garbage into its scratch still produces the
            // same results as a fresh-scratch-per-item run.
            #[test]
            fn scratch_reuse_never_leaks_between_items(
                len in 0usize..150,
                min_chunk in 0usize..152,
                workers in 1usize..5,
            ) {
                let items: Vec<u64> = (0..len as u64).collect();
                let gran = Granularity::new(min_chunk, min_chunk.max(1) * 2);
                let with_dirty_scratch = |s: &mut Vec<u64>, i: u64| -> f64 {
                    // Deliberately do NOT clear before writing garbage…
                    s.push(i.wrapping_mul(0x9E37));
                    // …but overwrite before reading, as the contract demands.
                    s.clear();
                    s.extend([i, i + 1]);
                    crunch(s[0]) + s[1] as f64
                };
                let fresh: Vec<f64> = items
                    .iter()
                    .map(|&i| with_dirty_scratch(&mut Vec::new(), i))
                    .collect();
                let pool = ScratchPool::new(Vec::<u64>::new);
                let pooled = map_vec_with(
                    ExecPolicy::Parallel, gran, &pool, &items, |s, &i| with_dirty_scratch(s, i));
                prop_assert_eq!(&pooled, &fresh);

                // And under a forced multi-worker run.
                let p = plan(ExecPolicy::Serial, items.len(), gran);
                let forced: Vec<f64> = run_chunks(workers, p.chunks, &pool, |s, ci| {
                    let (lo, hi) = chunk_bounds(items.len(), p.chunk, ci);
                    items[lo..hi].iter().map(|&i| with_dirty_scratch(s, i)).collect::<Vec<f64>>()
                }).into_iter().flatten().collect();
                prop_assert_eq!(&forced, &fresh);
            }

            // The fallible arms agree with the serial short-circuit walk.
            #[test]
            fn try_arms_agree_with_serial_walk(
                len in 0usize..120,
                min_chunk in 0usize..122,
                fail_at in 0usize..140,
            ) {
                let items: Vec<u64> = (0..len as u64).collect();
                let gran = Granularity::new(min_chunk, min_chunk.max(1) * 3);
                let f = |i: u64| -> Result<f64, u64> {
                    if i as usize >= fail_at { Err(i) } else { Ok(crunch(i)) }
                };
                let want: Result<Vec<f64>, u64> = items.iter().map(|&i| f(i)).collect();
                let pool = ScratchPool::new(|| ());
                let got = try_map_vec_with(
                    ExecPolicy::Parallel, gran, &pool, &items, |(), &i| f(i));
                prop_assert_eq!(got, want);
            }
        }
    }
}
