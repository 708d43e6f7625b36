//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no network registry, so the workspace vendors
//! a minimal data-parallel runtime with the subset of rayon's API the
//! partitioners use:
//!
//! * `into_par_iter()` on `Vec<T>` and `Range<usize>`, `par_iter_mut()`
//!   on slices, and `par_chunks()` / `par_chunks_mut()` on slices, with
//!   `with_min_len`, `enumerate`, `map` / `map_init` then `collect`, and
//!   `for_each`.
//! * [`ThreadPoolBuilder`] / [`ThreadPool::install`] to bound worker
//!   counts (`sweep`'s DPGA speedup table sweeps pool sizes).
//! * [`current_num_threads`].
//!
//! Unlike real rayon there is no work stealing: each driving call chunks
//! its items evenly across `current_num_threads()` scoped threads. Two
//! properties the workspace depends on are guaranteed:
//!
//! 1. **Index-order reduction** — `map(..).collect()` returns results in
//!    the input order, so a parallel map is bit-identical to its
//!    sequential counterpart whenever the mapped function is pure.
//! 2. **No nested oversubscription** — a parallel region entered from
//!    inside a worker thread runs sequentially inline (rayon would steal;
//!    we simply degrade), so DPGA's islands-in-parallel does not multiply
//!    threads with the engine's parallel fitness evaluation.

#![warn(missing_docs)]

use std::cell::Cell;

/// Cached `RAYON_NUM_THREADS` (honoured like real rayon for the ambient
/// default; 0 = unset/unparsable = auto). Read once — the CI
/// determinism matrix relies on it to vary the ambient pool per leg.
static ENV_THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();

fn env_threads() -> usize {
    *ENV_THREADS
        .get_or_init(|| parse_env_threads(std::env::var("RAYON_NUM_THREADS").ok().as_deref()))
}

/// Pure parser behind [`env_threads`]: unset or non-numeric means auto.
fn parse_env_threads(value: Option<&str>) -> usize {
    value.and_then(|s| s.trim().parse().ok()).unwrap_or(0)
}

thread_local! {
    /// Per-thread override installed by [`ThreadPool::install`]; 0 = none.
    static POOL_THREADS: Cell<usize> = const { Cell::new(0) };
    /// Set inside shim worker threads to suppress nested parallelism.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Number of worker threads a parallel call issued here would use.
pub fn current_num_threads() -> usize {
    let n = POOL_THREADS.with(Cell::get);
    if n > 0 {
        return n;
    }
    let n = env_threads();
    if n > 0 {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Error type returned by [`ThreadPoolBuilder::build`]. The shim cannot
/// actually fail to build; the type exists for API compatibility.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// New builder with default (auto) thread count.
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// Sets the worker count (0 = auto).
    #[must_use]
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool. Infallible in the shim.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// A scoped thread-count configuration (the shim spawns threads per
/// parallel call rather than keeping a resident pool).
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `op` with this pool's thread count in effect.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let previous = POOL_THREADS.with(|c| c.replace(self.num_threads));
        let result = op();
        POOL_THREADS.with(|c| c.set(previous));
        result
    }

    /// The pool's configured thread count (resolving 0 = auto).
    pub fn current_num_threads(&self) -> usize {
        if self.num_threads > 0 {
            self.num_threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// Worker count for a batch: capped so no thread gets fewer than
/// `min_len` items — spawning a scoped thread costs tens of
/// microseconds, so tiny batches run inline instead.
fn effective_threads(num_items: usize, min_len: usize) -> usize {
    // Nested calls run inline. Check that first: a worker has no pool
    // override, so `current_num_threads` would fall through to
    // `available_parallelism`, a syscall, on every nested call.
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    current_num_threads().min(num_items / min_len.max(1)).max(1)
}

fn join_unwinding<R>(handle: std::thread::ScopedJoinHandle<'_, R>) -> R {
    match handle.join() {
        Ok(v) => v,
        // Propagate the worker's original panic payload, as rayon does.
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// The one chunk, spawn, join and flatten loop: runs `f` over `items`,
/// in parallel when worthwhile, preserving input order in the returned
/// vector. It threads per-worker state — `init` runs once per worker
/// chunk (once total on the sequential path) and `f` receives `&mut`
/// access to it, the shim's `map_init`, for amortizing scratch
/// allocations across a chunk.
fn drive<T, R, S, INIT, F>(items: Vec<T>, min_len: usize, init: &INIT, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    let threads = effective_threads(items.len(), min_len);
    if threads <= 1 {
        let mut state = init();
        return items.into_iter().map(|t| f(&mut state, t)).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::new();
    let mut it = items.into_iter();
    loop {
        let c: Vec<T> = it.by_ref().take(chunk).collect();
        if c.is_empty() {
            break;
        }
        chunks.push(c);
    }
    let mut results: Vec<Vec<R>> = Vec::with_capacity(chunks.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| {
                scope.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    let mut state = init();
                    c.into_iter().map(|t| f(&mut state, t)).collect::<Vec<R>>()
                })
            })
            .collect();
        for h in handles {
            results.push(join_unwinding(h));
        }
    });
    results.into_iter().flatten().collect()
}

/// A materialized parallel iterator: items are collected up front and
/// chunked across worker threads when driven.
#[derive(Debug)]
pub struct ParIter<T> {
    items: Vec<T>,
    min_len: usize,
}

impl<T: Send> ParIter<T> {
    /// Guarantees each worker at least `min_len` items (rayon's
    /// `with_min_len`): batches smaller than `2 × min_len` run inline,
    /// so callers with cheap per-item work avoid paying thread-spawn
    /// overhead. Purely a scheduling hint — results are identical.
    #[must_use]
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = min_len.max(1);
        self
    }

    /// Pairs every item with its index (rayon's
    /// `IndexedParallelIterator::enumerate`). Items are materialized in
    /// input order, so the indices are exact regardless of how chunks
    /// land on workers.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
            min_len: self.min_len,
        }
    }

    /// Parallel map. Lazy: runs when the result is driven. It is
    /// [`ParIter::map_init`] over a unit state.
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(
        self,
        f: F,
    ) -> ParMapInit<T, (), R, impl Fn() + Sync, impl Fn(&mut (), T) -> R + Sync> {
        self.map_init(|| (), move |_: &mut (), t| f(t))
    }

    /// Parallel map with per-worker state (subset of rayon's
    /// `map_init`): `init` runs once per worker, `f` gets `&mut` access
    /// to the state for every item that worker processes. Use it to
    /// amortize scratch-buffer allocations across a chunk.
    pub fn map_init<S, R, INIT, F>(self, init: INIT, f: F) -> ParMapInit<T, S, R, INIT, F>
    where
        R: Send,
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, T) -> R + Sync,
    {
        ParMapInit {
            items: self.items,
            min_len: self.min_len,
            init,
            f,
            _out: std::marker::PhantomData,
        }
    }

    /// Applies `f` to every item in parallel.
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        self.map(f).collect::<Vec<()>>();
    }
}

/// Lazy stateful map adapter produced by [`ParIter::map`] and
/// [`ParIter::map_init`].
pub struct ParMapInit<T, S, R, INIT, F> {
    items: Vec<T>,
    min_len: usize,
    init: INIT,
    f: F,
    _out: std::marker::PhantomData<fn() -> (S, R)>,
}

impl<T, S, R, INIT, F> ParMapInit<T, S, R, INIT, F>
where
    T: Send,
    R: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    /// Drives the map and collects results **in input order**.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        drive(self.items, self.min_len, &self.init, &self.f)
            .into_iter()
            .collect()
    }
}

/// Conversion into a [`ParIter`] by value (subset of
/// `rayon::iter::IntoParallelIterator`).
pub trait IntoParallelIterator {
    /// Item type produced.
    type Item: Send;

    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;

    fn into_par_iter(self) -> ParIter<T> {
        ParIter {
            items: self,
            min_len: 1,
        }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;

    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
            min_len: 1,
        }
    }
}

/// `par_iter_mut()` on exclusive slices (subset of
/// `rayon::iter::IntoParallelRefMutIterator`).
pub trait IntoParallelRefMutIterator<'a> {
    /// Borrowed item type.
    type Item: Send + 'a;

    /// Parallel iterator over `&mut self`.
    fn par_iter_mut(&'a mut self) -> ParIter<Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;

    fn par_iter_mut(&'a mut self) -> ParIter<&'a mut T> {
        ParIter {
            items: self.iter_mut().collect(),
            min_len: 1,
        }
    }
}

/// `par_chunks()` on slices (subset of `rayon::slice::ParallelSlice`).
///
/// Yields non-overlapping sub-slices of length `chunk_size` (the last
/// chunk may be shorter), in order. The usual shape for cheap per-item
/// work over a large flat array: one closure call per chunk instead of
/// per item, with results still reduced in input order.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over `chunk_size`-sized sub-slices of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero.
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks(chunk_size).collect(),
            min_len: 1,
        }
    }
}

/// `par_chunks_mut()` on slices (subset of
/// `rayon::slice::ParallelSliceMut`).
///
/// Yields non-overlapping `&mut` sub-slices of length `chunk_size` (the
/// last chunk may be shorter), in order — the zero-allocation shape for
/// filling a pre-sized output buffer in place from worker threads
/// (combine with [`ParIter::enumerate`] to recover each chunk's offset).
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over `chunk_size`-sized `&mut` sub-slices.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks_mut(chunk_size).collect(),
            min_len: 1,
        }
    }
}

/// Glob-import module mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefMutIterator, ParallelSlice, ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn env_threads_parser_handles_unset_garbage_and_numbers() {
        // The cached reader can't be exercised repeatably in-process
        // (OnceLock + process env), so the pure parser is pinned
        // instead; the CI determinism matrix exercises the wiring.
        assert_eq!(parse_env_threads(None), 0);
        assert_eq!(parse_env_threads(Some("")), 0);
        assert_eq!(parse_env_threads(Some("banana")), 0);
        assert_eq!(parse_env_threads(Some("-3")), 0);
        assert_eq!(parse_env_threads(Some("0")), 0);
        assert_eq!(parse_env_threads(Some("4")), 4);
        assert_eq!(parse_env_threads(Some(" 8 ")), 8);
    }

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<u64> = (0..10_000).collect();
        let doubled: Vec<u64> = v.into_par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_mut_touches_every_item() {
        let mut v = vec![0u32; 5000];
        v.par_iter_mut().for_each(|x| *x += 1);
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn pool_install_bounds_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        assert_eq!(pool.current_num_threads(), 2);
        pool.install(|| assert_eq!(current_num_threads(), 2));
    }

    #[test]
    fn nested_parallelism_degrades_to_sequential() {
        let outer: Vec<usize> = (0..4).collect();
        let sums: Vec<usize> = outer
            .into_par_iter()
            .map(|i| {
                let inner: Vec<usize> = (0..100).collect();
                inner
                    .into_par_iter()
                    .map(|j| i + j)
                    .collect::<Vec<_>>()
                    .len()
            })
            .collect();
        assert_eq!(sums, vec![100; 4]);
    }

    #[test]
    fn map_init_amortizes_state_and_preserves_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static INITS: AtomicUsize = AtomicUsize::new(0);
        let v: Vec<u64> = (0..10_000).collect();
        let out: Vec<u64> = v
            .into_par_iter()
            .map_init(
                || {
                    INITS.fetch_add(1, Ordering::Relaxed);
                    Vec::<u64>::with_capacity(8)
                },
                |scratch, x| {
                    scratch.clear();
                    scratch.push(x);
                    scratch[0] * 2
                },
            )
            .collect();
        assert_eq!(out, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
        // One init per worker chunk (or one total when sequential) —
        // not one per item.
        assert!(INITS.load(Ordering::Relaxed) <= current_num_threads().max(1) + 1);
    }

    #[test]
    fn par_chunks_covers_everything_in_order() {
        let v: Vec<u32> = (0..10_001).collect();
        let chunks: Vec<Vec<u32>> = v
            .par_chunks(64)
            .map(|c| c.iter().map(|&x| x * 2).collect::<Vec<_>>())
            .collect();
        // Chunk shapes: all 64 except a final remainder of 10_001 % 64.
        assert_eq!(chunks.len(), 10_001usize.div_ceil(64));
        assert!(chunks[..chunks.len() - 1].iter().all(|c| c.len() == 64));
        assert_eq!(chunks.last().unwrap().len(), 10_001 % 64);
        // Flattening restores input order — the determinism contract.
        let flat: Vec<u32> = chunks.into_iter().flatten().collect();
        assert_eq!(flat, (0..10_001).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_matches_under_any_pool_size() {
        let v: Vec<u64> = (0..5_000).collect();
        let reference: Vec<u64> = v.chunks(128).map(|c| c.iter().sum()).collect();
        for threads in [1usize, 2, 4, 8] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let sums: Vec<u64> =
                pool.install(|| v.par_chunks(128).map(|c| c.iter().sum::<u64>()).collect());
            assert_eq!(sums, reference, "pool size {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn par_chunks_rejects_zero() {
        let v = [1u8, 2, 3];
        let _ = v.par_chunks(0);
    }

    #[test]
    fn range_into_par_iter() {
        let squares: Vec<usize> = (0..50usize).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares[49], 49 * 49);
    }

    #[test]
    fn enumerate_indices_are_exact_in_input_order() {
        let v: Vec<u32> = (100..10_100).collect();
        let pairs: Vec<(usize, u32)> = v.into_par_iter().enumerate().map(|(i, x)| (i, x)).collect();
        assert_eq!(pairs.len(), 10_000);
        for (i, x) in pairs {
            assert_eq!(x as usize, 100 + i);
        }
    }

    #[test]
    fn par_chunks_mut_fills_a_buffer_in_place() {
        let mut out = vec![0u64; 10_001];
        out.par_chunks_mut(64).enumerate().for_each(|(ci, chunk)| {
            let base = ci * 64;
            for (j, slot) in chunk.iter_mut().enumerate() {
                *slot = (base + j) as u64 * 3;
            }
        });
        assert!(out.iter().enumerate().all(|(i, &x)| x == i as u64 * 3));
    }

    #[test]
    fn par_chunks_mut_matches_under_any_pool_size() {
        let mut reference = vec![0u32; 5_000];
        reference
            .par_chunks_mut(128)
            .enumerate()
            .for_each(|(ci, c)| c.iter_mut().for_each(|x| *x = ci as u32));
        for threads in [1usize, 2, 4, 8] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut out = vec![0u32; 5_000];
            pool.install(|| {
                out.par_chunks_mut(128)
                    .enumerate()
                    .for_each(|(ci, c)| c.iter_mut().for_each(|x| *x = ci as u32))
            });
            assert_eq!(out, reference, "pool size {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn par_chunks_mut_rejects_zero() {
        let mut v = [1u8, 2, 3];
        let _ = v.par_chunks_mut(0);
    }
}
