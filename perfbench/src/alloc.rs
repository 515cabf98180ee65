//! Host-resource probes: a counting global allocator (allocations and
//! live bytes) and a sampler of the live-heap peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The system allocator, counting allocations and live bytes.
pub struct Counting;

/// Counter slots; each thread uses its own, so the hot path never shares a
/// cache line across threads (threads past `SLOTS` share, still exactly).
const SLOTS: usize = 64;

#[repr(align(64))]
struct Slot {
    allocations: AtomicU64,
    live: AtomicI64,
}

static COUNTERS: [Slot; SLOTS] = [const {
    Slot {
        allocations: AtomicU64::new(0),
        live: AtomicI64::new(0),
    }
}; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// This thread's counter slot (slot 0 while thread-locals are torn down).
fn slot() -> &'static Slot {
    let i = SLOT
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
            }
            s.get()
        })
        .unwrap_or(0);
    &COUNTERS[i]
}

/// Counts one allocation (when `alloc`) and `grow` bytes of live heap.
fn count(alloc: bool, grow: i64) {
    let s = slot();
    if alloc {
        s.allocations.fetch_add(1, Ordering::Relaxed);
    }
    s.live.fetch_add(grow, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over. The counters are plain
// statistics that publish no other data (hence `Relaxed`), and counting
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(true, layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(true, layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(false, -(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(true, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations (including reallocations) made so far by the process.
pub fn allocations() -> u64 {
    COUNTERS
        .iter()
        .map(|s| s.allocations.load(Ordering::Relaxed))
        .sum()
}

/// Bytes currently allocated on the heap.
pub fn live_bytes() -> u64 {
    let live: i64 = COUNTERS
        .iter()
        .map(|s| s.live.load(Ordering::Relaxed))
        .sum();
    live.max(0) as u64
}

/// Samples live heap bytes on a background thread, so each repetition
/// gets its own peak. Heap bytes, not resident pages: resident memory also
/// counts what glibc's per-thread arenas retain, which on the threaded
/// chaos workload settled at either of two levels from run to run.
pub struct HeapSampler {
    base: AtomicU64,
    peak: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

/// Sampling period of [`HeapSampler`].
const PERIOD: Duration = Duration::from_millis(2);

impl HeapSampler {
    /// Starts sampling.
    pub fn start() -> Self {
        let peak = Arc::new(AtomicU64::new(live_bytes()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (peak, stop) = (peak.clone(), stop.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    peak.fetch_max(live_bytes(), Ordering::Relaxed);
                    std::thread::sleep(PERIOD);
                }
            })
        };
        HeapSampler {
            base: AtomicU64::new(live_bytes()),
            peak,
            stop,
            thread: Some(thread),
        }
    }

    /// Starts a new measurement window at the current live size.
    pub fn reset(&self) {
        let now = live_bytes();
        self.base.store(now, Ordering::Relaxed);
        self.peak.store(now, Ordering::Relaxed);
    }

    /// Peak live heap since the last [`HeapSampler::reset`], above the
    /// live heap at that reset, in MiB (the heap the measured work added;
    /// the benchmark's inputs and buffers are excluded).
    pub fn peak_mib(&self) -> f64 {
        self.peak.fetch_max(live_bytes(), Ordering::Relaxed);
        let added = self.peak.load(Ordering::Relaxed) - self.base.load(Ordering::Relaxed);
        added as f64 / (1024.0 * 1024.0)
    }

    /// Stops and joins the sampling thread.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.join().expect("the heap sampler thread does not panic");
        }
    }
}

impl Drop for HeapSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Puts glibc's dynamic mmap threshold in its steady state before any
/// measurement. glibc serves a large allocation with `mmap` until the
/// first large `mmap`ed block is freed; from then on blocks up to that
/// size come from the heap, and `calloc` must zero them. Which state a
/// repetition's set-up meets would otherwise depend on what ran before
/// it. One 24 MiB block (larger than any guest memory or ramdisk the
/// workloads allocate) freed up front makes every repetition meet the
/// steady state a long-running sweep or chaos runner is in.
pub fn settle_allocator() {
    drop(std::hint::black_box(vec![0u8; 24 << 20]));
}
