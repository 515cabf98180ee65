//! The reference kernel: a fixed piece of benchmark-owned work whose host
//! time tracks how fast the machine is running at that moment.
//!
//! On a shared machine the same simulation's host time drifts by ±25%
//! over seconds to minutes as other tenants come and go. Host time
//! divided by the reference kernel's host time cancels most of that
//! drift. The machine's speed changes within a repetition too, so the
//! kernel is sampled between the repetition's slices, outside the timed
//! region. The kernel never calls the simulator, so a change to the
//! simulator cannot move it.
//!
//! The drift does not slow all code alike, so the kernel is built from
//! parts of about equal host time, each shaped like one kind of simulator
//! work, and each workload uses the parts matching the work it does (see
//! NOTES.md for the measurements behind the choice):
//!
//! - [`Kernel::EventLoop`]: pop the earliest of 4096 timed entries from a
//!   binary heap, run and free a boxed closure, schedule a fresh boxed
//!   closure at a pseudo-random later time (allocation- and pointer-heavy,
//!   like the engine and the testbed's flows);
//! - [`Kernel::Cipher`]: S-box substitution and `xtime` column mixing over
//!   a 4 KiB buffer (table lookups and byte arithmetic, like the software
//!   AES the interposition chain runs);
//! - [`Kernel::Copy`]: 64 KiB copies between pseudo-random offsets of two
//!   8 MiB buffers (memory bandwidth, like ramdisk and payload copies).

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Entries live in the kernel's queue.
const ENTRIES: u64 = 4096;
/// Samples per reference unit.
const SAMPLES_PER_UNIT: u64 = 8;
/// Event-loop steps per sample.
const SAMPLE_STEPS: u64 = 25_000;
/// Cipher passes over the 4 KiB buffer per sample (about the event
/// loop's host time).
const SAMPLE_PASSES: u32 = 1_200;
/// 64 KiB copies per sample (about the event loop's host time).
const SAMPLE_COPIES: u64 = 400;
/// Size of each copy buffer.
const COPY_BUF: usize = 8 << 20;
/// Nominal host seconds of one memory-copy sample: about what it takes on
/// the machine NOTES.md describes.
const NOMINAL_COPY_SAMPLE_S: f64 = 0.00325;

/// One part of the reference kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// A binary-heap event loop of boxed closures.
    EventLoop,
    /// A byte S-box cipher.
    Cipher,
    /// Large memory copies.
    Copy,
}

thread_local! {
    /// This thread's copy buffers, allocated once (see [`prepare`]).
    static COPY_BUFS: RefCell<(Vec<u8>, Vec<u8>)> = RefCell::new((vec![1; COPY_BUF], vec![2; COPY_BUF]));
}

/// Allocates this thread's copy buffers now, before anything is measured.
pub fn prepare() {
    COPY_BUFS.with(|b| black_box(b.borrow().0.len()));
}

type Job = Box<dyn FnOnce(&mut u64)>;

/// Runs `steps` event-loop steps and returns their host seconds.
fn event_loop_seconds(steps: u64) -> f64 {
    let t0 = Instant::now();
    let mut queue: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::with_capacity(ENTRIES as usize);
    let mut jobs: Vec<Option<Job>> = (0..ENTRIES).map(|_| None).collect();
    let mut x = 1u64;
    let mut acc = 0u64;
    for id in 0..ENTRIES {
        queue.push(Reverse((id, id)));
        jobs[id as usize] = Some(Box::new(move |a: &mut u64| *a = a.wrapping_add(id)));
    }
    for _ in 0..steps {
        let Reverse((at, id)) = queue.pop().expect("the queue never empties");
        if let Some(job) = jobs[id as usize].take() {
            job(&mut acc);
        }
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let v = x >> 40;
        jobs[id as usize] = Some(Box::new(move |a: &mut u64| *a ^= v));
        queue.push(Reverse((at + 1 + (x >> 54), id)));
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// Runs `passes` byte-cipher passes and returns their host seconds.
fn cipher_seconds(passes: u32) -> f64 {
    let t0 = Instant::now();
    let mut sbox = [0u8; 256];
    let mut x = 7u8;
    for (i, b) in sbox.iter_mut().enumerate() {
        x = x.wrapping_mul(31).wrapping_add(i as u8 | 1);
        *b = x ^ (i as u8).rotate_left(3);
    }
    let mut buf = [0u8; 4096];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = i as u8;
    }
    for _ in 0..passes {
        for block in buf.chunks_mut(16) {
            for b in block.iter_mut() {
                *b = sbox[*b as usize];
            }
            let col = [block[0], block[5], block[10], block[15]];
            for r in 0..4 {
                let v = col[r] ^ col[(r + 1) % 4];
                block[r] ^= (v << 1) ^ if v & 0x80 != 0 { 0x1b } else { 0 };
            }
        }
    }
    black_box(&buf);
    t0.elapsed().as_secs_f64()
}

/// Runs `copies` 64 KiB copies and returns their host seconds.
fn copy_seconds(copies: u64) -> f64 {
    const CHUNK: usize = 64 << 10;
    COPY_BUFS.with(|bufs| {
        let (src, dst) = &mut *bufs.borrow_mut();
        let t0 = Instant::now();
        let mut x = 1u64;
        for _ in 0..copies {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let from = (x >> 40) as usize % (COPY_BUF - CHUNK);
            let to = (x >> 16) as usize % (COPY_BUF - CHUNK);
            dst[to..to + CHUNK].copy_from_slice(&src[from..from + CHUNK]);
            black_box(&dst[to]);
        }
        t0.elapsed().as_secs_f64()
    })
}

/// Times `setup` between two memory-copy samples. Set-up is mostly the
/// zeroing of guest memory, so its host time tracks the copy part of the
/// kernel, not the part the workload's simulation matches. Returns the
/// result, the raw host seconds, and the host seconds at the nominal copy
/// speed (raw seconds times nominal over measured copy time).
pub fn timed_setup<T>(setup: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = copy_seconds(SAMPLE_COPIES);
    let t0 = Instant::now();
    let out = setup();
    let raw = t0.elapsed().as_secs_f64();
    let after = copy_seconds(SAMPLE_COPIES);
    (
        out,
        raw,
        raw * 2.0 * NOMINAL_COPY_SAMPLE_S / (before + after),
    )
}

/// One sample of `kernels`, in host seconds.
fn sample_seconds(kernels: &[Kernel]) -> f64 {
    kernels
        .iter()
        .map(|k| match k {
            Kernel::EventLoop => event_loop_seconds(SAMPLE_STEPS),
            Kernel::Cipher => cipher_seconds(SAMPLE_PASSES),
            Kernel::Copy => copy_seconds(SAMPLE_COPIES),
        })
        .sum()
}

/// Samples the machine's speed between the slices of a repetition. Each
/// sample is an eighth of a reference unit.
#[derive(Debug)]
pub struct Sampler {
    kernels: &'static [Kernel],
    total: f64,
    samples: u32,
}

impl Sampler {
    /// A sampler of the reference kernel made of `kernels`.
    pub fn new(kernels: &'static [Kernel]) -> Self {
        Sampler {
            kernels,
            total: 0.0,
            samples: 0,
        }
    }

    /// Takes one sample on each of `threads` threads at once: a threaded
    /// repetition runs on every core, so every core's speed counts.
    pub fn sample(&mut self, threads: usize) {
        let secs: Vec<f64> = if threads <= 1 {
            vec![sample_seconds(self.kernels)]
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| s.spawn(|| sample_seconds(self.kernels)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("the reference kernel does not panic"))
                    .collect()
            })
        };
        for t in secs {
            self.total += t * SAMPLES_PER_UNIT as f64;
            self.samples += 1;
        }
    }

    /// Mean host seconds of one reference unit over the samples taken
    /// (0 without samples).
    pub fn reference_seconds(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.total / f64::from(self.samples)
        }
    }
}
