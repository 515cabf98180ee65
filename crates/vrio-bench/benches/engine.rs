//! Wall-clock microbenchmarks of the `vrio-sim` event engine: the timing
//! wheel against the reference `BinaryHeap` scheduler, over the three
//! schedule shapes the testbed actually generates.
//!
//! * **churn** — a steady 32k-event live set with uniform near-term
//!   deadlines; every fired event schedules a replacement. The sweep
//!   engine's dominant pattern under load, and the ≥2× acceptance case:
//!   the heap pays `O(log n)` sifts over a multi-megabyte array, the wheel
//!   stays flat.
//! * **cascade** — `schedule_now` bursts (same-instant chains) riding on a
//!   4k-event pending background: the wheel's O(1) fast lane never touches
//!   the pending set, while every heap push/pop sifts over it.
//!   Request-coalescing workloads look like this.
//! * **mixed** — deadlines spread over six decades of horizon, up to far
//!   enough to land in the wheel's overflow heap.
//!
//! Two entry modes:
//!
//! * `cargo bench --bench engine` — criterion mode, reporting ns/iter and
//!   events/sec per scheduler for each shape (`--quick` shrinks the event
//!   counts for CI smoke).
//! * `cargo bench --bench engine -- --perf OUT.json [--quick]` — the
//!   recorded perf harness: longer steady-state runs, the host AES-256-CTR
//!   throughput of the interposition path, plus in-process wall times of
//!   the `--sweep smoke` grid and one chaos campaign, written as a
//!   schema-versioned `BENCH_perf` document that `checkbench --perf` gates
//!   against `benches/BENCH_perf_seed.json`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use criterion::{black_box, Criterion, Throughput};
use vrio::AesCtr;
use vrio_bench::{run_chaos, run_sweep, ChaosCampaign, ReproConfig, SweepSpec};
use vrio_sim::{Dispatch, Engine, SimDuration, SimTime};
use vrio_trace::Json;

/// Schema version of the `BENCH_perf` document. v2 added the typed-event
/// engine shapes and the allocation counters.
const PERF_SCHEMA_VERSION: u64 = 2;

/// Counting allocator: every heap allocation (and growth) bumps a relaxed
/// counter. This is how the perf harness proves the typed-event engine's
/// steady-state churn is allocation-free — the counter around a warmed run
/// must not move. Lives in the bench target (its own crate root) because
/// the `vrio-bench` library forbids unsafe code.
struct CountingAlloc;

/// Heap allocations observed since process start (alloc + realloc).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Delay distribution shaping one benchmark schedule.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Dist {
    /// Uniform in [0, 1 ms): the steady-churn case (wheel levels 0–2).
    Uniform,
    /// Same-instant bursts, nudging time by 50 ns every 64 events so the
    /// chain crawls below the pending background: the fast lane.
    Cascade,
    /// Four horizons from 4 µs to ~8.6 s: upper levels + overflow heap.
    Mixed,
}

/// Benchmark world: a SplitMix64 stream plus the self-replenishing counter.
struct World {
    state: u64,
    remaining: u64,
    fired: u64,
    dist: Dist,
}

impl World {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn delay(&mut self) -> u64 {
        let r = self.next_u64();
        match self.dist {
            Dist::Uniform => r % 1_000_000,
            Dist::Cascade => {
                if self.fired.is_multiple_of(64) {
                    50
                } else {
                    0
                }
            }
            Dist::Mixed => match r & 3 {
                0 => (r >> 2) % (1 << 12),
                1 => (r >> 2) % (1 << 20),
                2 => (r >> 2) % (1 << 28),
                _ => (r >> 2) % (1 << 33),
            },
        }
    }
}

/// Each fired event schedules one replacement until the budget is spent, so
/// the live set stays at its seeded size throughout.
fn event(w: &mut World, eng: &mut Engine<World>) {
    w.fired += 1;
    if w.remaining > 0 {
        w.remaining -= 1;
        let d = w.delay();
        eng.schedule_in(SimDuration::nanos(d), event);
    }
}

/// Schedules [`event`]'s body as a closure that captures state (its own
/// deadline), as a real continuation would: a zero-sized fn item boxes
/// for free, so this is what costs one real box per boxed event.
fn schedule_capturing(w: &mut World, eng: &mut Engine<World>) {
    let due = eng.now() + SimDuration::nanos(w.delay());
    eng.schedule_at(due, move |w: &mut World, eng| {
        debug_assert_eq!(eng.now(), due);
        w.fired += 1;
        if w.remaining > 0 {
            w.remaining -= 1;
            schedule_capturing(w, eng);
        }
    });
}

/// The same self-replenishing schedule as a typed event: stored by value in
/// the queue's recycled slot vectors, so steady-state churn performs zero
/// heap allocations (asserted by the perf harness via [`ALLOCS`]).
enum Ev {
    /// The replenishing churn event (mirror of [`event`]).
    Tick,
    /// A parked cascade-background event: fires once, schedules nothing.
    Background,
}

impl Dispatch<World> for Ev {
    fn dispatch(self, w: &mut World, eng: &mut Engine<World, Ev>) {
        w.fired += 1;
        if matches!(self, Ev::Tick) && w.remaining > 0 {
            w.remaining -= 1;
            let d = w.delay();
            eng.schedule_event_in(SimDuration::nanos(d), Ev::Tick);
        }
    }
}

/// Runs one schedule to exhaustion; returns events fired (== `total`).
fn run_schedule(use_heap: bool, dist: Dist, total: u64) -> u64 {
    let mut eng = if use_heap {
        Engine::with_reference_heap()
    } else {
        Engine::new()
    };
    let mut w = World {
        state: 0x5EED ^ total,
        remaining: 0,
        fired: 0,
        dist,
    };
    match dist {
        Dist::Cascade => {
            // A pending background the bursts must not pay for: 4096 events
            // parked 10–20 ms out (the burst chain crawls ~50 ns per 64
            // events, staying well below them), firing once at the end.
            let background = 4096.min(total / 2);
            for _ in 0..background {
                let d = 10_000_000 + w.next_u64() % 10_000_000;
                eng.schedule_at(SimTime::from_nanos(d), |w: &mut World, _| w.fired += 1);
            }
            w.remaining = total - background - 1;
            eng.schedule_at(SimTime::ZERO, event);
        }
        _ => {
            // Steady live set: each fired event schedules its replacement.
            let live = 32_768.min(total / 2).max(1);
            w.remaining = total - live;
            for _ in 0..live {
                let d = w.delay();
                eng.schedule_at(SimTime::from_nanos(d), event);
            }
        }
    }
    eng.run(&mut w);
    assert_eq!(w.fired, total);
    w.fired
}

/// Seeds a typed-event engine with the same schedule (same SplitMix64
/// stream, same delays, same live-set sizing) as [`run_schedule`]. Delays
/// are scheduled relative to the engine's current time so a warmed engine
/// can be reseeded for steady-state measurement.
fn seed_typed(eng: &mut Engine<World, Ev>, w: &mut World, total: u64) {
    match w.dist {
        Dist::Cascade => {
            let background = 4096.min(total / 2);
            for _ in 0..background {
                let d = 10_000_000 + w.next_u64() % 10_000_000;
                eng.schedule_event_in(SimDuration::nanos(d), Ev::Background);
            }
            w.remaining = total - background - 1;
            eng.schedule_event_now(Ev::Tick);
        }
        _ => {
            let live = 32_768.min(total / 2).max(1);
            w.remaining = total - live;
            for _ in 0..live {
                let d = w.delay();
                eng.schedule_event_in(SimDuration::nanos(d), Ev::Tick);
            }
        }
    }
}

/// [`run_schedule`] on the typed-event engine: same schedule, no boxing.
fn run_schedule_typed(use_heap: bool, dist: Dist, total: u64) -> u64 {
    let mut eng: Engine<World, Ev> = if use_heap {
        Engine::with_reference_heap()
    } else {
        Engine::new()
    };
    let mut w = World {
        state: 0x5EED ^ total,
        remaining: 0,
        fired: 0,
        dist,
    };
    seed_typed(&mut eng, &mut w, total);
    eng.run(&mut w);
    assert_eq!(w.fired, total);
    w.fired
}

/// The timing wheel's full span: 4 levels × 256 slots at 1 ns granularity.
const WHEEL_SPAN_NS: u64 = 1 << 32;

/// Allocations per fired event in a steady-state churn run, for both
/// engines. One full pass warms the queue (slot vectors grow to their
/// working capacity); the clock is then advanced to a multiple of the
/// wheel's span, so an identical pass — same RNG stream, so the same
/// delays and live set — files every event into exactly the slots the warm
/// pass already grew, and is measured on the warm engine.
fn churn_allocs_per_event(typed: bool, total: u64) -> f64 {
    let mut w = World {
        state: 0x5EED ^ total,
        remaining: 0,
        fired: 0,
        dist: Dist::Uniform,
    };
    let allocs = if typed {
        let mut eng: Engine<World, Ev> = Engine::new();
        seed_typed(&mut eng, &mut w, total);
        eng.run(&mut w);
        let aligned = eng.now().as_nanos().div_ceil(WHEEL_SPAN_NS) * WHEEL_SPAN_NS;
        eng.schedule_event_at(SimTime::from_nanos(aligned), Ev::Background);
        eng.run(&mut w);
        w.state = 0x5EED ^ total;
        w.fired = 0;
        seed_typed(&mut eng, &mut w, total);
        let before = ALLOCS.load(Relaxed);
        eng.run(&mut w);
        ALLOCS.load(Relaxed) - before
    } else {
        let mut eng: Engine<World> = Engine::new();
        let seed_boxed = |eng: &mut Engine<World>, w: &mut World| {
            let live = 32_768.min(total / 2).max(1);
            w.remaining = total - live;
            for _ in 0..live {
                schedule_capturing(w, eng);
            }
        };
        seed_boxed(&mut eng, &mut w);
        eng.run(&mut w);
        let aligned = eng.now().as_nanos().div_ceil(WHEEL_SPAN_NS) * WHEEL_SPAN_NS;
        eng.schedule_at(SimTime::from_nanos(aligned), |w: &mut World, _| {
            w.fired += 1;
        });
        eng.run(&mut w);
        w.state = 0x5EED ^ total;
        w.fired = 0;
        // Every one of the `total` events is boxed once: the live set when
        // seeded, each replacement when scheduled.
        let before = ALLOCS.load(Relaxed);
        seed_boxed(&mut eng, &mut w);
        eng.run(&mut w);
        ALLOCS.load(Relaxed) - before
    };
    assert_eq!(w.fired, total);
    allocs as f64 / total as f64
}

const SHAPES: [(&str, Dist); 3] = [
    ("churn", Dist::Uniform),
    ("cascade", Dist::Cascade),
    ("mixed", Dist::Mixed),
];

const VARIANTS: [(&str, bool); 2] = [("wheel", false), ("heap", true)];

/// Criterion mode: ns/iter + events/sec for every (shape, scheduler) pair.
fn criterion_mode(total: u64) {
    let mut c = Criterion::default();
    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(total));
    for (shape, dist) in SHAPES {
        for (variant, use_heap) in VARIANTS {
            g.bench_function(format!("{shape}_{}k_{variant}", total / 1000), |b| {
                b.iter(|| black_box(run_schedule(use_heap, dist, total)));
            });
        }
        g.bench_function(format!("{shape}_{}k_typed", total / 1000), |b| {
            b.iter(|| black_box(run_schedule_typed(false, dist, total)));
        });
    }
    g.finish();
}

/// Steady-state rate of `total` units (events or bytes) per run: one warm-up
/// run, then timed runs until at least 3 repetitions and ~0.3 s of
/// measurement; the best rate is reported (minimum-noise estimator,
/// standard for throughput benches).
fn measure_per_sec(run: impl Fn() -> u64, total: u64) -> f64 {
    run();
    let mut best = 0.0f64;
    let mut spent = 0.0f64;
    let mut reps = 0u32;
    while reps < 3 || spent < 0.3 {
        let t = Instant::now();
        run();
        let secs = t.elapsed().as_secs_f64();
        best = best.max(total as f64 / secs);
        spent += secs;
        reps += 1;
        if reps >= 20 {
            break;
        }
    }
    best
}

/// Host AES-256-CTR throughput in bytes/sec over 4 KiB messages, each with
/// its own key expansion: the per-message work an `EncryptionService`
/// does for one 4 KiB block request.
fn aes_ctr_bytes_per_sec() -> f64 {
    const LEN: usize = 4096;
    const PASSES: u64 = 256;
    let key = [7u8; 32];
    let data = vec![0x42u8; LEN];
    let run = || {
        for nonce in 0..PASSES {
            black_box(AesCtr::new(&key, nonce).process(black_box(&data)));
        }
        PASSES
    };
    measure_per_sec(run, PASSES * LEN as u64)
}

/// Perf-recording mode: writes the schema-versioned `BENCH_perf` document.
fn perf_mode(quick: bool, out: &str) {
    let total: u64 = if quick { 200_000 } else { 1_000_000 };
    let mut metrics: Vec<(String, f64)> = Vec::new();
    for (shape, dist) in SHAPES {
        for (variant, use_heap) in VARIANTS {
            let rate = measure_per_sec(|| run_schedule(use_heap, dist, total), total);
            eprintln!("perf {shape:>8}/{variant}: {:>12.0} events/sec", rate);
            metrics.push((format!("{shape}_{variant}_events_per_sec"), rate));
        }
        let rate = measure_per_sec(|| run_schedule_typed(false, dist, total), total);
        eprintln!("perf {shape:>8}/typed: {:>12.0} events/sec", rate);
        metrics.push((format!("{shape}_typed_events_per_sec"), rate));
    }
    let find = |name: &str| {
        metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .expect("metric recorded above")
    };
    let speedup = find("churn_wheel_events_per_sec") / find("churn_heap_events_per_sec");
    eprintln!("perf churn speedup (wheel/heap): {speedup:.2}x");
    let typed_speedup = find("mixed_typed_events_per_sec") / find("mixed_wheel_events_per_sec");
    eprintln!("perf mixed typed speedup (typed/boxed): {typed_speedup:.2}x");

    // Allocation discipline: a warmed typed-event churn run must not touch
    // the heap at all — the queue's slot vectors are the recycled arena.
    let typed_allocs = churn_allocs_per_event(true, total);
    let boxed_allocs = churn_allocs_per_event(false, total);
    eprintln!("perf churn allocs/event: typed {typed_allocs:.4}, boxed {boxed_allocs:.4}");
    assert_eq!(
        typed_allocs, 0.0,
        "typed-event steady-state churn allocated on the heap"
    );

    let aes_rate = aes_ctr_bytes_per_sec();
    eprintln!("perf aes256 ctr 4 KiB: {:.1} MB/s", aes_rate / 1e6);

    // End-to-end anchor: the smoke sweep, single-threaded, quick config —
    // the same work `repro --quick --sweep smoke --threads 1` does.
    let spec = SweepSpec::smoke(ReproConfig::quick());
    let t = Instant::now();
    let allocs_before = ALLOCS.load(Relaxed);
    let result = run_sweep(&spec, 1, false).expect("smoke sweep runs");
    let sweep_allocs = ALLOCS.load(Relaxed) - allocs_before;
    let sweep_ms = t.elapsed().as_secs_f64() * 1e3;
    let sweep_requests: u64 = result.results.iter().map(|r| r.completed).sum();
    let allocs_per_request = sweep_allocs as f64 / sweep_requests.max(1) as f64;
    eprintln!(
        "perf sweep smoke: {} scenarios in {sweep_ms:.0} ms \
         ({allocs_per_request:.1} allocs/request over {sweep_requests} requests)",
        result.results.len()
    );

    // One chaos campaign end to end, oracle on: the replicas of
    // `repro --quick --chaos primary-kill --threads 1` without rendering.
    // Best of three, since host noise only ever adds time.
    let campaign =
        ChaosCampaign::named("primary-kill", ReproConfig::quick()).expect("known campaign");
    let chaos_ms = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(run_chaos(&campaign, 1, false).expect("chaos campaign runs"));
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min);
    eprintln!("perf chaos primary-kill: {chaos_ms:.1} ms (best of 3, one thread)");

    let mut fields: Vec<(&str, Json)> = vec![
        ("schema_version", Json::int(PERF_SCHEMA_VERSION)),
        ("kind", Json::str("perf")),
        ("quick", Json::Bool(quick)),
        ("events_per_run", Json::int(total)),
    ];
    let mut metric_fields: Vec<(&str, Json)> = metrics
        .iter()
        .map(|(k, v)| (k.as_str(), Json::Num(*v)))
        .collect();
    metric_fields.push(("churn_speedup", Json::Num(speedup)));
    metric_fields.push(("mixed_typed_speedup", Json::Num(typed_speedup)));
    metric_fields.push(("churn_typed_allocs_per_event", Json::Num(typed_allocs)));
    metric_fields.push(("churn_boxed_allocs_per_event", Json::Num(boxed_allocs)));
    metric_fields.push(("aes256_ctr_bytes_per_sec", Json::Num(aes_rate)));
    metric_fields.push(("sweep_allocs_per_request", Json::Num(allocs_per_request)));
    metric_fields.push(("sweep_smoke_wall_ms", Json::Num(sweep_ms)));
    metric_fields.push(("chaos_primary_kill_wall_ms", Json::Num(chaos_ms)));
    fields.push(("metrics", Json::obj(metric_fields)));
    let doc = Json::obj(fields);
    std::fs::write(out, doc.render_pretty() + "\n")
        .unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("wrote {out}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut perf_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--perf" {
            match it.next() {
                Some(p) => perf_out = Some(p.clone()),
                None => {
                    eprintln!("--perf needs an output path");
                    std::process::exit(1);
                }
            }
        }
        // Other flags (e.g. cargo's --bench) are criterion-compat noise.
    }
    match perf_out {
        Some(out) => perf_mode(quick, &out),
        None => criterion_mode(if quick { 50_000 } else { 1_000_000 }),
    }
}
