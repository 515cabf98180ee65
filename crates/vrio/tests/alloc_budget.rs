//! Allocation budget of the testbed's hot path.
//!
//! A counting global allocator tallies heap allocations per thread (so
//! the tests in this binary, which run on parallel threads, cannot see
//! each other's). After a warm-up of more simulated time than the timing
//! wheel's second level spans (16.8 ms), so that every slab, pool and
//! wheel slot has grown to its working size:
//!
//! - a flow hop allocates nothing: stream batches, whose programs are
//!   nothing but hops and charges, run from issue to completion without a
//!   single allocation, and in a vRIO net request-response loop every
//!   event that only hops allocates nothing;
//! - a vRIO net request-response and a vRIO block request each stay under
//!   a stated per-request ceiling.
//!
//! A `Box` or `Rc` reintroduced per hop or per step fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::Bytes;
use vrio::{blk_request, net_request_response, stream_batch, HasTestbed, Testbed, TestbedConfig};
use vrio_block::{BlockRequest, RequestId};
use vrio_hv::IoModel;
use vrio_sim::{Engine, SimDuration, SimTime};

struct Counting;

thread_local! {
    /// Fresh allocations and reallocations made by this thread.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(fresh: u64, grown: u64) {
    COUNTS.with(|c| {
        let (a, r) = c.get();
        c.set((a + fresh, r + grown));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over. The counters are a
// const-initialized thread-local `Cell` without a destructor, so counting
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, 0);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, 0);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(0, 1);
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Fresh heap allocations made so far by this thread: what a `Box`, an
/// `Rc` or a new buffer costs. Growing an existing buffer (`realloc`) is
/// not counted here: the testbed's append-only busy-interval logs grow by
/// amortized doubling however flows are run.
fn fresh() -> u64 {
    COUNTS.with(|c| c.get().0)
}

/// All heap allocations made so far by this thread, growth included.
fn allocs() -> u64 {
    COUNTS.with(|c| {
        let (a, r) = c.get();
        a + r
    })
}

/// A vRIO rack: `vms` VMs over two VMhosts and two IOhost workers.
fn vrio_testbed(vms: usize) -> Testbed {
    let mut c = TestbedConfig::simple(IoModel::Vrio, vms).with_backend_cores(2);
    c.num_vmhosts = 2;
    Testbed::new(c)
}

/// Closed-loop world: each VM re-issues on completion until `stop`.
struct World {
    tb: Testbed,
    stop: SimTime,
    completed: u64,
    req: Bytes,
}

impl HasTestbed for World {
    fn tb(&mut self) -> &mut Testbed {
        &mut self.tb
    }
}

fn rr_loop(w: &mut World, eng: &mut Engine<World>, vm: usize) {
    if eng.now() >= w.stop {
        return;
    }
    let req = w.req.clone();
    let resp_len = 64 + 97 * vm;
    net_request_response(
        w,
        eng,
        vm,
        req,
        resp_len,
        SimDuration::micros(2),
        move |w, eng, o| {
            assert_eq!(o.response.len(), resp_len);
            w.completed += 1;
            rr_loop(w, eng, vm);
        },
    );
}

#[test]
fn stream_hops_allocate_nothing() {
    struct Streams {
        tb: Testbed,
    }
    impl HasTestbed for Streams {
        fn tb(&mut self) -> &mut Testbed {
            &mut self.tb
        }
    }
    let mut w = Streams {
        tb: vrio_testbed(4),
    };
    let mut eng: Engine<Streams> = Engine::new();
    let done = Rc::new(Cell::new(0u64));
    let round = |w: &mut Streams, eng: &mut Engine<Streams>| {
        for vm in 0..4 {
            let done = done.clone();
            stream_batch(w, eng, vm, 64, 1448, move |_, _| done.set(done.get() + 1));
        }
    };
    while eng.now() < SimTime::ZERO + SimDuration::millis(20) {
        round(&mut w, &mut eng);
        eng.run(&mut w);
    }
    done.set(0);
    round(&mut w, &mut eng);
    let (a0, e0) = (fresh(), eng.events_fired());
    eng.run(&mut w);
    let (hop_allocs, events) = (fresh() - a0, eng.events_fired() - e0);
    assert_eq!(done.get(), 4);
    assert!(events >= 4 * 5, "{events} events for 4 batches");
    assert_eq!(
        hop_allocs, 0,
        "{hop_allocs} allocations over {events} hop events"
    );
}

#[test]
fn net_rr_hops_allocate_nothing_and_requests_stay_under_budget() {
    /// Allocations one vRIO request-response may make in steady state
    /// (5.4 measured): the parked continuation box (1), the encoded NetRx
    /// message (2), the frame the guest receives (1), the response frame
    /// the back-end fetches (1), and a share of health heartbeats.
    const RR_CEILING: f64 = 6.0;
    /// Events of one request that run data plumbing copying real bytes,
    /// and so may allocate: issuing it (in the previous completion's
    /// event), delivering the request, and fetching the response.
    const PLUMBING_EVENTS: u64 = 3;

    let warm = SimTime::ZERO + SimDuration::millis(20);
    let mut w = World {
        tb: vrio_testbed(8),
        stop: warm + SimDuration::millis(5),
        completed: 0,
        req: Bytes::from(vec![0xAB; 32]),
    };
    let mut eng: Engine<World> = Engine::new();
    for vm in 0..8 {
        rr_loop(&mut w, &mut eng, vm);
    }
    eng.run_until(&mut w, warm);
    // Fresh-allocation count at the start of every event, read by the
    // observe-only probe just before the event dispatches.
    let marks: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::with_capacity(1 << 16)));
    {
        let marks = marks.clone();
        eng.set_probe(move |_| marks.borrow_mut().push(fresh()));
    }
    let (a0, c0, e0) = (allocs(), w.completed, eng.events_fired());
    let stop = w.stop;
    eng.run_until(&mut w, stop);
    let (a, completed, events) = (allocs() - a0, w.completed - c0, eng.events_fired() - e0);
    eng.clear_probe();
    assert!(completed > 500, "{completed} completions");
    let per_req = a as f64 / completed as f64;
    assert!(
        per_req <= RR_CEILING,
        "net RR: {per_req:.2} allocations/request, ceiling {RR_CEILING}"
    );
    // Every other event only hops (engine dispatch plus the step
    // interpreter) and must allocate nothing at all.
    let marks = marks.borrow();
    let allocating = marks.windows(2).filter(|m| m[1] != m[0]).count() as u64;
    assert!(
        allocating <= PLUMBING_EVENTS * (completed + 8),
        "{allocating} of {events} events allocated for {completed} requests"
    );
    assert!(
        events >= 15 * completed,
        "{events} events, {completed} requests"
    );
}

#[test]
fn vrio_blk_requests_stay_under_budget() {
    /// Allocations one vRIO 4 KiB block request (half reads, half writes)
    /// may make in steady state (11.5 measured): the parked continuation
    /// (1), the encapsulation buffer and the encoded message (3), the
    /// virtio ring's submit, fetch, complete and reap bookkeeping and
    /// data copies (about 7), and the read copy out of the store (½).
    const BLK_CEILING: f64 = 12.0;

    struct Blk {
        tb: Testbed,
        stop: SimTime,
        completed: u64,
        next: u64,
    }
    impl HasTestbed for Blk {
        fn tb(&mut self) -> &mut Testbed {
            &mut self.tb
        }
    }
    fn blk_loop(w: &mut Blk, eng: &mut Engine<Blk>, vm: usize, data: Bytes) {
        if eng.now() >= w.stop {
            return;
        }
        w.next += 1;
        let sector = (w.next % 64) * 8;
        let req = if w.next.is_multiple_of(2) {
            BlockRequest::write(RequestId(w.next), sector, data.clone())
        } else {
            BlockRequest::read(RequestId(w.next), sector, 4096)
        };
        blk_request(w, eng, vm, req, move |w, eng, o| {
            assert_eq!(o.status, vrio_virtio::BLK_S_OK);
            w.completed += 1;
            blk_loop(w, eng, vm, data);
        });
    }
    let mut w = Blk {
        tb: vrio_testbed(4),
        stop: SimTime::ZERO + SimDuration::millis(40),
        completed: 0,
        next: 0,
    };
    let mut eng: Engine<Blk> = Engine::new();
    let data = Bytes::from(vec![0x5C; 4096]);
    for vm in 0..4 {
        blk_loop(&mut w, &mut eng, vm, data.clone());
    }
    // The warm-up also outlasts the 10 ms retransmission timeout, so
    // armed timers retire as fast as new ones are armed.
    eng.run_until(&mut w, SimTime::ZERO + SimDuration::millis(25));
    let (a0, c0) = (allocs(), w.completed);
    eng.run_until(&mut w, SimTime::ZERO + SimDuration::millis(40));
    let (a, completed) = (allocs() - a0, w.completed - c0);
    assert!(completed > 200, "{completed} completions");
    let per_req = a as f64 / completed as f64;
    assert!(
        per_req <= BLK_CEILING,
        "vRIO blk: {per_req:.2} allocations/request, ceiling {BLK_CEILING}"
    );
}
