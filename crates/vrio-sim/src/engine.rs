//! The discrete-event simulation engine.
//!
//! [`Engine<W, E>`] owns a priority queue of scheduled events over a
//! user-supplied world type `W`. The event payload type `E` implements
//! [`Dispatch<W>`]; firing an event may mutate the world and schedule
//! further events. Ties in firing time are broken by scheduling order
//! (FIFO), which together with the deterministic RNG makes every run
//! bit-for-bit reproducible.
//!
//! Two event representations share the one engine:
//!
//! - **Boxed events** (the default, `E = `[`BoxedEvent<W>`]) come in two
//!   shapes. A *closure* event (`schedule_at` and friends) boxes a
//!   `FnOnce` — one heap allocation per scheduled event, maximally
//!   flexible; drivers and workloads use it. A *call* event
//!   ([`Engine::schedule_call_at`]) is a plain function pointer plus a
//!   `u64` argument and owns no heap memory; the testbed's compiled flows
//!   hop with it, passing the index of their flow record. A continuation
//!   that must outlive many hops is boxed once and [parked](Engine::park)
//!   in the engine, then redeemed exactly once with
//!   [`Engine::take_parked`] — so a request costs one box, not one per hop.
//! - **Typed events**: instantiate `Engine<W, E>` with a plain `enum`
//!   implementing [`Dispatch<W>`] and schedule with
//!   [`Engine::schedule_event_at`]. Events are stored *by value* inside
//!   the queue's slot vectors, which retain their capacity across pops and
//!   so act as a free-list-recycled arena: steady-state scheduling
//!   performs **zero heap allocations per event** (asserted by the
//!   counting-allocator perf harness in `vrio-bench`). A `Send`-able
//!   event enum is also the prerequisite for sharding the simulation
//!   across threads — `Box<dyn FnOnce>` closures are neither `Send` nor
//!   serializable across shard boundaries.
//!
//! Both representations fire in identical `(time, seq)` order; the
//! differential proptest in this crate's test suite replays arbitrary
//! event programs on a typed-enum engine against the closure
//! [`ReferenceHeap`] engine and demands identical firing order and world
//! digests.
//!
//! The queue is a hierarchical [`TimingWheel`] (O(1) schedule and pop, with
//! a fast lane for same-instant bursts); the previous `BinaryHeap`
//! scheduler survives as [`ReferenceHeap`], selectable via
//! [`Engine::with_reference_heap`] for differential testing and as the
//! benchmark baseline. Both fire in identical `(time, seq)` order.
//!
//! The observe-only probe ([`Engine::set_probe`]) stays a
//! `Box<dyn FnMut(SimTime)>` regardless of `E`: it is invoked in
//! [`Engine::step`] *after* the event is popped out of the arena and
//! *before* it dispatches, so it never touches event storage and cannot
//! perturb recycling — enabling it is bit-identical on every model.

use std::marker::PhantomData;

use crate::profiler::Profiler;
use crate::time::{SimDuration, SimTime};
use crate::wheel::{ReferenceHeap, TimingWheel};

/// A scheduled closure-event callback (the payload of [`BoxedEvent`]).
pub type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Engine<W>)>;

/// How an event payload fires. Implemented by [`BoxedEvent`] (closure and
/// function-call dispatch) and by user-defined typed event enums; the
/// world interprets the event, so a typed `E` needs no per-event heap
/// state.
pub trait Dispatch<W>: Sized {
    /// Consumes the event, mutating the world and possibly scheduling
    /// further events.
    fn dispatch(self, world: &mut W, eng: &mut Engine<W, Self>);
}

/// A [`BoxedEvent::Call`] target: a plain function receiving the event's
/// `u64` argument.
pub type CallFn<W> = fn(&mut W, &mut Engine<W>, u64);

/// The default event payload: a boxed closure, or a function call that
/// allocates nothing.
pub enum BoxedEvent<W> {
    /// A boxed `FnOnce` closure: one heap allocation per event.
    Closure(EventFn<W>),
    /// A function pointer and its argument: no heap memory at all.
    Call(CallFn<W>, u64),
}

impl<W> Dispatch<W> for BoxedEvent<W> {
    #[inline]
    fn dispatch(self, world: &mut W, eng: &mut Engine<W>) {
        match self {
            BoxedEvent::Closure(f) => f(world, eng),
            BoxedEvent::Call(f, arg) => f(world, eng, arg),
        }
    }
}

/// A claim on an event parked with [`Engine::park`]. Redeemable once: the
/// first [`Engine::take_parked`] gets the event, every later one (even
/// after the slot was reused by another park) gets `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    slot: u32,
    generation: u32,
}

/// The engine's event queue: the timing wheel in production, the reference
/// heap when explicitly requested (differential tests, benchmarks). The
/// payload is stored by value; the wheel's slot vectors double as the
/// event arena for typed payloads.
enum Queue<E> {
    Wheel(TimingWheel<E>),
    Heap(ReferenceHeap<E>),
}

impl<E> Queue<E> {
    #[inline]
    fn push(&mut self, at: u64, seq: u64, ev: E) {
        match self {
            Queue::Wheel(q) => q.push(at, seq, ev),
            Queue::Heap(q) => q.push(at, seq, ev),
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<(u64, E)> {
        match self {
            Queue::Wheel(q) => q.pop(),
            Queue::Heap(q) => q.pop(),
        }
    }

    #[inline]
    fn peek_time(&mut self) -> Option<u64> {
        match self {
            Queue::Wheel(q) => q.peek_time(),
            Queue::Heap(q) => q.peek_time(),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            Queue::Wheel(q) => q.len(),
            Queue::Heap(q) => q.len(),
        }
    }
}

/// A deterministic discrete-event simulator over a world type `W` and an
/// event payload type `E` (default: boxed closures).
///
/// # Examples
///
/// Closure events (the default instantiation):
///
/// ```
/// use vrio_sim::{Engine, SimDuration, SimTime};
///
/// struct World { pings: u32 }
///
/// let mut world = World { pings: 0 };
/// let mut engine = Engine::new();
/// engine.schedule_in(SimDuration::micros(5), |w: &mut World, eng| {
///     w.pings += 1;
///     // Events may schedule further events.
///     eng.schedule_in(SimDuration::micros(5), |w: &mut World, _| w.pings += 1);
/// });
/// engine.run(&mut world);
/// assert_eq!(world.pings, 2);
/// assert_eq!(engine.now(), SimTime::from_nanos(10_000));
/// ```
///
/// Typed events — no allocation per schedule, `Send`-able payloads:
///
/// ```
/// use vrio_sim::{Dispatch, Engine, SimDuration};
///
/// enum Ev { Ping, Pong }
/// impl Dispatch<u32> for Ev {
///     fn dispatch(self, w: &mut u32, eng: &mut Engine<u32, Ev>) {
///         *w += 1;
///         if matches!(self, Ev::Ping) {
///             eng.schedule_event_in(SimDuration::micros(1), Ev::Pong);
///         }
///     }
/// }
/// let mut hits = 0u32;
/// let mut eng: Engine<u32, Ev> = Engine::new();
/// eng.schedule_event_in(SimDuration::micros(1), Ev::Ping);
/// eng.run(&mut hits);
/// assert_eq!(hits, 2);
/// ```
pub struct Engine<W, E: Dispatch<W> = BoxedEvent<W>> {
    now: SimTime,
    seq: u64,
    fired: u64,
    queue: Queue<E>,
    /// Observe-only hook fired once per event (see [`Engine::set_probe`]).
    /// Deliberately a boxed closure even on typed-event engines: it runs
    /// outside the event arena path (between pop and dispatch) and is
    /// installed O(1) times per run, so boxing it costs nothing on the hot
    /// path and keeps the hook maximally flexible.
    probe: Option<Box<dyn FnMut(SimTime)>>,
    /// Wall-clock self-profiler; `None` unless an enabled handle was
    /// installed (see [`Engine::set_profiler`]), so the hot path pays one
    /// branch when profiling is off.
    profiler: Option<Profiler>,
    /// Parked events by slot, each with the generation its next ticket
    /// carries (see [`Engine::park`]). Grows on demand; freed slots are
    /// reused, so steady-state parking allocates nothing.
    parked: Vec<(u32, Option<E>)>,
    /// Free slots of `parked`.
    parked_free: Vec<u32>,
    /// `W` appears only in the `Dispatch` bound, not in any field.
    _world: PhantomData<fn(&mut W)>,
}

impl<W, E: Dispatch<W>> Default for Engine<W, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W, E: Dispatch<W>> Engine<W, E> {
    /// Creates an empty engine at `t = 0`, scheduled by the timing wheel.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            fired: 0,
            queue: Queue::Wheel(TimingWheel::new()),
            probe: None,
            profiler: None,
            parked: Vec::new(),
            parked_free: Vec::new(),
            _world: PhantomData,
        }
    }

    /// Creates an empty engine scheduled by the previous `BinaryHeap`
    /// implementation. Fires the exact same event sequence as [`Engine::new`]
    /// — kept for differential testing and as the perf-bench baseline.
    pub fn with_reference_heap() -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            fired: 0,
            queue: Queue::Heap(ReferenceHeap::new()),
            probe: None,
            profiler: None,
            parked: Vec::new(),
            parked_free: Vec::new(),
            _world: PhantomData,
        }
    }

    /// Installs an observe-only probe called with the firing time of every
    /// event, just before its callback runs (the tracing layer's event-fire
    /// hook). The probe cannot schedule events or touch the world, so it
    /// cannot perturb the simulation; replacing or clearing it does not
    /// affect reproducibility.
    pub fn set_probe<F>(&mut self, f: F)
    where
        F: FnMut(SimTime) + 'static,
    {
        self.probe = Some(Box::new(f));
    }

    /// Removes the event probe.
    pub fn clear_probe(&mut self) {
        self.probe = None;
    }

    /// Installs a wall-clock self-profiler. When the handle is enabled the
    /// engine times each event's queue pop (`engine.pop`), probe run
    /// (`engine.probe`) and callback body (`engine.callback`); a disabled
    /// handle is dropped so the hot path stays timestamp-free. Profiling is
    /// observe-only for the simulation: results are bit-identical with it
    /// on or off (only wall-clock PROF output differs, which is excluded
    /// from byte-identity gates).
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler.enabled().then_some(profiler);
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events fired so far.
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Number of events currently pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules a typed event to fire at absolute time `at`, stored by
    /// value in the queue (no heap allocation).
    ///
    /// Scheduling in the past is a logic error; the event is clamped to fire
    /// at the current time (still after all already-pending events at that
    /// time), and a debug assertion trips in test builds.
    pub fn schedule_event_at(&mut self, at: SimTime, ev: E) {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: {at} < {}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        if let Some(prof) = &self.profiler {
            let _g = prof.scope("engine.push");
            self.queue.push(at.as_nanos(), seq, ev);
        } else {
            self.queue.push(at.as_nanos(), seq, ev);
        }
    }

    /// Schedules a typed event to fire `delay` after the current time.
    pub fn schedule_event_in(&mut self, delay: SimDuration, ev: E) {
        self.schedule_event_at(self.now + delay, ev);
    }

    /// Schedules a typed event to fire immediately after all events already
    /// pending at the current time.
    pub fn schedule_event_now(&mut self, ev: E) {
        self.schedule_event_at(self.now, ev);
    }

    /// Parks `ev` outside the queue: it never fires on its own, and the
    /// returned ticket redeems it once via [`Engine::take_parked`]. Used
    /// for a continuation that several paths race to run (whoever takes
    /// the ticket first wins).
    pub fn park(&mut self, ev: E) -> Ticket {
        match self.parked_free.pop() {
            Some(slot) => {
                let entry = &mut self.parked[slot as usize];
                entry.1 = Some(ev);
                Ticket {
                    slot,
                    generation: entry.0,
                }
            }
            None => {
                let slot = u32::try_from(self.parked.len()).expect("parked slots fit u32");
                self.parked.push((0, Some(ev)));
                Ticket {
                    slot,
                    generation: 0,
                }
            }
        }
    }

    /// Takes the event parked under `ticket`, or `None` when it was
    /// already taken.
    pub fn take_parked(&mut self, ticket: Ticket) -> Option<E> {
        let entry = self.parked.get_mut(ticket.slot as usize)?;
        if entry.0 != ticket.generation {
            return None;
        }
        let ev = entry.1.take()?;
        entry.0 = entry.0.wrapping_add(1);
        self.parked_free.push(ticket.slot);
        Some(ev)
    }

    /// Fires the next pending event, advancing time to its deadline.
    ///
    /// Returns `false` if the queue was empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        if self.profiler.is_some() {
            return self.step_profiled(world);
        }
        match self.queue.pop() {
            Some((at, ev)) => {
                let at = SimTime::from_nanos(at);
                debug_assert!(at >= self.now);
                self.now = at;
                self.fired += 1;
                if let Some(probe) = &mut self.probe {
                    probe(at);
                }
                ev.dispatch(world, self);
                true
            }
            None => false,
        }
    }

    /// [`Engine::step`] with wall-clock scopes around the wheel pop, the
    /// probe and the callback. Identical event semantics — only timing is
    /// added.
    fn step_profiled(&mut self, world: &mut W) -> bool {
        let prof = self
            .profiler
            .clone()
            .expect("step_profiled without profiler");
        let popped = {
            let _g = prof.scope("engine.pop");
            self.queue.pop()
        };
        match popped {
            Some((at, ev)) => {
                let at = SimTime::from_nanos(at);
                debug_assert!(at >= self.now);
                self.now = at;
                self.fired += 1;
                if let Some(probe) = &mut self.probe {
                    let _g = prof.scope("engine.probe");
                    probe(at);
                }
                let _g = prof.scope("engine.callback");
                ev.dispatch(world, self);
                true
            }
            None => false,
        }
    }

    /// Runs until no events remain.
    pub fn run(&mut self, world: &mut W) {
        while self.step(world) {}
    }

    /// Runs until the queue is empty or the next event would fire after
    /// `deadline`. Time is left at the last fired event (it does not jump to
    /// the deadline).
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) {
        while let Some(at) = self.queue.peek_time() {
            if SimTime::from_nanos(at) > deadline {
                break;
            }
            self.step(world);
        }
    }

    /// Runs for `span` of simulated time from the current instant.
    pub fn run_for(&mut self, world: &mut W, span: SimDuration) {
        let deadline = self.now + span;
        self.run_until(world, deadline);
    }

    /// Runs while `cond` holds (checked before each event) and events remain.
    pub fn run_while<F>(&mut self, world: &mut W, mut cond: F)
    where
        F: FnMut(&W) -> bool,
    {
        while cond(world) && self.step(world) {}
    }
}

/// Closure scheduling — only on the default (boxed-closure) instantiation.
impl<W> Engine<W> {
    /// Schedules `f` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error; the event is clamped to fire
    /// at the current time (still after all already-pending events at that
    /// time), and a debug assertion trips in test builds.
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F)
    where
        F: FnOnce(&mut W, &mut Engine<W>) + 'static,
    {
        self.schedule_event_at(at, BoxedEvent::Closure(Box::new(f)));
    }

    /// Schedules `f(world, engine, arg)` to fire at absolute time `at`.
    /// Unlike a closure event this allocates nothing: the payload is a
    /// function pointer and one `u64`.
    pub fn schedule_call_at(&mut self, at: SimTime, f: CallFn<W>, arg: u64) {
        self.schedule_event_at(at, BoxedEvent::Call(f, arg));
    }

    /// Schedules `f(world, engine, arg)` to fire `delay` after the current
    /// time.
    pub fn schedule_call_in(&mut self, delay: SimDuration, f: CallFn<W>, arg: u64) {
        self.schedule_call_at(self.now + delay, f, arg);
    }

    /// Schedules `f` to fire `delay` after the current time.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, f: F)
    where
        F: FnOnce(&mut W, &mut Engine<W>) + 'static,
    {
        self.schedule_at(self.now + delay, f);
    }

    /// Schedules `f` to fire immediately after all events already pending at
    /// the current time.
    pub fn schedule_now<F>(&mut self, f: F)
    where
        F: FnOnce(&mut W, &mut Engine<W>) + 'static,
    {
        self.schedule_at(self.now, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut order: Vec<u32> = Vec::new();
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.schedule_at(SimTime::from_nanos(300), |w, _| w.push(3));
        eng.schedule_at(SimTime::from_nanos(100), |w, _| w.push(1));
        eng.schedule_at(SimTime::from_nanos(200), |w, _| w.push(2));
        eng.run(&mut order);
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(eng.events_fired(), 3);
    }

    #[test]
    fn ties_break_fifo() {
        let mut order: Vec<u32> = Vec::new();
        let mut eng: Engine<Vec<u32>> = Engine::new();
        for i in 0..10 {
            eng.schedule_at(SimTime::from_nanos(50), move |w, _| w.push(i));
        }
        eng.run(&mut order);
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn run_until_stops_before_later_events() {
        let mut hits = 0u32;
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_at(SimTime::from_nanos(100), |w, _| *w += 1);
        eng.schedule_at(SimTime::from_nanos(200), |w, _| *w += 1);
        eng.schedule_at(SimTime::from_nanos(300), |w, _| *w += 1);
        eng.run_until(&mut hits, SimTime::from_nanos(200));
        assert_eq!(hits, 2);
        assert_eq!(eng.now(), SimTime::from_nanos(200));
        assert_eq!(eng.pending(), 1);
        eng.run(&mut hits);
        assert_eq!(hits, 3);
    }

    #[test]
    fn chained_scheduling() {
        // An event chain: each fires 10ns later, 100 links.
        struct W {
            n: u32,
        }
        fn link(w: &mut W, eng: &mut Engine<W>) {
            w.n += 1;
            if w.n < 100 {
                eng.schedule_in(SimDuration::nanos(10), link);
            }
        }
        let mut w = W { n: 0 };
        let mut eng = Engine::new();
        eng.schedule_now(link);
        eng.run(&mut w);
        assert_eq!(w.n, 100);
        assert_eq!(eng.now(), SimTime::from_nanos(990));
    }

    #[test]
    fn run_while_condition() {
        let mut n = 0u32;
        let mut eng: Engine<u32> = Engine::new();
        for i in 0..100u64 {
            eng.schedule_at(SimTime::from_nanos(i), |w, _| *w += 1);
        }
        eng.run_while(&mut n, |w| *w < 10);
        assert_eq!(n, 10);
    }

    #[test]
    fn schedule_now_runs_after_pending_same_time_events() {
        let mut order: Vec<u32> = Vec::new();
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.schedule_at(SimTime::ZERO, |w, eng| {
            w.push(1);
            eng.schedule_now(|w: &mut Vec<u32>, _| w.push(3));
        });
        eng.schedule_at(SimTime::ZERO, |w, _| w.push(2));
        eng.run(&mut order);
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn engine_is_scenario_isolated_across_threads() {
        // The parallel sweep runner constructs one Engine + world per OS
        // thread. Nothing in the engine reaches for globals or thread-local
        // state, so identically-seeded runs on different threads are
        // bit-identical, and runs racing in parallel do not perturb each
        // other.
        fn run(seed: u64) -> (u64, SimTime) {
            let mut n = 0u64;
            let mut eng: Engine<u64> = Engine::new();
            for i in 0..seed % 17 + 3 {
                eng.schedule_at(SimTime::from_nanos(i * 7), |w, _| *w += 1);
            }
            eng.run(&mut n);
            (n, eng.now())
        }
        let here: Vec<_> = (0..4u64).map(run).collect();
        let handles: Vec<_> = (0..4u64)
            .map(|s| std::thread::spawn(move || run(s)))
            .collect();
        let there: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(here, there);
    }

    #[test]
    fn profiled_run_fires_the_same_events_and_records_scopes() {
        fn run(profiled: bool) -> (Vec<u32>, SimTime, Profiler) {
            let mut order: Vec<u32> = Vec::new();
            let mut eng: Engine<Vec<u32>> = Engine::new();
            let prof = Profiler::new(profiled);
            eng.set_profiler(prof.clone());
            eng.schedule_at(SimTime::from_nanos(200), |w, eng| {
                w.push(2);
                eng.schedule_in(SimDuration::nanos(50), |w: &mut Vec<u32>, _| w.push(3));
            });
            eng.schedule_at(SimTime::from_nanos(100), |w, _| w.push(1));
            eng.run(&mut order);
            (order, eng.now(), prof)
        }
        let (plain, plain_now, off) = run(false);
        let (profiled, prof_now, prof) = run(true);
        assert_eq!(plain, profiled);
        assert_eq!(plain_now, prof_now);
        assert!(off.export().scopes.is_empty());
        let report = prof.export();
        for scope in ["engine.pop", "engine.push", "engine.callback"] {
            let s = report
                .scope(scope)
                .unwrap_or_else(|| panic!("missing {scope}"));
            assert!(s.calls >= 3, "{scope}: {} calls", s.calls);
        }
        // No probe installed: the probe scope never opened.
        assert!(report.scope("engine.probe").is_none());
    }

    #[test]
    fn run_for_is_relative() {
        let mut n = 0u32;
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_at(SimTime::from_nanos(100), |w, _| *w += 1);
        eng.schedule_at(SimTime::from_nanos(250), |w, _| *w += 1);
        eng.run_for(&mut n, SimDuration::nanos(150));
        assert_eq!(n, 1);
        eng.run_for(&mut n, SimDuration::nanos(300));
        assert_eq!(n, 2);
    }

    /// Call events and closure events share one `(time, seq)` order.
    #[test]
    fn call_events_interleave_with_closures_in_fifo_order() {
        fn push(w: &mut Vec<u32>, _: &mut Engine<Vec<u32>>, arg: u64) {
            w.push(arg as u32);
        }
        let mut order: Vec<u32> = Vec::new();
        let mut eng: Engine<Vec<u32>> = Engine::new();
        eng.schedule_call_at(SimTime::from_nanos(50), push, 2);
        eng.schedule_at(SimTime::from_nanos(50), |w, _| w.push(3));
        eng.schedule_call_in(SimDuration::nanos(10), push, 1);
        eng.run(&mut order);
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(eng.events_fired(), 3);
    }

    /// A parked event is redeemed exactly once, and a stale ticket never
    /// takes the event parked after its slot was reused.
    #[test]
    fn parked_events_are_taken_once() {
        let mut eng: Engine<u32> = Engine::new();
        let a = eng.park(BoxedEvent::Closure(Box::new(|w: &mut u32, _| *w += 1)));
        assert_eq!(eng.pending(), 0, "parking schedules nothing");
        let mut hits = 0u32;
        let ev = eng.take_parked(a).expect("first take wins");
        ev.dispatch(&mut hits, &mut eng);
        assert_eq!(hits, 1);
        assert!(eng.take_parked(a).is_none(), "second take loses");
        let b = eng.park(BoxedEvent::Closure(Box::new(|w: &mut u32, _| *w += 10)));
        assert_ne!(a, b, "a reused slot carries a new generation");
        assert!(eng.take_parked(a).is_none(), "stale ticket");
        eng.take_parked(b).unwrap().dispatch(&mut hits, &mut eng);
        assert_eq!(hits, 11);
    }

    /// Typed events fire interchangeably with closure events: same
    /// (time, seq) order, same world effects, on both queue backends.
    #[test]
    fn typed_events_match_closure_engine() {
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum Ev {
            Push(u32),
            Chain { left: u32, step: u64 },
        }
        impl Dispatch<Vec<u32>> for Ev {
            fn dispatch(self, w: &mut Vec<u32>, eng: &mut Engine<Vec<u32>, Ev>) {
                match self {
                    Ev::Push(v) => w.push(v),
                    Ev::Chain { left, step } => {
                        w.push(left);
                        if left > 0 {
                            eng.schedule_event_in(
                                SimDuration::nanos(step),
                                Ev::Chain {
                                    left: left - 1,
                                    step,
                                },
                            );
                        }
                    }
                }
            }
        }
        // The typed enum is Send — the property sharded DES will rely on.
        fn assert_send<T: Send>() {}
        assert_send::<Ev>();

        fn typed(mut eng: Engine<Vec<u32>, Ev>) -> (Vec<u32>, SimTime, u64) {
            let mut w = Vec::new();
            eng.schedule_event_at(SimTime::from_nanos(50), Ev::Push(7));
            eng.schedule_event_at(SimTime::from_nanos(10), Ev::Chain { left: 3, step: 25 });
            eng.schedule_event_at(SimTime::from_nanos(50), Ev::Push(8));
            eng.run(&mut w);
            (w, eng.now(), eng.events_fired())
        }
        fn closures() -> (Vec<u32>, SimTime, u64) {
            let mut w = Vec::new();
            let mut eng: Engine<Vec<u32>> = Engine::new();
            fn chain(w: &mut Vec<u32>, eng: &mut Engine<Vec<u32>>, left: u32, step: u64) {
                w.push(left);
                if left > 0 {
                    eng.schedule_in(SimDuration::nanos(step), move |w: &mut Vec<u32>, eng| {
                        chain(w, eng, left - 1, step);
                    });
                }
            }
            eng.schedule_at(SimTime::from_nanos(50), |w, _| w.push(7));
            eng.schedule_at(SimTime::from_nanos(10), |w, eng| chain(w, eng, 3, 25));
            eng.schedule_at(SimTime::from_nanos(50), |w, _| w.push(8));
            eng.run(&mut w);
            (w, eng.now(), eng.events_fired())
        }
        let wheel = typed(Engine::new());
        let heap = typed(Engine::with_reference_heap());
        let boxed = closures();
        assert_eq!(wheel, boxed);
        assert_eq!(heap, boxed);
    }
}
