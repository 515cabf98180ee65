//! The simulation oracle: an **observe-only invariant checker** wired into
//! the testbed flows and the engine probe.
//!
//! The testbed's value rests on the claim that every protocol mechanism is
//! real executable code over real bytes. The oracle turns that claim into
//! machine-checked *laws* that hold across every flow, model and fault
//! schedule:
//!
//! * **Exactly-once completion** — every request a generator begins is
//!   completed exactly once (or explicitly dropped by a modeled loss),
//!   even across retransmission, failover and failback
//!   ([`Oracle::flow_begin`] / [`Oracle::flow_complete`] /
//!   [`Oracle::flow_drop`] / [`Oracle::finish`]).
//! * **Descriptor conservation** — virtqueue push/pop/complete never leaks
//!   or duplicates ring slots, checked against live
//!   [`vrio_virtio::RingOps`] counters at every lifecycle mark, over each
//!   queue of every VM whose ring generation
//!   ([`vrio_hv::Vm::ring_generation`]) has advanced since its last audit
//!   ([`Oracle::audit_queue`]).
//! * **Byte conservation** — payloads survive encapsulation → wire →
//!   decapsulation unchanged, including the fake-TCP TSO
//!   segmentation/reassembly path ([`Oracle::check_bytes`]).
//! * **Per-device FIFO steering** — a device's requests never migrate to a
//!   different IOhost worker while any are in flight
//!   ([`Oracle::steer_assign`] / [`Oracle::steer_release`]).
//! * **Monotone causality** — lifecycle marks within a span never run
//!   backwards in time, and neither does the engine clock
//!   ([`Oracle::on_mark`] / [`Oracle::on_engine_event`]).
//!
//! Like the tracer, the oracle is **strictly observe-only**: it owns no
//! RNG, schedules no events, and every method takes `&self` on a shared
//! handle, so enabling it is bit-identical to disabling it (asserted under
//! active fault injection in `tests/oracle.rs`). Violations are recorded,
//! not panicked, so a run can complete and report everything it found;
//! [`Oracle::assert_clean`] is the panicking gate for tests and CI.
//!
//! To add an invariant: add a recording method on [`Oracle`] (it must draw
//! no randomness and schedule nothing), call it from the flow or probe
//! site that observes the relevant state, and give violations a stable
//! `invariant` name plus a message carrying enough identifiers (VM, queue,
//! span, counts) to act on.

use std::cell::RefCell;
use std::rc::Rc;

use vrio_hv::QueueAudit;
use vrio_sim::SimTime;
use vrio_trace::{SpanId, Stage};

/// Configuration for the oracle: plain data so [`TestbedConfig`] stays
/// `Send`; the live handle is built by `Testbed::new`.
///
/// [`TestbedConfig`]: crate::TestbedConfig
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OracleConfig {
    enabled: bool,
}

impl OracleConfig {
    /// Oracle disabled (the default): every hook is a no-op.
    pub fn off() -> Self {
        OracleConfig { enabled: false }
    }

    /// Oracle enabled: invariants are checked inline at every hook site.
    pub fn on() -> Self {
        OracleConfig { enabled: true }
    }

    /// Whether this configuration enables the oracle.
    pub fn enabled(&self) -> bool {
        self.enabled
    }
}

/// Handle to one request in the exactly-once ledger, returned by
/// [`Oracle::flow_begin`]. Copyable so flows can capture it in event
/// closures; [`FlowToken::NONE`] is the inert handle returned when the
/// oracle is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowToken(u64);

impl FlowToken {
    /// The inert token (all ledger operations on it are no-ops).
    pub const NONE: FlowToken = FlowToken(0);
}

/// One recorded invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable name of the violated invariant class
    /// (`"exactly-once"`, `"descriptor-conservation"`,
    /// `"byte-conservation"`, `"fifo-steering"`, `"causality"`).
    pub invariant: &'static str,
    /// Human-actionable description: what law broke, where, and the
    /// observed vs expected values.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.message)
    }
}

/// Summary of an oracle run: how much was checked and what broke.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleReport {
    /// Total individual invariant checks performed.
    pub checks: u64,
    /// Flows entered into the exactly-once ledger.
    pub flows_begun: u64,
    /// Flows completed exactly once.
    pub flows_completed: u64,
    /// Flows explicitly dropped by a modeled loss.
    pub flows_dropped: u64,
    /// Recorded violations (capped; see `violations_dropped`).
    pub violations: Vec<Violation>,
    /// Violations beyond the recording cap (counted, not stored).
    pub violations_dropped: u64,
}

/// Where an exactly-once ledger entry stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlowState {
    Open,
    Completed,
    Dropped,
    /// Reported as leaked by [`Oracle::finish`]: out of the books, so a
    /// late completion reads as one for a flow that was never begun.
    Leaked,
}

impl FlowState {
    fn verb(self) -> &'static str {
        match self {
            FlowState::Completed => "completed",
            FlowState::Dropped => "dropped",
            FlowState::Open | FlowState::Leaked => unreachable!("not a closure"),
        }
    }
}

/// One request in the dense exactly-once ledger; token `t` lives at index
/// `t - 1`.
struct FlowRecord {
    kind: &'static str,
    begun: SimTime,
    state: FlowState,
}

/// Recorded violations are capped to keep a badly broken run from
/// ballooning; the overflow is still counted.
const MAX_VIOLATIONS: usize = 256;

#[derive(Default)]
struct Inner {
    checks: u64,
    /// The exactly-once ledger, indexed by token − 1 (tokens are issued
    /// densely from 1).
    flows: Vec<FlowRecord>,
    flows_completed: u64,
    flows_dropped: u64,
    /// Per-device steering state, indexed by device id (the testbed's
    /// dense client index): (requests in flight, owning worker), `None`
    /// until the device is first steered.
    steer: Vec<Option<(u64, usize)>>,
    /// Sanctioned steering handoffs (failover re-pins), counted so chaos
    /// reports can show how often devices migrated between IOhosts.
    steer_handoffs: u64,
    /// Last mark time per span, indexed by [`SpanId::index`]; `None`
    /// until the span's first mark.
    span_last: Vec<Option<SimTime>>,
    last_engine_event: Option<SimTime>,
    violations: Vec<Violation>,
    violations_dropped: u64,
}

impl Inner {
    fn steer_entry(&mut self, device: u32) -> &mut Option<(u64, usize)> {
        let d = device as usize;
        if d >= self.steer.len() {
            self.steer.resize(d + 1, None);
        }
        &mut self.steer[d]
    }

    fn violate(&mut self, invariant: &'static str, message: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(Violation { invariant, message });
        } else {
            self.violations_dropped += 1;
        }
    }
}

/// The oracle handle: cheap to clone (all clones share state), inert when
/// the config left the oracle off. See the [module docs](self) for the
/// invariant catalog and the observe-only construction.
#[derive(Clone, Default)]
pub struct Oracle {
    inner: Option<Rc<RefCell<Inner>>>,
}

impl std::fmt::Debug for Oracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Oracle(off)"),
            Some(i) => {
                let i = i.borrow();
                write!(
                    f,
                    "Oracle(checks: {}, violations: {})",
                    i.checks,
                    i.violations.len()
                )
            }
        }
    }
}

impl Oracle {
    /// Builds a handle from the configuration.
    pub fn new(config: &OracleConfig) -> Self {
        Oracle {
            inner: config
                .enabled
                .then(|| Rc::new(RefCell::new(Inner::default()))),
        }
    }

    /// The inert handle (equivalent to `Oracle::new(&OracleConfig::off())`).
    pub fn off() -> Self {
        Oracle { inner: None }
    }

    /// Whether the oracle is recording.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    // ---- exactly-once request ledger ------------------------------------

    /// Enters a new request into the ledger. Call once per generated
    /// request; the token identifies it for the lifetime of the flow.
    pub fn flow_begin(&self, kind: &'static str, now: SimTime) -> FlowToken {
        let Some(inner) = &self.inner else {
            return FlowToken::NONE;
        };
        let mut i = inner.borrow_mut();
        i.flows.push(FlowRecord {
            kind,
            begun: now,
            state: FlowState::Open,
        });
        FlowToken(i.flows.len() as u64)
    }

    /// Records that a flow's request or response was lost to a modeled
    /// drop (firewall, channel loss, IOhost outage) with no retransmission
    /// to recover it. Closes the ledger entry: a later completion of the
    /// same flow is a violation.
    pub fn flow_drop(&self, token: FlowToken, now: SimTime) {
        self.close_flow(token, now, FlowState::Dropped);
    }

    /// Records a flow completion. Every begun flow must reach exactly one
    /// of [`Oracle::flow_complete`] / [`Oracle::flow_drop`]; a second
    /// closure or a completion of an unknown token is a violation.
    pub fn flow_complete(&self, token: FlowToken, now: SimTime) {
        self.close_flow(token, now, FlowState::Completed);
    }

    fn close_flow(&self, token: FlowToken, now: SimTime, how: FlowState) {
        let Some(inner) = &self.inner else { return };
        if token == FlowToken::NONE {
            return;
        }
        let mut i = inner.borrow_mut();
        let i = &mut *i;
        i.checks += 1;
        let record = usize::try_from(token.0 - 1)
            .ok()
            .and_then(|at| i.flows.get_mut(at));
        let msg = match record {
            Some(flow) if flow.state == FlowState::Open => {
                flow.state = how;
                let (kind, begun) = (flow.kind, flow.begun);
                match how {
                    FlowState::Completed => i.flows_completed += 1,
                    _ => i.flows_dropped += 1,
                }
                if now < begun {
                    i.violate(
                        "causality",
                        format!(
                            "{kind} flow {} closed at {now:?}, before it began at {begun:?}",
                            token.0
                        ),
                    );
                }
                return;
            }
            Some(&mut FlowRecord {
                kind,
                state: prev @ (FlowState::Completed | FlowState::Dropped),
                ..
            }) => format!(
                "{kind} flow {} closed twice: already {} and now {} at {now:?} \
                 — a completion was delivered more than once",
                token.0,
                prev.verb(),
                how.verb(),
            ),
            _ => format!(
                "flow {} {} at {now:?} but was never begun — \
                 a completion appeared out of thin air",
                token.0,
                how.verb(),
            ),
        };
        i.violate("exactly-once", msg);
    }

    /// End-of-run ledger audit: every flow still open leaked — it was
    /// begun but neither completed nor accounted as a modeled drop. Call
    /// after the engine drains.
    pub fn finish(&self) {
        let Some(inner) = &self.inner else { return };
        let mut i = inner.borrow_mut();
        i.checks += 1;
        for at in 0..i.flows.len() {
            let flow = &mut i.flows[at];
            if flow.state != FlowState::Open {
                continue;
            }
            flow.state = FlowState::Leaked;
            let (kind, begun) = (flow.kind, flow.begun);
            i.violate(
                "exactly-once",
                format!(
                    "{kind} flow {} begun at {begun:?} never completed nor dropped \
                     — the request leaked",
                    at + 1
                ),
            );
        }
    }

    // ---- descriptor conservation -----------------------------------------

    /// Checks one virtqueue snapshot against the conservation laws:
    /// nothing is popped before it is published, completed before it is
    /// popped, or reaped before it is completed; in-flight chains equal
    /// published minus reaped; the free list plus in-flight chains never
    /// exceed the ring (each live chain pins at least one descriptor); and
    /// the exact law `free + pinned == capacity`, which holds for every
    /// ring layout because the driver tracks pinned slots incrementally —
    /// an indirect chain pins one main-ring slot, a direct chain one per
    /// segment, so packed or indirect rings cannot silently bypass the
    /// audit. When indirect tables are negotiated the table books are
    /// checked too (`free + in_use == capacity` from two independently
    /// maintained books). `Testbed::audit_rings` calls it at every
    /// lifecycle mark for each queue of every VM whose ring generation has
    /// advanced since that VM's last audit; an untouched queue's snapshot,
    /// and so its verdict, cannot have changed.
    pub fn audit_queue(&self, vm: usize, q: &QueueAudit) {
        let Some(inner) = &self.inner else { return };
        let mut i = inner.borrow_mut();
        i.checks += 1;
        let scope = |law: &str| format!("vm{vm}/{}: {law}", q.name);
        let published = q.driver.chains_published;
        let popped = q.device.chains_popped;
        let pushed = q.device.used_pushed;
        let reaped = q.driver.used_reaped;
        if popped > published {
            i.violate(
                "descriptor-conservation",
                format!(
                    "{} (popped {popped} > published {published}) — the device popped a \
                     chain the driver never published",
                    scope("chains_popped <= chains_published")
                ),
            );
        }
        if pushed > popped {
            i.violate(
                "descriptor-conservation",
                format!(
                    "{} (pushed {pushed} > popped {popped}) — a used element was pushed \
                     for a chain that was never popped",
                    scope("used_pushed <= chains_popped")
                ),
            );
        }
        if reaped > pushed {
            i.violate(
                "descriptor-conservation",
                format!(
                    "{} (reaped {reaped} > pushed {pushed}) — the driver reaped a \
                     completion the device never pushed",
                    scope("used_reaped <= used_pushed")
                ),
            );
        }
        let in_flight = u64::from(q.in_flight_chains);
        if published < reaped || published - reaped != in_flight {
            i.violate(
                "descriptor-conservation",
                format!(
                    "{} (published {published} - reaped {reaped} != in-flight {in_flight}) \
                     — a ring slot was leaked or duplicated",
                    scope("in_flight == published - reaped")
                ),
            );
        }
        let capacity = usize::from(q.capacity);
        if q.free_descriptors > capacity {
            i.violate(
                "descriptor-conservation",
                format!(
                    "{} (free {} > capacity {capacity}) — a descriptor was freed twice",
                    scope("free <= capacity"),
                    q.free_descriptors
                ),
            );
        }
        if q.free_descriptors + usize::from(q.in_flight_chains) > capacity {
            i.violate(
                "descriptor-conservation",
                format!(
                    "{} (free {} + in-flight {} > capacity {capacity}) — an in-flight \
                     chain's descriptors were returned to the free list early",
                    scope("free + in_flight <= capacity"),
                    q.free_descriptors,
                    q.in_flight_chains
                ),
            );
        }
        let pinned = usize::from(q.pinned_descriptors);
        if q.free_descriptors + pinned != capacity {
            let verdict = if q.free_descriptors + pinned < capacity {
                "leaked — allocated but owned by no live chain and not on the free list"
            } else {
                "freed twice — on the free list while still pinned by a chain"
            };
            i.violate(
                "descriptor-conservation",
                format!(
                    "{} (free {} + pinned {pinned} != capacity {capacity}) — the {} \
                     ring's two books disagree: a main-ring descriptor was {verdict}",
                    scope("free + pinned == capacity"),
                    q.free_descriptors,
                    q.layout
                ),
            );
        }
        if let Some(ind) = q.indirect {
            let cap = u32::from(ind.capacity);
            let sum = u32::from(ind.free) + u32::from(ind.in_use);
            if sum < cap {
                i.violate(
                    "descriptor-conservation",
                    format!(
                        "{} (free {} + in-use {} < capacity {}) — an indirect table slot \
                         leaked: a chain was reaped without releasing its table slot \
                         back to the pool",
                        scope("indirect free + in_use == capacity"),
                        ind.free,
                        ind.in_use,
                        ind.capacity
                    ),
                );
            } else if sum > cap {
                i.violate(
                    "descriptor-conservation",
                    format!(
                        "{} (free {} + in-use {} > capacity {}) — an indirect table \
                         entry was double-freed: a slot sits on the free list while a \
                         live chain still references it",
                        scope("indirect free + in_use == capacity"),
                        ind.free,
                        ind.in_use,
                        ind.capacity
                    ),
                );
            }
        }
    }

    // ---- byte conservation ------------------------------------------------

    /// Checks that a payload survived a transformation pipeline
    /// byte-for-byte (encapsulation → wire → decapsulation, or TSO
    /// segmentation → reassembly).
    pub fn check_bytes(&self, what: &'static str, expected: &[u8], actual: &[u8]) {
        let Some(inner) = &self.inner else { return };
        let mut i = inner.borrow_mut();
        i.checks += 1;
        if expected == actual {
            return;
        }
        let msg = if expected.len() != actual.len() {
            format!(
                "{what}: byte count changed in flight — {} bytes in, {} bytes out",
                expected.len(),
                actual.len()
            )
        } else {
            let at = expected
                .iter()
                .zip(actual)
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            format!(
                "{what}: payload corrupted in flight — first difference at byte {at} \
                 ({:#04x} became {:#04x}) of {}",
                expected[at],
                actual[at],
                expected.len()
            )
        };
        i.violate("byte-conservation", msg);
    }

    /// Like [`Oracle::check_bytes`] but compares a reassembled [`Skb`]
    /// against the expected wire bytes *without linearizing it* — the
    /// zero-copy path's byte-conservation check. Counts as one check, same
    /// as `check_bytes`, so enabling it is output-identical.
    ///
    /// [`Skb`]: vrio_net::Skb
    pub fn check_skb(&self, what: &'static str, expected: &[u8], skb: &vrio_net::Skb) {
        let Some(inner) = &self.inner else { return };
        let mut i = inner.borrow_mut();
        i.checks += 1;
        if skb.eq_contents(expected) {
            return;
        }
        i.violate(
            "byte-conservation",
            format!(
                "{what}: reassembled skb differs from the wire image — {} bytes in, \
                 {} bytes out",
                expected.len(),
                skb.len()
            ),
        );
    }

    /// End-of-run SKB pool audit: every buffer acquired from the pool must
    /// have been returned. A leaked SKB means payload bytes left the
    /// conservation books while still alive — recorded under the
    /// byte-conservation invariant. Call alongside [`Oracle::finish`].
    pub fn audit_pool(&self, what: &'static str, pool: &vrio_net::SkbPool) {
        let Some(inner) = &self.inner else { return };
        let mut i = inner.borrow_mut();
        i.checks += 1;
        if let Err(e) = pool.leak_check() {
            i.violate(
                "byte-conservation",
                format!(
                    "{what}: {e} — payload bytes are still held by an skb that never \
                     returned to the pool"
                ),
            );
        }
    }

    // ---- per-device FIFO steering -----------------------------------------

    /// Records a steering decision: `device`'s next request was assigned
    /// to `worker`. While the device has requests in flight they must all
    /// stay on the same worker — otherwise per-device FIFO ordering is
    /// lost (paper §4.1).
    pub fn steer_assign(&self, device: u32, worker: usize) {
        let Some(inner) = &self.inner else { return };
        let mut i = inner.borrow_mut();
        i.checks += 1;
        let entry = i.steer_entry(device);
        let (inflight, owner) = entry.unwrap_or((0, worker));
        // Track the latest decision so one bug reports once per switch.
        *entry = Some((inflight + 1, worker));
        if inflight > 0 && owner != worker {
            i.violate(
                "fifo-steering",
                format!(
                    "device {device} steered to worker {worker} while {inflight} \
                     request(s) are in flight on worker {owner} — per-device FIFO \
                     ordering is broken"
                ),
            );
        }
    }

    /// Records a *sanctioned* steering handoff: `device`'s next request
    /// was deliberately re-pinned to `worker` because its previous owner
    /// sat on a failed (or just-recovered) IOhost. Unlike
    /// [`Oracle::steer_assign`] this does not flag the owner change — the
    /// failover ladder hands device state off deterministically — but it
    /// still counts the in-flight request and the handoff itself, so the
    /// fifo-steering invariant resumes on the new owner and chaos reports
    /// can surface migration counts.
    pub fn steer_handoff(&self, device: u32, worker: usize) {
        let Some(inner) = &self.inner else { return };
        let mut i = inner.borrow_mut();
        i.checks += 1;
        let entry = i.steer_entry(device);
        let (inflight, owner) = entry.unwrap_or((0, worker));
        *entry = Some((inflight + 1, worker));
        if owner != worker {
            i.steer_handoffs += 1;
        }
    }

    /// Sanctioned steering handoffs recorded via [`Oracle::steer_handoff`]
    /// (0 when the oracle is off).
    pub fn steer_handoffs(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.borrow().steer_handoffs)
    }

    /// Records a steering completion: one of `device`'s in-flight requests
    /// finished. A completion with nothing in flight is a violation.
    pub fn steer_release(&self, device: u32) {
        let Some(inner) = &self.inner else { return };
        let mut i = inner.borrow_mut();
        i.checks += 1;
        match i.steer.get_mut(device as usize) {
            Some(Some((inflight, _))) if *inflight > 0 => *inflight -= 1,
            _ => i.violate(
                "fifo-steering",
                format!(
                    "device {device} completed a request with none in flight — \
                     a completion was double-counted"
                ),
            ),
        }
    }

    // ---- monotone causality -----------------------------------------------

    /// Observes a lifecycle mark. Marks within one span must never run
    /// backwards in time. Inert spans ([`SpanId::NONE`], tracing off) are
    /// skipped — they share one id across all flows.
    pub fn on_mark(&self, span: SpanId, stage: Stage, now: SimTime) {
        let Some(inner) = &self.inner else { return };
        if span == SpanId::NONE {
            return;
        }
        let mut i = inner.borrow_mut();
        i.checks += 1;
        let k = span.index();
        if k >= i.span_last.len() {
            i.span_last.resize(k + 1, None);
        }
        match i.span_last[k] {
            Some(prev) if now < prev => i.violate(
                "causality",
                format!(
                    "span {span:?} marked '{stage}' at {now:?}, before its \
                     previous mark at {prev:?} — lifecycle stages ran backwards"
                ),
            ),
            _ => i.span_last[k] = Some(now),
        }
    }

    /// Observes one engine event firing (wired through
    /// `Engine::set_probe`). The simulated clock must be monotone.
    pub fn on_engine_event(&self, now: SimTime) {
        let Some(inner) = &self.inner else { return };
        let mut i = inner.borrow_mut();
        i.checks += 1;
        if let Some(last) = i.last_engine_event {
            if now < last {
                i.violate(
                    "causality",
                    format!("engine event fired at {now:?}, before the previous at {last:?}"),
                );
            }
        }
        i.last_engine_event = Some(now);
    }

    // ---- reporting ---------------------------------------------------------

    /// Total individual invariant checks performed so far.
    pub fn checks(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| inner.borrow().checks)
    }

    /// All recorded violations (empty when the oracle is off or clean).
    pub fn violations(&self) -> Vec<Violation> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |inner| inner.borrow().violations.clone())
    }

    /// Whether no violation has been recorded.
    pub fn is_clean(&self) -> bool {
        self.inner
            .as_ref()
            .is_none_or(|inner| inner.borrow().violations.is_empty())
    }

    /// Snapshot of the run's oracle accounting.
    pub fn report(&self) -> OracleReport {
        match &self.inner {
            None => OracleReport {
                checks: 0,
                flows_begun: 0,
                flows_completed: 0,
                flows_dropped: 0,
                violations: Vec::new(),
                violations_dropped: 0,
            },
            Some(inner) => {
                let i = inner.borrow();
                OracleReport {
                    checks: i.checks,
                    flows_begun: i.flows.len() as u64,
                    flows_completed: i.flows_completed,
                    flows_dropped: i.flows_dropped,
                    violations: i.violations.clone(),
                    violations_dropped: i.violations_dropped,
                }
            }
        }
    }

    /// Panics with every recorded violation if any exists. The CI gate:
    /// `context` names the run for the failure message.
    pub fn assert_clean(&self, context: &str) {
        let violations = self.violations();
        if violations.is_empty() {
            return;
        }
        let mut msg = format!(
            "oracle found {} violation(s) in {context} (after {} checks):\n",
            violations.len(),
            self.checks()
        );
        for v in &violations {
            msg.push_str("  - ");
            msg.push_str(&v.to_string());
            msg.push('\n');
        }
        panic!("{msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrio_virtio::{IndirectAudit, RingOps};

    fn on() -> Oracle {
        Oracle::new(&OracleConfig::on())
    }

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + vrio_sim::SimDuration::micros(us)
    }

    fn healthy_queue() -> QueueAudit {
        QueueAudit {
            name: "net-tx",
            layout: "split",
            capacity: 256,
            free_descriptors: 255,
            pinned_descriptors: 1,
            in_flight_chains: 1,
            indirect: None,
            driver: RingOps {
                chains_published: 10,
                used_reaped: 9,
                driver_kicks: 10,
                kicks_suppressed: 0,
                chains_popped: 0,
                used_pushed: 0,
                driver_signals: 0,
                signals_suppressed: 0,
            },
            device: RingOps {
                chains_published: 0,
                used_reaped: 0,
                driver_kicks: 0,
                kicks_suppressed: 0,
                chains_popped: 10,
                used_pushed: 9,
                driver_signals: 9,
                signals_suppressed: 0,
            },
        }
    }

    #[test]
    fn disabled_oracle_is_inert_and_clean() {
        let o = Oracle::off();
        assert!(!o.enabled());
        let tok = o.flow_begin("x", t(0));
        assert_eq!(tok, FlowToken::NONE);
        o.flow_complete(tok, t(1));
        o.finish();
        o.audit_queue(0, &healthy_queue());
        assert_eq!(o.checks(), 0);
        assert!(o.is_clean());
        o.assert_clean("inert");
    }

    #[test]
    fn clean_lifecycle_records_no_violations() {
        let o = on();
        let a = o.flow_begin("net_rr", t(0));
        let b = o.flow_begin("blk", t(1));
        o.audit_queue(0, &healthy_queue());
        o.steer_assign(0, 1);
        o.steer_release(0);
        o.check_bytes("wire", b"payload", b"payload");
        o.flow_complete(a, t(5));
        o.flow_drop(b, t(6));
        o.finish();
        let r = o.report();
        assert!(o.is_clean(), "{:?}", r.violations);
        assert_eq!(r.flows_begun, 2);
        assert_eq!(r.flows_completed, 1);
        assert_eq!(r.flows_dropped, 1);
        assert!(r.checks >= 6);
    }

    // ---- seeded violations: one per invariant class, proving the oracle
    // fires with an actionable message ------------------------------------

    #[test]
    fn seeded_double_completion_fires_exactly_once() {
        let o = on();
        let tok = o.flow_begin("net_rr", t(0));
        o.flow_complete(tok, t(5));
        o.flow_complete(tok, t(9)); // a duplicate completion delivery
        let v = o.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "exactly-once");
        assert!(v[0].message.contains("closed twice"), "{}", v[0].message);
        assert!(
            v[0].message.contains("net_rr"),
            "names the flow kind: {}",
            v[0].message
        );
    }

    #[test]
    fn seeded_dropped_completion_fires_exactly_once_leak() {
        let o = on();
        let kept = o.flow_begin("blk", t(0));
        let _lost = o.flow_begin("blk", t(1));
        o.flow_complete(kept, t(5));
        // `lost`'s completion never arrives and no drop was modeled.
        o.finish();
        let v = o.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "exactly-once");
        assert!(v[0].message.contains("leaked"), "{}", v[0].message);
        assert!(v[0].message.contains("blk"), "{}", v[0].message);
    }

    fn messages(o: &Oracle) -> Vec<String> {
        o.violations().into_iter().map(|v| v.to_string()).collect()
    }

    #[test]
    fn never_issued_token_reads_as_out_of_thin_air() {
        let o = on();
        let _ = o.flow_begin("blk", t(0));
        o.flow_complete(FlowToken(42), t(3));
        o.flow_drop(FlowToken(43), t(4));
        assert_eq!(
            messages(&o),
            [
                "[exactly-once] flow 42 completed at SimTime(3000) but was never begun — \
                 a completion appeared out of thin air",
                "[exactly-once] flow 43 dropped at SimTime(4000) but was never begun — \
                 a completion appeared out of thin air",
            ]
        );
        assert_eq!(o.report().flows_completed, 0);
    }

    #[test]
    fn completion_after_finish_reported_the_leak_reads_as_never_begun() {
        let o = on();
        let done = o.flow_begin("blk", t(0));
        let late = o.flow_begin("net_rr", t(1));
        o.flow_complete(done, t(2));
        o.finish();
        o.flow_complete(late, t(9));
        o.finish(); // a leak is reported once
        o.flow_drop(done, t(10));
        assert_eq!(
            messages(&o),
            [
                "[exactly-once] net_rr flow 2 begun at SimTime(1000) never completed nor \
                 dropped — the request leaked",
                "[exactly-once] flow 2 completed at SimTime(9000) but was never begun — \
                 a completion appeared out of thin air",
                "[exactly-once] blk flow 1 closed twice: already completed and now dropped at \
                 SimTime(10000) — a completion was delivered more than once",
            ]
        );
        let r = o.report();
        assert_eq!(
            (r.flows_begun, r.flows_completed, r.flows_dropped),
            (2, 1, 0)
        );
    }

    #[test]
    fn flow_closed_before_it_began_fires_causality() {
        let o = on();
        let tok = o.flow_begin("blk", t(5));
        o.flow_complete(tok, t(4));
        assert_eq!(
            messages(&o),
            ["[causality] blk flow 1 closed at SimTime(4000), before it began at SimTime(5000)"]
        );
        assert_eq!(o.report().flows_completed, 1);
    }

    #[test]
    fn ledger_record_is_no_larger_than_a_hashed_closed_entry() {
        // The hashed ledger stored (token, (kind, how)) per closed flow.
        type HashedEntry = (u64, (&'static str, FlowState));
        assert!(std::mem::size_of::<FlowRecord>() <= std::mem::size_of::<HashedEntry>());
    }

    #[test]
    fn seeded_corrupt_ring_counters_fire_descriptor_conservation() {
        let o = on();
        // The device "completes" a chain it never popped.
        let mut q = healthy_queue();
        q.device.used_pushed = q.device.chains_popped + 1;
        o.audit_queue(3, &q);
        let v = o.violations();
        assert!(!v.is_empty());
        assert_eq!(v[0].invariant, "descriptor-conservation");
        assert!(v[0].message.contains("vm3/net-tx"), "{}", v[0].message);
        assert!(v[0].message.contains("never popped"), "{}", v[0].message);

        // A descriptor freed while its chain is still in flight.
        let o = on();
        let mut q = healthy_queue();
        q.free_descriptors = 256;
        q.pinned_descriptors = 0;
        o.audit_queue(0, &q);
        let v = o.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("free 256"), "{}", v[0].message);

        // In-flight accounting that disagrees with the ops counters
        // (a leaked ring slot).
        let o = on();
        let mut q = healthy_queue();
        q.in_flight_chains = 7;
        o.audit_queue(0, &q);
        let v = o.violations();
        assert!(
            v.iter().any(|v| v.message.contains("leaked or duplicated")),
            "{v:?}"
        );
    }

    #[test]
    fn seeded_pinned_leak_fires_and_names_the_layout() {
        let o = on();
        let mut q = healthy_queue();
        q.layout = "packed";
        q.pinned_descriptors = 0; // one chain in flight yet nothing pinned
        o.audit_queue(2, &q);
        let v = o.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "descriptor-conservation");
        assert!(v[0].message.contains("vm2/net-tx"), "{}", v[0].message);
        assert!(v[0].message.contains("packed"), "{}", v[0].message);
        assert!(v[0].message.contains("leaked"), "{}", v[0].message);

        // The opposite book error: a pinned descriptor also on the free list.
        let o = on();
        let mut q = healthy_queue();
        q.pinned_descriptors = 2;
        o.audit_queue(0, &q);
        let v = o.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("freed twice"), "{}", v[0].message);
    }

    #[test]
    fn seeded_leaked_indirect_slot_fires() {
        let o = on();
        let mut q = healthy_queue();
        q.indirect = Some(IndirectAudit {
            capacity: 128,
            free: 126,
            in_use: 1,
        });
        o.audit_queue(1, &q);
        let v = o.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "descriptor-conservation");
        assert!(v[0].message.contains("vm1/net-tx"), "{}", v[0].message);
        assert!(
            v[0].message.contains("indirect table slot leaked"),
            "{}",
            v[0].message
        );
        assert!(
            v[0].message.contains("without releasing"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn seeded_indirect_double_free_fires() {
        let o = on();
        let mut q = healthy_queue();
        q.indirect = Some(IndirectAudit {
            capacity: 128,
            free: 128,
            in_use: 1,
        });
        o.audit_queue(1, &q);
        let v = o.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("double-freed"), "{}", v[0].message);
        assert!(
            v[0].message.contains("free 128 + in-use 1 > capacity 128"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn clean_indirect_books_record_no_violations() {
        let o = on();
        let mut q = healthy_queue();
        q.indirect = Some(IndirectAudit {
            capacity: 128,
            free: 127,
            in_use: 1,
        });
        o.audit_queue(0, &q);
        assert!(o.is_clean(), "{:?}", o.violations());
    }

    #[test]
    fn seeded_truncated_payload_fires_byte_conservation() {
        let o = on();
        o.check_bytes("blk tso reassembly", b"0123456789", b"01234");
        let v = o.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "byte-conservation");
        assert!(
            v[0].message.contains("10 bytes in, 5 bytes out"),
            "{}",
            v[0].message
        );

        let o = on();
        o.check_bytes("wire", b"abcdef", b"abXdef");
        let v = o.violations();
        assert!(
            v[0].message.contains("first difference at byte 2"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn seeded_leaked_skb_fires_byte_conservation() {
        let o = on();
        let mut pool = vrio_net::SkbPool::new();
        let kept = pool.acquire(0);
        let _leaked = pool.acquire(0);
        pool.release(kept).unwrap();
        o.audit_pool("skb pool", &pool);
        let v = o.violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "byte-conservation");
        assert!(
            v[0].message
                .contains("1 skb(s) acquired but never returned"),
            "{}",
            v[0].message
        );
        assert!(
            v[0].message.contains("never returned to the pool"),
            "{}",
            v[0].message
        );

        // A balanced pool is clean.
        let o = on();
        let mut pool = vrio_net::SkbPool::new();
        let skb = pool.acquire(0);
        pool.release(skb).unwrap();
        o.audit_pool("skb pool", &pool);
        assert!(o.is_clean(), "{:?}", o.violations());
    }

    #[test]
    fn seeded_worker_migration_fires_fifo_steering() {
        let o = on();
        o.steer_assign(7, 0);
        o.steer_assign(7, 1); // migrates while one request is in flight
        let v = o.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "fifo-steering");
        assert!(v[0].message.contains("device 7"), "{}", v[0].message);
        assert!(v[0].message.contains("worker 1"), "{}", v[0].message);

        let o = on();
        o.steer_release(3); // completion with nothing in flight
        let v = o.violations();
        assert_eq!(v[0].invariant, "fifo-steering");
        assert!(v[0].message.contains("none in flight"), "{}", v[0].message);
    }

    #[test]
    fn sanctioned_handoff_does_not_fire_fifo_steering() {
        let o = on();
        o.steer_assign(7, 0);
        o.steer_release(7);
        // Failover re-pins the device to a worker on the backup IOhost:
        // sanctioned, counted, not a violation.
        o.steer_handoff(7, 1);
        o.steer_assign(7, 1); // FIFO affinity resumes on the new owner
        o.steer_release(7);
        o.steer_release(7);
        assert!(o.is_clean(), "{:?}", o.violations());
        assert_eq!(o.steer_handoffs(), 1);
        // A handoff that lands on the current owner is not a migration.
        o.steer_handoff(7, 1);
        assert_eq!(o.steer_handoffs(), 1);
    }

    #[test]
    fn seeded_reordered_marks_fire_causality() {
        let o = on();
        let tracer = vrio_trace::Tracer::new(&vrio_trace::TraceConfig::memory());
        let span = tracer.begin("net_rr", 1000, Stage::Generator, t(10));
        o.on_mark(span, Stage::GuestEnqueue, t(10));
        o.on_mark(span, Stage::Wire, t(12));
        o.on_mark(span, Stage::Backend, t(11)); // runs backwards
        let v = o.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "causality");
        assert!(v[0].message.contains("backwards"), "{}", v[0].message);

        // The engine clock running backwards is also caught.
        let o = on();
        o.on_engine_event(t(5));
        o.on_engine_event(t(4));
        let v = o.violations();
        assert_eq!(v[0].invariant, "causality");
        assert!(v[0].message.contains("engine event"), "{}", v[0].message);
    }

    #[test]
    fn inert_spans_are_skipped() {
        // With tracing off every flow shares SpanId::NONE; interleaved
        // flows would otherwise look like time travel.
        let o = on();
        o.on_mark(SpanId::NONE, Stage::Wire, t(10));
        o.on_mark(SpanId::NONE, Stage::Wire, t(5));
        assert!(o.is_clean());
    }

    #[test]
    fn assert_clean_panics_with_every_violation_listed() {
        let o = on();
        o.check_bytes("a", b"x", b"y");
        o.steer_release(0);
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| o.assert_clean("unit test")))
                .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("2 violation(s) in unit test"), "{msg}");
        assert!(msg.contains("[byte-conservation]"), "{msg}");
        assert!(msg.contains("[fifo-steering]"), "{msg}");
    }

    #[test]
    fn violation_recording_is_capped_but_counted() {
        let o = on();
        for _ in 0..(MAX_VIOLATIONS + 10) {
            o.steer_release(0);
        }
        let r = o.report();
        assert_eq!(r.violations.len(), MAX_VIOLATIONS);
        assert_eq!(r.violations_dropped, 10);
    }

    #[test]
    fn clones_share_state() {
        let o = on();
        let tok = o.clone().flow_begin("x", t(0));
        o.flow_complete(tok, t(1));
        o.finish();
        assert!(o.is_clean());
        assert_eq!(o.report().flows_completed, 1);
    }
}
