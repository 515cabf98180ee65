//! The rack testbed: the discrete-event orchestration that wires VMs, NIC
//! rings, links, sidecores/workers and block devices into the five I/O
//! model configurations the paper evaluates (§5), over the substrate
//! crates.
//!
//! A benchmark flow (one netperf request-response, one stream batch, one
//! block request) is compiled into a list of [`Step`]s — fixed latencies,
//! FIFO charges against cores/links/devices, event-counter increments, and
//! named real data-plumbing operations (virtqueue operations, vRIO
//! encapsulation, interposition transforms) — which a small interpreter
//! executes as engine events. Queueing, contention and saturation all
//! emerge from the FIFO charges; no queueing formula is baked in anywhere.
//!
//! Steps are plain data. Each in-flight flow owns one record in a slab on
//! the [`Testbed`], holding its program, the request it serves and the
//! payloads its steps hand to each other; a hop between steps is a
//! function-pointer event carrying the record's index, so it allocates
//! nothing. The caller's continuation is boxed once per request and
//! parked in the engine until the flow completes (DESIGN.md §15).

use std::collections::HashMap;

use bytes::Bytes;
use vrio_block::{BlockKind, BlockRequest, DeviceProfile, Ramdisk};
use vrio_hv::ReliabilityCounters;
use vrio_hv::{CostModel, EventCounters, IoModel, Vm, VmId};
use vrio_net::{
    reassemble_train, segment_message_into, FaultConfig, FaultInjector, Reassembler, Segment,
    SkbPool, MAX_TSO_MSG, MTU_VRIO_JUMBO,
};
use vrio_sim::{
    BoxedEvent, BusyTracker, Dispatch, Engine, Profiler, SimDuration, SimRng, SimTime, Ticket,
};
use vrio_trace::{
    DropCause, SloLedger, SpanId, Stage, Telemetry, TelemetryConfig, TraceConfig, Tracer,
};

use vrio_virtio::RingConfig;

use crate::admission::{AdmissionConfig, AdmissionControl, Decision};
use crate::health::{
    validate_outage_schedule, HealthConfig, HealthState, Outage, RedundancyMonitor, Route,
};
use crate::interpose::{Direction, InterpositionChain, Verdict};
use crate::iohost::{AdaptivePollConfig, PollMode, WorkerPoll};
use crate::oracle::{FlowToken, Oracle, OracleConfig};
use crate::proto::{DeviceId, VrioMsg, VrioMsgKind, VRIO_HDR_SIZE};
use crate::transport::{BlockRetx, ResponseAction, RetxConfig, TimeoutAction};

/// Gives the engine world access to the embedded [`Testbed`]; workload
/// crates wrap a `Testbed` plus their own state and implement this.
pub trait HasTestbed: Sized + 'static {
    /// The embedded testbed.
    fn tb(&mut self) -> &mut Testbed;
}

impl HasTestbed for Testbed {
    fn tb(&mut self) -> &mut Testbed {
        self
    }
}

/// A FIFO-serialized resource (a core or a shared machine resource).
#[derive(Debug, Default)]
pub struct Resource {
    /// Busy-time accounting (utilization, Fig 15 traces).
    pub busy: BusyTracker,
    /// Packets/requests that found the resource busy and queued (Fig 8).
    pub waited: u64,
    /// Total charges.
    pub served: u64,
    /// Undrained packets currently designated for this resource (the rx
    /// ring occupancy model for the §4.5 overflow ablation).
    pub pending: u64,
}

impl Resource {
    /// Charges `work` at `t`, returning the completion instant.
    pub fn charge(&mut self, t: SimTime, work: SimDuration) -> SimTime {
        if self.busy.is_busy_at(t) {
            self.waited += 1;
        }
        self.served += 1;
        self.busy.charge(t, work)
    }
}

/// Which resource a step charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreRef {
    /// Load-generator core serving VM `i`.
    Gen(usize),
    /// Backend core `i`: an Elvis sidecore, a vhost core, or a vRIO worker.
    Backend(usize),
    /// The shared per-generator-machine resource (NIC/PCIe/memory bus).
    GenMachine(usize),
    /// The VMhost `i` uplink (wire serialization).
    HostLink(usize),
    /// The uplink of IOhost `i` (0 = primary, 1.. = N+1 backups).
    IohostLink(usize),
    /// Block device `i`.
    Disk(usize),
}

/// A counter a step increments (Table 3 columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// Synchronous guest exit.
    Exit,
    /// Virtual interrupt handled by the guest.
    GuestIntr,
    /// Host-performed interrupt injection.
    Injection,
    /// Physical interrupt at the VMhost.
    HostIntr,
    /// Physical interrupt at the IOhost.
    IohostIntr,
}

/// One step of a compiled benchmark flow. Plain data: a step that moves
/// real bytes names the operation, and the payloads it reads and writes
/// live in the flow's record (see [`Testbed`]'s flow slab), so neither a
/// step nor a hop between steps boxes anything.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    /// Pure latency (wire propagation, DMA, ELI delivery).
    Fixed(SimDuration),
    /// FIFO charge against a resource; the flow waits for completion.
    Charge(CoreRef, SimDuration),
    /// Charge a resource without waiting (asynchronous completion work).
    ChargeAsync(CoreRef, SimDuration),
    /// Charge VM `i`'s VCPU (serializing with other guest work) and wait.
    ChargeVm(usize, SimDuration),
    /// Charge VM `i`'s VCPU without waiting (async completion handling).
    ChargeVmAsync(usize, SimDuration),
    /// Increment a Table 3 counter.
    Count(CounterKind),
    /// Polling pickup at backend `i`: poll interval plus the mwait wake
    /// penalty if the worker was idle.
    Pickup(usize),
    /// Mark a packet as designated for a backend (rx-ring occupancy +1).
    RingPush(usize),
    /// Mark the packet picked up by its backend (occupancy −1).
    RingPop(usize),
    /// Record a stage transition on the flow's trace span. Processed
    /// inline (never scheduled), so pushing marks into a flow perturbs
    /// neither event ordering nor RNG streams — traced runs stay
    /// bit-identical.
    Mark(Stage),
    /// The guest receives the flow's inbound payload on its net rx ring
    /// (deliver, receive, refill).
    DeliverRx,
    /// The VMhost transport decodes the flow's encapsulated vRIO NetRx
    /// message, checks its payload against what the worker sent, and
    /// delivers it to the guest.
    DecapNetRx,
    /// The guest transmits the flow's response payload.
    SendResp,
    /// The back-end fetches and completes the guest's transmitted frame,
    /// interposing on it in the given direction, if any; the result
    /// becomes the flow's response.
    FetchTx(Option<Direction>),
    /// IOhost worker `b` interposes on the response outbound and releases
    /// its steering designation.
    OutboundInterposeRelease(usize),
    /// Release the steering designation on backend `b` after its pass.
    ReleaseBackend(usize),
    /// A frame arrives at IOhost `iohost`, designated for `backend`:
    /// outage, ring overflow, channel loss and admission are tested in
    /// that order, and a refused frame ends the flow. A network flow is
    /// the whole request, so its drop is attributed to a cause; a block
    /// attempt is left to its retransmission timer.
    IngressGate {
        /// Destination IOhost.
        iohost: usize,
        /// Destination backend (global index).
        backend: usize,
    },
    /// Execute the flow's block request on the VM's backing store (real
    /// bytes), interposing on the data that moves. `Some(b)`: at IOhost
    /// worker `b`, which first reassembles (TSO) and decodes the
    /// encapsulated request, and releases its designation afterwards.
    BlkExecute(Option<usize>),
    /// The VMhost transport receives the block response: a stale one
    /// (its attempt was superseded) ends the flow.
    BlkResponseGate,
    /// A channel-duplicated copy of the response arrives right behind the
    /// original and filters as stale; the flow continues.
    StaleDupGate,
}

/// What a flow does when its program runs out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlowEnd {
    /// A network request-response: hand the outcome to the caller.
    Rr,
    /// A stream batch: tell the caller.
    Stream,
    /// A block request's guest-side submission: start the back-end half.
    BlkSubmitted,
    /// A block back-end pass (local, or one vRIO attempt): complete the
    /// request on the guest ring, unless its timer already failed it.
    BlkDone,
}

impl FlowEnd {
    /// Whether the flow's request is booked in the per-tenant SLO ledger.
    /// Block requests are the one exception: the tracer and the oracle
    /// book them, the SLO ledger does not, because the perf benchmark
    /// (`perfbench/src/flows.rs`) checks the ledger's completions against
    /// its request-response count.
    #[inline]
    fn in_slo(self) -> bool {
        matches!(self, FlowEnd::Rr | FlowEnd::Stream)
    }
}

/// Index of a [`Flow`] record in the testbed's flow slab.
type FlowId = usize;

/// Whom a flow works for: the request's VM, issue time, trace span,
/// oracle flow, and the caller's continuation parked in the engine.
#[derive(Debug, Clone, Copy)]
struct Origin {
    vm: usize,
    t0: SimTime,
    span: SpanId,
    token: FlowToken,
    done: Option<Ticket>,
}

/// An [`Origin`] whose continuation is parked once the flow is compiled.
fn origin(vm: usize, t0: SimTime, span: SpanId, token: FlowToken) -> Origin {
    Origin {
        vm,
        t0,
        span,
        token,
        done: None,
    }
}

/// The state of one in-flight flow: its compiled program, the request it
/// serves, and the payloads its steps hand to each other. A vRIO block
/// request's retransmission timer is a record without a program, and each
/// retransmitted attempt gets a record of its own.
struct Flow {
    /// The compiled program and the index of its next step.
    steps: Vec<Step>,
    pc: usize,
    end: FlowEnd,
    origin: Origin,
    /// The block request (block flows only) and its descriptor head on
    /// the guest ring.
    req: Option<BlockRequest>,
    head: u16,
    /// The vRIO wire id of this attempt (the timer's: the latest one).
    wire_id: u64,
    /// The first retransmission timeout, from submission until the first
    /// attempt arms its timer.
    timeout: SimDuration,
    /// Net: the inbound payload the guest receives. Block: the request
    /// data the attempt encapsulates.
    data: Bytes,
    /// The guest's response payload (net).
    response: Bytes,
    /// The encapsulated vRIO message in flight, and the payload that went
    /// into it (for the oracle's byte check).
    encoded: Bytes,
    fwd_check: Bytes,
    /// Data read from the backing store.
    read_out: Bytes,
}

impl Flow {
    fn blank() -> Flow {
        Flow {
            steps: Vec::new(),
            pc: 0,
            end: FlowEnd::Rr,
            origin: origin(0, SimTime::ZERO, SpanId::NONE, FlowToken::NONE),
            req: None,
            head: 0,
            wire_id: 0,
            timeout: SimDuration::ZERO,
            data: Bytes::new(),
            response: Bytes::new(),
            encoded: Bytes::new(),
            fwd_check: Bytes::new(),
            read_out: Bytes::new(),
        }
    }
}

/// The in-flight flow records, indexed by [`FlowId`]. Records and step
/// storage are both recycled: a closed record's slot serves the next
/// flow and its program's storage returns to a spare pool, so
/// steady-state flows allocate nothing here, and a record without a
/// program holds no step storage.
#[derive(Default)]
struct FlowSlab {
    recs: Vec<Flow>,
    free: Vec<FlowId>,
    spare: Vec<Vec<Step>>,
}

impl FlowSlab {
    /// Opens a record for a new flow.
    fn open(&mut self, end: FlowEnd, origin: Origin) -> FlowId {
        let id = self.free.pop().unwrap_or_else(|| {
            self.recs.push(Flow::blank());
            self.recs.len() - 1
        });
        let f = &mut self.recs[id];
        f.end = end;
        f.origin = origin;
        id
    }

    /// Opens a record serving the same block request as `from`: its
    /// retransmission timer, or a retransmitted attempt.
    fn fork(&mut self, from: FlowId) -> FlowId {
        let f = &self.recs[from];
        let (end, origin, req, head, wire_id) = (f.end, f.origin, f.req.clone(), f.head, f.wire_id);
        let id = self.open(end, origin);
        let f = &mut self.recs[id];
        (f.req, f.head, f.wire_id) = (req, head, wire_id);
        id
    }

    /// Takes empty step storage to compile flow `id`'s next program into
    /// (store it back in the record's `steps`), rewinding the cursor.
    fn take_steps(&mut self, id: FlowId) -> Vec<Step> {
        let f = &mut self.recs[id];
        f.pc = 0;
        let mut steps = std::mem::take(&mut f.steps);
        if steps.capacity() == 0 {
            steps = self.spare.pop().unwrap_or_default();
        }
        steps.clear();
        steps
    }

    /// Closes a record, releasing its payloads and recycling its storage.
    fn close(&mut self, id: FlowId) {
        let mut steps = std::mem::replace(&mut self.recs[id], Flow::blank()).steps;
        if steps.capacity() > 0 {
            steps.clear();
            self.spare.push(steps);
        }
        self.free.push(id);
    }
}

/// Runs flow `id` from its cursor. Inline steps execute at once; a step
/// that waits schedules the flow's next hop as a call event, which owns
/// no heap memory, and returns. When the program runs out the flow ends.
fn run_flow<W: HasTestbed>(w: &mut W, eng: &mut Engine<W>, id: u64) {
    let id = id as FlowId;
    loop {
        let now = eng.now();
        let tb = w.tb();
        let flow = &mut tb.flows.recs[id];
        let Some(&step) = flow.steps.get(flow.pc) else {
            return finish_flow(w, eng, id);
        };
        flow.pc += 1;
        let resume_at = match step {
            Step::Fixed(d) => {
                // Coalesce a run of consecutive fixed delays into one
                // scheduled event. Pure latencies have no observable effect
                // in between (no resource state, no counters, no rng), so
                // summing them is exact: the flow resumes at the same
                // instant, it just skips the intermediate no-op wakeups.
                let mut total = d;
                while let Some(&Step::Fixed(next)) = flow.steps.get(flow.pc) {
                    total += next;
                    flow.pc += 1;
                }
                (!total.is_zero()).then(|| now + total)
            }
            Step::Charge(core, work) => Some(tb.resource(core).charge(now, work)),
            Step::ChargeAsync(core, work) => {
                tb.resource(core).charge(now, work);
                None
            }
            Step::ChargeVm(vm, work) => Some(tb.vms[vm].cpu.run(now, work)),
            Step::ChargeVmAsync(vm, work) => {
                tb.vms[vm].cpu.run(now, work);
                None
            }
            Step::Count(kind) => {
                tb.count(kind);
                None
            }
            Step::Pickup(b) => {
                let d = tb.pickup_delay(b, now);
                (!d.is_zero()).then(|| now + d)
            }
            Step::RingPush(b) => {
                tb.backends[b].pending += 1;
                let doorbell = tb.worker_poll[b].on_arrival(now);
                if tb.config.adaptive_poll.enabled && doorbell {
                    // In adaptive mode an interrupt-mode arrival pays a
                    // physical IOhost interrupt; polled arrivals are free.
                    tb.count(CounterKind::IohostIntr);
                }
                None
            }
            Step::RingPop(b) => {
                let p = &mut tb.backends[b].pending;
                *p = p.saturating_sub(1);
                tb.worker_poll[b].on_activity(now);
                None
            }
            Step::Mark(stage) => {
                let span = flow.origin.span;
                tb.trace.mark(span, stage, now);
                if tb.oracle.enabled() {
                    tb.oracle.on_mark(span, stage, now);
                    tb.audit_rings();
                }
                None
            }
            Step::DeliverRx => {
                let (vm, frame) = (flow.origin.vm, std::mem::take(&mut flow.data));
                tb.deliver_rx(vm, &frame);
                None
            }
            Step::DecapNetRx => {
                tb.decap_net_rx(id);
                None
            }
            Step::SendResp => {
                tb.vms[flow.origin.vm]
                    .net_send(&flow.response)
                    .expect("tx slot");
                None
            }
            Step::FetchTx(dir) => {
                tb.fetch_tx(id, dir);
                None
            }
            Step::OutboundInterposeRelease(b) => {
                let (vm, payload) = (flow.origin.vm, flow.response.clone());
                if let (Some(fwd), _cost) = tb.interpose(Direction::Outbound, payload) {
                    tb.flows.recs[id].response = fwd;
                }
                tb.release_backend(vm, b);
                None
            }
            Step::ReleaseBackend(b) => {
                let vm = flow.origin.vm;
                tb.release_backend(vm, b);
                None
            }
            Step::IngressGate { iohost, backend } => {
                if !tb.ingress_gate(id, iohost, backend, now) {
                    return abort_flow(w, eng, id);
                }
                None
            }
            Step::BlkExecute(worker) => {
                tb.blk_execute(id, worker);
                None
            }
            Step::BlkResponseGate => {
                let (vm, wire_id) = (flow.origin.vm, flow.wire_id);
                let action = tb.retx[vm].on_response(wire_id, now);
                if !matches!(action, ResponseAction::Accept { .. }) {
                    return abort_flow(w, eng, id);
                }
                None
            }
            Step::StaleDupGate => {
                let (vm, wire_id) = (flow.origin.vm, flow.wire_id);
                let r = tb.retx[vm].on_response(wire_id, now);
                debug_assert!(matches!(r, ResponseAction::Stale));
                None
            }
        };
        if let Some(at) = resume_at {
            eng.schedule_call_at(at, run_flow::<W>, id as u64);
            return;
        }
    }
}

/// A gate refused the flow's frame: the rest of its program never runs.
/// A network flow was the whole request, so its continuation is dropped
/// unrun; a block attempt's stays parked for the retransmission timer.
fn abort_flow<W: HasTestbed>(w: &mut W, eng: &mut Engine<W>, id: FlowId) {
    let flows = &mut w.tb().flows;
    if flows.recs[id].end != FlowEnd::BlkDone {
        if let Some(ticket) = flows.recs[id].origin.done {
            drop(eng.take_parked(ticket));
        }
    }
    flows.close(id);
}

/// Runs the caller's parked continuation, if no one took it first.
fn resume<W: HasTestbed>(w: &mut W, eng: &mut Engine<W>, done: Option<Ticket>) {
    if let Some(k) = done.and_then(|t| eng.take_parked(t)) {
        k.dispatch(w, eng);
    }
}

/// Parks a request-response caller's `done`: one box per request.
fn park_rr<W: HasTestbed>(
    eng: &mut Engine<W>,
    done: impl FnOnce(&mut W, &mut Engine<W>, RrOutcome) + 'static,
) -> Ticket {
    eng.park(BoxedEvent::Closure(Box::new(
        move |w: &mut W, eng: &mut Engine<W>| {
            let o = w.tb().rr_outcome.take().expect("finished flow's outcome");
            done(w, eng, o)
        },
    )))
}

/// The program of flow `id` ran out: account its completion and resume
/// the caller (or, for a block submission, start the back-end half).
fn finish_flow<W: HasTestbed>(w: &mut W, eng: &mut Engine<W>, id: FlowId) {
    let now = eng.now();
    let tb = w.tb();
    let f = &mut tb.flows.recs[id];
    let (end, o) = (f.end, f.origin);
    match end {
        FlowEnd::Rr | FlowEnd::Stream => {
            let latency = now - o.t0;
            let response = std::mem::take(&mut f.response);
            tb.flows.close(id);
            tb.complete_request(o, end, now);
            if end == FlowEnd::Rr {
                tb.rr_outcome = Some(RrOutcome { latency, response });
            }
            resume(w, eng, o.done);
        }
        FlowEnd::BlkSubmitted => blk_backend(w, eng, id),
        FlowEnd::BlkDone => complete_blk(w, eng, id, vrio_virtio::BLK_S_OK),
    }
}

/// Static configuration of a testbed experiment.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Which I/O model to run.
    pub model: IoModel,
    /// Number of VMs, spread round-robin across VMhosts.
    pub num_vms: usize,
    /// Number of VMhosts (each with its own generator machine).
    pub num_vmhosts: usize,
    /// Backend cores: per-VMhost sidecores/vhost cores for Elvis/baseline,
    /// total IOhost workers for vRIO.
    pub backend_cores: usize,
    /// RNG seed (experiments are bit-reproducible per seed).
    pub seed: u64,
    /// The cost model.
    pub costs: CostModel,
    /// Link bandwidth in Gbps.
    pub link_gbps: f64,
    /// Per-traversal latency (PHY + switch store-and-forward).
    pub hop_latency: SimDuration,
    /// IOhost receive-ring capacity (512 vs 4096, §4.5).
    pub iohost_rx_ring: u64,
    /// Frame-loss probability on the VMhost/IOhost channel.
    pub channel_loss: f64,
    /// Model the generators' NUMA penalty (the Fig 13a artifact).
    pub numa_generators: bool,
    /// Block device performance profile.
    pub block_profile: DeviceProfile,
    /// Bytes of backing store per VM block device.
    pub block_capacity: usize,
    /// Log-normal sigma applied to service-time charges (0 = deterministic).
    pub service_jitter: f64,
    /// Enable the per-model rare-outlier tail model (Table 4).
    pub tail_model: bool,
    /// Retransmission parameters for vRIO block traffic.
    pub retx: RetxConfig,
    /// §4.6 energy extension: when set, idle vRIO workers enter a
    /// monitor/mwait low-power state and pay this extra wake-up latency on
    /// the next packet (trading latency for polling energy).
    pub sidecore_mwait_wake: Option<SimDuration>,
    /// §4.6 fault tolerance: the primary IOhost's crash/recover schedule.
    /// While it is down, net front-ends fail over (to a backup, or to
    /// regular local virtio with the vhost work on the VM's own cores —
    /// vRIO VMhosts have no sidecores) once the health monitor detects
    /// the crash; in-flight and new block requests fail through the
    /// retransmission machinery, as when the storage "resides exclusively
    /// on the IOhost". After an outage's `recovers_at`, heartbeats are
    /// acked again, the monitors fail back and net traffic returns to vRIO.
    pub iohost_outages: Vec<Outage>,
    /// Number of IOhosts in each VMhost's ordered preference list (N+1
    /// redundancy). With more than one, vRIO traffic fails over primary →
    /// backup(s) → local virtio and fails back in reverse as hosts
    /// recover; the default of 1 reproduces the PR 1 primary-or-local
    /// ladder exactly.
    pub num_iohosts: usize,
    /// Outage schedules for the backup IOhosts (index 0 = IOhost 1, the
    /// first backup); the primary's schedule is
    /// [`TestbedConfig::iohost_outages`]. Must not name more hosts than
    /// `num_iohosts - 1`.
    pub backup_outages: Vec<Vec<Outage>>,
    /// Overload-aware admission control at each IOhost (queue-depth
    /// backpressure, weighted per-tenant shedding, circuit breaker).
    /// Disabled by default — a disabled controller admits everything and
    /// accounts nothing, keeping existing runs byte-identical.
    pub admission: AdmissionConfig,
    /// Health state machine knobs (heartbeat period, failover/failback
    /// thresholds).
    pub health: HealthConfig,
    /// Channel fault injection: Gilbert–Elliott bursty loss, delay
    /// spikes, response duplication. Disabled by default, and a disabled
    /// injector draws no randomness at all.
    pub faults: FaultConfig,
    /// Request-lifecycle tracing. `Off` by default; enabling it is
    /// observe-only — the tracer draws no randomness and schedules no
    /// events, so traced runs are bit-identical to untraced ones.
    pub trace: TraceConfig,
    /// The simulation oracle (see [`crate::Oracle`]). Off by default;
    /// like tracing, enabling it is observe-only and bit-identical — the
    /// oracle owns no RNG and schedules no events, it only checks
    /// invariants inline at lifecycle marks and flow boundaries.
    pub oracle: OracleConfig,
    /// Continuous time-series telemetry (see [`vrio_trace::Telemetry`]).
    /// Off by default; like tracing, enabling it is observe-only — the
    /// sampler reads state on a fixed simulated-time grid, draws no
    /// randomness and schedules nothing through the testbed, so sampled
    /// runs stay bit-identical to unsampled ones.
    pub telemetry: TelemetryConfig,
    /// Wall-clock self-profiling (see [`vrio_sim::Profiler`]). Off by
    /// default. Profiler output is host wall-clock data — inherently
    /// nondeterministic — and is emitted as separate `PROF_*` artifacts
    /// that are never part of any byte-identity gate.
    pub profile: bool,
    /// Per-tenant latency SLO threshold: a completed request at or under
    /// this latency counts toward SLO attainment in the drop-attribution
    /// ledger.
    pub slo: SimDuration,
    /// The negotiated virtqueue layout for every VM
    /// (split/split-eventidx/packed, indirect tables). Split-basic by
    /// default, which reproduces the seed byte-identically; other layouts
    /// change only ring geometry and notification accounting, never
    /// payloads or flow outcomes.
    pub ring: RingConfig,
    /// Adaptive poll↔interrupt switching for the backend workers.
    /// Disabled by default (every arrival rings a doorbell, as before).
    pub adaptive_poll: AdaptivePollConfig,
}

impl TestbedConfig {
    /// The paper's simplest setup (Fig 6): one VMhost, one generator, N
    /// VMs, one sidecore/worker, calibrated costs, no jitter.
    pub fn simple(model: IoModel, num_vms: usize) -> Self {
        TestbedConfig {
            model,
            num_vms,
            num_vmhosts: 1,
            backend_cores: 1,
            seed: 1,
            costs: CostModel::calibrated(),
            link_gbps: 10.0,
            hop_latency: SimDuration::nanos(1_500),
            iohost_rx_ring: vrio_net::RX_RING_LARGE as u64,
            channel_loss: 0.0,
            numa_generators: false,
            block_profile: DeviceProfile::ramdisk(),
            block_capacity: 1 << 20,
            service_jitter: 0.0,
            tail_model: false,
            retx: RetxConfig::default(),
            sidecore_mwait_wake: None,
            iohost_outages: Vec::new(),
            num_iohosts: 1,
            backup_outages: Vec::new(),
            admission: AdmissionConfig::default(),
            health: HealthConfig::default(),
            faults: FaultConfig::default(),
            trace: TraceConfig::off(),
            oracle: OracleConfig::off(),
            telemetry: TelemetryConfig::off(),
            profile: false,
            slo: SimDuration::micros(200),
            ring: RingConfig::split_basic(),
            adaptive_poll: AdaptivePollConfig::disabled(),
        }
    }

    /// Per-IOhost outage schedules for the full redundancy ladder: index
    /// 0 is the primary's [`TestbedConfig::iohost_outages`] sorted by
    /// crash time, then the configured [`TestbedConfig::backup_outages`],
    /// padded with never-down schedules out to
    /// [`TestbedConfig::num_iohosts`].
    pub fn outage_schedules(&self) -> Vec<Vec<Outage>> {
        let mut primary = self.iohost_outages.clone();
        primary.sort_by_key(|o| o.fails_at);
        let mut v = Vec::with_capacity(self.num_iohosts.max(1));
        v.push(primary);
        v.extend(self.backup_outages.iter().cloned());
        while v.len() < self.num_iohosts {
            v.push(Vec::new());
        }
        v
    }

    /// Enables the stochastic service-time and tail models (Table 4 runs).
    pub fn with_tails(mut self) -> Self {
        self.service_jitter = 0.03;
        self.tail_model = true;
        self
    }

    // -----------------------------------------------------------------
    // Scenario-builder API: chainable knobs for constructing the grid of
    // configurations a parallel sweep expands. `TestbedConfig` is plain
    // data (`Send`), so a spec built on the coordinator thread crosses
    // into a worker thread, which constructs its private `Testbed` there
    // — scenario isolation by construction.
    // -----------------------------------------------------------------

    /// Sets the RNG seed (sweeps derive one per scenario via
    /// [`vrio_sim::scenario_seed`]).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of backend cores: total IOhost workers for vRIO,
    /// per-VMhost sidecores/vhost cores for the local models.
    pub fn with_backend_cores(mut self, cores: usize) -> Self {
        self.backend_cores = cores;
        self
    }

    /// Sets the number of VMhosts.
    pub fn with_vmhosts(mut self, n: usize) -> Self {
        self.num_vmhosts = n;
        self
    }

    /// Sets the log-normal service-time jitter sigma.
    pub fn with_jitter(mut self, sigma: f64) -> Self {
        self.service_jitter = sigma;
        self
    }

    /// Sets the link bandwidth in Gbps.
    pub fn with_link_gbps(mut self, gbps: f64) -> Self {
        self.link_gbps = gbps;
        self
    }

    /// Sets the number of IOhosts in the redundancy ladder.
    pub fn with_iohosts(mut self, n: usize) -> Self {
        self.num_iohosts = n;
        self
    }

    /// Sets the continuous-telemetry sampling configuration.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Enables the wall-clock self-profiler.
    pub fn with_profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// Sets the per-tenant latency SLO threshold.
    pub fn with_slo(mut self, slo: SimDuration) -> Self {
        self.slo = slo;
        self
    }

    /// Sets the virtqueue layout every VM negotiates.
    pub fn with_ring(mut self, ring: RingConfig) -> Self {
        self.ring = ring;
        self
    }

    /// Sets the backend workers' adaptive poll configuration.
    pub fn with_adaptive_poll(mut self, poll: AdaptivePollConfig) -> Self {
        self.adaptive_poll = poll;
        self
    }
}

// A worker thread must be able to receive a scenario's config and build
// its testbed locally; this trips at compile time if a non-`Send` field
// (an `Rc`, a raw pointer) ever sneaks into the spec types.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<TestbedConfig>();
};

/// Outcome of one network request-response.
#[derive(Debug, Clone)]
pub struct RrOutcome {
    /// End-to-end latency as the generator measured it.
    pub latency: SimDuration,
    /// The response payload the generator received.
    pub response: Bytes,
}

/// Outcome of one block request.
#[derive(Debug, Clone)]
pub struct BlkOutcome {
    /// Latency from submission to front-end completion.
    pub latency: SimDuration,
    /// Virtio status (`BLK_S_OK` or `BLK_S_IOERR` after retx exhaustion).
    pub status: u8,
    /// Data read (for reads).
    pub data: Bytes,
}

/// Chrome-trace track (tid) reserved for channel fault-injection markers.
pub const TRACK_FAULTS: u32 = 900;
/// Base tid of the per-VM request-lifecycle tracks (`base + vm`).
pub const TRACK_REQ_BASE: u32 = 1000;
/// Base tid of the per-VM VCPU busy tracks (`base + vm`).
pub const TRACK_VCPU_BASE: u32 = 2000;
/// Base tid of the per-backend (sidecore/worker) busy tracks (`base + i`).
pub const TRACK_WORKER_BASE: u32 = 3000;
/// Base tid of the per-VMhost route-transition instant tracks (`base + h`).
pub const TRACK_ROUTE_BASE: u32 = 4000;
/// Base tid of the per-IOhost admission-breaker instant tracks (`base + k`).
pub const TRACK_BREAKER_BASE: u32 = 5000;

/// Maps an admission shed [`Decision`] to its SLO-ledger drop cause.
fn shed_cause(decision: Decision) -> DropCause {
    match decision {
        Decision::Admit => unreachable!("admitted requests are not drops"),
        Decision::ShedQueue => DropCause::ShedQueue,
        Decision::ShedFair => DropCause::ShedFair,
        Decision::ShedBreaker => DropCause::ShedBreaker,
    }
}

/// Health-ladder states as a stable telemetry ordinal (the gauge value of
/// the `health.vmhost{h}.iohost{k}.state` tracks).
fn health_state_ordinal(state: HealthState) -> f64 {
    match state {
        HealthState::Healthy => 0.0,
        HealthState::Suspect => 1.0,
        HealthState::FailedOver => 2.0,
        HealthState::Probing => 3.0,
        HealthState::Recovered => 4.0,
    }
}

/// The trace track carrying VM `vm`'s request-lifecycle spans.
pub fn req_track(vm: usize) -> u32 {
    TRACK_REQ_BASE + vm as u32
}

/// The instantiated rack.
pub struct Testbed {
    /// The configuration this testbed was built from.
    pub config: TestbedConfig,
    /// Deterministic RNG.
    pub rng: SimRng,
    /// The VMs (real guest memory + virtqueues + VCPU each).
    pub vms: Vec<Vm>,
    /// VMhost index of each VM.
    pub vm_host: Vec<usize>,
    /// Generator core per VM.
    pub gen_cores: Vec<Resource>,
    /// Shared per-generator-machine resources (stream flattening).
    pub gen_machines: Vec<Resource>,
    /// Backend cores: Elvis sidecores / vhost cores (per host) or vRIO
    /// IOhost workers.
    pub backends: Vec<Resource>,
    /// Per-VMhost uplinks.
    pub host_links: Vec<Resource>,
    /// Per-IOhost uplinks (index 0 = primary).
    pub iohost_links: Vec<Resource>,
    /// Per-VM block devices (real ramdisk bytes + FIFO service).
    pub disks: Vec<Resource>,
    /// The actual backing stores.
    pub disk_stores: Vec<Ramdisk>,
    /// Per-IOhost worker steering tables (vRIO only); IOhost `k` owns
    /// global backend cores `[k·backend_cores, (k+1)·backend_cores)`.
    pub steering: Vec<crate::iohost::Steering>,
    /// Per-IOhost admission controllers (VMs are the tenants). Inert
    /// when [`TestbedConfig::admission`] is disabled.
    pub admission: Vec<AdmissionControl>,
    /// The IOhost index each VM's device state currently lives on, for
    /// deterministic steering handoffs across the redundancy ladder.
    pub vm_route: Vec<usize>,
    /// Device handoffs performed across the ladder (failover + failback).
    pub handoffs: u64,
    /// Accumulated Table 3 counters.
    pub counters: EventCounters,
    /// The interposition chain applied at the backend (empty by default;
    /// ignored by the non-interposable optimum).
    pub chain: InterpositionChain,
    /// Per-VM block retransmission state (vRIO only).
    pub retx: Vec<BlockRetx>,
    /// Per-VMhost redundancy ladders: one health monitor per IOhost
    /// target, folded into a route (§4.6 failover/failback, N+1).
    pub health: Vec<RedundancyMonitor>,
    /// The precomputed per-IOhost outage schedules the monitors probe
    /// against (index = IOhost).
    pub outages: Vec<Vec<Outage>>,
    /// The channel fault injector (disabled unless configured).
    pub faults: FaultInjector,
    /// RNG stream private to fault injection, so enabling an injector
    /// never perturbs the established workload streams.
    fault_rng: SimRng,
    /// Frames dropped on the channel (loss injection + ring overflow).
    pub channel_drops: u64,
    /// TSO message id allocator.
    next_msg_id: u32,
    /// Reassembler at the IOhost (exercised on large messages).
    pub reassembler: Reassembler,
    /// Pool recycling SKB buffers and fragment lists across requests
    /// (steady state: zero allocations per reassembled train).
    pub skb_pool: SkbPool,
    /// Scratch segment train reused by the blk TSO hot path.
    tso_scratch: Vec<Segment>,
    /// Memoized response payloads keyed by length: `Bytes` clones are
    /// refcounted, so per-request responses allocate nothing in steady
    /// state (the fill is a fixed 0x5A pattern, identical every request).
    resp_cache: HashMap<usize, Bytes>,
    /// The in-flight flows' records (see [`Step`]), grown on demand.
    flows: FlowSlab,
    /// A finished request's outcome on its way to the caller's parked
    /// continuation, which takes it first thing.
    rr_outcome: Option<RrOutcome>,
    blk_outcome: Option<BlkOutcome>,
    /// Request-lifecycle tracer (inert unless the config enables it).
    pub trace: Tracer,
    /// The simulation oracle (inert unless the config enables it).
    pub oracle: Oracle,
    /// Whether the tracer or the oracle is on, which the config fixes at
    /// build time. Compiled flows then carry [`Step::Mark`]s and the
    /// engine carries the probe (see [`Testbed::instrument`]).
    observed: bool,
    /// Per VM, the ring generation at which [`Testbed::audit_rings`] last
    /// audited its queues (`None`: never audited).
    audited_gen: Vec<Option<u64>>,
    /// Time-series telemetry sampler (inert unless the config enables it).
    pub telemetry: Telemetry,
    /// Wall-clock self-profiler (inert unless the config enables it).
    pub profiler: Profiler,
    /// Per-tenant SLO accounting and drop attribution. Always on: plain
    /// counters plus a log histogram — no RNG, no events — so it cannot
    /// perturb the simulation.
    pub slo: SloLedger,
    /// Per-backend-worker poll↔interrupt state machines. Inert (pure
    /// counting) when [`TestbedConfig::adaptive_poll`] is disabled.
    pub worker_poll: Vec<WorkerPoll>,
}

impl Testbed {
    /// Builds the rack described by `config`.
    pub fn new(config: TestbedConfig) -> Self {
        assert!(config.num_vms > 0 && config.num_vmhosts > 0 && config.backend_cores > 0);
        let mut rng = SimRng::seed_from(config.seed);
        let vms: Vec<Vm> = (0..config.num_vms)
            .map(|i| {
                let mut vm = Vm::with_rings(VmId(i), config.ring);
                vm.net_refill_rx().expect("fresh VM rx refill");
                vm
            })
            .collect();
        let vm_host: Vec<usize> = (0..config.num_vms)
            .map(|i| i % config.num_vmhosts)
            .collect();
        assert!(config.num_iohosts > 0, "at least one IOhost required");
        assert!(
            config.backup_outages.len() < config.num_iohosts,
            "backup_outages names {} backups but num_iohosts is {}",
            config.backup_outages.len(),
            config.num_iohosts
        );
        // vRIO workers exist per IOhost; local models keep their per-host
        // sidecores/vhost cores and never touch the redundancy ladder.
        let n_backends = match config.model {
            IoModel::Vrio | IoModel::VrioNoPoll => config.backend_cores * config.num_iohosts,
            _ => config.backend_cores * config.num_vmhosts,
        };
        let disk_stores = (0..config.num_vms)
            .map(|_| Ramdisk::new(config.block_capacity))
            .collect();
        let retx_cfg = config
            .retx
            .validated()
            .expect("invalid retransmission config");
        let retx = (0..config.num_vms)
            .map(|_| BlockRetx::new(retx_cfg))
            .collect();
        let health_cfg = config.health.validated().expect("invalid health config");
        let health = (0..config.num_vmhosts)
            .map(|h| RedundancyMonitor::new(h as u32, health_cfg, config.num_iohosts))
            .collect();
        let mut faults =
            FaultInjector::new(config.faults.validated().expect("invalid fault config"));
        // A separate stream keyed off the seed: fault draws never consume
        // from (or shift) the workload stream.
        let fault_rng = SimRng::seed_from(config.seed ^ 0xFA17);
        let outages = config.outage_schedules();
        for (k, sched) in outages.iter().enumerate() {
            if let Err(e) = validate_outage_schedule(sched) {
                panic!("invalid outage schedule for iohost{k}: {e}");
            }
        }
        let trace = Tracer::new(&config.trace);
        if trace.enabled() {
            let pid = IoModel::ALL
                .iter()
                .position(|m| *m == config.model)
                .unwrap_or(0) as u32;
            trace.set_process(pid, config.model.name());
            trace.set_thread_name(TRACK_FAULTS, "channel faults");
            for vm in 0..config.num_vms {
                trace.set_thread_name(req_track(vm), &format!("vm{vm} requests"));
                trace.set_thread_name(TRACK_VCPU_BASE + vm as u32, &format!("vm{vm} vcpu"));
            }
            for b in 0..n_backends {
                trace.set_thread_name(TRACK_WORKER_BASE + b as u32, &format!("backend{b}"));
            }
            faults.set_tracer(trace.clone(), TRACK_FAULTS);
        }
        let oracle = Oracle::new(&config.oracle);
        let telemetry = Telemetry::new(&config.telemetry);
        let profiler = Profiler::new(config.profile);
        let slo = SloLedger::new(config.num_vms, config.slo.as_micros_f64());
        let _ = &mut rng;
        Testbed {
            rng,
            vms,
            vm_host,
            gen_cores: (0..config.num_vms).map(|_| Resource::default()).collect(),
            gen_machines: (0..config.num_vmhosts)
                .map(|_| Resource::default())
                .collect(),
            backends: (0..n_backends).map(|_| Resource::default()).collect(),
            host_links: (0..config.num_vmhosts)
                .map(|_| Resource::default())
                .collect(),
            iohost_links: (0..config.num_iohosts)
                .map(|_| Resource::default())
                .collect(),
            disks: (0..config.num_vms).map(|_| Resource::default()).collect(),
            disk_stores,
            steering: match config.model {
                IoModel::Vrio | IoModel::VrioNoPoll => (0..config.num_iohosts)
                    .map(|_| crate::iohost::Steering::new(config.backend_cores.max(1)))
                    .collect(),
                _ => vec![crate::iohost::Steering::new(n_backends.max(1))],
            },
            admission: (0..config.num_iohosts)
                .map(|_| AdmissionControl::new(config.admission.clone(), config.num_vms))
                .collect(),
            vm_route: vec![0; config.num_vms],
            handoffs: 0,
            counters: EventCounters::default(),
            chain: InterpositionChain::new(),
            retx,
            health,
            outages,
            faults,
            fault_rng,
            channel_drops: 0,
            next_msg_id: 1,
            reassembler: Reassembler::new(),
            skb_pool: SkbPool::new(),
            tso_scratch: Vec::new(),
            resp_cache: HashMap::new(),
            flows: FlowSlab::default(),
            rr_outcome: None,
            blk_outcome: None,
            observed: trace.enabled() || oracle.enabled(),
            trace,
            oracle,
            audited_gen: vec![None; config.num_vms],
            telemetry,
            profiler,
            slo,
            worker_poll: (0..n_backends)
                .map(|_| WorkerPoll::new(config.adaptive_poll))
                .collect(),
            config,
        }
    }

    /// Runs the oracle's descriptor-conservation audit (no-op when the
    /// oracle is off). Invoked inline at every lifecycle mark, so ring laws
    /// are checked continuously while flows are mid-flight, not just at
    /// quiescence. Each mark audits every queue of each VM whose
    /// [`Vm::ring_generation`] has advanced since that VM was last
    /// audited. A queue's audit reads only books that change through the
    /// generation-advancing methods, so a skipped VM would have returned
    /// the verdict of its previous audit, and a violation is still caught
    /// at the first mark after the call that caused it.
    pub fn audit_rings(&mut self) {
        if !self.oracle.enabled() {
            return;
        }
        self.audited_gen.resize(self.vms.len(), None);
        for (vm, audited) in self.vms.iter().zip(&mut self.audited_gen) {
            let gen = vm.ring_generation();
            if *audited == Some(gen) {
                continue;
            }
            *audited = Some(gen);
            for q in vm.ring_audit() {
                self.oracle.audit_queue(vm.id.0, &q);
            }
        }
    }

    /// Opens a flow record for a new request of `kind` from VM `vm`,
    /// issued at `t0` in `stage`, and books it with every observer in one
    /// fixed order: a tracer span, an oracle exactly-once flow, then an
    /// SLO offer (see [`FlowEnd::in_slo`]).
    #[inline]
    fn open_request(
        &mut self,
        kind: &'static str,
        vm: usize,
        stage: Stage,
        t0: SimTime,
        end: FlowEnd,
    ) -> FlowId {
        let span = self.trace.begin(kind, req_track(vm), stage, t0);
        let token = self.oracle.flow_begin(kind, t0);
        if end.in_slo() {
            self.slo.offer(vm);
        }
        self.flows.open(end, origin(vm, t0, span, token))
    }

    /// Books network request `o` as dropped at `now` for `cause`: its
    /// span is discarded, its oracle flow closed as a drop, and the drop
    /// attributed in the SLO ledger. Only network requests drop; a block
    /// request rides retransmission to a completion or a device error.
    #[inline]
    fn drop_request(&mut self, o: Origin, cause: DropCause, now: SimTime) {
        self.trace.abort(o.span);
        self.oracle.flow_drop(o.token, now);
        self.slo.record_drop(o.vm, cause);
    }

    /// Books request `o` as completed at `now`: its span ends, its oracle
    /// flow closes, and its latency lands in the SLO ledger.
    #[inline]
    fn complete_request(&mut self, o: Origin, end: FlowEnd, now: SimTime) {
        self.trace.end(o.span, now);
        self.oracle.flow_complete(o.token, now);
        if end.in_slo() {
            self.slo.complete(o.vm, (now - o.t0).as_micros_f64());
        }
    }

    /// Appends a lifecycle [`Step::Mark`] to a flow program being compiled,
    /// when flows carry marks (tracer or oracle on).
    #[inline]
    fn mark(&self, s: &mut Vec<Step>, stage: Stage) {
        if self.observed {
            s.push(Step::Mark(stage));
        }
    }

    /// The I/O model under test.
    pub fn model(&self) -> IoModel {
        self.config.model
    }

    fn resource(&mut self, r: CoreRef) -> &mut Resource {
        match r {
            CoreRef::Gen(i) => &mut self.gen_cores[i],
            CoreRef::Backend(i) => &mut self.backends[i],
            CoreRef::GenMachine(i) => &mut self.gen_machines[i],
            CoreRef::HostLink(i) => &mut self.host_links[i],
            CoreRef::IohostLink(i) => &mut self.iohost_links[i],
            CoreRef::Disk(i) => &mut self.disks[i],
        }
    }

    fn count(&mut self, kind: CounterKind) {
        match kind {
            CounterKind::Exit => self.counters.sync_exits += 1,
            CounterKind::GuestIntr => self.counters.guest_interrupts += 1,
            CounterKind::Injection => self.counters.interrupt_injections += 1,
            CounterKind::HostIntr => self.counters.host_interrupts += 1,
            CounterKind::IohostIntr => self.counters.iohost_interrupts += 1,
        }
    }

    /// Applies the configured service-time jitter to a base cost.
    pub fn jitter(&mut self, base: SimDuration) -> SimDuration {
        if self.config.service_jitter <= 0.0 || base.is_zero() {
            return base;
        }
        self.rng
            .lognormal_duration(base, self.config.service_jitter)
    }

    /// Draws a rare tail-outlier extra delay for one request (Table 4's
    /// per-model tail shapes: interrupt storms for Elvis/baseline, worker
    /// queueing spikes for vRIO, scheduler blips for the optimum).
    fn tail_extra(&mut self) -> SimDuration {
        if !self.config.tail_model {
            return SimDuration::ZERO;
        }
        let mixture: &[(f64, u64)] = match self.config.model {
            IoModel::Optimum => &[(1.0e-3, 5), (1.2e-4, 8), (5.0e-5, 180)],
            IoModel::Elvis => &[(1.0e-3, 20), (1.0e-4, 38), (4.0e-5, 430)],
            IoModel::Vrio => &[(1.5e-3, 18), (2.0e-4, 110), (4.0e-5, 210)],
            IoModel::VrioNoPoll => &[(2.0e-3, 25), (2.0e-4, 150), (4.0e-5, 250)],
            IoModel::Baseline => &[(2.0e-3, 30), (1.0e-4, 300)],
        };
        let mut extra = SimDuration::ZERO;
        for &(p, micros) in mixture {
            if self.rng.chance(p) {
                let scale = 0.8 + 0.4 * self.rng.uniform();
                extra += SimDuration::micros(micros) * scale;
            }
        }
        extra
    }

    /// Whether IOhost `iohost` is down at `now` (§4.6 fault tolerance):
    /// inside any of its scheduled outage windows. This is ground truth —
    /// frames to a down IOhost blackhole instantly; *routing* decisions
    /// instead go through the health monitors, which observe the crash
    /// with a heartbeat's worth of lag.
    pub fn iohost_failed(&self, iohost: usize, now: SimTime) -> bool {
        self.outages[iohost].iter().any(|o| o.covers(now))
    }

    /// Where VM `vm`'s vRIO traffic routes at `now`, per its VMhost's
    /// redundancy ladder: the first IOhost whose monitor is neither
    /// `FailedOver` nor `Probing`, or [`Route::Local`] when every target
    /// is down. The ladder is advanced to `now` first, so failover *and*
    /// failback happen at heartbeat granularity.
    pub fn net_route(&mut self, vm: usize, now: SimTime) -> Route {
        let host = self.vm_host[vm];
        self.health[host].advance_to(now, &self.outages);
        self.health[host].route()
    }

    /// The IOhost a vRIO block attempt targets at `now`. With a single
    /// IOhost the route is constant (the ladder is not consulted, keeping
    /// heartbeat accounting for blk-only runs identical to PR 1); with
    /// backups the attempt follows the ladder, and when everything is
    /// down it keeps hammering the primary — block storage has no local
    /// fallback, so the retransmission machinery carries the request
    /// until a host recovers or the attempt budget errors the device.
    fn blk_route(&mut self, vm: usize, now: SimTime) -> usize {
        if self.config.num_iohosts == 1 {
            return 0;
        }
        match self.net_route(vm, now) {
            Route::Remote(k) => k,
            Route::Local => 0,
        }
    }

    /// Offers one vRIO frame arrival to the fault injector's bursty-loss
    /// model; `true` means the channel ate it. Injections emit instant
    /// trace markers stamped `now` when tracing is on.
    fn fault_drop(&mut self, now: SimTime) -> bool {
        self.faults.drop_frame_at(&mut self.fault_rng, now)
    }

    /// Draws the injected extra delay for one VMhost/IOhost channel
    /// traversal (zero unless delay spikes are enabled).
    fn fault_delay(&mut self, now: SimTime) -> SimDuration {
        self.faults.traversal_delay_at(&mut self.fault_rng, now)
    }

    /// Draws whether one block response gets duplicated in flight.
    fn fault_duplicate(&mut self, now: SimTime) -> bool {
        self.faults.duplicate_response_at(&mut self.fault_rng, now)
    }

    /// Aggregates the run's reliability accounting: retransmission and
    /// RTT-estimator state across VMs, health-monitor probe/transition
    /// counts across VMhosts, and injected-fault totals.
    pub fn reliability_report(&self) -> ReliabilityCounters {
        let mut c = ReliabilityCounters {
            channel_drops: self.channel_drops,
            ..Default::default()
        };
        for r in &self.retx {
            c.block_sent += r.stats.sent;
            c.block_completed += r.stats.completed;
            c.retransmissions += r.stats.retransmissions;
            c.device_errors += r.stats.device_errors;
            c.stale_responses += r.stats.stale_responses;
            c.rtt_samples += r.stats.rtt_samples;
        }
        for ladder in &self.health {
            for h in ladder.targets() {
                c.heartbeats_sent += h.stats.heartbeats_sent;
                c.heartbeat_acks += h.stats.acks_received;
                c.probes_missed += h.stats.probes_missed;
                c.failovers += h.stats.failovers;
                c.failbacks += h.stats.failbacks;
            }
        }
        c.injected_losses = self.faults.stats.ge_losses;
        c.injected_delay_spikes = self.faults.stats.delay_spikes;
        c.injected_duplicates = self.faults.stats.duplicates;
        c
    }

    /// Pickup delay at a polling worker: the poll interval, plus the
    /// mwait wake-up penalty when the worker was idle (the §4.6 energy
    /// tradeoff).
    fn pickup_delay(&self, backend: usize, now: SimTime) -> SimDuration {
        let mut d = self.config.costs.poll_pickup;
        if let Some(wake) = self.config.sidecore_mwait_wake {
            if !self.backends[backend].busy.is_busy_at(now) {
                d += wake;
            }
        }
        d
    }

    /// Wire serialization time for `bytes` at the configured link rate.
    fn wire(&self, bytes: usize) -> SimDuration {
        SimDuration::for_bytes_at_gbps(bytes as u64, self.config.link_gbps)
    }

    /// Generator core extras: the NUMA penalty of Fig 13a. Generator cores
    /// 0–2 sit on the NIC-local socket; core 3+ cross the interconnect,
    /// and each additional remote core raises DRAM latency further.
    fn gen_extra(&self, vm: usize) -> SimDuration {
        if !self.config.numa_generators {
            return SimDuration::ZERO;
        }
        let local_index = vm / self.config.num_vmhosts; // round-robin spread
        if local_index < 3 {
            SimDuration::ZERO
        } else {
            self.config.costs.numa_penalty * (1.0 + 0.25 * (local_index - 3) as f64)
        }
    }

    /// Picks the global backend core index for `vm` on IOhost `iohost`
    /// and accounts steering. Placement happens inside the target host's
    /// own steering table (least-loaded among *its* workers); the return
    /// value is the global backend index. When the VM's traffic lands on
    /// a different IOhost than its last request, the in-flight ledger is
    /// re-pinned there via a sanctioned handoff and `handoffs` counts it.
    fn pick_backend_at(&mut self, vm: usize, iohost: usize) -> usize {
        match self.config.model {
            IoModel::Vrio | IoModel::VrioNoPoll => {
                let dev = DeviceId {
                    client: vm as u32,
                    device: 0,
                };
                let wid = self.steering[iohost].assign(dev);
                let global = iohost * self.config.backend_cores + wid.0;
                if self.vm_route[vm] == iohost {
                    self.oracle.steer_assign(dev.client, global);
                } else {
                    self.vm_route[vm] = iohost;
                    self.handoffs += 1;
                    self.oracle.steer_handoff(dev.client, global);
                }
                global
            }
            _ => {
                // Local models: VMs of a host share its backend cores.
                let host = self.vm_host[vm];
                let within = vm / self.config.num_vmhosts;
                host * self.config.backend_cores + (within % self.config.backend_cores)
            }
        }
    }

    /// Releases a steering designation after the worker pass (vRIO). The
    /// owning IOhost's table is derived from the global backend index the
    /// request was placed on, so completions land on the same table that
    /// assigned them even if the VM has since failed over elsewhere.
    fn release_backend(&mut self, vm: usize, backend: usize) {
        if matches!(self.config.model, IoModel::Vrio | IoModel::VrioNoPoll) {
            self.oracle.steer_release(vm as u32);
            let table = backend / self.config.backend_cores.max(1);
            self.steering[table].complete(DeviceId {
                client: vm as u32,
                device: 0,
            });
        }
    }

    /// Runs one offered request through IOhost `iohost`'s admission
    /// controller. `depth` is the target backend's queue depth
    /// *including* this request. Disabled admission (the default) admits
    /// everything without recording, keeping baseline runs byte-identical.
    fn admit(&mut self, iohost: usize, vm: usize, depth: u64, now: SimTime) -> Decision {
        self.admission[iohost].offer(vm, depth, now)
    }

    /// Fraction of backend charges that had to queue (Fig 8's contention).
    pub fn backend_contention(&self) -> f64 {
        let (waited, served) = self
            .backends
            .iter()
            .fold((0u64, 0u64), |(w, s), b| (w + b.waited, s + b.served));
        if served == 0 {
            0.0
        } else {
            waited as f64 / served as f64
        }
    }

    /// Total busy time on the *VMhost's* cores: VM cores plus local
    /// backends (Elvis sidecores / vhost cores). vRIO's workers run at the
    /// IOhost and are excluded, matching how the paper measures per-packet
    /// cycles (Fig 10) on the VMhost.
    pub fn vmside_busy(&self) -> SimDuration {
        let vm_busy: SimDuration = self.vms.iter().map(|v| v.cpu.busy_time()).sum();
        if matches!(self.config.model, IoModel::Vrio | IoModel::VrioNoPoll) {
            return vm_busy;
        }
        let be_busy: SimDuration = self.backends.iter().map(|b| b.busy.busy()).sum();
        vm_busy + be_busy
    }

    /// The canonical `len`-byte 0x5A response payload, memoized so repeat
    /// requests of the same size share one refcounted buffer.
    fn resp_payload(&mut self, len: usize) -> Bytes {
        self.resp_cache
            .entry(len)
            .or_insert_with(|| Bytes::from(vec![0x5Au8; len]))
            .clone()
    }

    fn fresh_msg_id(&mut self) -> u32 {
        let id = self.next_msg_id;
        self.next_msg_id = self.next_msg_id.wrapping_add(1).max(1);
        id
    }

    /// CPU cost of interposing on `len` bytes (zero when the chain is
    /// empty or the model cannot interpose).
    pub fn interpose_cost(&self, len: usize) -> SimDuration {
        if self.chain.is_empty() || !self.config.model.is_interposable() {
            return SimDuration::ZERO;
        }
        self.chain.cost_only(&self.config.costs, len)
    }

    /// Transforms `data` through the chain (cost must have been charged
    /// separately via [`Self::interpose_cost`]). Drop verdicts pass the
    /// data unchanged — block data is not subject to packet filtering.
    pub fn interpose_transform(&mut self, dir: Direction, data: Bytes) -> Bytes {
        self.interpose(dir, data.clone()).0.unwrap_or(data)
    }

    /// Runs a payload through the interposition chain at a backend,
    /// returning the transformed payload (or `None` if dropped) and the
    /// CPU cost to charge.
    fn interpose(&mut self, dir: Direction, payload: Bytes) -> (Option<Bytes>, SimDuration) {
        if self.chain.is_empty() || !self.config.model.is_interposable() {
            return (Some(payload), SimDuration::ZERO);
        }
        let costs = self.config.costs.clone();
        let (verdict, cost) = self.chain.apply(&costs, dir, payload);
        match verdict {
            Verdict::Pass(p) => (Some(p), cost),
            Verdict::Drop { .. } => (None, cost),
        }
    }

    /// [`Step::DecapNetRx`]: real decode of the worker's NetRx message.
    fn decap_net_rx(&mut self, id: FlowId) {
        let f = &mut self.flows.recs[id];
        let (vm, encoded) = (f.origin.vm, std::mem::take(&mut f.encoded));
        let msg = VrioMsg::decode(encoded).expect("valid vRIO message");
        assert_eq!(msg.hdr.kind, VrioMsgKind::NetRx);
        self.oracle.check_bytes(
            "net_rr encap->decap",
            &self.flows.recs[id].fwd_check,
            &msg.payload,
        );
        self.deliver_rx(vm, &msg.payload);
    }

    /// The guest receives `frame` on its net rx ring (deliver, receive,
    /// refill).
    fn deliver_rx(&mut self, vm: usize, frame: &[u8]) {
        let vm = &mut self.vms[vm];
        vm.net_deliver_rx(frame).expect("rx posted");
        vm.net_recv().expect("recv").expect("delivered");
        vm.net_refill_rx().expect("refill");
    }

    /// [`Step::FetchTx`]: fetches the guest's transmitted response from
    /// the tx ring, applies interposition if requested, and stores the
    /// payload as the flow's response.
    fn fetch_tx(&mut self, id: FlowId, interpose_dir: Option<Direction>) {
        let vm = self.flows.recs[id].origin.vm;
        let (head, _hdr, payload) = self.vms[vm]
            .net_fetch_tx()
            .expect("fetch")
            .expect("guest transmitted");
        self.vms[vm].net_complete_tx(head).expect("complete");
        self.vms[vm].net_reap_tx().expect("reap");
        self.flows.recs[id].response = match interpose_dir {
            Some(dir) => self.interpose(dir, payload).0.unwrap_or_default(),
            None => payload,
        };
    }

    /// [`Step::IngressGate`]: `false` when the frame is lost or shed.
    fn ingress_gate(&mut self, id: FlowId, iohost: usize, backend: usize, now: SimTime) -> bool {
        let f = &self.flows.recs[id];
        let (o, whole_request) = (f.origin, f.end != FlowEnd::BlkDone);
        let vm = o.vm;
        let cap = self.config.iohost_rx_ring;
        // Attribute each loss to exactly one cause, tested in a fixed
        // order with the RNG draws short-circuiting.
        let lost = if self.iohost_failed(iohost, now) {
            Some(DropCause::Outage)
        } else if self.backends[backend].pending > cap {
            Some(DropCause::ShedQueue)
        } else if self.rng.chance(self.config.channel_loss) || self.fault_drop(now) {
            Some(DropCause::FaultLoss)
        } else {
            None
        };
        let cause = match lost {
            Some(cause) => {
                self.channel_drops += 1;
                cause
            }
            None => {
                // Overload-aware admission (disabled by default): shed at
                // the door instead of queueing toward a timeout. Sheds are
                // not channel drops — the request never entered the ring.
                let depth = self.backends[backend].pending;
                let decision = self.admit(iohost, vm, depth, now);
                if decision.admitted() {
                    return true;
                }
                shed_cause(decision)
            }
        };
        self.backends[backend].pending -= 1;
        self.release_backend(vm, backend);
        if whole_request {
            self.drop_request(o, cause, now);
        }
        false
    }

    /// [`Step::BlkExecute`]: runs the flow's block request against the
    /// VM's backing store; read data becomes the flow's `read_out`.
    fn blk_execute(&mut self, id: FlowId, worker: Option<usize>) {
        let f = &mut self.flows.recs[id];
        let vm = f.origin.vm;
        let req = f.req.clone().expect("block flow carries its request");
        if worker.is_some() {
            let (enc, check, wire_id) = (
                std::mem::take(&mut f.encoded),
                std::mem::take(&mut f.fwd_check),
                f.wire_id,
            );
            // Messages larger than the channel MTU really segment with the
            // fake-TCP TSO path and reassemble zero-copy at the worker.
            if enc.len() > MTU_VRIO_JUMBO {
                let msg_id = self.fresh_msg_id();
                // Batched train: the whole segment train is emitted into a
                // recycled scratch vector and reassembled through the SKB
                // pool in this one event — steady state allocates nothing.
                let mut segs = std::mem::take(&mut self.tso_scratch);
                segment_message_into(enc.clone(), MTU_VRIO_JUMBO, msg_id, &mut segs)
                    .expect("block message within TSO bound (checked at submit)");
                let skb =
                    reassemble_train(&mut segs, &mut self.skb_pool).expect("consistent fragments");
                self.tso_scratch = segs;
                assert_eq!(
                    skb.bytes_copied(),
                    0,
                    "TSO segment->reassemble path must not copy payload bytes"
                );
                self.oracle
                    .check_skb("blk tso segment->reassemble", &enc, &skb);
                self.skb_pool
                    .release(skb)
                    .expect("reassembled skb returns to the pool exactly once");
            }
            // Decode the request the worker actually received and execute.
            let msg = VrioMsg::decode(enc).expect("valid blk message");
            assert_eq!(msg.hdr.kind, VrioMsgKind::BlkReq);
            assert_eq!(msg.hdr.request_id, wire_id);
            self.oracle
                .check_bytes("blk encap->decap", &check, &msg.payload);
        }
        // Real bytes on the backing store. Interposition transforms the
        // data that moves: write payloads before they reach the store,
        // read data before it returns.
        let offset = req.byte_offset();
        let data = match req.kind {
            BlockKind::Write => {
                let data = self.interpose_transform(Direction::Outbound, req.data);
                self.disk_stores[vm].write(offset, &data).expect("in range");
                Bytes::new()
            }
            BlockKind::Read => self.disk_stores[vm]
                .read(offset, u64::from(req.len))
                .expect("in range"),
            BlockKind::Flush => Bytes::new(),
        };
        if !data.is_empty() {
            self.flows.recs[id].read_out = self.interpose_transform(Direction::Inbound, data);
        }
        if let Some(backend) = worker {
            self.release_backend(vm, backend);
        }
    }
}

// ---------------------------------------------------------------------------
// Flow: network request-response (netperf RR, Apache/Memcached transactions)
// ---------------------------------------------------------------------------

/// Issues one request-response against VM `vm`: an external generator sends
/// `req` and the guest answers with `resp_len` bytes after `app_time` of
/// guest CPU. `done` receives the measured outcome.
#[allow(clippy::too_many_arguments)]
pub fn net_request_response<W: HasTestbed>(
    w: &mut W,
    eng: &mut Engine<W>,
    vm: usize,
    req: Bytes,
    resp_len: usize,
    app_time: SimDuration,
    done: impl FnOnce(&mut W, &mut Engine<W>, RrOutcome) + 'static,
) {
    let tb = w.tb();
    let model = tb.config.model;
    // §4.6 fault tolerance: the VMhost's redundancy ladder picks the
    // first live IOhost (primary, then N+1 backups). Only when *every*
    // target has failed over (and until failback completes) do vRIO
    // front-ends fall back to local virtio. The VMhost has no sidecores,
    // so the vhost work lands on the VM's own core.
    let route = if matches!(model, IoModel::Vrio | IoModel::VrioNoPoll) {
        tb.net_route(vm, eng.now())
    } else {
        Route::Remote(0)
    };
    if route == Route::Local {
        return fallback_request_response(w, eng, vm, req, resp_len, app_time, done);
    }
    let iohost = match route {
        Route::Remote(k) => k,
        Route::Local => 0,
    };
    let costs = tb.config.costs.clone();
    let host = tb.vm_host[vm];
    let t0 = eng.now();
    // Lifecycle span: stage transitions ride the step list as inline
    // `Step::Mark`s, so tracing never reorders events or touches RNG.
    let id = tb.open_request("net_rr", vm, Stage::Generator, t0, FlowEnd::Rr);
    let req_wire = req.len() + 64; // headers on the wire
    let resp_wire = resp_len + 64;
    // Responses larger than one MSS leave as multiple wire packets, each
    // taking a back-end pass (the effect that saturates Elvis sidecores
    // under Apache-style transactions, Fig 5/12).
    let packets = (resp_len.div_ceil(1448)).max(1) as u64;

    let mut s = tb.flows.take_steps(id);

    // 1. Generator sends the request.
    let gen_work = tb.jitter(costs.generator_stack) + tb.gen_extra(vm);
    s.push(Step::Charge(CoreRef::Gen(vm), gen_work));
    tb.mark(&mut s, Stage::Wire);
    s.push(Step::Charge(CoreRef::HostLink(host), tb.wire(req_wire)));
    s.push(Step::Fixed(tb.config.hop_latency));

    // 2. Inbound delivery to the guest, per model. A firewalled request
    // ends here: the flow never runs and `done` is dropped.
    let backend = tb.pick_backend_at(vm, iohost);
    let firewalled = |tb: &mut Testbed, s: Vec<Step>| {
        let o = tb.flows.recs[id].origin;
        tb.flows.recs[id].steps = s;
        tb.flows.close(id);
        tb.drop_request(o, DropCause::Firewall, t0);
    };
    match model {
        IoModel::Optimum => {
            s.push(Step::Fixed(costs.nic_dma));
            s.push(Step::Fixed(costs.eli_delivery));
            s.push(Step::Count(CounterKind::GuestIntr));
            tb.flows.recs[id].data = req.clone();
            s.push(Step::DeliverRx);
            tb.mark(&mut s, Stage::Interrupt);
            let w1 = tb.jitter(costs.guest_interrupt + costs.guest_stack_rx);
            s.push(Step::ChargeVm(vm, w1));
        }
        IoModel::Elvis => {
            s.push(Step::Fixed(costs.nic_dma));
            s.push(Step::Count(CounterKind::HostIntr));
            tb.mark(&mut s, Stage::Backend);
            let w_irq = tb.jitter(costs.host_interrupt);
            s.push(Step::Charge(CoreRef::Backend(backend), w_irq));
            let (fwd, icost) = tb.interpose(Direction::Inbound, req.clone());
            let w_be = tb.jitter(costs.elvis_backend_net) + icost;
            s.push(Step::Charge(CoreRef::Backend(backend), w_be));
            let Some(fwd) = fwd else {
                return firewalled(tb, s);
            };
            tb.flows.recs[id].data = fwd;
            s.push(Step::DeliverRx);
            s.push(Step::Fixed(costs.eli_delivery));
            s.push(Step::Count(CounterKind::GuestIntr));
            tb.mark(&mut s, Stage::Interrupt);
            let w1 = tb.jitter(costs.guest_interrupt + costs.guest_stack_rx);
            s.push(Step::ChargeVm(vm, w1));
        }
        IoModel::Vrio | IoModel::VrioNoPoll => {
            // Frame lands at the IOhost NIC first.
            s.push(Step::Fixed(costs.nic_dma));
            s.push(Step::RingPush(backend));
            // Loss/ring-overflow gate (net traffic: a drop means the
            // request is simply lost; TCP above retransmits).
            s.push(Step::IngressGate { iohost, backend });
            tb.mark(&mut s, Stage::WorkerPickup);
            if model == IoModel::VrioNoPoll {
                s.push(Step::Count(CounterKind::IohostIntr));
                let w_irq = tb.jitter(costs.host_interrupt);
                s.push(Step::Charge(CoreRef::Backend(backend), w_irq));
            } else {
                s.push(Step::Pickup(backend));
            }
            s.push(Step::RingPop(backend));
            tb.mark(&mut s, Stage::Backend);
            // Worker: interpose, encapsulate as a vRIO NetRx message, and
            // retransmit toward the VMhost (real protocol bytes).
            let (fwd, icost) = tb.interpose(Direction::Inbound, req.clone());
            let Some(fwd) = fwd else {
                return firewalled(tb, s);
            };
            let msg = VrioMsg::new(
                VrioMsgKind::NetRx,
                DeviceId {
                    client: vm as u32,
                    device: 0,
                },
                0,
                fwd,
            );
            let fwd_check = msg.payload.clone();
            let encoded = msg.encode();
            let w_worker = tb.jitter(costs.vrio_worker_net + costs.reassemble_per_frag) + icost;
            s.push(Step::Charge(CoreRef::Backend(backend), w_worker));
            s.push(Step::ReleaseBackend(backend));
            if model == IoModel::VrioNoPoll {
                // The IOhost's own transmit-completion interrupt.
                s.push(Step::Count(CounterKind::IohostIntr));
                s.push(Step::ChargeAsync(
                    CoreRef::Backend(backend),
                    costs.host_interrupt,
                ));
            }
            tb.mark(&mut s, Stage::Wire);
            s.push(Step::Fixed(costs.nic_dma));
            s.push(Step::Charge(
                CoreRef::IohostLink(iohost),
                tb.wire(encoded.len() + 54),
            ));
            s.push(Step::Fixed(tb.config.hop_latency));
            s.push(Step::Fixed(tb.fault_delay(t0)));
            s.push(Step::Fixed(costs.nic_dma));
            s.push(Step::Fixed(costs.eli_delivery));
            s.push(Step::Count(CounterKind::GuestIntr));
            // Transport decapsulates (real decode) and hands to front-end.
            let f = &mut tb.flows.recs[id];
            f.encoded = encoded;
            f.fwd_check = fwd_check;
            s.push(Step::DecapNetRx);
            tb.mark(&mut s, Stage::Interrupt);
            let w1 = tb.jitter(costs.guest_interrupt + costs.vrio_decap + costs.guest_stack_rx);
            s.push(Step::ChargeVm(vm, w1));
        }
        IoModel::Baseline => {
            s.push(Step::Fixed(costs.nic_dma));
            s.push(Step::Count(CounterKind::HostIntr));
            tb.mark(&mut s, Stage::Backend);
            let w_irq = tb.jitter(costs.host_interrupt);
            s.push(Step::Charge(CoreRef::Backend(backend), w_irq));
            let (fwd, icost) = tb.interpose(Direction::Inbound, req.clone());
            let w_be = tb.jitter(costs.vhost_wakeup + costs.vhost_backend) + icost;
            s.push(Step::Charge(CoreRef::Backend(backend), w_be));
            let Some(fwd) = fwd else {
                return firewalled(tb, s);
            };
            tb.flows.recs[id].data = fwd;
            s.push(Step::DeliverRx);
            s.push(Step::Count(CounterKind::Injection));
            s.push(Step::Charge(
                CoreRef::Backend(backend),
                costs.interrupt_injection,
            ));
            s.push(Step::Count(CounterKind::GuestIntr));
            s.push(Step::Count(CounterKind::Exit)); // EOI exit
            tb.mark(&mut s, Stage::Interrupt);
            let w1 = tb.jitter(costs.guest_interrupt + costs.exit + costs.guest_stack_rx);
            s.push(Step::ChargeVm(vm, w1));
        }
    }

    // 3. Guest application work + transmit of the response.
    tb.mark(&mut s, Stage::AppWork);
    let w_app = tb.jitter(app_time);
    s.push(Step::ChargeVm(vm, w_app));
    tb.mark(&mut s, Stage::Kick);
    tb.flows.recs[id].response = tb.resp_payload(resp_len);
    s.push(Step::SendResp);
    // GSO amortizes the per-packet guest cost for multi-packet responses.
    let mut w_tx = tb.jitter(costs.guest_stack_tx) * (1.0 + 0.3 * (packets - 1) as f64);
    if matches!(model, IoModel::Vrio | IoModel::VrioNoPoll) {
        let frags = vrio_net::fragment_count(resp_len.max(1), MTU_VRIO_JUMBO) as u64;
        w_tx += tb.jitter(costs.vrio_encap) + costs.segment_per_frag * frags;
    }
    if model == IoModel::Baseline {
        // The transmit kick traps.
        s.push(Step::Count(CounterKind::Exit));
        w_tx += costs.exit;
    }
    s.push(Step::ChargeVm(vm, w_tx));

    // 4. Outbound path back to the generator, per model.
    let backend_out = tb.pick_backend_at(vm, iohost);
    match model {
        IoModel::Optimum => {
            s.push(Step::FetchTx(None));
            s.push(Step::Fixed(costs.nic_dma));
            // Asynchronous transmit-completion interrupt to the guest.
            s.push(Step::Count(CounterKind::GuestIntr));
            s.push(Step::ChargeVmAsync(vm, costs.guest_interrupt));
        }
        IoModel::Elvis => {
            tb.mark(&mut s, Stage::WorkerPickup);
            s.push(Step::Fixed(costs.poll_pickup));
            tb.mark(&mut s, Stage::Backend);
            let w_be = tb.jitter(costs.elvis_backend_net) * packets;
            s.push(Step::Charge(CoreRef::Backend(backend_out), w_be));
            s.push(Step::FetchTx(Some(Direction::Outbound)));
            s.push(Step::Fixed(costs.nic_dma));
            // Physical tx-completion interrupts land on the sidecore
            // (hardware coalescing merges them into one *counted* event,
            // but the handler work scales with the packet count).
            s.push(Step::Count(CounterKind::HostIntr));
            s.push(Step::ChargeAsync(
                CoreRef::Backend(backend_out),
                costs.host_interrupt * packets,
            ));
            s.push(Step::Count(CounterKind::GuestIntr));
            s.push(Step::ChargeVmAsync(vm, costs.guest_interrupt));
        }
        IoModel::Vrio | IoModel::VrioNoPoll => {
            s.push(Step::FetchTx(None));
            tb.mark(&mut s, Stage::Wire);
            s.push(Step::Fixed(costs.nic_dma));
            s.push(Step::Charge(
                CoreRef::HostLink(host),
                tb.wire(resp_wire + 54),
            ));
            s.push(Step::Fixed(tb.config.hop_latency));
            s.push(Step::Fixed(tb.fault_delay(t0)));
            s.push(Step::Fixed(costs.nic_dma));
            s.push(Step::RingPush(backend_out));
            // Same loss gate and admission door as the inbound leg: the
            // response pass occupies a worker slot too.
            s.push(Step::IngressGate {
                iohost,
                backend: backend_out,
            });
            tb.mark(&mut s, Stage::WorkerPickup);
            if model == IoModel::VrioNoPoll {
                // Interrupt-driven IOhost: the response arrives as several
                // jumbo fragments, each raising an interrupt that also
                // disrupts the worker's cache/pipeline (coalescing merges
                // them into one *counted* event).
                s.push(Step::Count(CounterKind::IohostIntr));
                let frags = vrio_net::fragment_count(resp_len.max(1), MTU_VRIO_JUMBO) as u64;
                let w_irq = tb.jitter(costs.host_interrupt) * frags * 2.0;
                s.push(Step::Charge(CoreRef::Backend(backend_out), w_irq));
            } else {
                s.push(Step::Pickup(backend_out));
            }
            s.push(Step::RingPop(backend_out));
            tb.mark(&mut s, Stage::Backend);
            // The worker re-segments the message into `packets` wire
            // packets for the outside world; per-packet work is batched.
            let w_worker = tb.jitter(costs.vrio_worker_net + costs.reassemble_per_frag)
                + (costs.vrio_worker_net * (packets - 1)) * 0.75;
            s.push(Step::Charge(CoreRef::Backend(backend_out), w_worker));
            // Worker decapsulates the client's NetTx and interposes.
            s.push(Step::OutboundInterposeRelease(backend_out));
            if model == IoModel::VrioNoPoll {
                // Transmit-completion interrupts for the outbound wire
                // packets (coalesced into one counted event).
                s.push(Step::Count(CounterKind::IohostIntr));
                s.push(Step::ChargeAsync(
                    CoreRef::Backend(backend_out),
                    (costs.host_interrupt * packets.div_ceil(2)) * 2.0,
                ));
            }
            // Guest's ELI transmit-completion interrupt.
            s.push(Step::Count(CounterKind::GuestIntr));
            s.push(Step::ChargeVmAsync(vm, costs.guest_interrupt));
            s.push(Step::Fixed(costs.nic_dma));
        }
        IoModel::Baseline => {
            tb.mark(&mut s, Stage::Backend);
            let w_be = tb.jitter(costs.vhost_wakeup + costs.vhost_backend) * packets;
            s.push(Step::Charge(CoreRef::Backend(backend_out), w_be));
            s.push(Step::FetchTx(Some(Direction::Outbound)));
            s.push(Step::Fixed(costs.nic_dma));
            s.push(Step::Count(CounterKind::HostIntr));
            s.push(Step::ChargeAsync(
                CoreRef::Backend(backend_out),
                costs.host_interrupt * packets,
            ));
            // Asynchronous tx-completion injection into the guest + EOI exit
            // (one per wire packet; a single counted event after coalescing).
            s.push(Step::Count(CounterKind::Injection));
            s.push(Step::ChargeAsync(
                CoreRef::Backend(backend_out),
                costs.interrupt_injection * packets,
            ));
            s.push(Step::Count(CounterKind::GuestIntr));
            s.push(Step::Count(CounterKind::Exit));
            s.push(Step::ChargeVmAsync(
                vm,
                (costs.guest_interrupt + costs.exit) * packets,
            ));
        }
    }

    // 5. Wire back to the generator and receive.
    tb.mark(&mut s, Stage::Wire);
    s.push(Step::Charge(CoreRef::HostLink(host), tb.wire(resp_wire)));
    s.push(Step::Fixed(tb.config.hop_latency));
    tb.mark(&mut s, Stage::Completion);
    let gen_rx = tb.jitter(costs.generator_stack) + tb.gen_extra(vm);
    s.push(Step::Charge(CoreRef::Gen(vm), gen_rx));
    let tail = tb.tail_extra();
    if !tail.is_zero() {
        s.push(Step::Fixed(tail));
    }
    tb.flows.recs[id].steps = s;
    tb.flows.recs[id].origin.done = Some(park_rr(eng, done));
    run_flow(w, eng, id as u64);
}

/// The §4.6 fallback data path: local virtio on a sidecore-less VMhost.
/// Functionally the baseline model, except every vhost/interrupt cost is
/// charged to the VM's own core — the price of surviving without the
/// IOhost (no interposition services run; they lived at the IOhost).
fn fallback_request_response<W: HasTestbed>(
    w: &mut W,
    eng: &mut Engine<W>,
    vm: usize,
    req: Bytes,
    resp_len: usize,
    app_time: SimDuration,
    done: impl FnOnce(&mut W, &mut Engine<W>, RrOutcome) + 'static,
) {
    let tb = w.tb();
    let costs = tb.config.costs.clone();
    let host = tb.vm_host[vm];
    let t0 = eng.now();
    let id = tb.open_request("net_rr_fallback", vm, Stage::Generator, t0, FlowEnd::Rr);
    let packets = (resp_len.div_ceil(1448)).max(1) as u64;
    let mut s = tb.flows.take_steps(id);

    let gen_work = tb.jitter(costs.generator_stack) + tb.gen_extra(vm);
    s.push(Step::Charge(CoreRef::Gen(vm), gen_work));
    tb.mark(&mut s, Stage::Wire);
    s.push(Step::Charge(
        CoreRef::HostLink(host),
        tb.wire(req.len() + 64),
    ));
    s.push(Step::Fixed(tb.config.hop_latency));
    s.push(Step::Fixed(costs.nic_dma));
    // Inbound: interrupt + vhost pass + injection, all on the VM core.
    s.push(Step::Count(CounterKind::HostIntr));
    tb.mark(&mut s, Stage::Backend);
    let w_in = tb.jitter(
        costs.host_interrupt + costs.vhost_wakeup + costs.vhost_backend + costs.interrupt_injection,
    );
    s.push(Step::Count(CounterKind::Injection));
    s.push(Step::ChargeVm(vm, w_in));
    tb.flows.recs[id].data = req;
    s.push(Step::DeliverRx);
    s.push(Step::Count(CounterKind::GuestIntr));
    s.push(Step::Count(CounterKind::Exit)); // EOI
    tb.mark(&mut s, Stage::Interrupt);
    let w_rx = tb.jitter(costs.guest_interrupt + costs.exit + costs.guest_stack_rx);
    s.push(Step::ChargeVm(vm, w_rx));
    tb.mark(&mut s, Stage::AppWork);
    s.push(Step::ChargeVm(vm, tb.jitter(app_time)));
    tb.mark(&mut s, Stage::Kick);
    tb.flows.recs[id].response = tb.resp_payload(resp_len);
    s.push(Step::SendResp);
    // Outbound: kick exit + vhost pass per packet, all on the VM core.
    s.push(Step::Count(CounterKind::Exit));
    let w_tx = tb.jitter(costs.guest_stack_tx + costs.exit)
        + (costs.vhost_wakeup + costs.vhost_backend) * packets;
    s.push(Step::ChargeVm(vm, w_tx));
    s.push(Step::FetchTx(None));
    s.push(Step::Fixed(costs.nic_dma));
    s.push(Step::Count(CounterKind::HostIntr));
    s.push(Step::Count(CounterKind::Injection));
    s.push(Step::Count(CounterKind::GuestIntr));
    s.push(Step::Count(CounterKind::Exit));
    s.push(Step::ChargeVmAsync(
        vm,
        (costs.host_interrupt + costs.interrupt_injection + costs.guest_interrupt + costs.exit)
            * packets,
    ));
    tb.mark(&mut s, Stage::Wire);
    s.push(Step::Charge(
        CoreRef::HostLink(host),
        tb.wire(resp_len + 64),
    ));
    s.push(Step::Fixed(tb.config.hop_latency));
    tb.mark(&mut s, Stage::Completion);
    let gen_rx = tb.jitter(costs.generator_stack) + tb.gen_extra(vm);
    s.push(Step::Charge(CoreRef::Gen(vm), gen_rx));
    tb.flows.recs[id].steps = s;
    tb.flows.recs[id].origin.done = Some(park_rr(eng, done));
    run_flow(w, eng, id as u64);
}

// ---------------------------------------------------------------------------
// Flow: netperf TCP stream (batched)
// ---------------------------------------------------------------------------

/// Transmits one ring batch of `msgs` stream messages of `msg_bytes` each
/// from VM `vm` toward its generator, calling `done` when the batch has
/// been received. Stream traffic is processed in large batches at every
/// stage (rings, NIC, worker), so its per-message costs come from the
/// amortized `stream_*` entries of the cost model.
pub fn stream_batch<W: HasTestbed>(
    w: &mut W,
    eng: &mut Engine<W>,
    vm: usize,
    msgs: u64,
    msg_bytes: u64,
    done: impl FnOnce(&mut W, &mut Engine<W>) + 'static,
) {
    let tb = w.tb();
    let model = tb.config.model;
    let costs = tb.config.costs.clone();
    let host = tb.vm_host[vm];
    let bytes = msgs * msg_bytes;
    let t0 = eng.now();
    // Coarse three-stage span: guest batch production, backend+wire
    // traversal, generator-side receive.
    let id = tb.open_request("stream_batch", vm, Stage::GuestEnqueue, t0, FlowEnd::Stream);
    let mut s = tb.flows.take_steps(id);

    // Guest produces the batch.
    let mut per_msg = costs.stream_guest_per_msg;
    match model {
        IoModel::Vrio | IoModel::VrioNoPoll => per_msg += costs.stream_vrio_guest_extra,
        IoModel::Baseline => per_msg += costs.stream_baseline_guest_extra,
        _ => {}
    }
    s.push(Step::ChargeVm(vm, per_msg * msgs));
    tb.mark(&mut s, Stage::Backend);

    // Backend processing + wire path. Streams keep riding whatever
    // IOhost the VM last routed to (no per-batch health consult: batches
    // are fire-and-forget, and re-probing here would perturb heartbeat
    // accounting for stream-only runs).
    let iohost = tb.vm_route[vm];
    let backend = tb.pick_backend_at(vm, iohost);
    match model {
        IoModel::Optimum => {
            s.push(Step::Charge(
                CoreRef::HostLink(host),
                tb.wire(bytes as usize),
            ));
        }
        IoModel::Elvis => {
            s.push(Step::Charge(
                CoreRef::Backend(backend),
                costs.stream_elvis_backend_per_msg * msgs,
            ));
            s.push(Step::Charge(
                CoreRef::HostLink(host),
                tb.wire(bytes as usize),
            ));
        }
        IoModel::Vrio | IoModel::VrioNoPoll => {
            s.push(Step::Charge(
                CoreRef::HostLink(host),
                tb.wire(bytes as usize),
            ));
            s.push(Step::Fixed(tb.config.hop_latency));
            let mut w_worker = costs.stream_vrio_worker_per_msg * msgs;
            if model == IoModel::VrioNoPoll {
                // Interrupt-driven IOhost: per-batch interrupt pair.
                w_worker += costs.host_interrupt * 2u64;
            }
            s.push(Step::Charge(CoreRef::Backend(backend), w_worker));
            s.push(Step::ReleaseBackend(backend));
            s.push(Step::Charge(
                CoreRef::IohostLink(iohost),
                tb.wire(bytes as usize),
            ));
        }
        IoModel::Baseline => {
            s.push(Step::Charge(
                CoreRef::Backend(backend),
                costs.stream_vhost_per_msg * msgs,
            ));
            s.push(Step::Charge(
                CoreRef::HostLink(host),
                tb.wire(bytes as usize),
            ));
        }
    }
    s.push(Step::Fixed(tb.config.hop_latency));
    tb.mark(&mut s, Stage::Completion);

    // Generator machine + core receive the batch.
    let gm_work = SimDuration::for_bytes_at_gbps(bytes, costs.gen_machine_gbps);
    s.push(Step::Charge(CoreRef::GenMachine(host), gm_work));
    s.push(Step::Charge(
        CoreRef::Gen(vm),
        costs.stream_gen_per_msg * msgs,
    ));
    tb.flows.recs[id].steps = s;
    tb.flows.recs[id].origin.done = Some(eng.park(BoxedEvent::Closure(Box::new(done))));
    run_flow(w, eng, id as u64);
}

// ---------------------------------------------------------------------------
// Flow: block request (Filebench, §5 "Making a Local Device Remote")
// ---------------------------------------------------------------------------

/// Issues one block request from VM `vm` against its (local or remote)
/// block device. For vRIO the full retransmission protocol of §4.5 runs:
/// unique wire ids, 10 ms doubling timeouts, stale-response filtering, and
/// a device error after the attempt budget is exhausted.
///
/// The optimum model has no block path ("there is no such thing as an
/// SRIOV ramdisk" — §5); calling this under `IoModel::Optimum` panics. A
/// vRIO write whose encapsulated message would exceed the TSO maximum
/// ([`vrio_net::MAX_TSO_MSG`]) cannot be carried and panics here, at
/// submission.
pub fn blk_request<W: HasTestbed>(
    w: &mut W,
    eng: &mut Engine<W>,
    vm: usize,
    req: BlockRequest,
    done: impl FnOnce(&mut W, &mut Engine<W>, BlkOutcome) + 'static,
) {
    let model = w.tb().config.model;
    assert!(
        model != IoModel::Optimum,
        "the optimum (SRIOV) model has no paravirtual block path (paper section 5)"
    );
    let vrio = matches!(model, IoModel::Vrio | IoModel::VrioNoPoll);
    if vrio && req.kind == BlockKind::Write {
        // Header, the 8-byte request id, then the data (see `blk_attempt`).
        let msg_len = VRIO_HDR_SIZE + 8 + req.data.len();
        assert!(
            msg_len <= MAX_TSO_MSG,
            "block write of {} bytes makes a {msg_len}-byte vRIO message, over the \
             {MAX_TSO_MSG}-byte TSO maximum",
            req.data.len()
        );
    }
    let t0 = eng.now();
    let costs = w.tb().config.costs.clone();
    let tb = w.tb();
    let id = tb.open_request("blk", vm, Stage::GuestEnqueue, t0, FlowEnd::BlkSubmitted);

    // The front-end publishes the request on the real virtio ring; the
    // local back-end half (sidecore/vhost/transport) fetches it at once.
    tb.vms[vm].blk_submit(&req).expect("blk ring slot");
    let (head, _hdr, payload) = tb.vms[vm]
        .blk_fetch()
        .expect("fetch")
        .expect("just submitted");

    // Guest-side submission CPU.
    let mut submit_work = tb.jitter(costs.guest_block_layer) / 2;
    if model == IoModel::Baseline {
        tb.count(CounterKind::Exit);
        submit_work += costs.exit;
    }
    if vrio {
        let (wire_id, timeout) = tb.retx[vm].send(req.id, t0);
        tb.flows.recs[id].wire_id = wire_id;
        tb.flows.recs[id].timeout = timeout;
    }
    let mut s = tb.flows.take_steps(id);
    s.push(Step::ChargeVm(vm, submit_work));
    let f = &mut tb.flows.recs[id];
    (f.steps, f.head, f.data, f.req) = (s, head, payload, Some(req));
    // The continuation runs once, whichever path completes the request
    // first: the response, or the retransmission timer's device error.
    let ticket = eng.park(BoxedEvent::Closure(Box::new(
        move |w: &mut W, eng: &mut Engine<W>| {
            let o = w.tb().blk_outcome.take().expect("finished flow's outcome");
            done(w, eng, o)
        },
    )));
    w.tb().flows.recs[id].origin.done = Some(ticket);
    run_flow(w, eng, id as u64);
}

/// The guest submitted block flow `id`: compile and start its back-end
/// half. Elvis/baseline run it on the local sidecore or vhost core; vRIO
/// sends the first attempt to an IOhost and arms its retransmission timer.
fn blk_backend<W: HasTestbed>(w: &mut W, eng: &mut Engine<W>, id: FlowId) {
    let now = eng.now();
    let tb = w.tb();
    if matches!(tb.config.model, IoModel::Vrio | IoModel::VrioNoPoll) {
        blk_attempt(tb, id, now);
        let timer = tb.flows.fork(id);
        let timeout = tb.flows.recs[id].timeout;
        run_flow(w, eng, id as u64);
        eng.schedule_call_in(timeout, retx_timer::<W>, timer as u64);
    } else {
        local_blk_backend(tb, id);
        run_flow(w, eng, id as u64);
    }
}

/// Elvis / baseline: compiles the block back-end pass of flow `id` on the
/// local sidecore or vhost core against the local device.
fn local_blk_backend(tb: &mut Testbed, id: FlowId) {
    let model = tb.config.model;
    let costs = tb.config.costs.clone();
    let vm = tb.flows.recs[id].origin.vm;
    let req = tb.flows.recs[id].req.clone().expect("block flow");
    let backend = tb.pick_backend_at(vm, 0); // local models: iohost unused
    tb.flows.recs[id].end = FlowEnd::BlkDone;
    let mut s = tb.flows.take_steps(id);
    tb.mark(&mut s, Stage::Backend);

    // Interposition is charged on the data actually moved: the payload of
    // writes, the data returned by reads.
    let moved_bytes = req.moved_bytes();
    let icost = tb.interpose_cost(moved_bytes);
    match model {
        IoModel::Elvis => {
            s.push(Step::Fixed(costs.poll_pickup));
            let w_be = tb.jitter(costs.elvis_backend_blk) + icost;
            s.push(Step::Charge(CoreRef::Backend(backend), w_be));
        }
        IoModel::Baseline => {
            // The baseline block path is far heavier than its net path:
            // QEMU/vhost-blk AIO submission, two physical interrupts
            // (submission kick wakeup + device completion), and full data
            // copies on the vhost core.
            s.push(Step::Count(CounterKind::HostIntr));
            s.push(Step::Count(CounterKind::HostIntr));
            let copy = costs.copy_cost(moved_bytes.max(4096));
            let w_be = tb.jitter(
                costs.vhost_wakeup + costs.vhost_backend * 5u64 + costs.host_interrupt * 2u64,
            ) + copy
                + icost;
            s.push(Step::Charge(CoreRef::Backend(backend), w_be));
        }
        _ => unreachable!(),
    }

    // Device service (FIFO), then real data movement on the ramdisk.
    let svc = tb
        .config
        .block_profile
        .service_time(req.kind, moved_bytes as u64);
    tb.mark(&mut s, Stage::Device);
    s.push(Step::Charge(CoreRef::Disk(vm), svc));
    s.push(Step::BlkExecute(None));

    // Completion pass back to the guest.
    tb.mark(&mut s, Stage::Interrupt);
    match model {
        IoModel::Elvis => {
            let w_done = tb.jitter(costs.elvis_backend_blk) / 2;
            s.push(Step::Charge(CoreRef::Backend(backend), w_done));
            s.push(Step::Fixed(costs.eli_delivery));
            s.push(Step::Count(CounterKind::GuestIntr));
        }
        IoModel::Baseline => {
            let w_done = tb.jitter(costs.vhost_backend) / 2;
            s.push(Step::Charge(CoreRef::Backend(backend), w_done));
            s.push(Step::Count(CounterKind::Injection));
            s.push(Step::Charge(
                CoreRef::Backend(backend),
                costs.interrupt_injection,
            ));
            s.push(Step::Count(CounterKind::GuestIntr));
            s.push(Step::Count(CounterKind::Exit)); // EOI
        }
        _ => unreachable!(),
    }
    let w_guest = match model {
        IoModel::Baseline => costs.guest_interrupt + costs.exit + costs.guest_block_layer / 2,
        _ => costs.guest_interrupt + costs.guest_block_layer / 2,
    };
    s.push(Step::ChargeVm(vm, tb.jitter(w_guest)));
    tb.flows.recs[id].steps = s;
}

/// Compiles one vRIO block attempt into flow `id` (sent at `now`):
/// encapsulate, traverse the channel, execute at the IOhost, and return
/// the response — subject to loss and stale filtering.
fn blk_attempt(tb: &mut Testbed, id: FlowId, now: SimTime) {
    let model = tb.config.model;
    let costs = tb.config.costs.clone();
    let f = &mut tb.flows.recs[id];
    f.end = FlowEnd::BlkDone;
    let (vm, t0, wire_id) = (f.origin.vm, f.origin.t0, f.wire_id);
    let payload = std::mem::take(&mut f.data);
    let req = f.req.clone().expect("block flow");
    let host = tb.vm_host[vm];
    let mut s = tb.flows.take_steps(id);
    tb.mark(&mut s, Stage::Encap);

    // Transport: encapsulate (real bytes) and segment if needed.
    let mut blob = Vec::with_capacity(17 + payload.len());
    blob.extend_from_slice(&req.id.0.to_le_bytes());
    blob.extend_from_slice(&payload);
    let msg = VrioMsg::new(
        VrioMsgKind::BlkReq,
        DeviceId {
            client: vm as u32,
            device: 1,
        },
        wire_id,
        Bytes::from(blob),
    );
    let payload_check = msg.payload.clone();
    let encoded = msg.encode();
    let frags = vrio_net::fragment_count(encoded.len().max(1), MTU_VRIO_JUMBO) as u64;
    let w_tx = tb.jitter(costs.vrio_encap) + costs.segment_per_frag * frags;
    s.push(Step::ChargeVm(vm, w_tx));
    tb.mark(&mut s, Stage::Wire);
    s.push(Step::Fixed(costs.nic_dma));
    s.push(Step::Charge(
        CoreRef::HostLink(host),
        tb.wire(encoded.len() + 54),
    ));
    s.push(Step::Fixed(tb.config.hop_latency));
    s.push(Step::Fixed(tb.fault_delay(t0)));
    s.push(Step::Fixed(costs.nic_dma));

    // Arrival at the IOhost: loss / ring-overflow gate. The route is
    // re-resolved per *attempt*, so a retransmission after a primary
    // crash deterministically lands on the next live backup once the
    // health ladder has observed the outage. A crashed IOhost blackholes
    // the frame, and a shed is handled exactly like a lost frame: the
    // retransmission machinery re-offers the request later.
    let iohost = tb.blk_route(vm, now);
    let backend = tb.pick_backend_at(vm, iohost);
    s.push(Step::RingPush(backend));
    s.push(Step::IngressGate { iohost, backend });
    tb.mark(&mut s, Stage::WorkerPickup);
    if model == IoModel::VrioNoPoll {
        s.push(Step::Count(CounterKind::IohostIntr));
        s.push(Step::Charge(
            CoreRef::Backend(backend),
            costs.host_interrupt,
        ));
    } else {
        s.push(Step::Pickup(backend));
    }
    s.push(Step::RingPop(backend));
    tb.mark(&mut s, Stage::Backend);

    // Worker: reassemble, decode, interpose, execute on the remote store.
    // Interposition cost is charged on the data moved (write payload or
    // read response).
    let moved_bytes = req.moved_bytes();
    let icost = tb.interpose_cost(moved_bytes);
    let mut w_worker = tb.jitter(costs.vrio_worker_blk) + costs.reassemble_per_frag * frags + icost;
    // Zero-copy write discipline: only unaligned edges are copied; reads
    // must be fully copied out of the block system (§4.4).
    match req.kind {
        BlockKind::Write => {
            let split = vrio_block::split_sector_aligned(req.byte_offset(), req.data.clone());
            w_worker += costs.copy_cost(split.copied_bytes());
        }
        BlockKind::Read => {
            w_worker += costs.copy_cost(req.len as usize);
        }
        BlockKind::Flush => {}
    }
    s.push(Step::Charge(CoreRef::Backend(backend), w_worker));

    let svc = tb
        .config
        .block_profile
        .service_time(req.kind, moved_bytes as u64);
    tb.mark(&mut s, Stage::Device);
    s.push(Step::Charge(CoreRef::Disk(vm), svc));
    s.push(Step::BlkExecute(Some(backend)));

    // Response path: worker -> wire -> transport -> guest. The response
    // is sized before the store runs, so only its 17-byte header counts.
    let resp_len = 17;
    let resp_frags = vrio_net::fragment_count(resp_len, MTU_VRIO_JUMBO) as u64;
    // The response pass is short: the request's reassembled buffer is
    // reused and the NIC's TSO does the segmentation (section 4.4).
    tb.mark(&mut s, Stage::Backend);
    let w_resp = tb.jitter(costs.vrio_worker_blk) / 4 + costs.segment_per_frag * resp_frags;
    s.push(Step::Charge(CoreRef::Backend(backend), w_resp));
    if model == IoModel::VrioNoPoll {
        s.push(Step::Count(CounterKind::IohostIntr));
        s.push(Step::ChargeAsync(
            CoreRef::Backend(backend),
            costs.host_interrupt,
        ));
    }
    tb.mark(&mut s, Stage::Wire);
    s.push(Step::Charge(
        CoreRef::IohostLink(iohost),
        tb.wire(resp_len + 54 + 24),
    ));
    s.push(Step::Fixed(tb.config.hop_latency));
    s.push(Step::Fixed(tb.fault_delay(t0)));
    s.push(Step::Fixed(costs.nic_dma));

    // Transport receive: stale filtering, then guest completion.
    s.push(Step::BlkResponseGate);
    if tb.fault_duplicate(t0) {
        // The channel duplicated the response frame: the copy hits the
        // transport right behind the original and must filter as stale —
        // the guest never sees a second completion.
        s.push(Step::StaleDupGate);
    }
    s.push(Step::Fixed(costs.eli_delivery));
    s.push(Step::Count(CounterKind::GuestIntr));
    tb.mark(&mut s, Stage::Interrupt);
    let w_guest = tb.jitter(
        costs.guest_interrupt
            + costs.vrio_decap
            + costs.reassemble_per_frag * resp_frags
            + costs.guest_block_layer / 2,
    );
    s.push(Step::ChargeVm(vm, w_guest));
    tb.flows.recs[id].steps = s;
    let f = &mut tb.flows.recs[id];
    f.encoded = encoded;
    f.fwd_check = payload_check;
}

/// Fires the retransmission timer of a vRIO block request (flow record
/// `id`, which has no program): a no-op once the request completed,
/// otherwise a fresh attempt under a new wire id, or a device error when
/// the attempt budget is spent.
fn retx_timer<W: HasTestbed>(w: &mut W, eng: &mut Engine<W>, id: u64) {
    let id = id as FlowId;
    let now = eng.now();
    let tb = w.tb();
    let (vm, wire_id) = (tb.flows.recs[id].origin.vm, tb.flows.recs[id].wire_id);
    match tb.retx[vm].on_timeout(wire_id, now) {
        TimeoutAction::Stale => tb.flows.close(id),
        TimeoutAction::Retransmit {
            new_wire_id,
            timeout,
        } => {
            tb.trace.instant("retx", req_track(vm), now);
            tb.flows.recs[id].wire_id = new_wire_id;
            let attempt = tb.flows.fork(id);
            let f = &mut tb.flows.recs[attempt];
            let req = f.req.as_ref().expect("block flow");
            if req.kind == BlockKind::Write {
                f.data = req.data.clone();
            }
            blk_attempt(tb, attempt, now);
            run_flow(w, eng, attempt as u64);
            eng.schedule_call_in(timeout, retx_timer::<W>, id as u64);
        }
        TimeoutAction::DeviceError { .. } => complete_blk(w, eng, id, vrio_virtio::BLK_S_IOERR),
    }
}

/// Completes the block request of flow record `id` on the guest ring with
/// `status` and the data it read, closes the record and, unless another
/// path already completed the request, hands the outcome to the caller.
fn complete_blk<W: HasTestbed>(w: &mut W, eng: &mut Engine<W>, id: FlowId, status: u8) {
    let now = eng.now();
    let tb = w.tb();
    let f = &mut tb.flows.recs[id];
    let (o, head, read_out) = (f.origin, f.head, std::mem::take(&mut f.read_out));
    let req_id = f.req.as_ref().expect("block flow").id;
    tb.flows.close(id);
    tb.vms[o.vm]
        .blk_complete(head, status, &read_out)
        .expect("complete");
    let c = tb.vms[o.vm]
        .blk_reap()
        .expect("reap")
        .into_iter()
        .find(|c| c.id == req_id)
        .expect("own completion");
    let Some(k) = o.done.and_then(|t| eng.take_parked(t)) else {
        return;
    };
    let tb = w.tb();
    if status != vrio_virtio::BLK_S_OK {
        tb.trace.instant("blk_device_error", req_track(o.vm), now);
    }
    tb.complete_request(o, FlowEnd::BlkDone, now);
    tb.blk_outcome = Some(BlkOutcome {
        latency: now - o.t0,
        status: c.status,
        data: c.data,
    });
    k.dispatch(w, eng);
}

impl Testbed {
    /// Resets the Table 3 counters (for per-request accounting tests).
    pub fn reset_counters(&mut self) {
        self.counters = EventCounters::default();
    }

    // -----------------------------------------------------------------
    // The run harness: every workload that runs this testbed on an engine
    // wires its observers through these three calls, so which observers
    // a run has, and when each is told, is decided here and nowhere else.
    // -----------------------------------------------------------------

    /// Installs this testbed's observers on `eng` before the run: the
    /// wall-clock profiler, and, when the tracer or the oracle is on, the
    /// observe-only engine probe (tracer event count, oracle clock check).
    /// The probe opens per-observer profiler scopes only when the profiler
    /// is on. It neither schedules nor draws randomness, so an
    /// instrumented run is bit-identical to a bare one.
    pub fn instrument<W: HasTestbed>(&self, eng: &mut Engine<W>) {
        eng.set_profiler(self.profiler.clone());
        if !self.observed {
            return;
        }
        let (t, o) = (self.trace.clone(), self.oracle.clone());
        if self.profiler.enabled() {
            let p = self.profiler.clone();
            eng.set_probe(move |now| {
                {
                    let _g = p.scope("probe.tracer");
                    t.on_engine_event();
                }
                let _g = p.scope("probe.oracle");
                o.on_engine_event(now);
            });
        } else {
            eng.set_probe(move |now| {
                t.on_engine_event();
                o.on_engine_event(now);
            });
        }
    }

    /// Pre-schedules the fixed telemetry sampling grid: one observe-only
    /// sample per interval through `until` (a no-op when telemetry is
    /// off). The whole grid is scheduled up front rather than
    /// self-rescheduling, so the run still ends when the workload drains;
    /// samples only read state, so runs with the grid are bit-identical
    /// to runs without it.
    pub fn schedule_telemetry<W: HasTestbed>(&self, eng: &mut Engine<W>, until: SimTime) {
        let Some(interval) = self.telemetry.interval() else {
            return;
        };
        let mut at = SimTime::ZERO + interval;
        while at <= until {
            eng.schedule_at(at, |w: &mut W, eng: &mut Engine<W>| {
                let now = eng.now();
                let tb = w.tb();
                let _g = tb.profiler.scope("telemetry.sample");
                tb.sample_telemetry(now);
            });
            at += interval;
        }
    }

    /// Closes the run's books once the engine has drained: exports the
    /// per-core thread tracks to the tracer, reports every request the
    /// oracle saw begin but never close as an `exactly-once` leak, and
    /// audits the SKB pool. Each is a no-op when its observer is off.
    pub fn close_books(&self) {
        self.export_thread_tracks();
        self.oracle.finish();
        self.oracle.audit_pool("skb pool", &self.skb_pool);
    }

    /// Replays the VCPU and backend busy intervals into the tracer as
    /// per-core "thread" tracks (Chrome trace `tid`s
    /// [`TRACK_VCPU_BASE`]` + vm` and [`TRACK_WORKER_BASE`]` + backend`),
    /// plus route transitions and breaker trips as instants. A no-op when
    /// tracing is off.
    fn export_thread_tracks(&self) {
        if !self.trace.enabled() {
            return;
        }
        for (i, vm) in self.vms.iter().enumerate() {
            let tid = TRACK_VCPU_BASE + i as u32;
            for &(start, end) in vm.cpu.busy_intervals() {
                self.trace.slice("vcpu_busy", tid, start, end);
            }
        }
        for (b, be) in self.backends.iter().enumerate() {
            let tid = TRACK_WORKER_BASE + b as u32;
            for &(start, end) in be.busy.intervals() {
                self.trace.slice("backend_busy", tid, start, end);
            }
        }
        // Health-ladder route transitions and admission breaker trips as
        // timestamped instants: which IOhost (or local fallback) each
        // VMhost routed to when, and every breaker open/close window.
        for (h, ladder) in self.health.iter().enumerate() {
            if ladder.route_log.is_empty() {
                continue;
            }
            let tid = TRACK_ROUTE_BASE + h as u32;
            self.trace.set_thread_name(tid, &format!("vmhost{h} route"));
            for &(at, route) in &ladder.route_log {
                let name = match route {
                    Route::Remote(_) => "route_remote",
                    Route::Local => "route_local",
                };
                self.trace.instant(name, tid, at);
            }
        }
        for (k, adm) in self.admission.iter().enumerate() {
            if adm.breaker_log.is_empty() {
                continue;
            }
            let tid = TRACK_BREAKER_BASE + k as u32;
            self.trace
                .set_thread_name(tid, &format!("iohost{k} breaker"));
            for &(opened_at, closes_at) in &adm.breaker_log {
                self.trace.instant("breaker_open", tid, opened_at);
                self.trace.instant("breaker_close", tid, closes_at);
            }
        }
    }

    /// Records one fixed-grid telemetry sample at `now`: steering queue
    /// depths, backend occupancy, virtqueue audit gauges, health-ladder
    /// routes and states, admission counters, outstanding block
    /// retransmissions, and per-tenant SLO percentiles. A no-op when
    /// telemetry is off.
    ///
    /// Sampling is observe-only by construction: `&self`, so nothing here
    /// can draw randomness, schedule events, or mutate simulation state —
    /// runs with sampling enabled stay bit-identical to runs without (the
    /// telemetry bit-identity suite proves it end to end).
    pub fn sample_telemetry(&self, now: SimTime) {
        if !self.telemetry.enabled() {
            return;
        }
        let tm = &self.telemetry;
        for (k, steer) in self.steering.iter().enumerate() {
            for w in 0..steer.workers() {
                tm.gauge(
                    &format!("steer.iohost{k}.worker{w}.depth"),
                    now,
                    steer.load_of(crate::iohost::WorkerId(w)) as f64,
                );
            }
        }
        for (b, be) in self.backends.iter().enumerate() {
            tm.gauge(&format!("backend.{b}.pending"), now, be.pending as f64);
        }
        for (b, wp) in self.worker_poll.iter().enumerate() {
            tm.gauge(
                &format!("poll.backend{b}.mode"),
                now,
                match wp.mode() {
                    PollMode::Interrupt => 0.0,
                    PollMode::Polling => 1.0,
                },
            );
            tm.counter(
                &format!("poll.backend{b}.doorbells"),
                now,
                wp.doorbells as f64,
            );
            tm.counter(
                &format!("poll.backend{b}.polled"),
                now,
                wp.polled_arrivals as f64,
            );
        }
        for (v, vm) in self.vms.iter().enumerate() {
            for q in vm.ring_audit() {
                tm.gauge(
                    &format!("ring.vm{v}.{}.free", q.name),
                    now,
                    q.free_descriptors as f64,
                );
                tm.gauge(
                    &format!("ring.vm{v}.{}.inflight", q.name),
                    now,
                    f64::from(q.in_flight_chains),
                );
                tm.counter(
                    &format!("ring.vm{v}.{}.kicks_suppressed", q.name),
                    now,
                    q.driver.kicks_suppressed as f64,
                );
                tm.counter(
                    &format!("ring.vm{v}.{}.signals_suppressed", q.name),
                    now,
                    q.device.signals_suppressed as f64,
                );
            }
        }
        for (h, ladder) in self.health.iter().enumerate() {
            let route = match ladder.route() {
                Route::Remote(k) => k as f64,
                Route::Local => self.config.num_iohosts as f64,
            };
            tm.gauge(&format!("health.vmhost{h}.route"), now, route);
            for (k, mon) in ladder.targets().iter().enumerate() {
                tm.gauge(
                    &format!("health.vmhost{h}.iohost{k}.state"),
                    now,
                    health_state_ordinal(mon.state()),
                );
            }
        }
        for (k, adm) in self.admission.iter().enumerate() {
            tm.counter(
                &format!("admission.iohost{k}.offered"),
                now,
                adm.total_offered() as f64,
            );
            tm.counter(
                &format!("admission.iohost{k}.shed"),
                now,
                adm.total_shed() as f64,
            );
            tm.gauge(
                &format!("admission.iohost{k}.breaker_open"),
                now,
                f64::from(u8::from(adm.breaker_open(now))),
            );
        }
        let outstanding: usize = self.retx.iter().map(BlockRetx::outstanding).sum();
        tm.gauge("retx.outstanding", now, outstanding as f64);
        for (v, t) in self.slo.tenants().iter().enumerate() {
            tm.gauge(
                &format!("slo.vm{v}.p50_us"),
                now,
                t.latency.percentile(50.0),
            );
            tm.gauge(
                &format!("slo.vm{v}.p99_us"),
                now,
                t.latency.percentile(99.0),
            );
            tm.counter(&format!("slo.vm{v}.completed"), now, t.completed as f64);
        }
    }

    /// Aggregated virtqueue operation counters across every VM's queues —
    /// the notification-economics surface (kicks, signals, suppression)
    /// that ring-layout ablations compare.
    pub fn ring_ops(&self) -> vrio_virtio::RingOps {
        let mut ops = vrio_virtio::RingOps::default();
        for vm in &self.vms {
            ops.add(&vm.ring_ops());
        }
        ops
    }

    /// Folds the run's Table 3 event counters, reliability counters, and
    /// per-ring operation counts into a metrics registry.
    pub fn record_metrics(&self, m: &mut vrio_trace::MetricsRegistry) {
        self.counters.record(m);
        self.reliability_report().record(m);
        let ops = self.ring_ops();
        m.counter_add("rings.chains_published", ops.chains_published);
        m.counter_add("rings.used_reaped", ops.used_reaped);
        m.counter_add("rings.driver_kicks", ops.driver_kicks);
        m.counter_add("rings.chains_popped", ops.chains_popped);
        m.counter_add("rings.used_pushed", ops.used_pushed);
        m.counter_add("rings.driver_signals", ops.driver_signals);
        m.counter_add("rings.kicks_suppressed", ops.kicks_suppressed);
        m.counter_add("rings.signals_suppressed", ops.signals_suppressed);
        let (mut to_poll, mut to_intr, mut polled, mut doorbells) = (0u64, 0u64, 0u64, 0u64);
        for wp in &self.worker_poll {
            to_poll += wp.to_polling;
            to_intr += wp.to_interrupt;
            polled += wp.polled_arrivals;
            doorbells += wp.doorbells;
        }
        m.counter_add("poll.to_polling", to_poll);
        m.counter_add("poll.to_interrupt", to_intr);
        m.counter_add("poll.polled_arrivals", polled);
        m.counter_add("poll.doorbells", doorbells);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrio_block::BlockKind;

    #[test]
    fn config_simple_defaults() {
        let c = TestbedConfig::simple(IoModel::Vrio, 3);
        assert_eq!(c.num_vms, 3);
        assert_eq!(c.iohost_rx_ring, vrio_net::RX_RING_LARGE as u64);
        assert_eq!(c.channel_loss, 0.0);
        assert!(c.sidecore_mwait_wake.is_none());
        let t = c.with_tails();
        assert!(t.tail_model && t.service_jitter > 0.0);
    }

    #[test]
    fn backend_core_counts_per_model() {
        // Elvis/baseline: per-VMhost backends; vRIO: total workers.
        let mut c = TestbedConfig::simple(IoModel::Elvis, 4);
        c.num_vmhosts = 2;
        c.backend_cores = 2;
        assert_eq!(Testbed::new(c.clone()).backends.len(), 4);
        c.model = IoModel::Vrio;
        assert_eq!(Testbed::new(c).backends.len(), 2);
    }

    #[test]
    fn resource_charge_queues_and_counts_waiters() {
        let mut r = Resource::default();
        let e1 = r.charge(SimTime::ZERO, SimDuration::micros(10));
        assert_eq!(e1, SimTime::from_nanos(10_000));
        let e2 = r.charge(SimTime::from_nanos(5_000), SimDuration::micros(10));
        assert_eq!(e2, SimTime::from_nanos(20_000));
        assert_eq!(r.waited, 1);
        assert_eq!(r.served, 2);
    }

    #[test]
    fn pickup_delay_mwait_penalty_only_when_idle() {
        let mut c = TestbedConfig::simple(IoModel::Vrio, 1);
        c.sidecore_mwait_wake = Some(SimDuration::micros(2));
        let mut tb = Testbed::new(c);
        let base = tb.config.costs.poll_pickup;
        // Idle worker: pays the wake-up.
        assert_eq!(
            tb.pickup_delay(0, SimTime::ZERO),
            base + SimDuration::micros(2)
        );
        // Busy worker: plain poll pickup.
        tb.backends[0].charge(SimTime::ZERO, SimDuration::micros(50));
        assert_eq!(tb.pickup_delay(0, SimTime::from_nanos(10_000)), base);
    }

    #[test]
    fn interpose_cost_zero_for_optimum_and_empty_chain() {
        let mut tb = Testbed::new(TestbedConfig::simple(IoModel::Vrio, 1));
        assert_eq!(tb.interpose_cost(4096), SimDuration::ZERO);
        tb.chain
            .push(Box::new(crate::interpose::MeteringService::new()));
        assert!(tb.interpose_cost(4096) > SimDuration::ZERO);
        let mut opt = Testbed::new(TestbedConfig::simple(IoModel::Optimum, 1));
        opt.chain
            .push(Box::new(crate::interpose::MeteringService::new()));
        assert_eq!(opt.interpose_cost(4096), SimDuration::ZERO);
    }

    #[test]
    fn jitter_disabled_is_identity() {
        let mut tb = Testbed::new(TestbedConfig::simple(IoModel::Elvis, 1));
        let d = SimDuration::micros(5);
        assert_eq!(tb.jitter(d), d);
        tb.config.service_jitter = 0.1;
        // With jitter the distribution straddles the base value.
        let draws: Vec<u64> = (0..50).map(|_| tb.jitter(d).as_nanos()).collect();
        assert!(draws.iter().any(|&x| x != d.as_nanos()));
    }

    #[test]
    fn tail_extra_is_rare_and_positive() {
        let mut tb = Testbed::new(TestbedConfig::simple(IoModel::Vrio, 1).with_tails());
        let n = 50_000;
        let hits = (0..n).filter(|_| !tb.tail_extra().is_zero()).count();
        let frac = hits as f64 / n as f64;
        assert!(frac > 0.0005 && frac < 0.01, "outlier fraction {frac}");
    }

    #[test]
    fn gen_numa_penalty_applies_past_core_3() {
        let mut c = TestbedConfig::simple(IoModel::Vrio, 20);
        c.num_vmhosts = 4;
        c.numa_generators = true;
        let tb = Testbed::new(c);
        // VM 0 sits on generator core 0 of its machine: local socket.
        assert_eq!(tb.gen_extra(0), SimDuration::ZERO);
        // VM 12 is the 4th VM of its generator (index 3): remote socket.
        assert!(tb.gen_extra(12) > SimDuration::ZERO);
        // Deeper remote cores pay progressively more.
        assert!(tb.gen_extra(16) > tb.gen_extra(12));
    }

    #[test]
    fn blk_flow_executes_real_store_ops() {
        let mut tb = Testbed::new(TestbedConfig::simple(IoModel::Elvis, 1));
        let mut eng = Engine::new();
        let req = vrio_block::BlockRequest::write(
            vrio_block::RequestId(1),
            16,
            Bytes::from(vec![0xEEu8; 512]),
        );
        blk_request(&mut tb, &mut eng, 0, req, |_, _, o| {
            assert_eq!(o.status, vrio_virtio::BLK_S_OK);
        });
        eng.run(&mut tb);
        assert_eq!(
            &tb.disk_stores[0].read(16 * 512, 4).unwrap()[..],
            &[0xEE; 4]
        );
    }

    #[test]
    #[should_panic(expected = "no paravirtual block path")]
    fn optimum_block_path_panics() {
        let mut tb = Testbed::new(TestbedConfig::simple(IoModel::Optimum, 1));
        let mut eng = Engine::new();
        let req = vrio_block::BlockRequest::read(vrio_block::RequestId(1), 0, 512);
        blk_request(&mut tb, &mut eng, 0, req, |_, _, _| {});
    }

    #[test]
    #[should_panic(
        expected = "block write of 65536 bytes makes a 65568-byte vRIO message, \
                               over the 65536-byte TSO maximum"
    )]
    fn oversized_vrio_write_is_rejected_at_submit() {
        let mut tb = Testbed::new(TestbedConfig::simple(IoModel::Vrio, 1));
        let data = Bytes::from(vec![0u8; 64 << 10]);
        let req = vrio_block::BlockRequest::write(vrio_block::RequestId(1), 0, data);
        blk_request(&mut tb, &mut Engine::new(), 0, req, |_, _, _| {});
    }

    #[test]
    fn flush_requests_complete() {
        for model in [IoModel::Elvis, IoModel::Vrio, IoModel::Baseline] {
            let mut tb = Testbed::new(TestbedConfig::simple(model, 1));
            let mut eng = Engine::new();
            let req = vrio_block::BlockRequest::flush(vrio_block::RequestId(9));
            assert_eq!(req.kind, BlockKind::Flush);
            let done = std::rc::Rc::new(std::cell::Cell::new(false));
            let d = done.clone();
            blk_request(&mut tb, &mut eng, 0, req, move |_, _, o| {
                assert_eq!(o.status, vrio_virtio::BLK_S_OK);
                d.set(true);
            });
            eng.run(&mut tb);
            assert!(done.get(), "model {model}");
        }
    }
}
