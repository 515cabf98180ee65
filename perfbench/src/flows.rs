//! One repetition of a plan-driven workload: builds the testbed, issues
//! every slot's closed loop through `net_request_response`/`blk_request`,
//! runs the engine to the horizon in `run_until` slices, drains it, and
//! checks the outputs.

use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use vrio::{
    blk_request, net_request_response, AesCtr, EncryptionService, HasTestbed, OracleConfig,
    RingOps, Testbed, TestbedConfig,
};
use vrio_block::{BlockRequest, RequestId};
use vrio_hv::{EventCounters, ReliabilityCounters};
use vrio_net::{fragment_count, MTU_VRIO_JUMBO};
use vrio_sim::{Engine, ProfReport, SimTime};
use vrio_trace::{TelemetryConfig, TraceConfig};
use vrio_virtio::BLK_S_OK;

use crate::alloc::allocations;
use crate::calib::{timed_setup, Sampler};
use crate::plan::{vrio_msg_len, Fnv, Plan, Req};
use crate::spans::{SpanLog, ROOT};

/// How a repetition runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untraced, every output checked in full against the shadow model;
    /// also collects the size mix the layer replays use.
    Check,
    /// Untraced, outputs folded into the digest only (the timed mode).
    Plain,
    /// The benchmark's spans plus the simulator's profiler scopes.
    Traced,
    /// The simulation oracle on (observers-on comparison).
    Oracle,
    /// The simulator's request-lifecycle tracer on.
    Tracer,
    /// Telemetry sampling on, each sample call timed.
    Telemetry,
}

/// Sizes the workload actually moved, for the layer replays.
#[derive(Debug, Clone, Default)]
pub struct Sizes {
    /// Request-response response lengths.
    pub rr: Vec<usize>,
    /// Request-response request lengths.
    pub rr_req: usize,
    /// Completed block requests: (is write, data length).
    pub blk: Vec<(bool, usize)>,
}

/// What one repetition measured and produced.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host seconds of set-up: `Testbed::new`, chain install, first issue.
    pub setup_s: f64,
    /// Set-up host seconds at the nominal memory-copy speed (see
    /// `calib::timed_setup`).
    pub setup_nominal_s: f64,
    /// Host seconds simulating to the horizon and draining.
    pub wall_s: f64,
    /// Host seconds of one reference unit, sampled between the slices
    /// (plain mode only; 0 otherwise).
    pub ref_s: f64,
    /// Heap allocations during the simulated run (set-up excluded).
    pub allocs: u64,
    /// Requests offered (submitted + refused).
    pub offered: u64,
    /// Requests refused before submission (the known TSO-bound defect).
    pub refused: u64,
    /// Requests completed.
    pub completed: u64,
    /// Request-response completions.
    pub rr_completed: u64,
    /// Completions whose output failed a check.
    pub failed: u64,
    /// First failure messages (capped).
    pub failures: Vec<String>,
    /// Engine events fired.
    pub events: u64,
    /// Digest of the simulated outputs.
    pub digest: u64,
    /// Table 3 counters.
    pub counters: EventCounters,
    /// Virtqueue operation counters.
    pub ring: RingOps,
    /// Transport/health reliability counters.
    pub reliability: ReliabilityCounters,
    /// SKBs acquired from the pool.
    pub skb_acquired: u64,
    /// SKBs acquired from the pool's free list (recycled).
    pub skb_recycled: u64,
    /// Share of backend charges that queued.
    pub contention: f64,
    /// Bytes passed through the interposition chain (completed bytes,
    /// scaled by executed over completed passes: a retransmitted request
    /// is interposed once per attempt that executes).
    pub aes_bytes: u64,
    /// Interposition passes executed (`InterpositionChain::processed`).
    pub aes_passes: u64,
    /// TSO trains the inputs call for (submitted block writes larger than
    /// the channel MTU); the simulator's own count is `skb_acquired`.
    pub tso_trains: u64,
    /// TSO segments in those trains (`fragment_count` of each message).
    pub tso_segments: u64,
    /// Steering assignments (one per submitted request).
    pub steers: u64,
    /// Sizes moved (check mode only).
    pub sizes: Option<Sizes>,
    /// Summed host ns inside issue calls (traced mode).
    pub issue_ns: u64,
    /// Summed allocations inside issue calls (traced mode).
    pub issue_allocs: u64,
    /// Issue calls made (traced mode).
    pub issues: u64,
    /// Profiler scopes (traced mode).
    pub prof: Option<ProfReport>,
    /// Benchmark spans (traced mode).
    pub spans: Option<SpanLog>,
    /// Summed host ns inside `sample_telemetry` (telemetry mode).
    pub sample_ns: u64,
    /// Telemetry samples taken (telemetry mode).
    pub samples: u64,
}

/// Tracks which AES-CTR nonces the interposed service has used, so the
/// shadow model can find the nonce of each completion. Nonces are drawn
/// in execution order, which is close to completion order; a
/// retransmitted request burns one nonce per extra execution, leaving
/// holes that are never claimed.
#[derive(Debug, Default)]
pub(crate) struct Nonces {
    used: Vec<bool>,
    /// Index of the last claimed nonce + 1.
    cursor: usize,
}

impl Nonces {
    /// Nonces start at 1. Finds an unclaimed nonce that maps `input` to
    /// `output` (searching near the last claim first, then everything
    /// below it), claims it and returns whether it found one.
    pub(crate) fn claim(&mut self, key: &[u8; 32], input: &[u8], output: &[u8]) -> bool {
        const AHEAD: usize = 4096;
        const BEHIND: usize = 256;
        let near = self.cursor.saturating_sub(BEHIND)..self.cursor + AHEAD;
        let far = 0..self.cursor.saturating_sub(BEHIND);
        let head = input.len().min(16);
        for n in near.chain(far) {
            if self.used.get(n).copied().unwrap_or(false) {
                continue;
            }
            let nonce = n as u64 + 1;
            if AesCtr::new(key, nonce).process(&input[..head]) != output[..head]
                || AesCtr::new(key, nonce).process(input) != output
            {
                continue;
            }
            if self.used.len() <= n {
                self.used.resize(n + 1, false);
            }
            self.used[n] = true;
            self.cursor = self.cursor.max(n + 1);
            return true;
        }
        false
    }
}

/// The shadow model: what every byte of every VM's disk must hold.
struct Shadow {
    disks: Vec<Vec<u8>>,
    key: Option<[u8; 32]>,
    out: Nonces,
    inb: Nonces,
    sizes: Sizes,
}

struct World {
    tb: Testbed,
    plan: Rc<Plan>,
    horizon: SimTime,
    cursor: Vec<usize>,
    pending: Vec<u32>,
    next_id: u64,
    rep: Rep,
    hash: Fnv,
    shadow: Option<Shadow>,
    spans: Option<SpanLog>,
    parent: u32,
}

impl HasTestbed for World {
    fn tb(&mut self) -> &mut Testbed {
        &mut self.tb
    }
}

impl World {
    fn fail(&mut self, msg: String) {
        self.rep.failed += 1;
        if self.rep.failures.len() < 8 {
            self.rep.failures.push(msg);
        }
    }
}

/// Issues the slot's next batch (skipping batches whose every request is
/// refused), unless the horizon has passed. A slot whose every batch is
/// refused stops.
fn issue_batch(w: &mut World, eng: &mut Engine<World>, slot: usize) {
    let plan = w.plan.clone();
    let s = &plan.slots[slot];
    for _ in 0..s.batches.len() {
        if eng.now() >= w.horizon {
            return;
        }
        let b = w.cursor[slot];
        w.cursor[slot] = (b + 1) % s.batches.len();
        let batch = &s.batches[b];
        w.rep.offered += batch.len() as u64;
        let submit = batch.iter().filter(|r| !r.refused()).count() as u32;
        w.rep.refused += batch.len() as u64 - u64::from(submit);
        if submit == 0 {
            continue;
        }
        w.pending[slot] = submit;
        for (i, req) in batch.iter().enumerate() {
            if !req.refused() {
                issue(w, eng, slot, b, i, req, s.vm);
            }
        }
        return;
    }
}

fn issue(
    w: &mut World,
    eng: &mut Engine<World>,
    slot: usize,
    b: usize,
    i: usize,
    req: &Req,
    vm: usize,
) {
    w.next_id += 1;
    let id = w.next_id;
    w.rep.steers += 1;
    let timed = w.spans.is_some().then(|| (allocations(), Instant::now()));
    match req {
        Req::Rr { resp_len } => {
            let request = w.plan.rr_request.clone();
            let app = w.plan.app_time;
            net_request_response(w, eng, vm, request, *resp_len, app, move |w, eng, o| {
                w.rep.rr_completed += 1;
                complete(
                    w,
                    eng,
                    slot,
                    b,
                    i,
                    o.latency.as_nanos(),
                    BLK_S_OK,
                    &o.response,
                );
            });
        }
        Req::Read { offset, len } => {
            let r = BlockRequest::read(RequestId(id), offset / 512, *len);
            blk_request(w, eng, vm, r, move |w, eng, o| {
                complete(w, eng, slot, b, i, o.latency.as_nanos(), o.status, &o.data);
            });
        }
        Req::Write { offset, data } => {
            let msg = vrio_msg_len(data.len());
            if msg > MTU_VRIO_JUMBO {
                w.rep.tso_trains += 1;
                w.rep.tso_segments += fragment_count(msg, MTU_VRIO_JUMBO) as u64;
            }
            let r = BlockRequest::write(RequestId(id), offset / 512, data.clone());
            blk_request(w, eng, vm, r, move |w, eng, o| {
                complete(w, eng, slot, b, i, o.latency.as_nanos(), o.status, &o.data);
            });
        }
    }
    if let Some((a0, t0)) = timed {
        let t1 = Instant::now();
        let a1 = allocations();
        w.rep.issue_ns += t1.duration_since(t0).as_nanos() as u64;
        w.rep.issue_allocs += a1 - a0;
        w.rep.issues += 1;
        let parent = w.parent;
        if let Some(log) = &mut w.spans {
            log.push("testbed.issue", t0, t1, parent, id);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn complete(
    w: &mut World,
    eng: &mut Engine<World>,
    slot: usize,
    b: usize,
    i: usize,
    latency_ns: u64,
    status: u8,
    data: &Bytes,
) {
    w.rep.completed += 1;
    let h = &mut w.hash;
    h.u64(slot as u64);
    h.u64(latency_ns);
    h.u64(u64::from(status));
    h.u64(data.len() as u64);
    if !data.is_empty() {
        h.bytes(&data[..data.len().min(8)]);
        h.bytes(&data[data.len().saturating_sub(8)..]);
    }
    let plan = w.plan.clone();
    let vm = plan.slots[slot].vm;
    let req = &plan.slots[slot].batches[b][i];
    let blk_len = match req {
        Req::Rr { .. } => None,
        Req::Read { len, .. } => Some(u64::from(*len)),
        Req::Write { data, .. } => Some(data.len() as u64),
    };
    if let (Some(len), Some(_)) = (blk_len, plan.aes_key) {
        w.rep.aes_passes += 1;
        w.rep.aes_bytes += len;
    }
    if status != BLK_S_OK {
        w.fail(format!(
            "slot {slot}: request completed with status {status}"
        ));
    } else if w.shadow.is_some() {
        check(w, vm, req, data);
    }
    w.pending[slot] -= 1;
    if w.pending[slot] == 0 {
        issue_batch(w, eng, slot);
    }
}

/// Checks one completion against the shadow model and advances it.
fn check(w: &mut World, vm: usize, req: &Req, data: &Bytes) {
    let Some(sh) = w.shadow.as_mut() else { return };
    let err = match req {
        Req::Rr { resp_len } => {
            sh.sizes.rr.push(*resp_len);
            if data.len() != *resp_len || data.iter().any(|&x| x != 0x5A) {
                Some(format!(
                    "vm{vm}: response of {} bytes, expected {resp_len} bytes of 0x5A",
                    data.len()
                ))
            } else {
                None
            }
        }
        Req::Read { offset, len } => {
            sh.sizes.blk.push((false, *len as usize));
            let (o, l) = (*offset as usize, *len as usize);
            let expect = &sh.disks[vm][o..o + l];
            let ok = match &sh.key {
                None => data[..] == *expect,
                Some(key) => data.len() == l && sh.inb.claim(key, expect, data),
            };
            (!ok).then(|| {
                format!("vm{vm}: read of {l} bytes at {o} does not return the bytes last written")
            })
        }
        Req::Write {
            offset,
            data: written,
        } => {
            sh.sizes.blk.push((true, written.len()));
            let o = *offset as usize;
            let l = written.len();
            match &sh.key {
                None => {
                    sh.disks[vm][o..o + l].copy_from_slice(written);
                    None
                }
                Some(key) => {
                    // The stored bytes must be the AES-CTR encryption of
                    // the written bytes under an unused outbound nonce.
                    let stored = w.tb.disk_stores[vm].read(o as u64, l as u64);
                    match stored {
                        Ok(stored) if sh.out.claim(key, written, &stored) => {
                            sh.disks[vm][o..o + l].copy_from_slice(&stored);
                            None
                        }
                        _ => Some(format!(
                            "vm{vm}: write of {l} bytes at {o} is not stored AES-encrypted"
                        )),
                    }
                }
            }
        }
    };
    if let Some(e) = err {
        w.fail(e);
    }
}

/// Set-up: `Testbed::new`, chain install, engine hooks, and the first
/// issue of every loop.
fn setup(
    plan: &Rc<Plan>,
    config: TestbedConfig,
    shadow: Option<Shadow>,
    mut spans: Option<SpanLog>,
) -> (World, Engine<World>) {
    let n_slots = plan.slots.len();
    let setup_span = spans.as_mut().map_or(ROOT, |s| s.open("setup", ROOT, 0));
    let mut tb = Testbed::new(config);
    if let Some(key) = plan.aes_key {
        tb.chain.push(Box::new(EncryptionService::new(key)));
    }
    let mut w = World {
        tb,
        plan: plan.clone(),
        horizon: SimTime::ZERO + plan.horizon,
        cursor: vec![0; n_slots],
        pending: vec![0; n_slots],
        next_id: 0,
        rep: Rep::default(),
        hash: Fnv::new(),
        shadow,
        spans,
        parent: setup_span,
    };
    let mut eng: Engine<World> = Engine::new();
    eng.set_profiler(w.tb.profiler.clone());
    if w.tb.trace.enabled() || w.tb.oracle.enabled() {
        let t = w.tb.trace.clone();
        let o = w.tb.oracle.clone();
        eng.set_probe(move |now| {
            t.on_engine_event();
            o.on_engine_event(now);
        });
    }
    if let Some(interval) = w.tb.telemetry.interval() {
        let mut at = SimTime::ZERO + interval;
        while at <= w.horizon {
            eng.schedule_at(at, |w: &mut World, eng| {
                let t = Instant::now();
                w.tb.sample_telemetry(eng.now());
                w.rep.sample_ns += t.elapsed().as_nanos() as u64;
                w.rep.samples += 1;
            });
            at += interval;
        }
    }
    for slot in 0..n_slots {
        issue_batch(&mut w, &mut eng, slot);
    }
    if let Some(s) = w.spans.as_mut() {
        s.close(setup_span);
    }
    (w, eng)
}

/// `run_until` slices per horizon.
const SLICES: u64 = 16;

/// Runs one repetition of `plan` in `mode`.
pub fn run_rep(plan: &Rc<Plan>, mode: Mode) -> Rep {
    let mut config = plan.config.clone();
    match mode {
        Mode::Traced => config.profile = true,
        Mode::Oracle => config.oracle = OracleConfig::on(),
        Mode::Tracer => config.trace = TraceConfig::memory(),
        Mode::Telemetry => config.telemetry = TelemetryConfig::sampling(plan.horizon / 64),
        Mode::Check | Mode::Plain => {}
    }
    let shadow = (mode == Mode::Check).then(|| Shadow {
        disks: vec![vec![0u8; config.block_capacity]; config.num_vms],
        key: plan.aes_key,
        out: Nonces::default(),
        inb: Nonces::default(),
        sizes: Sizes {
            rr_req: plan.rr_request.len(),
            ..Sizes::default()
        },
    });
    let spans = (mode == Mode::Traced).then(SpanLog::new);
    let ((mut w, mut eng), setup_s, setup_nominal_s) =
        timed_setup(|| setup(plan, config, shadow, spans));

    // The timed region is the sum of the slices; in plain mode the
    // reference kernel is sampled between them, outside it.
    let mut calib = (mode == Mode::Plain).then(|| Sampler::new(plan.reference));
    let (mut wall_s, mut allocs) = (0.0, 0);
    for k in 1..=SLICES + 1 {
        if let Some(c) = calib.as_mut() {
            c.sample(1);
        }
        let slice = w
            .spans
            .as_mut()
            .map_or(ROOT, |s| s.open("sim.run_until", ROOT, 0));
        w.parent = slice;
        let a0 = allocations();
        let t0 = Instant::now();
        if k <= SLICES {
            eng.run_until(&mut w, SimTime::ZERO + plan.horizon * k / SLICES);
        } else {
            eng.run(&mut w);
        }
        wall_s += t0.elapsed().as_secs_f64();
        allocs += allocations() - a0;
        if let Some(s) = w.spans.as_mut() {
            s.close(slice);
        }
    }
    if let Some(c) = calib.as_mut() {
        c.sample(1);
    }

    let mut rep = finish(w, eng.events_fired(), setup_s, wall_s, allocs);
    rep.setup_nominal_s = setup_nominal_s;
    rep.ref_s = calib.map_or(0.0, |c| c.reference_seconds());
    rep
}

/// Post-run checks (oracle, ledger conservation, SKB pool, drained
/// loops) and the digest of the simulated outputs.
fn finish(mut w: World, events: u64, setup_s: f64, wall_s: f64, allocs: u64) -> Rep {
    let tb = &w.tb;
    let mut errors = Vec::new();
    if tb.oracle.enabled() {
        tb.oracle.finish();
        tb.oracle.audit_pool("skb pool", &tb.skb_pool);
        let report = tb.oracle.report();
        if !report.violations.is_empty() {
            errors.push(format!("oracle: {:?}", report.violations.first()));
        }
    }
    if let Err(e) = tb.slo.check_conservation() {
        errors.push(format!("slo ledger: {e}"));
    }
    if tb.slo.total_completed() != w.rep.rr_completed {
        errors.push(format!(
            "slo ledger counts {} completions, the workload saw {}",
            tb.slo.total_completed(),
            w.rep.rr_completed
        ));
    }
    if let Err(e) = tb.skb_pool.leak_check() {
        errors.push(format!("skb pool: {e:?}"));
    }
    // The block path acquires one pooled SKB per reassembled TSO train
    // and runs once per executed transmission, so the program's train
    // count must match the trains the inputs call for.
    let trains = tb.skb_pool.acquired();
    let retransmitted = tb.reliability_report().retransmissions > 0;
    if trains < w.rep.tso_trains || (!retransmitted && trains != w.rep.tso_trains) {
        errors.push(format!(
            "the simulator reassembled {trains} TSO trains, the inputs call for {}",
            w.rep.tso_trains
        ));
    }
    if w.pending.iter().any(|&p| p != 0) {
        errors.push("a closed loop still has requests in flight after the drain".into());
    }
    let counters = tb.counters;
    let ring = tb.ring_ops();
    let reliability = tb.reliability_report();
    let mut h = w.hash;
    h.u64(w.rep.completed);
    h.u64(w.rep.refused);
    for c in [
        counters.sync_exits,
        counters.guest_interrupts,
        counters.interrupt_injections,
        counters.host_interrupts,
        counters.iohost_interrupts,
    ] {
        h.u64(c);
    }
    for c in [
        ring.chains_published,
        ring.used_reaped,
        ring.driver_kicks,
        ring.chains_popped,
        ring.used_pushed,
        ring.driver_signals,
        ring.kicks_suppressed,
        ring.signals_suppressed,
    ] {
        h.u64(c);
    }
    for c in [
        reliability.block_sent,
        reliability.block_completed,
        reliability.retransmissions,
        reliability.device_errors,
        reliability.stale_responses,
        reliability.channel_drops,
    ] {
        h.u64(c);
    }
    for t in tb.slo.tenants() {
        h.u64(t.completed);
        h.u64(t.latency.percentile(50.0).to_bits());
        h.u64(t.latency.percentile(99.0).to_bits());
    }
    let prof = tb.profiler.enabled().then(|| tb.profiler.export());
    let aes_passes: u64 = tb.chain.processed.values().sum();
    let aes_bytes = if w.rep.aes_passes == 0 {
        0
    } else {
        (u128::from(w.rep.aes_bytes) * u128::from(aes_passes) / u128::from(w.rep.aes_passes)) as u64
    };
    let contention = tb.backend_contention();
    let (skb_acquired, skb_recycled) = (tb.skb_pool.acquired(), tb.skb_pool.recycled());
    for e in errors {
        w.fail(e);
    }
    let shadow = w.shadow.take();
    let spans = w.spans.take();
    Rep {
        setup_s,
        wall_s,
        allocs,
        events,
        digest: h.finish(),
        counters,
        ring,
        reliability,
        skb_acquired,
        skb_recycled,
        contention,
        aes_passes,
        aes_bytes,
        sizes: shadow.map(|s| s.sizes),
        prof,
        spans,
        ..w.rep
    }
}
