//! Runs a workload, gates its correctness, and turns repetitions into
//! named metrics: end-to-end metrics from untraced repetitions, per-layer
//! metrics from the traced run.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

use crate::alloc::HeapSampler;
use crate::calib::timed_setup;
use crate::chaos;
use crate::flows::{run_rep, Mode, Rep};
use crate::layers::{replay, LayerCosts};
use crate::plan::{plan, Plan, Workload};
use crate::spans::SpanLog;
use crate::Args;
use vrio_hv::ReliabilityCounters;

/// Measured repetitions per run, at least (more while time remains).
const MIN_REPS: usize = 5;
/// Repetitions per run, at most.
const MAX_REPS: usize = 400;

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Requests submitted to the simulator across all repetitions.
    pub attempted: u64,
    /// Requests counted as failed (all of them when any check failed).
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Digest of the simulated outputs, identical in every repetition.
    pub digest: u64,
    /// Informational lines for the human-readable report.
    pub notes: Vec<String>,
    /// Failed checks.
    pub failures: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Counts a repetition's submitted requests and folds in its checks.
    fn gate(&mut self, label: &str, rep: &Rep) {
        self.attempted += rep.offered - rep.refused;
        for f in &rep.failures {
            self.failures.push(format!("{label}: {f}"));
        }
        if rep.failed > 0 && rep.failures.is_empty() {
            self.failures
                .push(format!("{label}: {} failed completions", rep.failed));
        }
        if rep.digest != self.digest {
            self.failures.push(format!(
                "{label}: sim_digest {:016x} differs from the check repetition's {:016x}",
                rep.digest, self.digest
            ));
        }
    }

    fn seal(&mut self) {
        self.attempted = self.attempted.max(1);
        self.correct = self.failures.is_empty();
        self.failed = if self.correct { 0 } else { self.attempted };
    }

    /// Prints the human-readable block for workload `w`.
    pub fn print_human(&self, w: Workload) {
        println!("== {} ==", w.name());
        for n in &self.notes {
            println!("  {n}");
        }
        for m in &self.metrics {
            println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!("  sim_digest {:016x}", self.digest);
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
        println!(
            "  correctness: {}",
            if self.correct { "pass" } else { "FAIL" }
        );
    }

    /// The one-line JSON result.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Runs workload `w`, turning a panic inside the simulator into a failed
/// outcome instead of a crash.
pub fn run_guarded(w: Workload, args: &Args) -> Outcome {
    match catch_unwind(AssertUnwindSafe(|| run(w, args))) {
        Ok(o) => o,
        Err(p) => {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".into());
            let mut o = Outcome::default();
            o.failures.push(format!("the simulator panicked: {msg}"));
            o.seal();
            o
        }
    }
}

pub fn run(w: Workload, args: &Args) -> Outcome {
    match (w, args.trace) {
        (Workload::Chaos, false) => chaos_e2e(args),
        (Workload::Chaos, true) => chaos_traced(args),
        (_, false) => plan_e2e(plan(w, args.seed, args.scale), args),
        (_, true) => plan_traced(plan(w, args.seed, args.scale), args),
    }
}

/// Median of `v` (0 when empty).
fn median(v: &[f64]) -> f64 {
    let mut s: Vec<f64> = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// First transmissions over all block transmissions (0 when nothing was
/// sent).
fn first_try_ratio(rel: &ReliabilityCounters) -> f64 {
    ratio(
        rel.block_sent as f64,
        (rel.block_sent + rel.retransmissions) as f64,
    )
}

fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// The end-to-end metrics, each a median over the measured repetitions.
/// Host times are reported in units of the reference kernel (see
/// `calib`): `wall / ref` per repetition. Set-up is in seconds at the
/// nominal memory-copy speed (see `calib::timed_setup`).
#[allow(clippy::too_many_arguments)]
fn e2e_metrics(
    o: &mut Outcome,
    walls: &[f64],
    refs: &[f64],
    completed: &[u64],
    allocs: &[u64],
    heap: &[f64],
    setups: &[f64],
    offered: u64,
) {
    let wall_ref: Vec<f64> = walls.iter().zip(refs).map(|(w, r)| w / r).collect();
    let per = |f: &dyn Fn(usize) -> f64| median(&(0..walls.len()).map(f).collect::<Vec<_>>());
    o.metric("wall_ref", median(&wall_ref), "ref");
    o.metric(
        "req_per_ref",
        per(&|i| completed[i] as f64 / wall_ref[i]),
        "1/ref",
    );
    o.metric(
        "allocs_per_req",
        per(&|i| allocs[i] as f64 / completed[i] as f64),
        "count",
    );
    o.metric("peak_heap_mb", median(heap), "MiB");
    o.metric(
        "completed_frac",
        ratio(completed[0] as f64, offered as f64),
        "ratio",
    );
    o.metric("setup_s", median(setups), "s");
}

#[allow(clippy::too_many_arguments)]
fn e2e_notes(
    o: &mut Outcome,
    reps: usize,
    walls: &[f64],
    refs: &[f64],
    raw_setups: &[f64],
    offered: u64,
    completed: u64,
    refused: u64,
) {
    let mut sorted = walls.to_vec();
    sorted.sort_by(f64::total_cmp);
    o.notes.push(format!(
        "{reps} measured repetitions; host wall_s min {:.4} median {:.4} max {:.4}; reference kernel median {:.5} s",
        sorted.first().copied().unwrap_or(0.0),
        median(walls),
        sorted.last().copied().unwrap_or(0.0),
        median(refs)
    ));
    o.notes.push(format!(
        "host req_per_host_s {:.1} (completed per host second at the median wall); host setup_s median {:.5}",
        ratio(completed as f64, median(walls)),
        median(raw_setups)
    ));
    o.notes.push(format!(
        "per repetition: {offered} offered, {completed} completed, {refused} refused; failed_frac {:.6}",
        ratio((offered - completed) as f64, offered as f64)
    ));
}

/// End-to-end run of a plan workload.
fn plan_e2e(plan: Plan, args: &Args) -> Outcome {
    let plan = Rc::new(plan);
    let check = run_rep(&plan, Mode::Check);
    let mut o = Outcome {
        digest: check.digest,
        ..Outcome::default()
    };
    o.notes
        .push(format!("inputs fingerprint {:016x}", plan.fingerprint()));
    o.gate("check", &check);
    let mut reps = Vec::new();
    let mut heap = Vec::new();
    let mut refs = Vec::new();
    let sampler = HeapSampler::start();
    let t0 = Instant::now();
    while reps.len() < MIN_REPS
        || (t0.elapsed().as_secs_f64() < args.seconds && reps.len() < MAX_REPS)
    {
        sampler.reset();
        let r = run_rep(&plan, Mode::Plain);
        heap.push(sampler.peak_mib());
        o.gate("repetition", &r);
        refs.push(r.ref_s);
        reps.push(r);
    }
    sampler.stop();
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let completed: Vec<u64> = reps.iter().map(|r| r.completed).collect();
    let allocs: Vec<u64> = reps.iter().map(|r| r.allocs).collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_nominal_s).collect();
    let raw_setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    e2e_metrics(
        &mut o,
        &walls,
        &refs,
        &completed,
        &allocs,
        &heap,
        &setups,
        check.offered,
    );
    e2e_notes(
        &mut o,
        reps.len(),
        &walls,
        &refs,
        &raw_setups,
        check.offered,
        check.completed,
        check.refused,
    );
    o.seal();
    o
}

/// The traced-run repetitions of one plan.
struct TracedSet {
    check: Rep,
    plain_wall: f64,
    ref_s: f64,
    traced: Vec<Rep>,
    oracle: Rep,
    tracer: Rep,
    telemetry: Rep,
    costs: LayerCosts,
    spans: Option<SpanLog>,
}

fn traced_set(o: &mut Outcome, plan: Plan, seconds: f64) -> TracedSet {
    let workers = plan.config.backend_cores * plan.config.num_iohosts;
    let vms = plan.config.num_vms;
    let aes = plan.aes_key.is_some();
    let plan = Rc::new(plan);
    let check = run_rep(&plan, Mode::Check);
    o.digest = check.digest;
    o.gate("check", &check);
    let repeat = |mode: Mode, budget: f64, o: &mut Outcome| {
        let mut reps = Vec::new();
        let t0 = Instant::now();
        while reps.len() < 3 || (t0.elapsed().as_secs_f64() < budget && reps.len() < MAX_REPS) {
            let r = run_rep(&plan, mode);
            o.gate(&format!("{mode:?} repetition"), &r);
            reps.push(r);
        }
        reps
    };
    let plain = repeat(Mode::Plain, seconds * 0.3, o);
    let mut traced = repeat(Mode::Traced, seconds * 0.3, o);
    let observer = |mode: Mode, o: &mut Outcome| {
        let r = run_rep(&plan, mode);
        o.gate(&format!("{mode:?} repetition"), &r);
        r
    };
    let oracle = observer(Mode::Oracle, o);
    let tracer = observer(Mode::Tracer, o);
    let telemetry = observer(Mode::Telemetry, o);
    let mut spans = traced.last_mut().and_then(|r| r.spans.take());
    let sizes = check.sizes.clone().unwrap_or_default();
    let costs = replay(&sizes, vms, workers, aes, &mut spans);
    TracedSet {
        plain_wall: median(&plain.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
        ref_s: median(&plain.iter().map(|r| r.ref_s).collect::<Vec<_>>()),
        check,
        traced,
        oracle,
        tracer,
        telemetry,
        costs,
        spans,
    }
}

/// Per-layer metrics from a traced set. Counts come from the check
/// repetition, host times from the traced repetitions and the replays.
fn layer_metrics(o: &mut Outcome, t: &TracedSet) {
    let c = &t.check;
    let k = &t.costs;
    let n = c.completed as f64;
    let per = |x: u64| ratio(x as f64, n);
    let scope = |name: &str| -> (f64, f64) {
        let (mut calls, mut ns) = (0u64, 0f64);
        for r in &t.traced {
            if let Some(s) = r.prof.as_ref().and_then(|p| p.scope(name)) {
                calls += s.calls;
                ns += s.total.as_nanos() as f64;
            }
        }
        let reps = t.traced.len().max(1) as f64;
        (ratio(ns, calls as f64), calls as f64 / reps)
    };
    let (pop_ns, pop_calls) = scope("engine.pop");
    let (push_ns, push_calls) = scope("engine.push");
    let (callback_ns, _) = scope("engine.callback");
    let traced_wall = median(&t.traced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let issues: u64 = t.traced.iter().map(|r| r.issues).sum();
    let issue_ns: u64 = t.traced.iter().map(|r| r.issue_ns).sum();
    let issue_allocs: u64 = t.traced.iter().map(|r| r.issue_allocs).sum();

    let wall_ns_per_req = ratio(t.plain_wall * 1e9, n);
    let chains = per(c.ring.chains_published);
    let attempts = c.reliability.block_sent + c.reliability.retransmissions;
    let msgs = per(c.rr_completed + attempts);
    let engine_ns = ratio(pop_ns * pop_calls + push_ns * push_calls, n);
    let layers_ns = chains * k.virtio_roundtrip_ns
        + msgs * k.codec_ns_per_msg
        + per(c.skb_acquired) * k.tso_train_ns
        + per(attempts) * k.ramdisk_ns_per_op
        + per(c.aes_passes) * k.aes_ns_per_pass
        + per(c.steers) * k.steer_ns;

    o.metric("sim.events_per_req", per(c.events), "count");
    o.metric(
        "sim.host_ns_per_event",
        ratio(t.plain_wall * 1e9, c.events as f64),
        "ns",
    );
    o.metric("sim.pop_ns", pop_ns, "ns");
    o.metric("sim.push_ns", push_ns, "ns");
    o.metric("sim.callback_ns", callback_ns, "ns");
    o.metric("sim.prof_scope_ns", k.prof_scope_ns, "ns");
    o.metric(
        "testbed.issue_ns",
        ratio(issue_ns as f64, issues as f64),
        "ns",
    );
    o.metric(
        "testbed.issue_allocs",
        ratio(issue_allocs as f64, issues as f64),
        "count",
    );
    o.metric(
        "testbed.residual_ns_per_req",
        wall_ns_per_req - engine_ns - layers_ns,
        "ns",
    );
    o.metric("virtio.chains_per_req", chains, "count");
    o.metric(
        "virtio.notifies_per_req",
        per(c.ring.driver_kicks + c.ring.driver_signals),
        "count",
    );
    o.metric("virtio.roundtrip_ns", k.virtio_roundtrip_ns, "ns");
    o.metric("hv.exits_per_req", per(c.counters.sync_exits), "count");
    o.metric(
        "hv.interrupts_per_req",
        per(c.counters.guest_interrupts
            + c.counters.interrupt_injections
            + c.counters.host_interrupts
            + c.counters.iohost_interrupts),
        "count",
    );
    o.metric("proto.msgs_per_req", msgs, "count");
    o.metric("proto.codec_ns_per_kib", k.codec_ns_per_kib, "ns");
    // Trains the simulator reassembled, each of the inputs' mean segment
    // count (`finish` gates the two train counts against each other).
    o.metric(
        "net.tso_segments_per_req",
        per(c.skb_acquired) * ratio(c.tso_segments as f64, c.tso_trains as f64),
        "count",
    );
    o.metric("net.tso_train_ns", k.tso_train_ns, "ns");
    o.metric(
        "net.skb_recycle_ratio",
        ratio(c.skb_recycled as f64, c.skb_acquired as f64),
        "ratio",
    );
    o.metric("block.ops_per_req", per(attempts), "count");
    o.metric("block.ramdisk_ns_per_kib", k.ramdisk_ns_per_kib, "ns");
    o.metric(
        "interpose.kib_per_req",
        ratio(c.aes_bytes as f64 / 1024.0, n),
        "KiB",
    );
    o.metric("interpose.aes_ns_per_kib", k.aes_ns_per_kib, "ns");
    o.metric("iohost.steer_ns", k.steer_ns, "ns");
    o.metric("iohost.contention", c.contention, "ratio");
    o.metric(
        "transport.retx_per_req",
        per(c.reliability.retransmissions),
        "count",
    );
    o.metric(
        "transport.first_try_ratio",
        first_try_ratio(&c.reliability),
        "ratio",
    );
    o.metric(
        "oracle.ns_per_req",
        ratio((t.oracle.wall_s - t.plain_wall) * 1e9, n),
        "ns",
    );
    o.metric(
        "telemetry.sample_ns",
        ratio(t.telemetry.sample_ns as f64, t.telemetry.samples as f64),
        "ns",
    );
    o.metric(
        "trace.overhead_frac",
        ratio(t.tracer.wall_s, t.plain_wall) - 1.0,
        "ratio",
    );
    o.metric("health.failovers", c.reliability.failovers as f64, "count");
    o.metric("admission.shed_frac", 0.0, "ratio");
    o.metric("runner.parallel_efficiency", 0.0, "ratio");
    o.metric(
        "bench.trace_overhead_frac",
        ratio(traced_wall, t.plain_wall) - 1.0,
        "ratio",
    );
    o.metric("bench.wall_s", t.plain_wall, "s");
    o.metric("bench.ref_s", t.ref_s, "s");
    o.notes.push(format!(
        "traced run: untraced wall {:.4} s, traced wall {:.4} s ({} traced repetitions)",
        t.plain_wall,
        traced_wall,
        t.traced.len()
    ));
}

fn write_spans(o: &mut Outcome, args: &Args, w: Workload, spans: Option<&SpanLog>) {
    let Some(spans) = spans else { return };
    let dir = std::path::Path::new(&args.spans_out);
    let path = dir.join(format!("spans-{}-seed{}.json", w.name(), args.seed));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, spans.to_json())) {
        Ok(()) => o.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => o
            .notes
            .push(format!("spans not written to {}: {e}", path.display())),
    }
}

/// Traced run of a plan workload.
fn plan_traced(plan: Plan, args: &Args) -> Outcome {
    let w = plan.workload;
    let mut o = Outcome::default();
    o.notes
        .push(format!("inputs fingerprint {:016x}", plan.fingerprint()));
    let t = traced_set(&mut o, plan, args.seconds);
    layer_metrics(&mut o, &t);
    write_spans(&mut o, args, w, t.spans.as_ref());
    o.seal();
    o
}

/// Folds one chaos run's checks into the outcome.
fn chaos_gate(o: &mut Outcome, label: &str, rep: &chaos::ChaosRep) {
    o.attempted += rep.offered;
    for f in &rep.failures {
        o.failures.push(format!("{label}: {f}"));
    }
    if rep.digest != o.digest {
        o.failures.push(format!(
            "{label}: sim_digest {:016x} differs from the single-thread check run's {:016x}",
            rep.digest, o.digest
        ));
    }
}

/// End-to-end run of the chaos workload. The check run uses one thread,
/// the measured runs two, so equal digests also prove thread-count
/// byte-identity.
fn chaos_e2e(args: &Args) -> Outcome {
    let cs = chaos::campaigns(args.seed, args.scale);
    let check = chaos::run_all(&cs, 1, false);
    let mut o = Outcome {
        digest: check.digest,
        ..Outcome::default()
    };
    chaos_gate(&mut o, "check", &check);
    let threads = threads();
    let mut reps = Vec::new();
    let mut setups = Vec::new();
    let mut raw_setups = Vec::new();
    let mut heap = Vec::new();
    let mut refs = Vec::new();
    let sampler = HeapSampler::start();
    let t0 = Instant::now();
    while reps.len() < MIN_REPS
        || (t0.elapsed().as_secs_f64() < args.seconds && reps.len() < MAX_REPS)
    {
        let ((), raw, nominal) = timed_setup(|| chaos::setup(&cs));
        raw_setups.push(raw);
        setups.push(nominal);
        sampler.reset();
        let r = chaos::run_all(&cs, threads, true);
        heap.push(sampler.peak_mib());
        chaos_gate(&mut o, "repetition", &r);
        refs.push(r.ref_s);
        reps.push(r);
    }
    sampler.stop();
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let completed: Vec<u64> = reps.iter().map(|r| r.completed).collect();
    let allocs: Vec<u64> = reps.iter().map(|r| r.allocs).collect();
    e2e_metrics(
        &mut o,
        &walls,
        &refs,
        &completed,
        &allocs,
        &heap,
        &setups,
        check.offered,
    );
    o.notes
        .push(format!("{threads} runner threads; check run on 1 thread"));
    e2e_notes(
        &mut o,
        reps.len(),
        &walls,
        &refs,
        &raw_setups,
        check.offered,
        check.completed,
        0,
    );
    o.seal();
    o
}

/// Traced run of the chaos workload: the runner's efficiency and the
/// chaos-only layers from the campaigns themselves, everything else from
/// the probe (see `chaos::probe_plan`).
fn chaos_traced(args: &Args) -> Outcome {
    let cs = chaos::campaigns(args.seed, args.scale);
    let check = chaos::run_all(&cs, 1, false);
    let mut o = Outcome {
        digest: check.digest,
        ..Outcome::default()
    };
    chaos_gate(&mut o, "check", &check);
    let threads = threads();
    let mut walls = Vec::new();
    for _ in 0..2 {
        let r = chaos::run_all(&cs, threads, false);
        chaos_gate(&mut o, "repetition", &r);
        walls.push(r.wall_s);
    }
    let chaos_digest = o.digest;
    let mut probe = Outcome::default();
    let mut t = traced_set(&mut probe, chaos::probe_plan(&cs[0]), args.seconds * 0.5);
    o.attempted += probe.attempted;
    o.failures
        .extend(probe.failures.iter().map(|f| format!("probe: {f}")));
    let serial = chaos::serial_replica_wall(&cs, &mut t.spans);
    layer_metrics(&mut o, &t);
    o.digest = chaos_digest;
    let rel = &check.reliability;
    let n = check.completed as f64;
    let set = |o: &mut Outcome, name: &str, value: f64| {
        if let Some(m) = o.metrics.iter_mut().find(|m| m.name == name) {
            m.value = value;
        }
    };
    set(
        &mut o,
        "transport.retx_per_req",
        ratio(rel.retransmissions as f64, n),
    );
    set(&mut o, "transport.first_try_ratio", first_try_ratio(rel));
    set(&mut o, "health.failovers", rel.failovers as f64);
    set(
        &mut o,
        "admission.shed_frac",
        ratio(check.sheds as f64, check.offered as f64),
    );
    set(
        &mut o,
        "runner.parallel_efficiency",
        ratio(serial, threads as f64 * median(&walls)),
    );
    o.notes.push(format!(
        "runner: {threads} threads, campaign wall {:.4} s, serial replica wall {serial:.4} s; probe digest {:016x}",
        median(&walls),
        probe.digest
    ));
    write_spans(&mut o, args, Workload::Chaos, t.spans.as_ref());
    o.seal();
    o
}
