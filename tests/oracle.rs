//! Integration tests for the simulation oracle: enabling it must be
//! strictly observe-only (bit-identical results with the oracle on or off,
//! even under active fault injection), it must report zero violations
//! across the real workloads — including retransmission, TSO segmentation,
//! failover and failback — and the metamorphic differential properties
//! that relate whole runs must hold.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use vrio::{blk_request, net_request_response, OracleConfig, Outage, Testbed, TestbedConfig};
use vrio_hv::IoModel;
use vrio_net::{FaultConfig, GeConfig};
use vrio_sim::{Engine, SimDuration, SimTime};
use vrio_trace::TraceConfig;
use vrio_workloads::{netperf_rr, netperf_stream, run_filebench, Personality, RrResult};

/// Active fault injection (the `tests/observability.rs` pattern): loss
/// bursts from a Gilbert–Elliott channel, delay spikes, and duplicated
/// responses. The oracle must neither perturb these nor trip over them.
fn faulty_config(model: IoModel, oracle: bool) -> TestbedConfig {
    let mut c = TestbedConfig::simple(model, 2);
    c.faults = FaultConfig {
        ge: Some(GeConfig {
            p_good_to_bad: 0.02,
            p_bad_to_good: 0.2,
            loss_good: 0.001,
            loss_bad: 0.3,
        }),
        delay_spike_prob: 0.01,
        delay_spike: SimDuration::micros(50),
        duplicate_prob: 0.01,
    };
    if oracle {
        c.oracle = OracleConfig::on();
    }
    c
}

fn assert_rr_bit_identical(off: &RrResult, on: &RrResult, what: &str) {
    // Discrete state: exact equality.
    assert_eq!(off.completed, on.completed, "{what} completed");
    assert_eq!(off.counters, on.counters, "{what} event counters");
    assert_eq!(off.reliability, on.reliability, "{what} reliability");
    // Continuous state: bit-identical, not approximately equal.
    assert_eq!(
        off.mean_latency_us.to_bits(),
        on.mean_latency_us.to_bits(),
        "{what} mean latency"
    );
    assert_eq!(
        off.requests_per_sec.to_bits(),
        on.requests_per_sec.to_bits(),
        "{what} throughput"
    );
    for p in [50.0, 99.0, 99.9, 100.0] {
        assert_eq!(
            off.histogram.percentile(p).to_bits(),
            on.histogram.percentile(p).to_bits(),
            "{what} p{p}"
        );
    }
}

#[test]
fn oracle_is_observation_only_for_rr_under_active_faults() {
    let d = SimDuration::millis(30);
    for model in IoModel::ALL {
        let off = netperf_rr(faulty_config(model, false), d);
        let on = netperf_rr(faulty_config(model, true), d);
        assert!(!off.oracle.enabled());
        assert!(on.oracle.enabled());
        assert_rr_bit_identical(&off, &on, &model.to_string());
        // And the checked run really checked something, cleanly.
        on.oracle.assert_clean(&format!("rr {model}"));
        let rep = on.oracle.report();
        assert!(rep.checks > 0, "{model}: oracle ran no checks");
        assert!(rep.flows_begun > 0, "{model}: no flows entered the ledger");
        assert_eq!(
            rep.flows_begun,
            rep.flows_completed + rep.flows_dropped,
            "{model}: ledger does not balance"
        );
    }
}

#[test]
fn oracle_is_observation_only_for_stream_and_filebench() {
    let d = SimDuration::millis(20);
    for model in [IoModel::Vrio, IoModel::Elvis] {
        let off_c = TestbedConfig::simple(model, 2);
        let mut on_c = off_c.clone();
        on_c.oracle = OracleConfig::on();

        let off = netperf_stream(off_c.clone(), d);
        let on = netperf_stream(on_c.clone(), d);
        assert_eq!(off.messages, on.messages, "{model} stream messages");
        assert_eq!(off.gbps.to_bits(), on.gbps.to_bits(), "{model} gbps");
        on.oracle.assert_clean(&format!("stream {model}"));
        assert!(on.oracle.report().checks > 0);

        // Filebench drives the block path: virtio blk rings, vRIO
        // retransmission and TSO segmentation for large files.
        let fb_off = run_filebench(off_c, Personality::Fileserver, d);
        let fb_on = run_filebench(on_c, Personality::Fileserver, d);
        assert_eq!(
            fb_off.ops_per_sec.to_bits(),
            fb_on.ops_per_sec.to_bits(),
            "{model} filebench ops"
        );
        assert_eq!(
            fb_off.reliability, fb_on.reliability,
            "{model} fb reliability"
        );
        fb_on.oracle.assert_clean(&format!("filebench {model}"));
        assert!(fb_on.oracle.report().checks > 0);
    }
}

#[test]
fn oracle_and_tracing_compose_and_stay_observation_only() {
    // Both observers at once: still bit-identical to neither, and the
    // oracle consumes the tracer's real span marks for its causality and
    // ring audits without disagreement.
    let d = SimDuration::millis(20);
    let plain = netperf_rr(faulty_config(IoModel::Vrio, false), d);
    let mut c = faulty_config(IoModel::Vrio, true);
    c.trace = TraceConfig::memory();
    let both = netperf_rr(c, d);
    assert_rr_bit_identical(&plain, &both, "vrio trace+oracle");
    both.oracle.assert_clean("trace+oracle");
    // With real spans the per-span causality chain is exercised.
    assert!(both.trace.enabled());
    assert!(both.oracle.report().checks > 0);
}

/// Drives `n` sequential block writes of `len` bytes on VM 0 and returns
/// the testbed (for its oracle and reliability counters).
fn drive_blk_writes(mut config: TestbedConfig, n: u64, len: usize) -> Testbed {
    config.oracle = OracleConfig::on();
    let mut tb = Testbed::new(config);
    let mut eng: Engine<Testbed> = Engine::new();

    // Issue sequentially: each completion triggers the next request.
    fn chain(tb: &mut Testbed, eng: &mut Engine<Testbed>, i: u64, n: u64, len: usize) {
        let req = vrio_block::BlockRequest::write(
            vrio_block::RequestId(i + 1),
            8 * i,
            Bytes::from(vec![i as u8; len]),
        );
        blk_request(tb, eng, 0, req, move |tb, eng, _outcome| {
            if i + 1 < n {
                chain(tb, eng, i + 1, n, len);
            }
        });
    }
    chain(&mut tb, &mut eng, 0, n, len);
    eng.run(&mut tb);
    tb.close_books();
    tb
}

#[test]
fn oracle_is_clean_across_blk_tso_and_retransmission() {
    // 32 KiB writes exceed the 8100-byte jumbo MTU, so every request
    // really segments and reassembles on the fake-TCP TSO path; 10 %
    // channel loss forces the retransmission machinery to re-attempt.
    let mut c = TestbedConfig::simple(IoModel::Vrio, 1);
    c.channel_loss = 0.10;
    let tb = drive_blk_writes(c, 40, 32 * 1024);
    let rel = tb.reliability_report();
    assert_eq!(
        rel.block_completed, 40,
        "every write completes exactly once"
    );
    assert!(
        rel.retransmissions > 0,
        "10% loss over 40 requests must retransmit at least once"
    );
    tb.oracle.assert_clean("blk tso+retx");
    let rep = tb.oracle.report();
    assert_eq!(rep.flows_begun, 40);
    assert_eq!(rep.flows_completed, 40);
    assert_eq!(
        rep.flows_dropped, 0,
        "blk flows never drop: retx covers loss"
    );
}

#[test]
fn oracle_is_clean_when_retransmission_exhausts_into_device_errors() {
    // Total loss: every attempt drops, the retx budget exhausts, and the
    // guest sees BLK_S_IOERR. The ledger still closes every flow exactly
    // once — a device error IS the completion.
    let mut c = TestbedConfig::simple(IoModel::Vrio, 1);
    c.channel_loss = 1.0;
    let tb = drive_blk_writes(c, 3, 512);
    let rel = tb.reliability_report();
    assert_eq!(rel.device_errors, 3, "all requests error out");
    tb.oracle.assert_clean("blk device errors");
    let rep = tb.oracle.report();
    assert_eq!(rep.flows_begun, 3);
    assert_eq!(rep.flows_completed, 3);
}

// ---------------------------------------------------------------------------
// Failover / failback (§4.6) under the oracle
// ---------------------------------------------------------------------------

/// Runs the §4.6 outage scenario — IOhost crash at t=1/3, recovery at
/// t=2/3 — and returns (completions, testbed). Mirrors the `repro
/// --failover` experiment including its generator-retry kicker: VM loops
/// silenced by pre-detection drops are restarted so the run exercises
/// fallback and failback instead of stalling.
fn run_failover(oracle: bool) -> (u64, Testbed) {
    let horizon = SimDuration::millis(60);
    let fail_at = SimTime::ZERO + horizon / 3;
    let recover_at = SimTime::ZERO + (horizon * 2u64) / 3;
    let mut cfg = TestbedConfig::simple(IoModel::Vrio, 2);
    cfg.iohost_outages = vec![Outage {
        fails_at: fail_at,
        recovers_at: Some(recover_at),
    }];
    if oracle {
        cfg.oracle = OracleConfig::on();
    }
    let mut tb = Testbed::new(cfg);
    let mut eng: Engine<Testbed> = Engine::new();
    let completed: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
    let last_done: Rc<RefCell<Vec<SimTime>>> = Rc::new(RefCell::new(vec![SimTime::ZERO; 2]));
    let end = SimTime::ZERO + horizon;

    fn issue(
        tb: &mut Testbed,
        eng: &mut Engine<Testbed>,
        vm: usize,
        end: SimTime,
        completed: Rc<RefCell<u64>>,
        last_done: Rc<RefCell<Vec<SimTime>>>,
    ) {
        net_request_response(
            tb,
            eng,
            vm,
            Bytes::from_static(b"x"),
            1,
            SimDuration::micros(4),
            move |tb, eng, _| {
                *completed.borrow_mut() += 1;
                last_done.borrow_mut()[vm] = eng.now();
                if eng.now() < end {
                    issue(tb, eng, vm, end, completed, last_done);
                }
            },
        );
    }
    for vm in 0..2 {
        issue(
            &mut tb,
            &mut eng,
            vm,
            end,
            completed.clone(),
            last_done.clone(),
        );
    }
    // Generator retry after the blackout: only loops silenced by the
    // crash are restarted (requests lost before failover detection).
    let retry_completed = completed.clone();
    let retry_done = last_done.clone();
    eng.schedule_at(
        fail_at + SimDuration::millis(1),
        move |tb: &mut Testbed, eng| {
            for vm in 0..2 {
                let stalled = eng.now() - retry_done.borrow()[vm] > SimDuration::micros(500);
                if stalled {
                    issue(
                        tb,
                        eng,
                        vm,
                        end,
                        retry_completed.clone(),
                        retry_done.clone(),
                    );
                }
            }
        },
    );
    eng.run(&mut tb);
    tb.close_books();
    let n = *completed.borrow();
    (n, tb)
}

#[test]
fn oracle_is_clean_and_invisible_across_failover_and_failback() {
    let (n_off, _) = run_failover(false);
    let (n_on, tb) = run_failover(true);
    // Observe-only even across the outage machinery.
    assert_eq!(n_off, n_on, "oracle changed the failover run");
    // The scenario really failed over and back...
    let rel = tb.reliability_report();
    assert!(rel.failovers > 0, "no failover happened");
    assert!(rel.failbacks > 0, "no failback happened");
    // ...dropped requests into the blackhole (accounted, not leaked)...
    let rep = tb.oracle.report();
    assert!(rep.flows_dropped > 0, "outage dropped no requests?");
    assert_eq!(rep.flows_begun, rep.flows_completed + rep.flows_dropped);
    // ...and the oracle stayed clean through all of it.
    tb.oracle.assert_clean("failover scenario");
}

// ---------------------------------------------------------------------------
// Metamorphic differential properties (whole-run relations)
// ---------------------------------------------------------------------------

#[test]
fn metamorphic_zero_rate_faults_equal_disabled() {
    // A fault injector configured with all-zero rates is behaviorally
    // inert: byte-identical to no injector at all, because fault draws
    // come from a dedicated RNG stream that the model never observes.
    let d = SimDuration::millis(25);
    for model in [IoModel::Vrio, IoModel::Baseline] {
        let plain = netperf_rr(TestbedConfig::simple(model, 2), d);
        let mut c = TestbedConfig::simple(model, 2);
        c.faults = FaultConfig {
            ge: Some(GeConfig {
                p_good_to_bad: 0.0,
                p_bad_to_good: 0.0,
                loss_good: 0.0,
                loss_bad: 0.0,
            }),
            delay_spike_prob: 0.0,
            delay_spike: SimDuration::ZERO,
            duplicate_prob: 0.0,
        };
        let zeroed = netperf_rr(c, d);
        assert_rr_bit_identical(&plain, &zeroed, &format!("{model} zero-rate faults"));
    }
}

/// Collects the exact per-request latency sequence of VM 0 under a closed
/// RR loop where only VM 0 generates load, with `num_vms` VMs configured.
fn vm0_latency_trace(num_vms: usize, model: IoModel) -> Vec<u64> {
    let cfg = TestbedConfig::simple(model, num_vms);
    let mut tb = Testbed::new(cfg);
    let mut eng: Engine<Testbed> = Engine::new();
    let lat: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let end = SimTime::ZERO + SimDuration::millis(10);

    fn issue(
        tb: &mut Testbed,
        eng: &mut Engine<Testbed>,
        end: SimTime,
        lat: Rc<RefCell<Vec<u64>>>,
    ) {
        net_request_response(
            tb,
            eng,
            0,
            Bytes::from_static(b"?"),
            1,
            SimDuration::micros(4),
            move |tb, eng, outcome| {
                lat.borrow_mut().push(outcome.latency.as_nanos());
                if eng.now() < end {
                    issue(tb, eng, end, lat);
                }
            },
        );
    }
    issue(&mut tb, &mut eng, end, lat.clone());
    eng.run(&mut tb);
    let v = lat.borrow().clone();
    v
}

#[test]
fn metamorphic_idle_vms_leave_active_traces_unchanged() {
    // Adding idle VMs must not perturb an active VM's request lifecycle:
    // same request count, same nanosecond-exact latency sequence.
    for model in [IoModel::Vrio, IoModel::Elvis] {
        let alone = vm0_latency_trace(1, model);
        let crowded = vm0_latency_trace(3, model);
        assert!(alone.len() > 100, "{model}: run too short");
        assert_eq!(
            alone, crowded,
            "{model}: idle VMs perturbed VM 0's per-request latencies"
        );
    }
}

#[test]
fn metamorphic_model_ordering_dominance() {
    // Hardware passthrough (SRIOV+ELI) is a latency lower bound for every
    // paravirtual model at every consolidation level; and in the
    // consolidated regime the paper targets (several VMs per vhost core),
    // optimum <= vRIO <= baseline holds because baseline's vhost threads
    // contend while vRIO's latency stays flat (paper Fig 7). At 1–2 VMs
    // vRIO instead pays its wire hop, so the sandwich is asserted only
    // where the claim applies.
    let d = SimDuration::millis(25);
    for vms in [1, 2, 4, 8] {
        let mean =
            |model: IoModel| netperf_rr(TestbedConfig::simple(model, vms), d).mean_latency_us;
        let opt = mean(IoModel::Optimum);
        let vrio = mean(IoModel::Vrio);
        let base = mean(IoModel::Baseline);
        assert!(opt <= vrio, "v={vms}: optimum {opt} > vrio {vrio}");
        if vms >= 4 {
            assert!(vrio <= base, "v={vms}: vrio {vrio} > baseline {base}");
        }
    }
}

// ---------------------------------------------------------------------------
// Ring generations: the ring audit's skip rule
// ---------------------------------------------------------------------------

#[test]
fn ring_audit_changes_only_when_the_ring_generation_advances() {
    // The oracle audits a VM's queues only when its ring generation has
    // advanced since the last audit. That is sound only if no snapshot can
    // change while the generation stays put: checked here after every
    // engine event of a multi-VM run mixing RR and block traffic (TSO
    // trains and retransmissions included) under active faults.
    const VMS: usize = 4;
    let mut c = TestbedConfig::simple(IoModel::Vrio, VMS);
    c.faults = faulty_config(IoModel::Vrio, true).faults;
    c.channel_loss = 0.02;
    c.oracle = OracleConfig::on();
    let mut tb = Testbed::new(c);
    let mut eng: Engine<Testbed> = Engine::new();
    let end = SimTime::ZERO + SimDuration::millis(8);

    // RR traffic is open-loop (a fault-dropped request would end a closed
    // loop): every VM issues one request each tick until the horizon.
    fn rr_tick(tb: &mut Testbed, eng: &mut Engine<Testbed>, end: SimTime) {
        for vm in 0..VMS {
            let resp = 1 + (vm * 700) % 2000;
            let req = Bytes::from_static(b"q");
            net_request_response(tb, eng, vm, req, resp, SimDuration::micros(2), |_, _, _| {});
        }
        if eng.now() < end {
            eng.schedule_in(SimDuration::micros(25), move |tb, eng| {
                rr_tick(tb, eng, end)
            });
        }
    }
    fn blk(tb: &mut Testbed, eng: &mut Engine<Testbed>, vm: usize, i: u64, end: SimTime) {
        let id = vrio_block::RequestId(i + 1);
        let req = if i.is_multiple_of(2) {
            // 20 KiB writes exceed the channel MTU: TSO trains.
            vrio_block::BlockRequest::write(id, 8 * (i % 32), Bytes::from(vec![i as u8; 20 << 10]))
        } else {
            vrio_block::BlockRequest::read(id, 8 * (i % 32), 4096)
        };
        blk_request(tb, eng, vm, req, move |tb, eng, _| {
            if eng.now() < end {
                blk(tb, eng, vm, i + 1, end);
            }
        });
    }
    rr_tick(&mut tb, &mut eng, end);
    for vm in (0..VMS).step_by(2) {
        blk(&mut tb, &mut eng, vm, 0, end);
    }

    let fired: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
    let counter = fired.clone();
    eng.set_probe(move |_| *counter.borrow_mut() += 1);
    let snapshot = |tb: &Testbed| -> Vec<(u64, [vrio_hv::QueueAudit; 3])> {
        tb.vms
            .iter()
            .map(|vm| (vm.ring_generation(), vm.ring_audit()))
            .collect()
    };
    let mut seen = snapshot(&tb);
    let (mut events, mut advanced) = (0u64, 0u64);
    while eng.step(&mut tb) {
        events += 1;
        assert_eq!(*fired.borrow(), events, "the probe saw every event");
        let now = snapshot(&tb);
        for (vm, (before, after)) in seen.iter().zip(&now).enumerate() {
            if before.0 == after.0 {
                assert_eq!(
                    before.1,
                    after.1,
                    "vm{vm}: ring audit changed at event {events} (t={:?}) while \
                     the ring generation stayed at {}",
                    eng.now(),
                    after.0
                );
            } else {
                advanced += 1;
            }
        }
        seen = now;
    }
    tb.close_books();
    tb.oracle.assert_clean("ring generation run");
    let rel = tb.reliability_report();
    assert!(events > 10_000, "run too short: {events} events");
    assert!(
        advanced > 1_000,
        "generations advanced only {advanced} times"
    );
    assert!(rel.retransmissions > 0, "no retransmission exercised");
    assert!(rel.block_completed > 50, "{rel:?}");
}

// ---------------------------------------------------------------------------
// Closing the books: the end-of-run audits every workload shares
// ---------------------------------------------------------------------------

#[test]
fn close_books_reports_a_request_that_never_closed() {
    // One request begun on an oracle-on testbed whose engine never runs:
    // its flow is still open when the books close.
    let mut c = TestbedConfig::simple(IoModel::Vrio, 1);
    c.oracle = OracleConfig::on();
    let mut tb = Testbed::new(c);
    let mut eng: Engine<Testbed> = Engine::new();
    net_request_response(
        &mut tb,
        &mut eng,
        0,
        Bytes::from_static(b"?"),
        1,
        SimDuration::micros(4),
        |_, _, _| {},
    );
    tb.close_books();
    let v = tb.oracle.violations();
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].invariant, "exactly-once");
    assert!(v[0].message.contains("net_rr flow 1"), "{}", v[0].message);
}
