//! §4.6 fault tolerance: when the IOhost crashes mid-run, network traffic
//! falls back to local virtio (at baseline-level performance, on the VM's
//! own cores) while IOhost-resident block devices fail cleanly through the
//! retransmission machinery.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use vrio::{blk_request, net_request_response, Outage, Testbed, TestbedConfig};
use vrio_block::{BlockRequest, RequestId};
use vrio_hv::IoModel;
use vrio_sim::{Engine, SimDuration, SimTime};
use vrio_virtio::BLK_S_IOERR;

/// A primary-IOhost outage that starts at `at` and never recovers.
fn crash_at(at: SimTime) -> Outage {
    Outage {
        fails_at: at,
        recovers_at: None,
    }
}

#[test]
fn network_survives_iohost_crash_at_fallback_performance() {
    let mut cfg = TestbedConfig::simple(IoModel::Vrio, 2);
    cfg.iohost_outages = vec![crash_at(SimTime::ZERO + SimDuration::millis(10))];
    let mut tb = Testbed::new(cfg);
    let mut eng = Engine::new();

    // A closed loop of request-responses straddling the crash.
    struct Stats {
        before: Vec<f64>,
        after: Vec<f64>,
    }
    let stats = Rc::new(RefCell::new(Stats {
        before: Vec::new(),
        after: Vec::new(),
    }));

    fn issue(tb: &mut Testbed, eng: &mut Engine<Testbed>, vm: usize, stats: Rc<RefCell<Stats>>) {
        net_request_response(
            tb,
            eng,
            vm,
            Bytes::from_static(b"ping"),
            4,
            SimDuration::micros(4),
            move |tb, eng, o| {
                let fail_at = tb.config.iohost_outages[0].fails_at;
                let l = o.latency.as_micros_f64();
                if eng.now() < fail_at {
                    stats.borrow_mut().before.push(l);
                } else {
                    stats.borrow_mut().after.push(l);
                }
                if eng.now() < SimTime::ZERO + SimDuration::millis(25) {
                    issue(tb, eng, vm, stats);
                }
            },
        );
    }
    for vm in 0..2 {
        issue(&mut tb, &mut eng, vm, stats.clone());
    }
    // Requests in flight at the crash instant are blackholed; a real
    // netperf client times out and retries. Model the retry: restart the
    // loops shortly after the crash.
    let restart = stats.clone();
    eng.schedule_at(
        SimTime::ZERO + SimDuration::millis(11),
        move |tb: &mut Testbed, eng| {
            for vm in 0..2 {
                issue(tb, eng, vm, restart.clone());
            }
        },
    );
    eng.run(&mut tb);

    let s = stats.borrow();
    assert!(
        s.before.len() > 50 && s.after.len() > 50,
        "traffic flowed on both sides"
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (b, a) = (mean(&s.before), mean(&s.after));
    // Before: vRIO-level latency (~44us). After: the local-virtio fallback
    // works at baseline-level latency (at N=1 that is actually slightly
    // faster than vRIO — exactly Fig 7's ordering — but the work now runs
    // on the VM's own cores and every exit/injection is back).
    assert!((40.0..48.0).contains(&b), "pre-crash latency {b}");
    assert!((38.0..50.0).contains(&a), "fallback latency {a}");
    // The failover signature: synchronous exits and injections reappear
    // (vRIO itself induces none — Table 3).
    assert!(tb.counters.sync_exits > 0, "fallback must trap-and-emulate");
    assert!(tb.counters.interrupt_injections > 0);
    // And the vhost burden lands on the VMs' own cores: guest busy time
    // per request is visibly higher after the crash.
    let per_req_budget =
        tb.vms[0].cpu.busy_time().as_micros_f64() / (s.before.len() + s.after.len()) as f64;
    assert!(
        per_req_budget > 11.0,
        "VM cores carry the vhost work: {per_req_budget}"
    );
}

#[test]
fn iohost_resident_block_device_fails_cleanly() {
    let mut cfg = TestbedConfig::simple(IoModel::Vrio, 1);
    cfg.iohost_outages = vec![crash_at(SimTime::ZERO)]; // dead from the start
    cfg.retx.initial_timeout = SimDuration::micros(200);
    cfg.retx.max_attempts = 3;
    let mut tb = Testbed::new(cfg);
    let mut eng = Engine::new();
    let status = Rc::new(RefCell::new(None));
    let slot = status.clone();
    blk_request(
        &mut tb,
        &mut eng,
        0,
        BlockRequest::write(RequestId(1), 0, Bytes::from(vec![1u8; 512])),
        move |_, _, o| *slot.borrow_mut() = Some(o.status),
    );
    eng.run(&mut tb);
    // "Losing it is akin to losing a local drive" (§4.6): a device error,
    // surfaced exactly once, after the retransmission budget.
    assert_eq!(*status.borrow(), Some(BLK_S_IOERR));
    assert_eq!(tb.retx[0].stats.device_errors, 1);
    assert_eq!(tb.retx[0].stats.retransmissions, 2);
}

#[test]
fn healthy_iohost_is_unaffected_by_the_knob() {
    // A failure scheduled after the horizon never triggers.
    let mut cfg = TestbedConfig::simple(IoModel::Vrio, 1);
    cfg.iohost_outages = vec![crash_at(SimTime::ZERO + SimDuration::secs(3600))];
    let mut tb = Testbed::new(cfg);
    let mut eng = Engine::new();
    let ok = Rc::new(RefCell::new(false));
    let slot = ok.clone();
    net_request_response(
        &mut tb,
        &mut eng,
        0,
        Bytes::from_static(b"x"),
        1,
        SimDuration::micros(4),
        move |_, _, o| *slot.borrow_mut() = o.response.len() == 1,
    );
    eng.run(&mut tb);
    assert!(*ok.borrow());
}
