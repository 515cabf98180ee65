//! §4.6 failure/recovery lifecycle: the IOhost crashes mid-run and comes
//! back. Net traffic fails over to local virtio at heartbeat granularity,
//! then *fails back* to vRIO once the health monitor sees the IOhost
//! answering probes again; block requests straddling the outage ride the
//! retransmission machinery across it and complete exactly once.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use bytes::Bytes;
use vrio::{blk_request, net_request_response, HealthState, Outage, Testbed, TestbedConfig};
use vrio_block::{BlockRequest, RequestId};
use vrio_hv::{IoModel, ReliabilityCounters};
use vrio_sim::{Engine, SimDuration, SimTime};
use vrio_virtio::BLK_S_OK;

const CRASH_MS: u64 = 10;
const RECOVER_MS: u64 = 30;
const HORIZON_MS: u64 = 50;

fn at(ms_tenths: u64) -> SimTime {
    SimTime::ZERO + SimDuration::micros(ms_tenths * 100)
}

/// One full crash-and-recover run: closed-loop net request-responses on two
/// VMs across the outage, plus block requests timed to straddle the crash.
/// Returns everything the assertions (and the determinism check) need.
struct RunResult {
    /// Mean net latency (us) completed before the crash.
    pre_mean: f64,
    /// Mean net latency (us) completed after failback settles.
    post_mean: f64,
    /// Completed samples in each phase.
    pre_n: usize,
    post_n: usize,
    /// Completion count and status per block request.
    blk: HashMap<u64, (usize, u8)>,
    /// The VMhost 0 health-monitor transition log (timestamped).
    transitions: Vec<(SimTime, HealthState)>,
    report: ReliabilityCounters,
}

fn run_scenario(seed: u64) -> RunResult {
    let mut cfg = TestbedConfig::simple(IoModel::Vrio, 2);
    cfg.seed = seed;
    cfg.iohost_outages = vec![Outage {
        fails_at: SimTime::ZERO + SimDuration::millis(CRASH_MS),
        recovers_at: Some(SimTime::ZERO + SimDuration::millis(RECOVER_MS)),
    }];
    let mut tb = Testbed::new(cfg);
    let mut eng = Engine::new();

    #[derive(Default)]
    struct Stats {
        pre: Vec<f64>,
        post: Vec<f64>,
    }
    let stats = Rc::new(RefCell::new(Stats::default()));

    fn issue(tb: &mut Testbed, eng: &mut Engine<Testbed>, vm: usize, stats: Rc<RefCell<Stats>>) {
        net_request_response(
            tb,
            eng,
            vm,
            Bytes::from_static(b"ping"),
            4,
            SimDuration::micros(4),
            move |tb, eng, o| {
                let l = o.latency.as_micros_f64();
                let now = eng.now();
                if now < SimTime::ZERO + SimDuration::millis(CRASH_MS) {
                    stats.borrow_mut().pre.push(l);
                } else if now > SimTime::ZERO + SimDuration::millis(RECOVER_MS + 1) {
                    // Past failback (probing ends within two heartbeats of
                    // recovery): traffic is back on vRIO.
                    stats.borrow_mut().post.push(l);
                }
                if now < SimTime::ZERO + SimDuration::millis(HORIZON_MS) {
                    issue(tb, eng, vm, stats);
                }
            },
        );
    }
    for vm in 0..2 {
        issue(&mut tb, &mut eng, vm, stats.clone());
    }
    // Requests in flight at the crash instant blackhole (a real client's
    // TCP stack retries); restart the loops after the monitor has had time
    // to notice the crash.
    let restart = stats.clone();
    eng.schedule_at(
        SimTime::ZERO + SimDuration::millis(CRASH_MS + 1),
        move |tb: &mut Testbed, eng| {
            for vm in 0..2 {
                issue(tb, eng, vm, restart.clone());
            }
        },
    );

    // Block requests timed to straddle the outage: one comfortably before
    // the crash, two close enough that their exchange (or its timer) spans
    // the 20 ms hole and must be carried across it by retransmission.
    let blk: Rc<RefCell<HashMap<u64, (usize, u8)>>> = Rc::new(RefCell::new(HashMap::new()));
    for (i, issue_at) in [at(95), at(99), at(100)].into_iter().enumerate() {
        let slot = blk.clone();
        eng.schedule_at(issue_at, move |tb: &mut Testbed, eng| {
            let id = i as u64 + 1;
            let done = slot.clone();
            blk_request(
                tb,
                eng,
                0,
                BlockRequest::write(RequestId(id), 8 * id, Bytes::from(vec![i as u8; 512])),
                move |_, _, o| {
                    let mut m = done.borrow_mut();
                    let e = m.entry(id).or_insert((0, o.status));
                    e.0 += 1;
                    e.1 = o.status;
                },
            );
        });
    }

    eng.run(&mut tb);

    let s = stats.borrow();
    let blk = blk.borrow().clone();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    RunResult {
        pre_mean: mean(&s.pre),
        post_mean: mean(&s.post),
        pre_n: s.pre.len(),
        post_n: s.post.len(),
        blk,
        transitions: tb.health[0].primary().transitions.clone(),
        report: tb.reliability_report(),
    }
}

#[test]
fn failback_restores_vrio_latency() {
    let r = run_scenario(1);
    assert!(
        r.pre_n > 50 && r.post_n > 50,
        "traffic flowed in both phases"
    );
    // Pre-crash: vRIO-level latency (~44us, Fig 6).
    assert!(
        (40.0..48.0).contains(&r.pre_mean),
        "pre-crash latency {}",
        r.pre_mean
    );
    // Post-failback latency returns to vRIO level: within 15% of pre-crash.
    let drift = (r.post_mean - r.pre_mean).abs() / r.pre_mean;
    assert!(
        drift < 0.15,
        "post-failback mean {} drifted {drift:.3} from pre-crash mean {}",
        r.post_mean,
        r.pre_mean
    );
}

#[test]
fn lifecycle_walks_the_full_state_machine() {
    let r = run_scenario(1);
    // One failover, one failback, no flapping.
    assert_eq!(r.report.failovers, 1);
    assert_eq!(r.report.failbacks, 1);
    let states: Vec<HealthState> = r.transitions.iter().map(|&(_, s)| s).collect();
    assert_eq!(
        states,
        vec![
            HealthState::Suspect,
            HealthState::FailedOver,
            HealthState::Probing,
            HealthState::Recovered,
            HealthState::Healthy,
        ]
    );
    // Detection lag is bounded by (failover_misses + 1) heartbeats; with
    // the default 250us period the monitor must fail over within 1 ms of
    // the crash, and fail back within 1 ms of recovery.
    let crash = SimTime::ZERO + SimDuration::millis(CRASH_MS);
    let recover = SimTime::ZERO + SimDuration::millis(RECOVER_MS);
    let failed_over = r.transitions[1].0;
    let healthy_again = r.transitions[4].0;
    assert!(failed_over >= crash && failed_over.since(crash) <= SimDuration::millis(1));
    assert!(healthy_again >= recover && healthy_again.since(recover) <= SimDuration::millis(1));
    // Probes kept flowing the whole run and the misses were counted.
    assert!(r.report.heartbeats_sent > r.report.heartbeat_acks);
    assert!(r.report.probes_missed > 0);
}

#[test]
fn blocks_straddling_the_outage_complete_exactly_once() {
    let r = run_scenario(1);
    assert_eq!(r.blk.len(), 3, "every block request completed");
    for (id, (count, status)) in &r.blk {
        assert_eq!(*count, 1, "request {id} completed {count} times");
        assert_eq!(*status, BLK_S_OK, "request {id} status {status}");
    }
    // The outage was real: the requests caught in it needed retransmission,
    // but nobody exhausted the attempt budget.
    assert!(
        r.report.retransmissions > 0,
        "no retransmissions — nothing straddled"
    );
    assert_eq!(r.report.device_errors, 0);
    assert_eq!(r.report.block_sent, 3);
    assert_eq!(r.report.block_completed, 3);
}

#[test]
fn same_seed_reproduces_identical_failover_timestamps() {
    let a = run_scenario(7);
    let b = run_scenario(7);
    assert_eq!(
        a.transitions, b.transitions,
        "transition log differs across replays"
    );
    assert_eq!(
        a.report, b.report,
        "reliability report differs across replays"
    );
    assert_eq!(a.pre_mean.to_bits(), b.pre_mean.to_bits());
    assert_eq!(a.post_mean.to_bits(), b.post_mean.to_bits());
    // And a different seed still walks the same lifecycle (the schedule is
    // config-driven, not random), though workload interleavings may differ.
    let c = run_scenario(8);
    assert_eq!(c.report.failovers, 1);
    assert_eq!(c.report.failbacks, 1);
}
