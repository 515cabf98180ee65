//! Macrobenchmarks: Apache/ApacheBench and Memcached/memslap transaction
//! models (paper §5, Figures 5 and 12).
//!
//! Both are closed-loop transaction generators over the testbed's
//! request-response flow; they differ in per-transaction server CPU,
//! response size (Apache serves multi-packet static pages, which is what
//! grinds Elvis sidecores), and client concurrency (memslap pipelines).

use bytes::Bytes;
use vrio::{net_request_response, HasTestbed, Testbed, TestbedConfig};
use vrio_sim::{Engine, SimDuration, SimTime};

/// A transaction workload profile.
#[derive(Debug, Clone, Copy)]
pub struct TxnProfile {
    /// Request payload bytes.
    pub req_bytes: usize,
    /// Response payload bytes (multi-packet responses charge the back-end
    /// per wire packet).
    pub resp_bytes: usize,
    /// Server-side CPU per transaction.
    pub app_time: SimDuration,
    /// Concurrent in-flight transactions per VM (client pipelining).
    pub concurrency: usize,
}

impl TxnProfile {
    /// ApacheBench fetching a static page from Apache httpd: ~10 KB
    /// responses, substantial per-request server CPU, 2 concurrent
    /// connections per VM.
    pub fn apache() -> Self {
        TxnProfile {
            req_bytes: 128,
            resp_bytes: 10 * 1024,
            app_time: SimDuration::micros(130),
            concurrency: 2,
        }
    }

    /// Memslap against memcached: tiny GET/SET responses, very little
    /// per-request CPU, deep pipelining.
    pub fn memcached() -> Self {
        TxnProfile {
            req_bytes: 64,
            resp_bytes: 1024,
            app_time: SimDuration::micros(4),
            concurrency: 4,
        }
    }
}

/// Result of a macrobenchmark run.
#[derive(Debug, Clone, Copy)]
pub struct MacroResult {
    /// Aggregate transactions per second across all VMs.
    pub tps: f64,
    /// The same in kilo-transactions/second (the paper's Fig 12 unit).
    pub ktps: f64,
    /// Transactions completed in the measurement window.
    pub completed: u64,
}

struct MacroWorld {
    tb: Testbed,
    completed: u64,
    measuring: bool,
    deadline: SimTime,
}

impl HasTestbed for MacroWorld {
    fn tb(&mut self) -> &mut Testbed {
        &mut self.tb
    }
}

/// Runs a transaction benchmark: every VM keeps `profile.concurrency`
/// transactions in flight for `duration` (after a 10 % warmup).
///
/// # Examples
///
/// ```
/// use vrio::TestbedConfig;
/// use vrio_hv::IoModel;
/// use vrio_sim::SimDuration;
/// use vrio_workloads::{run_txn_bench, TxnProfile};
///
/// let r = run_txn_bench(
///     TestbedConfig::simple(IoModel::Vrio, 2),
///     TxnProfile::memcached(),
///     SimDuration::millis(20),
/// );
/// assert!(r.ktps > 10.0);
/// ```
pub fn run_txn_bench(
    config: TestbedConfig,
    profile: TxnProfile,
    duration: SimDuration,
) -> MacroResult {
    run_txn_bench_with(config, profile, duration, |_| {})
}

/// [`run_txn_bench`] with a hook on the freshly built testbed, through
/// which tests reach its observers.
fn run_txn_bench_with(
    config: TestbedConfig,
    profile: TxnProfile,
    duration: SimDuration,
    setup: impl FnOnce(&mut Testbed),
) -> MacroResult {
    let warmup = duration / 10;
    let deadline = SimTime::ZERO + warmup + duration;
    let num_vms = config.num_vms;
    let mut tb = Testbed::new(config);
    setup(&mut tb);
    let mut world = MacroWorld {
        tb,
        completed: 0,
        measuring: false,
        deadline,
    };
    let mut eng: Engine<MacroWorld> = Engine::new();
    world.tb.instrument(&mut eng);
    world.tb.schedule_telemetry(&mut eng, deadline);

    fn issue(w: &mut MacroWorld, eng: &mut Engine<MacroWorld>, vm: usize, p: TxnProfile) {
        let req = Bytes::from(vec![0x11u8; p.req_bytes]);
        net_request_response(
            w,
            eng,
            vm,
            req,
            p.resp_bytes,
            p.app_time,
            move |w, eng, _o| {
                if w.measuring {
                    w.completed += 1;
                }
                if eng.now() < w.deadline {
                    issue(w, eng, vm, p);
                }
            },
        );
    }

    for vm in 0..num_vms {
        for _ in 0..profile.concurrency {
            issue(&mut world, &mut eng, vm, profile);
        }
    }
    eng.schedule_at(SimTime::ZERO + warmup, |w: &mut MacroWorld, _| {
        w.measuring = true
    });
    eng.run(&mut world);
    world.tb.close_books();

    let tps = world.completed as f64 / duration.as_secs_f64();
    MacroResult {
        tps,
        ktps: tps / 1e3,
        completed: world.completed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrio::OracleConfig;
    use vrio_hv::IoModel;

    fn bench(model: IoModel, vms: usize, p: TxnProfile) -> MacroResult {
        run_txn_bench(
            TestbedConfig::simple(model, vms),
            p,
            SimDuration::millis(40),
        )
    }

    #[test]
    fn apache_model_ordering_at_high_n() {
        // Fig 5 at N=7: optimum >= vrio > elvis > baseline.
        let p = TxnProfile::apache();
        let opt = bench(IoModel::Optimum, 7, p);
        let vrio = bench(IoModel::Vrio, 7, p);
        let nopoll = bench(IoModel::VrioNoPoll, 7, p);
        let elvis = bench(IoModel::Elvis, 7, p);
        let base = bench(IoModel::Baseline, 7, p);
        assert!(
            opt.tps >= vrio.tps * 0.98,
            "opt {} vrio {}",
            opt.tps,
            vrio.tps
        );
        assert!(
            vrio.tps > elvis.tps,
            "vrio {} elvis {}",
            vrio.tps,
            elvis.tps
        );
        assert!(
            elvis.tps > base.tps,
            "elvis {} base {}",
            elvis.tps,
            base.tps
        );
        // The no-poll ablation sits between elvis and baseline (Table 3 sums
        // 4 < 6 < 9).
        assert!(
            nopoll.tps < elvis.tps,
            "nopoll {} elvis {}",
            nopoll.tps,
            elvis.tps
        );
        assert!(
            nopoll.tps > base.tps,
            "nopoll {} base {}",
            nopoll.tps,
            base.tps
        );
    }

    #[test]
    fn memcached_elvis_falls_behind() {
        // Fig 12a: vRIO approaches the optimum; Elvis falls behind.
        let p = TxnProfile::memcached();
        let opt = bench(IoModel::Optimum, 7, p);
        let vrio = bench(IoModel::Vrio, 7, p);
        let elvis = bench(IoModel::Elvis, 7, p);
        assert!(
            vrio.tps > elvis.tps * 1.15,
            "vrio {} elvis {}",
            vrio.tps,
            elvis.tps
        );
        assert!(
            vrio.tps > opt.tps * 0.55,
            "vrio {} opt {}",
            vrio.tps,
            opt.tps
        );
    }

    #[test]
    fn closes_the_oracle_books() {
        let run = |model: IoModel, vms: usize, profile: TxnProfile, leak: bool| {
            let mut c = TestbedConfig::simple(model, vms);
            c.oracle = OracleConfig::on();
            let mut oracle = None;
            let r = run_txn_bench_with(c, profile, SimDuration::millis(5), |tb| {
                if leak {
                    tb.oracle.flow_begin("injected", SimTime::ZERO);
                }
                oracle = Some(tb.oracle.clone());
            });
            assert!(r.completed > 0, "{model}: nothing completed");
            oracle.expect("setup ran")
        };
        // Clean: every transaction the closed loops begin closes by the
        // time the engine drains.
        for model in IoModel::ALL {
            for vms in [1, 4] {
                for profile in [TxnProfile::apache(), TxnProfile::memcached()] {
                    let o = run(model, vms, profile, false);
                    o.assert_clean(&format!("txn {model} x{vms}"));
                    let rep = o.report();
                    assert!(rep.flows_begun > 0, "{model}: the oracle saw no flow");
                    assert_eq!(rep.flows_begun, rep.flows_completed + rep.flows_dropped);
                }
            }
        }
        // A flow begun outside the workload never closes, and the run's
        // own end-of-run audit reports it.
        let v = run(IoModel::Vrio, 2, TxnProfile::memcached(), true).violations();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "exactly-once");
        assert!(v[0].message.contains("injected flow 1"), "{}", v[0].message);
    }

    #[test]
    fn throughput_scales_with_vms() {
        let p = TxnProfile::memcached();
        let one = bench(IoModel::Optimum, 1, p);
        let four = bench(IoModel::Optimum, 4, p);
        assert!(four.tps > one.tps * 3.0);
    }
}
