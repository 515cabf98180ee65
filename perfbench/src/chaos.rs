//! The chaos workload: all five named campaigns through the replica
//! runner (`run_chaos`), with telemetry on and the oracle on (chaos
//! replicas always assert it clean).

use std::time::Instant;

use bytes::Bytes;
use vrio::{AdmissionConfig, OracleConfig, Testbed};
use vrio_bench::{
    run_chaos, run_replica, ChaosCampaign, ChaosResult, ReproConfig, KNOWN_CAMPAIGNS,
};
use vrio_hv::ReliabilityCounters;
use vrio_net::FaultConfig;
use vrio_sim::SimDuration;
use vrio_trace::TelemetryConfig;

use crate::alloc::allocations;
use crate::calib::{Kernel, Sampler};
use crate::plan::{Fnv, Plan, Req, Slot, Workload};

/// `ReproConfig::quick()` horizons are stretched by this factor.
const HORIZON_X_QUICK: f64 = 5.0;

/// The reference kernel for chaos: its host work is the engine, the
/// flows and the observers.
const REFERENCE: &[Kernel] = &[Kernel::EventLoop];

/// Builds the five campaigns for `seed`. `scale` multiplies the horizon
/// (1.0 for benchmark runs). The campaigns keep their two VMs, so the
/// `surge` campaign's two tenant weights still match (see NOTES.md).
pub fn campaigns(seed: u64, scale: f64) -> Vec<ChaosCampaign> {
    let quick = ReproConfig::quick();
    let rc = ReproConfig {
        duration: SimDuration::from_secs_f64(
            quick.duration.as_secs_f64() * HORIZON_X_QUICK * scale,
        ),
        ..quick
    };
    KNOWN_CAMPAIGNS
        .iter()
        .map(|name| {
            let mut c = ChaosCampaign::named(name, rc).expect("known campaign");
            c.telemetry = true;
            c.base_seed = seed;
            c.validate().expect("valid campaign");
            c
        })
        .collect()
}

/// Set-up of the campaigns: every replica's `Testbed::new`.
pub fn setup(campaigns: &[ChaosCampaign]) {
    for c in campaigns {
        for r in 0..c.replicas {
            std::hint::black_box(Testbed::new(c.config(r)));
        }
    }
}

/// One run of every campaign.
#[derive(Debug, Clone, Default)]
pub struct ChaosRep {
    /// Host seconds across the five `run_chaos` calls.
    pub wall_s: f64,
    /// Host seconds of one reference unit, sampled between the campaigns
    /// (0 when not calibrated).
    pub ref_s: f64,
    /// Heap allocations during those calls.
    pub allocs: u64,
    /// Request-responses offered across replicas.
    pub offered: u64,
    /// Request-responses completed across replicas.
    pub completed: u64,
    /// Requests shed by admission control.
    pub sheds: u64,
    /// Reliability counters summed across replicas.
    pub reliability: ReliabilityCounters,
    /// Digest of every rendered campaign document and telemetry export.
    pub digest: u64,
    /// Failed expectations (each campaign must show its disturbance).
    pub failures: Vec<String>,
}

/// Runs every campaign on `threads` threads. With `calibrate`, the
/// reference kernel is sampled before, between and after the campaigns,
/// outside the timed calls.
pub fn run_all(campaigns: &[ChaosCampaign], threads: usize, calibrate: bool) -> ChaosRep {
    let mut rep = ChaosRep::default();
    let mut h = Fnv::new();
    let mut calib = calibrate.then(|| Sampler::new(REFERENCE));
    for c in campaigns {
        if let Some(s) = calib.as_mut() {
            s.sample(threads);
        }
        let a0 = allocations();
        let t0 = Instant::now();
        let result = run_chaos(c, threads, false).expect("validated campaign");
        rep.wall_s += t0.elapsed().as_secs_f64();
        rep.allocs += allocations() - a0;
        fold(&mut rep, &mut h, &result);
    }
    if let Some(s) = calib.as_mut() {
        s.sample(threads);
    }
    rep.ref_s = calib.map_or(0.0, |s| s.reference_seconds());
    rep.digest = h.finish();
    rep
}

fn fold(rep: &mut ChaosRep, h: &mut Fnv, result: &ChaosResult) {
    h.bytes(result.to_json().render().as_bytes());
    let name = result.campaign.name.as_str();
    let mut rel = ReliabilityCounters::default();
    let (mut offered, mut completed, mut sheds) = (0, 0, 0);
    for r in &result.replicas {
        h.bytes(r.telemetry.to_json().render().as_bytes());
        offered += r.buckets.iter().map(|b| b.offered).sum::<u64>();
        completed += r.completed;
        sheds += r.sheds;
        rel.add(&r.report);
    }
    let disturbed = match name {
        "primary-kill" | "rolling-restart" | "correlated" => rel.failovers > 0,
        "ge-storm" => rel.injected_losses > 0,
        "surge" => sheds > 0,
        _ => true,
    };
    if !disturbed {
        rep.failures.push(format!(
            "chaos/{name}: the campaign's disturbance never happened"
        ));
    }
    if completed == 0 || completed > offered {
        rep.failures.push(format!(
            "chaos/{name}: {completed} completions for {offered} offered"
        ));
    }
    rep.offered += offered;
    rep.completed += completed;
    rep.sheds += sheds;
    rep.reliability.add(&rel);
}

/// Host seconds of every replica run one after another on this thread
/// (the runner's serial work, for its parallel efficiency).
pub fn serial_replica_wall(
    campaigns: &[ChaosCampaign],
    log: &mut Option<crate::spans::SpanLog>,
) -> f64 {
    let mut total = 0.0;
    for c in campaigns {
        for r in 0..c.replicas {
            let t0 = Instant::now();
            std::hint::black_box(run_replica(c, r));
            let t1 = Instant::now();
            total += t1.duration_since(t0).as_secs_f64();
            if let Some(log) = log {
                log.push("chaos.run_replica", t0, t1, crate::spans::ROOT, r as u64);
            }
        }
    }
    total
}

/// The per-layer probe for chaos: replica 0 of the first campaign's
/// testbed shape (VMs, IOhosts, jitter, retransmission timer) without
/// its disturbances, driven by the campaign's steady load (one
/// request-response loop per VM, one 512-byte write loop on VM 0) for the
/// campaign horizon. Engine, ring and layer counts on chaos come from
/// here, as do the oracle-on-minus-off and telemetry costs.
pub fn probe_plan(c: &ChaosCampaign) -> Plan {
    let mut config = c.config(0);
    config.iohost_outages.clear();
    config.backup_outages.clear();
    config.faults = FaultConfig::default();
    config.admission = AdmissionConfig::default();
    config.oracle = OracleConfig::off();
    config.telemetry = TelemetryConfig::off();
    let mut slots: Vec<Slot> = (0..c.vms)
        .map(|vm| Slot {
            vm,
            batches: vec![vec![Req::Rr { resp_len: 64 }]],
        })
        .collect();
    slots.push(Slot {
        vm: 0,
        batches: (0..64u64)
            .map(|i| {
                vec![Req::Write {
                    offset: i * 4096,
                    data: Bytes::from(vec![i as u8; 512]),
                }]
            })
            .collect(),
    });
    Plan {
        workload: Workload::Chaos,
        config,
        aes_key: None,
        slots,
        horizon: c.horizon,
        app_time: SimDuration::micros(4),
        rr_request: Bytes::from_static(b"chaos"),
        reference: REFERENCE,
    }
}
