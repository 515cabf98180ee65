//! The deterministic chaos-schedule engine (§4.6 robustness campaigns).
//!
//! A [`ChaosCampaign`] names a seed-reproducible disturbance schedule —
//! correlated multi-IOhost outages, rolling restarts, Gilbert–Elliott
//! loss storms with delay spikes, admission-controlled load surges — and
//! [`run_chaos`] runs its replicas across OS threads exactly like the
//! sweep engine runs scenarios: each replica's world is private to the
//! thread that runs it and seeded only from
//! [`scenario_seed`]`(base_seed, "chaos/<name>/r<i>")`, so the rendered
//! `BENCH_chaos_*.json` is **byte-identical for any `--threads` value**
//! and for any rerun at the same seed. Every replica runs with the
//! simulation oracle on and asserts it clean — exactly-once completion
//! holds across every failover hop the campaign provokes.
//!
//! Measurement is a fixed-grid time series: a supervisor tick closes a
//! bucket every `bucket` of simulated time, recording offered/completed/
//! SLO-attaining/shed counts and reviving any closed loop a drop or shed
//! has stalled. Availability is the fraction of buckets in which at
//! least one request completed; SLO attainment is the fraction of
//! completed requests under the campaign's latency SLO.

use std::fmt;
use std::time::Instant;

use bytes::Bytes;
use vrio::{
    blk_request, net_request_response, validate_outage_schedule, AdmissionConfig, HasTestbed,
    OracleConfig, Outage, Testbed, TestbedConfig,
};
use vrio_block::{BlockRequest, RequestId};
use vrio_hv::{IoModel, ReliabilityCounters};
use vrio_net::{FaultConfig, GeConfig};
use vrio_sim::{scenario_seed, Engine, SimDuration, SimTime};
use vrio_trace::{DropCause, Json, SloLedger, TelemetryConfig, TelemetryExport};

use crate::report::{f, render_table, sparkline};
use crate::sweep::run_indexed;
use crate::sys_exps::ReproConfig;

/// Schema version of the `BENCH_chaos_*.json` document. Bump on any
/// key-shape change. v2 added per-tenant SLO tables (`replicas[].tenants`)
/// and the summary drop-attribution breakdown.
pub const CHAOS_SCHEMA_VERSION: u64 = 2;

/// The named campaigns `repro --chaos` accepts.
pub const KNOWN_CAMPAIGNS: [&str; 5] = [
    "primary-kill",
    "rolling-restart",
    "correlated",
    "ge-storm",
    "surge",
];

/// A named, fully deterministic chaos campaign.
#[derive(Debug, Clone)]
pub struct ChaosCampaign {
    /// Campaign name (tags the output file and replica seeds).
    pub name: String,
    /// Independent replicas, each with a derived seed.
    pub replicas: usize,
    /// VMs driving closed-loop traffic.
    pub vms: usize,
    /// IOhosts in the redundancy ladder (1 = no backups).
    pub num_iohosts: usize,
    /// Per-IOhost outage schedules; index 0 is the primary. Shorter than
    /// `num_iohosts` means the remaining hosts stay up.
    pub outages: Vec<Vec<Outage>>,
    /// Channel fault injection (GE loss, delay spikes).
    pub faults: FaultConfig,
    /// IOhost admission control (disabled = admit everything).
    pub admission: AdmissionConfig,
    /// Load surge: extra closed loops per VM over `[start, end)`.
    pub surge: Option<(SimTime, SimTime, usize)>,
    /// Simulated run length.
    pub horizon: SimDuration,
    /// Series bucket width (the supervisor tick).
    pub bucket: SimDuration,
    /// Latency SLO for the attainment series.
    pub slo: SimDuration,
    /// Sample continuous telemetry tracks on the bucket grid. Observe-only:
    /// toggling it cannot change any other field of the rendered document.
    pub telemetry: bool,
    /// Base seed; replica `i` derives
    /// `scenario_seed(base_seed, "chaos/<name>/r<i>")`.
    pub base_seed: u64,
}

/// Errors from campaign lookup and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosError {
    /// `--chaos NAME` named no known campaign.
    UnknownCampaign {
        /// The unknown name.
        name: String,
    },
    /// The campaign has no replicas to run.
    ZeroReplicas {
        /// Campaign name.
        campaign: String,
    },
    /// The horizon is zero — nothing would be simulated.
    ZeroHorizon {
        /// Campaign name.
        campaign: String,
    },
    /// The bucket is zero or exceeds the horizon — no series grid.
    BadBucket {
        /// Campaign name.
        campaign: String,
    },
    /// `admission.tenant_weights` names some tenants but not every VM.
    TenantWeights {
        /// Campaign name.
        campaign: String,
        /// How many weights the campaign gives.
        weights: usize,
        /// How many VMs (tenants) it runs.
        vms: usize,
    },
    /// An IOhost's outage schedule failed validation.
    InvalidSchedule {
        /// Campaign name.
        campaign: String,
        /// Which IOhost.
        iohost: usize,
        /// The underlying validation message.
        message: String,
    },
}

impl fmt::Display for ChaosError {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::UnknownCampaign { name } => write!(
                out,
                "unknown chaos campaign '{name}'; known campaigns: {}",
                KNOWN_CAMPAIGNS.join(" ")
            ),
            ChaosError::ZeroReplicas { campaign } => {
                write!(out, "chaos campaign '{campaign}': replicas must be >= 1")
            }
            ChaosError::ZeroHorizon { campaign } => {
                write!(out, "chaos campaign '{campaign}': horizon must be positive")
            }
            ChaosError::BadBucket { campaign } => write!(
                out,
                "chaos campaign '{campaign}': bucket must be positive and no larger than the horizon"
            ),
            ChaosError::TenantWeights {
                campaign,
                weights,
                vms,
            } => write!(
                out,
                "chaos campaign '{campaign}': admission.tenant_weights names {weights} \
                 weights for {vms} VMs; give every VM a weight or none"
            ),
            ChaosError::InvalidSchedule {
                campaign,
                iohost,
                message,
            } => write!(
                out,
                "chaos campaign '{campaign}': iohost{iohost} outage schedule: {message}"
            ),
        }
    }
}

impl std::error::Error for ChaosError {}

impl ChaosCampaign {
    /// Looks up a named campaign, deriving the horizon from the preset.
    pub fn named(name: &str, rc: ReproConfig) -> Result<ChaosCampaign, ChaosError> {
        let h = rc.duration / 2;
        let base = ChaosCampaign {
            name: name.into(),
            replicas: 4,
            vms: 2,
            num_iohosts: 1,
            outages: Vec::new(),
            faults: FaultConfig::default(),
            admission: AdmissionConfig::default(),
            surge: None,
            horizon: h,
            bucket: h / 40,
            slo: SimDuration::micros(200),
            telemetry: false,
            base_seed: 1,
        };
        let at = |num: u64, den: u64| SimTime::ZERO + h * num / den;
        let window = |from: (u64, u64), to: (u64, u64)| Outage {
            fails_at: at(from.0, from.1),
            recovers_at: Some(at(to.0, to.1)),
        };
        let c = match name {
            // The acceptance scenario: the primary IOhost dies for a
            // quarter of the run; the backup carries the traffic.
            "primary-kill" => ChaosCampaign {
                num_iohosts: 2,
                outages: vec![vec![window((1, 4), (1, 2))]],
                ..base
            },
            // Three hosts restarted one after another: the ladder walks
            // down and back with no two hosts down at once.
            "rolling-restart" => ChaosCampaign {
                num_iohosts: 3,
                outages: vec![
                    vec![window((1, 8), (2, 8))],
                    vec![window((3, 8), (4, 8))],
                    vec![window((5, 8), (6, 8))],
                ],
                ..base
            },
            // Correlated failure: primary and backup die at the same
            // instant; the backup returns first, so the route walks
            // primary -> local -> backup -> primary.
            "correlated" => ChaosCampaign {
                num_iohosts: 2,
                outages: vec![vec![window((3, 8), (5, 8))], vec![window((3, 8), (4, 8))]],
                ..base
            },
            // No crashes: a bursty Gilbert-Elliott loss chain plus delay
            // spikes; the retransmission machinery carries block traffic
            // through the storm.
            "ge-storm" => ChaosCampaign {
                faults: FaultConfig {
                    ge: Some(GeConfig::bursty()),
                    delay_spike_prob: 0.02,
                    delay_spike: SimDuration::micros(50),
                    ..FaultConfig::default()
                },
                ..base
            },
            // Overload: a mid-run surge of extra closed loops against a
            // deliberately tight admission door with weighted tenants —
            // the controller sheds, the breaker may trip, and the series
            // records it all.
            "surge" => ChaosCampaign {
                admission: AdmissionConfig {
                    enabled: true,
                    queue_cap: 2,
                    hard_cap: 6,
                    tenant_weights: vec![3, 1],
                    window: SimDuration::millis(1),
                    breaker_shed_frac: 0.6,
                    breaker_cooldown: SimDuration::millis(2),
                },
                surge: Some((at(3, 8), at(5, 8), 6)),
                ..base
            },
            _ => return Err(ChaosError::UnknownCampaign { name: name.into() }),
        };
        c.validate()?;
        Ok(c)
    }

    /// Validates the campaign without running it.
    pub fn validate(&self) -> Result<(), ChaosError> {
        if self.replicas == 0 {
            return Err(ChaosError::ZeroReplicas {
                campaign: self.name.clone(),
            });
        }
        if self.horizon.is_zero() {
            return Err(ChaosError::ZeroHorizon {
                campaign: self.name.clone(),
            });
        }
        if self.bucket.is_zero() || self.bucket.as_nanos() > self.horizon.as_nanos() {
            return Err(ChaosError::BadBucket {
                campaign: self.name.clone(),
            });
        }
        let weights = self.admission.tenant_weights.len();
        if weights != 0 && weights != self.vms {
            return Err(ChaosError::TenantWeights {
                campaign: self.name.clone(),
                weights,
                vms: self.vms,
            });
        }
        for (k, sched) in self.outages.iter().enumerate() {
            if let Err(e) = validate_outage_schedule(sched) {
                return Err(ChaosError::InvalidSchedule {
                    campaign: self.name.clone(),
                    iohost: k,
                    message: e.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Replica `i`'s derived seed.
    pub fn replica_seed(&self, i: usize) -> u64 {
        scenario_seed(self.base_seed, &format!("chaos/{}/r{i}", self.name))
    }

    /// The testbed configuration replica `i` runs.
    pub fn config(&self, replica: usize) -> TestbedConfig {
        let mut c = TestbedConfig::simple(IoModel::Vrio, self.vms)
            .with_iohosts(self.num_iohosts)
            .with_seed(self.replica_seed(replica))
            .with_jitter(0.02)
            .with_slo(self.slo);
        if self.telemetry {
            // The supervisor tick samples the tracks, so the grid is the
            // bucket width.
            c.telemetry = TelemetryConfig::sampling(self.bucket);
        }
        if let Some(primary) = self.outages.first() {
            c.iohost_outages = primary.clone();
        }
        if self.outages.len() > 1 {
            c.backup_outages = self.outages[1..].to_vec();
        }
        c.faults = self.faults;
        c.admission = self.admission.clone();
        c.oracle = OracleConfig::on();
        // Chaos runs detect loss fast: a 2 ms initial retransmit keeps
        // block failover well inside the campaign's outage windows (the
        // paper's 10 ms timer would eat most of a short horizon).
        c.retx.initial_timeout = SimDuration::millis(2);
        c
    }

    /// Number of series buckets (the fixed measurement grid).
    pub fn num_buckets(&self) -> usize {
        self.horizon.as_nanos().div_ceil(self.bucket.as_nanos()) as usize
    }
}

/// One bucket of the per-replica time series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BucketSample {
    /// Requests offered (issued) during the bucket.
    pub offered: u64,
    /// Requests completed during the bucket.
    pub completed: u64,
    /// Completions meeting the latency SLO.
    pub slo_ok: u64,
    /// Requests shed by admission control during the bucket.
    pub shed: u64,
}

/// Measurements from one replica (plain data; crosses threads).
#[derive(Debug, Clone)]
pub struct ReplicaResult {
    /// Replica index.
    pub replica: usize,
    /// The derived seed it ran with.
    pub seed: u64,
    /// The fixed-grid series.
    pub buckets: Vec<BucketSample>,
    /// Fraction of buckets with at least one completion.
    pub availability: f64,
    /// Fraction of completions under the SLO.
    pub slo_attainment: f64,
    /// Total completions.
    pub completed: u64,
    /// Total requests shed by admission.
    pub sheds: u64,
    /// Breaker trips across the replica's IOhosts.
    pub breaker_trips: u64,
    /// Cross-IOhost steering handoffs.
    pub handoffs: u64,
    /// Reliability accounting (failovers, retransmissions, ...).
    pub report: ReliabilityCounters,
    /// Per-tenant SLO accounting and drop attribution (always on).
    pub slo: SloLedger,
    /// Continuous telemetry tracks (empty unless the campaign enables
    /// sampling).
    pub telemetry: TelemetryExport,
}

struct ChaosWorld {
    tb: Testbed,
    horizon: SimTime,
    slo: SimDuration,
    offered: u64,
    completed: u64,
    slo_ok: u64,
    /// Per-VM completion counts, for the supervisor's stall detection.
    completed_by_vm: Vec<u64>,
    blk_next_id: u64,
}

impl HasTestbed for ChaosWorld {
    fn tb(&mut self) -> &mut Testbed {
        &mut self.tb
    }
}

fn issue_rr(w: &mut ChaosWorld, eng: &mut Engine<ChaosWorld>, vm: usize, until: SimTime) {
    w.offered += 1;
    net_request_response(
        w,
        eng,
        vm,
        Bytes::from_static(b"chaos"),
        64,
        SimDuration::micros(4),
        move |w, eng, o| {
            w.completed += 1;
            w.completed_by_vm[vm] += 1;
            if o.latency.as_nanos() <= w.slo.as_nanos() {
                w.slo_ok += 1;
            }
            if eng.now() < until {
                issue_rr(w, eng, vm, until);
            }
        },
    );
}

fn issue_blk(w: &mut ChaosWorld, eng: &mut Engine<ChaosWorld>) {
    w.blk_next_id += 1;
    let id = w.blk_next_id;
    blk_request(
        w,
        eng,
        0,
        BlockRequest::write(
            RequestId(id),
            (id % 64) * 8,
            Bytes::from(vec![id as u8; 512]),
        ),
        move |w, eng, _o| {
            if eng.now() < w.horizon {
                issue_blk(w, eng);
            }
        },
    );
}

/// Runs one replica to completion on the calling thread, then closes the
/// testbed's books (exactly-once leak and SKB pool audits) and asserts
/// the oracle clean.
pub fn run_replica(c: &ChaosCampaign, replica: usize) -> ReplicaResult {
    let seed = c.replica_seed(replica);
    let horizon = SimTime::ZERO + c.horizon;
    let mut w = ChaosWorld {
        tb: Testbed::new(c.config(replica)),
        horizon,
        slo: c.slo,
        offered: 0,
        completed: 0,
        slo_ok: 0,
        completed_by_vm: vec![0; c.vms],
        blk_next_id: 0,
    };
    let mut eng: Engine<ChaosWorld> = Engine::new();
    // Telemetry samples on the supervisor tick below, not on a grid.
    w.tb.instrument(&mut eng);

    // Steady-state load: one RR loop per VM, one block loop on VM 0.
    for vm in 0..c.vms {
        issue_rr(&mut w, &mut eng, vm, horizon);
    }
    issue_blk(&mut w, &mut eng);

    // The surge: `extra` additional loops per VM, alive only inside the
    // surge window (their completions stop reissuing past `end`).
    if let Some((start, end, extra)) = c.surge {
        eng.schedule_at(start, move |w: &mut ChaosWorld, eng| {
            for vm in 0..w.completed_by_vm.len() {
                for _ in 0..extra {
                    issue_rr(w, eng, vm, end);
                }
            }
        });
    }

    // The supervisor: closes one bucket per tick, snapshotting counter
    // deltas and reviving any VM whose closed loop stalled (a dropped or
    // shed request never calls back, so the loop dies silently).
    let n_buckets = c.num_buckets();
    let buckets: std::rc::Rc<std::cell::RefCell<Vec<BucketSample>>> =
        std::rc::Rc::new(std::cell::RefCell::new(Vec::with_capacity(n_buckets)));
    struct Last {
        offered: u64,
        completed: u64,
        slo_ok: u64,
        shed: u64,
        by_vm: Vec<u64>,
    }
    let last = std::rc::Rc::new(std::cell::RefCell::new(Last {
        offered: 0,
        completed: 0,
        slo_ok: 0,
        shed: 0,
        by_vm: vec![0; c.vms],
    }));
    for k in 1..=n_buckets {
        let tick_at = SimTime::ZERO + c.bucket * k as u64;
        let buckets = buckets.clone();
        let last = last.clone();
        eng.schedule_at(tick_at.min(horizon), move |w: &mut ChaosWorld, eng| {
            // Observe-only sampling on the bucket grid (a no-op when the
            // campaign leaves telemetry off).
            w.tb.sample_telemetry(eng.now());
            let shed_now: u64 = w.tb.admission.iter().map(|a| a.total_shed()).sum();
            let mut l = last.borrow_mut();
            buckets.borrow_mut().push(BucketSample {
                offered: w.offered - l.offered,
                completed: w.completed - l.completed,
                slo_ok: w.slo_ok - l.slo_ok,
                shed: shed_now - l.shed,
            });
            l.offered = w.offered;
            l.completed = w.completed;
            l.slo_ok = w.slo_ok;
            l.shed = shed_now;
            if eng.now() < w.horizon {
                for vm in 0..w.completed_by_vm.len() {
                    if w.completed_by_vm[vm] == l.by_vm[vm] {
                        let until = w.horizon;
                        issue_rr(w, eng, vm, until);
                    }
                }
            }
            l.by_vm.copy_from_slice(&w.completed_by_vm);
        });
    }

    eng.run(&mut w);
    w.tb.close_books();
    w.tb.oracle
        .assert_clean(&format!("chaos/{}/r{replica}", c.name));
    // Every request has exactly one fate: completed, dropped with one
    // attributed cause, or still in flight at the horizon.
    if let Err(msg) = w.tb.slo.check_conservation() {
        panic!("chaos/{}/r{replica}: {msg}", c.name);
    }
    assert_eq!(
        w.tb.slo.total_completed(),
        w.completed,
        "chaos/{}/r{replica}: ledger completions disagree with the workload",
        c.name
    );

    let buckets = std::rc::Rc::try_unwrap(buckets)
        .expect("supervisor closures have all run")
        .into_inner();
    let with_completions = buckets.iter().filter(|b| b.completed > 0).count();
    let availability = with_completions as f64 / buckets.len().max(1) as f64;
    let slo_attainment = if w.completed > 0 {
        w.slo_ok as f64 / w.completed as f64
    } else {
        0.0
    };
    ReplicaResult {
        replica,
        seed,
        availability,
        slo_attainment,
        completed: w.completed,
        sheds: w.tb.admission.iter().map(|a| a.total_shed()).sum(),
        breaker_trips: w.tb.admission.iter().map(|a| a.breaker_trips).sum(),
        handoffs: w.tb.handoffs,
        report: w.tb.reliability_report(),
        slo: w.tb.slo.clone(),
        telemetry: w.tb.telemetry.export(),
        buckets,
    }
}

/// A completed campaign: one result per replica, in replica order.
#[derive(Debug, Clone)]
pub struct ChaosResult {
    /// The campaign that was run.
    pub campaign: ChaosCampaign,
    /// Per-replica results, ordered by replica index.
    pub replicas: Vec<ReplicaResult>,
}

/// Runs every replica of `campaign` across `threads` OS threads.
/// Scheduling is work-stealing, but each replica's world is private and
/// seeded only from `(base_seed, name, index)`, so the aggregated result
/// is byte-identical for any `threads >= 1`.
pub fn run_chaos(
    campaign: &ChaosCampaign,
    threads: usize,
    progress: bool,
) -> Result<ChaosResult, ChaosError> {
    campaign.validate()?;
    let started = Instant::now();
    let replicas = run_indexed(
        campaign.replicas,
        threads,
        |i| run_replica(campaign, i),
        |i, _, _| {
            if progress {
                eprintln!(
                    "chaos {}: replica {i} done ({:.1}s elapsed)",
                    campaign.name,
                    started.elapsed().as_secs_f64()
                );
            }
        },
    );
    Ok(ChaosResult {
        campaign: campaign.clone(),
        replicas,
    })
}

impl ChaosResult {
    /// Campaign-level availability: the minimum across replicas (the
    /// campaign is only as good as its worst world).
    pub fn min_availability(&self) -> f64 {
        self.replicas
            .iter()
            .map(|r| r.availability)
            .fold(f64::INFINITY, f64::min)
    }

    /// Renders the schema-versioned `BENCH_chaos_*.json` document.
    pub fn to_json(&self) -> Json {
        let c = &self.campaign;
        let outages = Json::Arr(
            c.outages
                .iter()
                .map(|sched| {
                    Json::Arr(
                        sched
                            .iter()
                            .map(|o| {
                                let mut pairs = vec![(
                                    "fails_at_us",
                                    Json::Num(o.fails_at.since(SimTime::ZERO).as_secs_f64() * 1e6),
                                )];
                                if let Some(r) = o.recovers_at {
                                    pairs.push((
                                        "recovers_at_us",
                                        Json::Num(r.since(SimTime::ZERO).as_secs_f64() * 1e6),
                                    ));
                                }
                                Json::obj(pairs)
                            })
                            .collect(),
                    )
                })
                .collect(),
        );
        let campaign = Json::obj(vec![
            ("name", Json::str(&c.name)),
            ("replicas", Json::int(c.replicas as u64)),
            ("vms", Json::int(c.vms as u64)),
            ("num_iohosts", Json::int(c.num_iohosts as u64)),
            ("base_seed", Json::int(c.base_seed)),
            ("horizon_ms", Json::Num(c.horizon.as_secs_f64() * 1e3)),
            ("bucket_us", Json::Num(c.bucket.as_secs_f64() * 1e6)),
            ("slo_us", Json::Num(c.slo.as_secs_f64() * 1e6)),
            ("outages", outages),
            ("admission_enabled", Json::Bool(c.admission.enabled)),
            ("faults_enabled", Json::Bool(c.faults.enabled())),
            ("surge", Json::Bool(c.surge.is_some())),
            ("telemetry", Json::Bool(c.telemetry)),
        ]);

        let series = |pick: fn(&BucketSample) -> u64, r: &ReplicaResult| {
            Json::Arr(r.buckets.iter().map(|b| Json::int(pick(b))).collect())
        };
        let replicas = Json::Arr(
            self.replicas
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("replica", Json::int(r.replica as u64)),
                        // Hex string: u64 seeds overflow JSON's exact
                        // f64-integer range.
                        ("seed", Json::str(&format!("{:#018x}", r.seed))),
                        ("availability", Json::Num(r.availability)),
                        ("slo_attainment", Json::Num(r.slo_attainment)),
                        ("completed", Json::int(r.completed)),
                        ("sheds", Json::int(r.sheds)),
                        ("breaker_trips", Json::int(r.breaker_trips)),
                        ("handoffs", Json::int(r.handoffs)),
                        ("failovers", Json::int(r.report.failovers)),
                        ("failbacks", Json::int(r.report.failbacks)),
                        ("retransmissions", Json::int(r.report.retransmissions)),
                        ("device_errors", Json::int(r.report.device_errors)),
                        ("channel_drops", Json::int(r.report.channel_drops)),
                        (
                            "series",
                            Json::obj(vec![
                                ("offered", series(|b| b.offered, r)),
                                ("completed", series(|b| b.completed, r)),
                                ("slo_ok", series(|b| b.slo_ok, r)),
                                ("shed", series(|b| b.shed, r)),
                            ]),
                        ),
                        ("tenants", r.slo.to_json()),
                    ])
                })
                .collect(),
        );

        Json::obj(vec![
            ("schema_version", Json::int(CHAOS_SCHEMA_VERSION)),
            ("kind", Json::str("chaos")),
            ("campaign", campaign),
            ("replicas", replicas),
            (
                "summary",
                Json::obj(vec![
                    ("min_availability", Json::Num(self.min_availability())),
                    (
                        "total_completed",
                        Json::int(self.replicas.iter().map(|r| r.completed).sum()),
                    ),
                    (
                        "total_sheds",
                        Json::int(self.replicas.iter().map(|r| r.sheds).sum()),
                    ),
                    (
                        "total_dropped",
                        Json::int(self.replicas.iter().map(|r| r.slo.total_dropped()).sum()),
                    ),
                    (
                        "drops",
                        Json::Obj(
                            DropCause::ALL
                                .iter()
                                .map(|&cause| {
                                    (
                                        cause.name().to_string(),
                                        Json::int(
                                            self.replicas
                                                .iter()
                                                .map(|r| r.slo.total_drops_of(cause))
                                                .sum(),
                                        ),
                                    )
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ])
    }

    /// Renders the human-readable summary.
    pub fn render_text(&self) -> String {
        let c = &self.campaign;
        let mut out = format!(
            "Chaos '{}' — {} replicas, {} ms horizon, {} buckets\n\n",
            c.name,
            c.replicas,
            f(c.horizon.as_secs_f64() * 1e3),
            c.num_buckets(),
        );
        let rows: Vec<Vec<String>> = self
            .replicas
            .iter()
            .map(|r| {
                vec![
                    format!("r{}", r.replica),
                    format!("{:.1}%", r.availability * 100.0),
                    format!("{:.1}%", r.slo_attainment * 100.0),
                    r.completed.to_string(),
                    r.sheds.to_string(),
                    format!("{}/{}", r.report.failovers, r.report.failbacks),
                    r.handoffs.to_string(),
                    r.report.retransmissions.to_string(),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &[
                "replica",
                "avail",
                "slo",
                "completed",
                "sheds",
                "fo/fb",
                "handoffs",
                "retx",
            ],
            &rows,
        ));
        if let Some(r0) = self.replicas.first() {
            let peak = r0
                .buckets
                .iter()
                .map(|b| b.completed)
                .max()
                .unwrap_or(0)
                .max(1) as f64;
            let series: Vec<f64> = r0
                .buckets
                .iter()
                .map(|b| b.completed as f64 / peak)
                .collect();
            out.push_str(&format!(
                "\ncompletions per bucket (replica 0): {}\n",
                sparkline(&series)
            ));
        }
        out
    }
}

// Campaigns cross into worker threads; results cross back.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ChaosCampaign>();
    assert_send::<ReplicaResult>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_rc() -> ReproConfig {
        ReproConfig {
            duration: SimDuration::millis(24),
            tail_duration: SimDuration::millis(24),
            ring: vrio_virtio::RingConfig::split_basic(),
        }
    }

    fn tiny(name: &str) -> ChaosCampaign {
        let mut c = ChaosCampaign::named(name, tiny_rc()).unwrap();
        c.replicas = 2;
        c
    }

    #[test]
    fn known_campaigns_validate_and_derive_stable_seeds() {
        for name in KNOWN_CAMPAIGNS {
            let c = ChaosCampaign::named(name, tiny_rc()).unwrap();
            c.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                c.replica_seed(0),
                scenario_seed(1, &format!("chaos/{name}/r0"))
            );
            assert_ne!(c.replica_seed(0), c.replica_seed(1));
        }
    }

    #[test]
    fn validation_rejects_bad_campaigns_with_clear_messages() {
        assert_eq!(
            ChaosCampaign::named("nope", tiny_rc())
                .unwrap_err()
                .to_string(),
            "unknown chaos campaign 'nope'; known campaigns: \
             primary-kill rolling-restart correlated ge-storm surge"
        );
        let mut c = tiny("primary-kill");
        c.replicas = 0;
        assert_eq!(
            c.validate().unwrap_err().to_string(),
            "chaos campaign 'primary-kill': replicas must be >= 1"
        );
        let mut c = tiny("primary-kill");
        c.horizon = SimDuration::ZERO;
        assert_eq!(
            c.validate().unwrap_err().to_string(),
            "chaos campaign 'primary-kill': horizon must be positive"
        );
        let mut c = tiny("primary-kill");
        c.bucket = c.horizon * 2u64;
        assert_eq!(
            c.validate().unwrap_err().to_string(),
            "chaos campaign 'primary-kill': bucket must be positive and no larger than the horizon"
        );
        let mut c = tiny("surge");
        c.vms = 3;
        assert_eq!(
            c.validate().unwrap_err().to_string(),
            "chaos campaign 'surge': admission.tenant_weights names 2 weights for 3 VMs; \
             give every VM a weight or none"
        );
        // Refused up front instead of panicking inside a replica.
        assert!(matches!(
            run_chaos(&c, 1, false),
            Err(ChaosError::TenantWeights { .. })
        ));
        c.admission.tenant_weights = vec![3, 1, 1];
        c.validate().expect("one weight per VM");
        c.admission.tenant_weights.clear();
        c.validate()
            .expect("no weights: every tenant weighs the same");
        let mut c = tiny("primary-kill");
        c.outages = vec![vec![Outage {
            fails_at: SimTime::ZERO + SimDuration::millis(2),
            recovers_at: Some(SimTime::ZERO + SimDuration::millis(1)),
        }]];
        let msg = c.validate().unwrap_err().to_string();
        assert!(
            msg.starts_with("chaos campaign 'primary-kill': iohost0 outage schedule:"),
            "{msg}"
        );
    }

    #[test]
    fn primary_kill_is_thread_count_invariant_and_available() {
        let c = tiny("primary-kill");
        let one = run_chaos(&c, 1, false).unwrap();
        let two = run_chaos(&c, 2, false).unwrap();
        assert_eq!(
            one.to_json().render_pretty(),
            two.to_json().render_pretty(),
            "chaos JSON must not depend on thread count"
        );
        // Rerun at the same seed: byte-identical.
        let again = run_chaos(&c, 2, false).unwrap();
        assert_eq!(
            one.to_json().render_pretty(),
            again.to_json().render_pretty()
        );
        // The backup carried the outage: availability stays near 1 even
        // though the primary was down for a quarter of the run (detection
        // plus revival costs at most a couple of buckets).
        for r in &one.replicas {
            assert!(
                r.availability >= 0.9,
                "replica {} availability {}",
                r.replica,
                r.availability
            );
            assert!(r.report.failovers >= 1, "no failover observed");
            assert!(r.handoffs >= 1, "no cross-IOhost handoff");
            assert_eq!(r.report.device_errors, 0);
            assert!(r.completed > 100);
        }
    }

    #[test]
    fn schema_v2_attributes_every_drop_to_one_tenant_and_cause() {
        let c = tiny("primary-kill");
        let res = run_chaos(&c, 2, false).unwrap();
        let doc = res.to_json();
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_f64),
            Some(2.0),
            "per-tenant tables are a schema-v2 feature"
        );
        for r in &res.replicas {
            // The ledger conserves per tenant and agrees with the
            // workload's own completion count.
            r.slo.check_conservation().unwrap();
            assert_eq!(r.slo.total_completed(), r.completed);
            // Outage drops were actually attributed: the primary was down
            // for a quarter of the run.
            assert!(
                r.slo.total_dropped() > 0,
                "replica {} recorded no drops through the outage",
                r.replica
            );
        }
        // The JSON per-tenant tables sum to the replica-level globals.
        let replicas = doc.get("replicas").and_then(Json::as_array).unwrap();
        for (r, rj) in res.replicas.iter().zip(replicas) {
            let tenants = rj.get("tenants").and_then(Json::as_array).unwrap();
            assert_eq!(tenants.len(), c.vms);
            let offered: f64 = tenants
                .iter()
                .map(|t| t.get("offered").and_then(Json::as_f64).unwrap())
                .sum();
            let dropped: f64 = tenants
                .iter()
                .map(|t| t.get("dropped").and_then(Json::as_f64).unwrap())
                .sum();
            assert_eq!(offered, r.slo.total_offered() as f64);
            assert_eq!(dropped, r.slo.total_dropped() as f64);
        }
        // And the summary drop table sums across replicas, cause by cause.
        for cause in vrio_trace::DropCause::ALL {
            let total: u64 = res
                .replicas
                .iter()
                .map(|r| r.slo.total_drops_of(cause))
                .sum();
            let got = doc
                .get_path("summary.drops")
                .and_then(|d| d.get(cause.name()))
                .and_then(Json::as_f64)
                .unwrap();
            assert_eq!(got, total as f64, "summary.drops.{}", cause.name());
        }
    }

    #[test]
    fn telemetry_sampling_is_observe_only_and_records_tracks() {
        let base = tiny("primary-kill");
        let mut sampled = base.clone();
        sampled.telemetry = true;
        let off = run_chaos(&base, 2, false).unwrap();
        let on = run_chaos(&sampled, 2, false).unwrap();
        // Byte-identical measurement: only the campaign's own `telemetry`
        // flag may differ between the two documents.
        assert_eq!(
            off.to_json().get("replicas").unwrap().render_pretty(),
            on.to_json().get("replicas").unwrap().render_pretty(),
            "telemetry sampling changed chaos measurements"
        );
        assert_eq!(
            off.to_json().get("summary").unwrap().render_pretty(),
            on.to_json().get("summary").unwrap().render_pretty(),
        );
        // The sampled run actually produced tracks on the bucket grid.
        for r in &on.replicas {
            assert!(!r.telemetry.tracks.is_empty(), "no tracks sampled");
            assert_eq!(r.telemetry.interval, base.bucket);
            let route = r
                .telemetry
                .track("health.vmhost0.route")
                .expect("route track sampled");
            assert!(!route.points.is_empty());
        }
        for r in &off.replicas {
            assert!(r.telemetry.tracks.is_empty());
        }
    }

    #[test]
    fn surge_sheds_and_recovers() {
        let c = tiny("surge");
        let res = run_chaos(&c, 2, false).unwrap();
        for r in &res.replicas {
            assert!(r.sheds > 0, "the surge never tripped admission");
            // Sheds concentrate inside the surge window: the last eighth
            // of the run (surge long over) sees at most stray steady-state
            // sheds, never a meaningful share of the total.
            let n = r.buckets.len();
            let tail_shed: u64 = r.buckets[n - n / 8..].iter().map(|b| b.shed).sum();
            assert!(
                tail_shed * 10 <= r.sheds,
                "sheds persisted past the surge: {tail_shed} of {} in the tail",
                r.sheds
            );
            // Traffic survived: every replica kept completing requests.
            assert!(r.availability > 0.9);
            // The surge's net sheds landed in the ledger under the shed
            // causes (queue cap, fair-share triage, or an open breaker).
            let attributed: u64 = [
                DropCause::ShedQueue,
                DropCause::ShedFair,
                DropCause::ShedBreaker,
            ]
            .iter()
            .map(|&cause| r.slo.total_drops_of(cause))
            .sum();
            assert!(attributed > 0, "surge sheds were never attributed");
        }
    }

    #[test]
    fn ge_storm_rides_retransmission_with_zero_device_errors() {
        let c = tiny("ge-storm");
        let res = run_chaos(&c, 2, false).unwrap();
        for r in &res.replicas {
            assert!(r.report.injected_losses > 0, "the storm injected no losses");
            assert!(r.report.retransmissions > 0);
            assert_eq!(r.report.block_completed, r.report.block_sent);
        }
    }
}
