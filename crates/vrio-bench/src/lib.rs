//! # vrio-bench
//!
//! The benchmark harness of the vRIO reproduction: one function per table
//! and figure of the paper, each returning a plain-text report comparing
//! the paper's numbers with the testbed's measurements. The `repro` binary
//! drives them (`cargo run -p vrio-bench --bin repro -- --all`), and the
//! criterion benches under `benches/` time the underlying machinery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod cost_exps;
mod differential;
mod obs;
mod report;
mod sweep;
mod sys_exps;
mod telem;

pub use chaos::{
    run_chaos, run_replica, BucketSample, ChaosCampaign, ChaosError, ChaosResult, ReplicaResult,
    CHAOS_SCHEMA_VERSION, KNOWN_CAMPAIGNS,
};
pub use cost_exps::{fig1, fig2, fig3, tab1, tab2};
pub use differential::{
    all_cases, differential, run_case, run_pair, DiffCase, DiffFault, DiffWorkload, Digest,
    PairOutcome,
};
pub use obs::{latency_breakdown_instrumented, ObsReport};
pub use report::{downsample, f, render_reliability, render_table, sparkline};
pub use sweep::{
    run_scenario, run_sweep, ConsolidationPoint, EfficiencyPoint, EfficiencySeries, Scenario,
    ScenarioResult, SweepError, SweepResult, SweepSpec, SweepWorkload, KNOWN_SPECS,
    SWEEP_SCHEMA_VERSION,
};
pub use sys_exps::{
    failover, fig10, fig11, fig12, fig13, fig14, fig15, fig16, fig5, fig7, fig8, fig9, hetero,
    retx_validation, rings, tab3, tab4, ReproConfig,
};
pub use telem::{prof_bundle, telemetry_bundle, PROF_SCHEMA_VERSION};
