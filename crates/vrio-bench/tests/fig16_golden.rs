//! Golden-file test for Figure 16: sidecore consolidation (16a) and the
//! AES-256 imbalance experiment (16b). Figure 16b is the only paper figure
//! whose requests run the host cipher, and its throughput must come from
//! the simulated cost model (`CostModel::aes_cost`) alone, so the rendered
//! figure must match `tests/golden/fig16_quick.txt` byte for byte however
//! fast or slow the host AES implementation is.
//!
//! To refresh after an intentional model change, run a binary printing
//! `fig16(ReproConfig { duration: 120ms, tail_duration: 120ms })` and
//! commit the new file, justifying the throughput change in the PR.

mod golden;

use vrio_bench::{fig16, ReproConfig};
use vrio_sim::SimDuration;

#[test]
fn fig16_throughput_matches_the_committed_golden_file() {
    let rc = ReproConfig {
        duration: SimDuration::millis(120),
        tail_duration: SimDuration::millis(120),
        ring: vrio_virtio::RingConfig::split_basic(),
    };
    golden::assert_golden(
        "fig16_quick.txt",
        include_str!("golden/fig16_quick.txt"),
        &fig16(rc),
        "simulated Figure 16 throughput changed",
    );
}
