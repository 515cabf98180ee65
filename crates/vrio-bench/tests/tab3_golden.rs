//! Golden-file test for the Table 3 event counters: the per-request
//! virtualization-event accounting is fully deterministic, so the rendered
//! table must match `tests/golden/tab3_quick.txt` byte for byte. A
//! mismatch fails with a line-by-line diff naming exactly which model's
//! counters moved.
//!
//! To refresh after an intentional counter change, run a binary printing
//! `tab3(ReproConfig { duration: 120ms, tail_duration: 120ms })` and
//! commit the new file — and justify the counter change in the PR, since
//! Table 3 is the paper's central cost claim.

mod golden;

use vrio_bench::{tab3, ReproConfig};
use vrio_sim::SimDuration;

#[test]
fn tab3_counters_match_the_committed_golden_file() {
    let rc = ReproConfig {
        duration: SimDuration::millis(120),
        tail_duration: SimDuration::millis(120),
        ring: vrio_virtio::RingConfig::split_basic(),
    };
    golden::assert_golden(
        "tab3_quick.txt",
        include_str!("golden/tab3_quick.txt"),
        &tab3(rc),
        "the per-request event counters changed",
    );
}
