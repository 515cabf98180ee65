//! Non-vacuity tests: every per-layer count is nonzero where its workload
//! exercises the layer and zero where the workload bypasses it, the
//! allocation counter moves, and seeds behave (same seed, same digest;
//! different seed, different inputs).

use std::hint::black_box;
use std::rc::Rc;

use bytes::Bytes;
use vrio::AesCtr;

use crate::alloc::allocations;
use crate::chaos;
use crate::flows::{run_rep, Mode, Nonces};
use crate::plan::{plan, Req, Workload};
use crate::report::{run, Outcome};
use crate::Args;

/// Short horizons keep the tests quick; correctness is still gated.
fn args(seed: u64, scale: f64) -> Args {
    Args {
        workload: None,
        seed,
        seconds: 0.05,
        trace: true,
        spans_out: std::env::temp_dir()
            .join("perfbench-test-spans")
            .to_string_lossy()
            .into_owned(),
        scale,
    }
}

fn traced(w: Workload, scale: f64) -> Outcome {
    let o = run(w, &args(3, scale));
    assert!(
        o.correct,
        "{} failed its checks: {:?}",
        w.name(),
        o.failures
    );
    o
}

fn get(o: &Outcome, name: &str) -> f64 {
    o.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

#[test]
fn allocation_counter_moves_on_a_known_allocation() {
    let before = allocations();
    let b = black_box(Box::new([7u8; 64]));
    assert!(allocations() > before);
    drop(b);
}

#[test]
fn net_rr_exercises_engine_and_rings_and_bypasses_data_layers() {
    let o = traced(Workload::NetRr, 0.02);
    for name in [
        "sim.events_per_req",
        "sim.host_ns_per_event",
        "sim.pop_ns",
        "sim.callback_ns",
        "testbed.issue_ns",
        "testbed.issue_allocs",
        "virtio.chains_per_req",
        "virtio.notifies_per_req",
        "virtio.roundtrip_ns",
        "hv.interrupts_per_req",
        "proto.msgs_per_req",
        "iohost.steer_ns",
    ] {
        assert!(get(&o, name) > 0.0, "net-rr: {name} should be above 0");
    }
    for name in [
        "net.tso_segments_per_req",
        "net.tso_train_ns",
        "block.ops_per_req",
        "interpose.kib_per_req",
        "interpose.aes_ns_per_kib",
        "transport.retx_per_req",
        "health.failovers",
        "admission.shed_frac",
        "runner.parallel_efficiency",
    ] {
        assert_eq!(get(&o, name), 0.0, "net-rr bypasses {name}");
    }
}

#[test]
fn blk_rw_exercises_tso_block_and_pool_but_not_aes() {
    let o = traced(Workload::BlkRw, 0.02);
    for name in [
        "net.tso_segments_per_req",
        "net.tso_train_ns",
        "net.skb_recycle_ratio",
        "block.ops_per_req",
        "block.ramdisk_ns_per_kib",
        "proto.codec_ns_per_kib",
        "transport.first_try_ratio",
    ] {
        assert!(get(&o, name) > 0.0, "blk-rw: {name} should be above 0");
    }
    for name in [
        "interpose.kib_per_req",
        "interpose.aes_ns_per_kib",
        "hv.exits_per_req",
    ] {
        assert_eq!(get(&o, name), 0.0, "blk-rw bypasses {name}");
    }
}

#[test]
fn blk_aes_is_the_only_workload_that_interposes() {
    let o = traced(Workload::BlkAes, 0.05);
    assert!(get(&o, "interpose.kib_per_req") > 0.0);
    assert!(get(&o, "interpose.aes_ns_per_kib") > 0.0);
    assert!(get(&o, "block.ops_per_req") > 0.0);
    assert_eq!(
        get(&o, "net.tso_segments_per_req"),
        0.0,
        "4 KiB chunks fit one frame"
    );
}

#[test]
fn chaos_exercises_retransmission_failover_admission_and_the_runner() {
    let o = traced(Workload::Chaos, 0.25);
    for name in [
        "transport.retx_per_req",
        "health.failovers",
        "admission.shed_frac",
        "runner.parallel_efficiency",
        "oracle.ns_per_req",
        "telemetry.sample_ns",
    ] {
        assert!(get(&o, name) > 0.0, "chaos: {name} should be above 0");
    }
    assert_eq!(get(&o, "interpose.kib_per_req"), 0.0);
}

#[test]
fn end_to_end_run_reports_every_metric_and_counts_the_refused_writes() {
    let mut a = args(5, 0.02);
    a.trace = false;
    let o = run(Workload::BlkRw, &a);
    assert!(o.correct, "{:?}", o.failures);
    let names: Vec<&str> = o.metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "wall_ref",
            "req_per_ref",
            "allocs_per_req",
            "peak_heap_mb",
            "completed_frac",
            "setup_s"
        ]
    );
    assert!(get(&o, "allocs_per_req") > 0.0);
    let frac = get(&o, "completed_frac");
    assert!(
        frac > 0.9 && frac < 1.0,
        "64 KiB writes are refused: {frac}"
    );
}

#[test]
fn same_seed_same_digest_different_seed_different_inputs() {
    for w in [Workload::NetRr, Workload::BlkRw, Workload::BlkAes] {
        let a = plan(w, 11, 0.01);
        let b = plan(w, 11, 0.01);
        let c = plan(w, 12, 0.01);
        assert_eq!(a.fingerprint(), b.fingerprint(), "{}", w.name());
        assert_ne!(a.fingerprint(), c.fingerprint(), "{}", w.name());
        let (a, b) = (Rc::new(a), Rc::new(b));
        let ra = run_rep(&a, Mode::Check);
        let rb = run_rep(&b, Mode::Plain);
        assert_eq!(ra.failed, 0, "{}: {:?}", w.name(), ra.failures);
        assert_eq!(ra.digest, rb.digest, "{}", w.name());
        assert!(ra.completed > 0);
    }
    let a = chaos::campaigns(11, 0.01);
    let c = chaos::campaigns(12, 0.01);
    assert_ne!(a[0].replica_seed(0), c[0].replica_seed(0));
}

#[test]
fn observers_leave_the_digest_unchanged() {
    let p = Rc::new(plan(Workload::NetRr, 4, 0.01));
    let base = run_rep(&p, Mode::Plain).digest;
    for mode in [Mode::Traced, Mode::Oracle, Mode::Tracer, Mode::Telemetry] {
        let r = run_rep(&p, mode);
        assert_eq!(r.failed, 0, "{mode:?}: {:?}", r.failures);
        assert_eq!(r.digest, base, "{mode:?} changed the simulated outputs");
    }
}

#[test]
fn only_writes_past_the_tso_bound_are_refused() {
    let write = |len: usize| Req::Write {
        offset: 0,
        data: Bytes::from(vec![0u8; len]),
    };
    assert!(write(64 * 1024).refused());
    assert!(!write(60 * 1024).refused());
    assert!(!Req::Read {
        offset: 0,
        len: 64 * 1024
    }
    .refused());
}

#[test]
fn aes_shadow_finds_the_nonce_and_rejects_wrong_bytes() {
    let key = [9u8; 32];
    let plain = vec![0x11u8; 4096];
    let mut book = Nonces::default();
    let c3 = AesCtr::new(&key, 3).process(&plain);
    assert!(book.claim(&key, &plain, &c3));
    assert!(!book.claim(&key, &plain, &c3), "a nonce is used once");
    let mut bad = AesCtr::new(&key, 1).process(&plain);
    bad[4095] ^= 1;
    assert!(
        !book.claim(&key, &plain, &bad),
        "one flipped byte must fail"
    );
}
