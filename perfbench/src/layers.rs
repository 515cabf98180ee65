//! Layer replays: the benchmark calls each layer's public functions
//! directly, at the sizes the workload actually moved, and times them.
//! Each replay is one span in the traced run's log.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use vrio::{AesCtr, DeviceId, Steering, VrioMsg, VrioMsgKind};
use vrio_block::Ramdisk;
use vrio_net::{reassemble_train, segment_message_into, SkbPool, MTU_VRIO_JUMBO};
use vrio_sim::Profiler;
use vrio_virtio::{DeviceQueue, DriverQueue, GuestAddr, GuestMemory, VirtqueueLayout};

use crate::flows::Sizes;
use crate::plan::vrio_msg_len;
use crate::spans::{SpanLog, ROOT};

/// Minimum operations per replay, so short size lists still time well.
const MIN_OPS: usize = 4096;

/// Host cost per operation of each replayed layer call.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCosts {
    /// One virtqueue round trip: `add_chain`, `pop_avail`, `push_used`,
    /// `poll_used`.
    pub virtio_roundtrip_ns: f64,
    /// `VrioMsg` encode + decode, per message.
    pub codec_ns_per_msg: f64,
    /// `VrioMsg` encode + decode, per KiB of message.
    pub codec_ns_per_kib: f64,
    /// `segment_message_into` + `reassemble_train` + pool release, per
    /// train (0 when the workload has no train).
    pub tso_train_ns: f64,
    /// `Ramdisk::write`/`read`, per operation (0 without block traffic).
    pub ramdisk_ns_per_op: f64,
    /// `Ramdisk::write`/`read`, per KiB.
    pub ramdisk_ns_per_kib: f64,
    /// `AesCtr::process`, per pass (0 without interposition).
    pub aes_ns_per_pass: f64,
    /// `AesCtr::process`, per KiB.
    pub aes_ns_per_kib: f64,
    /// `Steering::assign` + `complete`, per request.
    pub steer_ns: f64,
    /// Host cost of one empty profiler scope (the profiler's own
    /// overhead per timed call).
    pub prof_scope_ns: f64,
}

/// Times `f` over `ops` iterations inside one span named `name`,
/// returning host ns per iteration.
fn timed(
    log: &mut Option<SpanLog>,
    name: &'static str,
    ops: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    let t0 = Instant::now();
    for i in 0..ops {
        f(i);
    }
    let t1 = Instant::now();
    if let Some(log) = log {
        log.push(name, t0, t1, ROOT, 0);
    }
    t1.duration_since(t0).as_nanos() as f64 / ops.max(1) as f64
}

fn ops_for(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n.max(MIN_OPS)
    }
}

/// Replays every layer at the sizes in `sizes`. `vms` and `workers`
/// shape the steering table; `aes` says whether the workload interposes.
pub fn replay(
    sizes: &Sizes,
    vms: usize,
    workers: usize,
    aes: bool,
    log: &mut Option<SpanLog>,
) -> LayerCosts {
    let mut c = LayerCosts::default();
    let buf = Bytes::from(vec![0xC3u8; 96 * 1024]);

    // Guest/device virtqueue round trip, one chain per request.
    let chains: Vec<(u32, u32)> = sizes
        .rr
        .iter()
        .map(|&r| (sizes.rr_req.max(1) as u32, r as u32))
        .chain(sizes.blk.iter().map(|&(_, len)| (len as u32, 16)))
        .collect();
    if !chains.is_empty() {
        let mut mem = GuestMemory::new(0x40000);
        let layout = VirtqueueLayout::new(64, GuestAddr(0x100));
        let mut drv = DriverQueue::new(layout);
        let mut dev = DeviceQueue::new(layout);
        c.virtio_roundtrip_ns = timed(log, "replay.virtio", ops_for(chains.len()), |i| {
            let (r, w) = chains[i % chains.len()];
            let head = drv
                .add_chain(
                    &mut mem,
                    &[(GuestAddr(0x10000), r)],
                    &[(GuestAddr(0x30000), w)],
                )
                .expect("replay ring has room");
            let chain = dev.pop_avail(&mem).expect("pop").expect("just published");
            dev.push_used(&mut mem, chain.head, w).expect("push used");
            let used = drv.poll_used(&mem).expect("poll").expect("just pushed");
            assert_eq!(used.head, head);
        });
    }

    // vRIO message codec: one NetRx message per request-response, one
    // BlkReq message (8-byte id + write data) per block request.
    let msgs: Vec<(VrioMsgKind, usize)> = sizes
        .rr
        .iter()
        .map(|_| (VrioMsgKind::NetRx, sizes.rr_req))
        .chain(
            sizes
                .blk
                .iter()
                .map(|&(write, len)| (VrioMsgKind::BlkReq, 8 + if write { len } else { 0 })),
        )
        .collect();
    if !msgs.is_empty() {
        let n = ops_for(msgs.len());
        let kib: f64 = (0..n)
            .map(|i| (msgs[i % msgs.len()].1 + vrio::VRIO_HDR_SIZE) as f64)
            .sum::<f64>()
            / 1024.0;
        let dev = DeviceId {
            client: 1,
            device: 1,
        };
        c.codec_ns_per_msg = timed(log, "replay.proto", n, |i| {
            let (kind, len) = msgs[i % msgs.len()];
            let wire = VrioMsg::new(kind, dev, i as u64, buf.slice(..len)).encode();
            black_box(VrioMsg::decode(black_box(wire)).expect("valid message"));
        });
        c.codec_ns_per_kib = c.codec_ns_per_msg * n as f64 / kib;
    }

    // TSO trains: block writes whose message exceeds the channel MTU.
    let trains: Vec<usize> = sizes
        .blk
        .iter()
        .filter(|&&(write, len)| write && vrio_msg_len(len) > MTU_VRIO_JUMBO)
        .map(|&(_, len)| vrio_msg_len(len))
        .collect();
    if !trains.is_empty() {
        let mut pool = SkbPool::new();
        let mut segs = Vec::new();
        c.tso_train_ns = timed(log, "replay.tso", ops_for(trains.len()), |i| {
            let len = trains[i % trains.len()];
            segment_message_into(buf.slice(..len), MTU_VRIO_JUMBO, i as u32 + 1, &mut segs)
                .expect("within TSO bound");
            let skb = reassemble_train(&mut segs, &mut pool).expect("consistent train");
            pool.release(black_box(skb)).expect("returned once");
        });
    }

    // Ramdisk reads and writes.
    if !sizes.blk.is_empty() {
        let mut disk = Ramdisk::new(128 * 1024);
        let n = ops_for(sizes.blk.len());
        let kib: f64 = (0..n)
            .map(|i| sizes.blk[i % sizes.blk.len()].1 as f64)
            .sum::<f64>()
            / 1024.0;
        c.ramdisk_ns_per_op = timed(log, "replay.block", n, |i| {
            let (write, len) = sizes.blk[i % sizes.blk.len()];
            if write {
                disk.write(0, &buf[..len]).expect("in range");
            } else {
                black_box(disk.read(0, len as u64).expect("in range"));
            }
        });
        c.ramdisk_ns_per_kib = c.ramdisk_ns_per_op * n as f64 / kib;
    }

    // AES-256-CTR, one pass per block request's data.
    if aes && !sizes.blk.is_empty() {
        let key = [0x42u8; 32];
        let n = ops_for(sizes.blk.len());
        let kib: f64 = (0..n)
            .map(|i| sizes.blk[i % sizes.blk.len()].1 as f64)
            .sum::<f64>()
            / 1024.0;
        c.aes_ns_per_pass = timed(log, "replay.aes", n, |i| {
            let len = sizes.blk[i % sizes.blk.len()].1;
            black_box(AesCtr::new(&key, i as u64 + 1).process(&buf[..len]));
        });
        c.aes_ns_per_kib = c.aes_ns_per_pass * n as f64 / kib;
    }

    // IOhost steering: assign then complete, cycling the VMs.
    let requests = sizes.rr.len() + sizes.blk.len();
    if requests > 0 {
        let mut steering = Steering::new(workers.max(1));
        c.steer_ns = timed(log, "replay.steer", ops_for(requests), |i| {
            let d = DeviceId {
                client: (i % vms.max(1)) as u32,
                device: 0,
            };
            black_box(steering.assign(d));
            steering.complete(d);
        });
    }

    // The profiler's own cost per scope.
    let prof = Profiler::new(true);
    c.prof_scope_ns = timed(log, "replay.prof_scope", 1 << 16, |_| {
        let _g = black_box(prof.scope("bench.empty"));
    });
    c
}
