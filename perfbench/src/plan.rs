//! Workload inputs. Every request the benchmark will issue is generated
//! here from the seed, before any timed region: the simulator receives
//! only these inputs.

use bytes::Bytes;
use vrio::{TestbedConfig, VRIO_HDR_SIZE};
use vrio_hv::IoModel;
use vrio_net::MAX_TSO_MSG;
use vrio_sim::SimDuration;

use crate::calib::Kernel;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop request-response, 16 VMs, engine- and flow-bound.
    NetRr,
    /// Block reads and writes of 4-64 KiB, data-movement-bound.
    BlkRw,
    /// Webserver chunk reads and log appends through AES-256-CTR.
    BlkAes,
    /// The five named chaos campaigns through the replica runner.
    Chaos,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::NetRr,
        Workload::BlkRw,
        Workload::BlkAes,
        Workload::Chaos,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NetRr => "net-rr",
            Workload::BlkRw => "blk-rw",
            Workload::BlkAes => "blk-aes",
            Workload::Chaos => "chaos",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: the benchmark's own input generator, independent of the
/// simulator's RNG streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a named input stream.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One request the benchmark issues.
#[derive(Debug, Clone)]
pub enum Req {
    /// A network request-response with a `resp_len`-byte answer.
    Rr {
        /// Response length the guest returns.
        resp_len: usize,
    },
    /// A block read of `len` bytes at byte offset `offset`.
    Read {
        /// Byte offset (4 KiB aligned).
        offset: u64,
        /// Length in bytes.
        len: u32,
    },
    /// A block write of `data` at byte offset `offset`.
    Write {
        /// Byte offset (4 KiB aligned).
        offset: u64,
        /// The payload.
        data: Bytes,
    },
}

impl Req {
    /// Whether the benchmark refuses this request instead of submitting
    /// it: a write whose vRIO message (header, 8-byte request id, data)
    /// exceeds the TSO bound panics inside the simulator (see NOTES.md).
    pub fn refused(&self) -> bool {
        matches!(self, Req::Write { data, .. } if vrio_msg_len(data.len()) > MAX_TSO_MSG)
    }
}

/// Encoded length of the vRIO block-request message carrying `data_len`
/// bytes (header + 8-byte request id + data).
pub fn vrio_msg_len(data_len: usize) -> usize {
    VRIO_HDR_SIZE + 8 + data_len
}

/// A closed loop: the next batch is issued when every request of the
/// previous one has completed. Batches cycle.
#[derive(Debug, Clone)]
pub struct Slot {
    /// The VM the slot's requests run on.
    pub vm: usize,
    /// The batches, issued in order and cyclically.
    pub batches: Vec<Vec<Req>>,
}

/// Everything one repetition of a (non-chaos) workload needs.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload this plan belongs to.
    pub workload: Workload,
    /// The testbed configuration (observers off).
    pub config: TestbedConfig,
    /// AES-256 key of the interposed `EncryptionService`, if any.
    pub aes_key: Option<[u8; 32]>,
    /// The closed loops.
    pub slots: Vec<Slot>,
    /// Requests are issued until this much simulated time has passed;
    /// the run then drains.
    pub horizon: SimDuration,
    /// Guest application time per request-response.
    pub app_time: SimDuration,
    /// Request payload of every request-response.
    pub rr_request: Bytes,
    /// The parts of the reference kernel that match the workload's kind
    /// of host work (see `calib`).
    pub reference: &'static [Kernel],
}

impl Plan {
    /// A fingerprint of the generated inputs (the same seed gives the
    /// same fingerprint).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.config.seed);
        h.u64(self.horizon.as_nanos());
        for s in &self.slots {
            h.u64(s.vm as u64);
            for b in &s.batches {
                for r in b {
                    match r {
                        Req::Rr { resp_len } => h.u64(*resp_len as u64),
                        Req::Read { offset, len } => {
                            h.u64(*offset);
                            h.u64(u64::from(*len));
                        }
                        Req::Write { offset, data } => {
                            h.u64(*offset);
                            h.bytes(data);
                        }
                    }
                }
            }
        }
        h.finish()
    }
}

/// 64-bit FNV-1a, for digests and fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The FNV offset basis.
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    /// Folds in bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds in a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

const KIB4: u64 = 4096;
/// Bytes of disk each block slot owns (slots never overlap, so every
/// read has exactly one correct answer).
const REGION: u64 = 1 << 20;
/// Batches generated per slot before the loop cycles.
const BATCHES: usize = 1024;

/// Random payload pools: writes take seed-chosen windows of these.
fn payload_pool(rng: &mut Rng) -> Vec<Bytes> {
    (0..8)
        .map(|_| {
            let mut v = vec![0u8; 128 * 1024];
            for chunk in v.chunks_mut(8) {
                chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
            }
            Bytes::from(v)
        })
        .collect()
}

fn payload(pool: &[Bytes], rng: &mut Rng, len: usize) -> Bytes {
    let buf = &pool[rng.below(pool.len() as u64) as usize];
    let start = 8 * rng.below(((buf.len() - len) / 8 + 1) as u64) as usize;
    buf.slice(start..start + len)
}

/// Builds the inputs of `workload` (not chaos) for `seed`. `scale`
/// multiplies the simulated horizon (1.0 for benchmark runs; the tests
/// use less).
pub fn plan(workload: Workload, seed: u64, scale: f64) -> Plan {
    let mut rng = Rng::new(seed, workload as u64 + 1);
    let horizon_us = |us: f64| SimDuration::micros((us * scale).max(50.0) as u64);
    match workload {
        Workload::NetRr => {
            let config = TestbedConfig::simple(IoModel::Vrio, 16)
                .with_vmhosts(2)
                .with_backend_cores(4)
                .with_jitter(0.02)
                .with_seed(seed);
            let slots = (0..16)
                .map(|vm| Slot {
                    vm,
                    batches: (0..BATCHES)
                        .map(|_| {
                            vec![Req::Rr {
                                resp_len: 1 + rng.below(1024) as usize,
                            }]
                        })
                        .collect(),
                })
                .collect();
            Plan {
                workload,
                config,
                aes_key: None,
                slots,
                horizon: horizon_us(100_000.0),
                app_time: SimDuration::micros(2),
                rr_request: Bytes::from_static(b"q"),
                reference: &[Kernel::EventLoop, Kernel::Cipher],
            }
        }
        Workload::BlkRw => {
            const VMS: usize = 4;
            const SLOTS_PER_VM: u64 = 3;
            let mut config = TestbedConfig::simple(IoModel::Vrio, VMS)
                .with_backend_cores(2)
                .with_seed(seed);
            config.block_capacity = (SLOTS_PER_VM * REGION) as usize;
            let pool = payload_pool(&mut rng);
            let mut slots = Vec::new();
            for vm in 0..VMS {
                for k in 0..SLOTS_PER_VM {
                    let batches = (0..BATCHES)
                        .map(|_| {
                            let len = KIB4 * (1 + rng.below(16));
                            let offset = k * REGION + KIB4 * rng.below((REGION - len) / KIB4 + 1);
                            let req = if rng.below(2) == 0 {
                                Req::Read {
                                    offset,
                                    len: len as u32,
                                }
                            } else {
                                Req::Write {
                                    offset,
                                    data: payload(&pool, &mut rng, len as usize),
                                }
                            };
                            vec![req]
                        })
                        .collect();
                    slots.push(Slot { vm, batches });
                }
            }
            Plan {
                workload,
                config,
                aes_key: None,
                slots,
                horizon: horizon_us(240_000.0),
                app_time: SimDuration::ZERO,
                rr_request: Bytes::new(),
                reference: &[Kernel::EventLoop, Kernel::Copy],
            }
        }
        Workload::BlkAes => {
            const VMS: usize = 5;
            const FILE_CHUNKS: u64 = 7;
            const FILE: u64 = FILE_CHUNKS * KIB4;
            let mut config = TestbedConfig::simple(IoModel::Vrio, VMS)
                .with_backend_cores(2)
                .with_seed(seed);
            config.block_capacity = (4 * REGION) as usize;
            let mut key = [0u8; 32];
            for chunk in key.chunks_mut(8) {
                chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
            }
            let pool = payload_pool(&mut rng);
            let mut slots = Vec::new();
            for vm in 0..VMS {
                // Three webserver threads: whole-file reads as seven 4 KiB
                // chunks issued together; every eighth batch rewrites the
                // file instead (a fixed mix, so every seed does the same
                // amount of each kind of work).
                for k in 0..3u64 {
                    let batches = (0..BATCHES)
                        .map(|b| {
                            let base = k * REGION + FILE * rng.below(REGION / FILE);
                            let rewrite = b % 8 == 7;
                            (0..FILE_CHUNKS)
                                .map(|c| {
                                    let offset = base + c * KIB4;
                                    if rewrite {
                                        Req::Write {
                                            offset,
                                            data: payload(&pool, &mut rng, KIB4 as usize),
                                        }
                                    } else {
                                        Req::Read {
                                            offset,
                                            len: KIB4 as u32,
                                        }
                                    }
                                })
                                .collect()
                        })
                        .collect();
                    slots.push(Slot { vm, batches });
                }
                // The log thread: sequential 4 KiB appends.
                let batches = (0..BATCHES as u64)
                    .map(|i| {
                        vec![Req::Write {
                            offset: 3 * REGION + (i * KIB4) % REGION,
                            data: payload(&pool, &mut rng, KIB4 as usize),
                        }]
                    })
                    .collect();
                slots.push(Slot { vm, batches });
            }
            Plan {
                workload,
                config,
                aes_key: Some(key),
                slots,
                horizon: horizon_us(64_000.0),
                app_time: SimDuration::ZERO,
                rr_request: Bytes::new(),
                reference: &[Kernel::Cipher],
            }
        }
        Workload::Chaos => unreachable!("chaos runs through the replica runner, not a plan"),
    }
}
