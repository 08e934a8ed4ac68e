//! Per-operation costs of the substrates' public functions, timed in
//! isolation, and the host-speed kernel.
//!
//! The cases are the ones the repository's `microbench` bench prints; here
//! they become numbers the traced run reports and uses to split
//! `Hierarchy::tick_into` into what counts × costs explain and what they
//! do not.

use std::hint::black_box;
use std::time::Instant;

use sim_engine::{Cycle, DetRng, EventQueue};
use swiftdir_cache::{CacheArray, CacheGeometry, ReplacementPolicy};
use swiftdir_mem::{DramConfig, MemoryController};
use swiftdir_mmu::{Pfn, PhysAddr, Tlb, TlbEntry, Vpn};

/// Operations in one timed iteration of every case.
const OPS: u32 = 1000;
const WARMUP: usize = 5;
const ITERS: usize = 31;

/// Median nanoseconds per operation of `f`, which performs [`OPS`]
/// operations per call.
fn ns_per_op<R>(mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..WARMUP {
        black_box(f());
    }
    let mut times: Vec<f64> = (0..ITERS)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    crate::median(&mut times) / f64::from(OPS)
}

/// Per-operation substrate costs, in host nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct SubstrateCosts {
    /// One event through `EventQueue::schedule` + `pop_batch` (the path
    /// `Hierarchy::tick_into` takes).
    pub queue_batch_ns: f64,
    /// One event through `EventQueue::schedule` + `pop` (the stepping
    /// path the fuzzer and explorer take).
    pub queue_pop_ns: f64,
    /// One `CacheArray::get`, or `insert` on a miss, on the Table V L1.
    pub cache_ns: f64,
    /// One `Tlb::lookup`, plus `fill` on a miss.
    pub tlb_ns: f64,
    /// One `MemoryController::access`.
    pub dram_ns: f64,
}

impl SubstrateCosts {
    /// Times every case.
    pub fn measure() -> Self {
        SubstrateCosts {
            queue_pop_ns: ns_per_op(|| {
                let mut q: EventQueue<u32> = EventQueue::new();
                for i in 0..OPS {
                    q.schedule(Cycle((u64::from(i) * 7919) % 4096), i);
                }
                let mut acc = 0u64;
                while let Some((_, v)) = q.pop() {
                    acc += u64::from(v);
                }
                acc
            }),
            queue_batch_ns: ns_per_op(|| {
                let mut q: EventQueue<u32> = EventQueue::new();
                for i in 0..OPS {
                    q.schedule(Cycle((u64::from(i) * 7919) % 4096), i);
                }
                let mut acc = 0u64;
                let mut batch = Vec::new();
                while q.pop_batch(Cycle::MAX, &mut batch).is_some() {
                    for v in batch.drain(..) {
                        acc += u64::from(v);
                    }
                }
                acc
            }),
            cache_ns: ns_per_op(|| {
                let mut array: CacheArray<u8> =
                    CacheArray::new(CacheGeometry::table_v_l1(), ReplacementPolicy::Lru);
                let mut rng = DetRng::new(1);
                let mut hits = 0u32;
                for _ in 0..OPS {
                    let addr = rng.below(1 << 16) * 64;
                    if array.get(addr).is_some() {
                        hits += 1;
                    } else {
                        array.insert(addr, 0);
                    }
                }
                hits
            }),
            tlb_ns: ns_per_op(|| {
                let mut tlb = Tlb::new(64);
                let mut rng = DetRng::new(2);
                let mut hits = 0u32;
                for _ in 0..OPS {
                    let vpn = Vpn(rng.below(128));
                    if tlb.lookup(vpn).is_none() {
                        tlb.fill(TlbEntry {
                            vpn,
                            pfn: Pfn(vpn.0 + 100),
                            writable: true,
                            write_protected: false,
                        });
                    } else {
                        hits += 1;
                    }
                }
                hits
            }),
            dram_ns: ns_per_op(|| {
                let mut mc = MemoryController::new(DramConfig::default());
                let mut t = Cycle(0);
                for i in 0..u64::from(OPS) {
                    t = mc.access(t, PhysAddr(i * 64), i % 4 == 0);
                }
                t
            }),
        }
    }
}

/// Iterations of one [`host_speed_ms`] timing (about 0.2 ms).
const SPEED_ITERS: u32 = 40_000;

/// Milliseconds of a short throughput-bound kernel that uses no repository
/// code: eight independent xorshift chains, the median of three timings.
/// It moves only with the host. Unlike a single latency-bound chain, it
/// slows down with a neighbour on the same physical core much as the
/// simulator does, so the end-to-end times are scaled by it (see README,
/// "Host spread").
pub fn host_speed_ms() -> f64 {
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box([1u64, 2, 3, 4, 5, 6, 7, 8]);
            for _ in 0..SPEED_ITERS {
                for v in &mut x {
                    *v ^= *v << 13;
                    *v ^= *v >> 7;
                    *v ^= *v << 17;
                }
            }
            black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::median(&mut times)
}
