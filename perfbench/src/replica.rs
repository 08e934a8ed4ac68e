//! The traced co-simulation loop: `System::run_to_completion` rebuilt
//! from public functions, with a span around every call into a crate.
//!
//! The replica owns its memory manager, TLBs, hierarchy and cores. The
//! address-space layout is copied from a `System` the workload was mapped
//! into, so demand paging hands out the same frames in the same order and
//! the run must reproduce the `System`'s `RunStats` bit for bit.

use sim_engine::Cycle;
use swiftdir_cache::L1Architecture;
use swiftdir_coherence::{CoreRequest, Hierarchy};
use swiftdir_core::{RunStats, System, SystemConfig, ThreadStats};
use swiftdir_cpu::{
    Core, CpuModel, InOrderCore, Instr, InstrStream, MemOp, MemPort, OutOfOrderCore,
};
use swiftdir_mmu::{Access, Backing, MemoryManager, SpaceId, Tlb, TlbEntry, TlbStats, VirtAddr};

use crate::spans::{timed, Layer, SharedLog};

/// Counts the memory port sees, beyond what the hierarchy and TLB record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortCounts {
    /// `MemoryManager::translate` calls (TLB misses and permission
    /// upgrades).
    pub translates: u64,
    /// Page-table levels walked, summed over translations.
    pub walk_levels: u64,
    /// Demand-paging and copy-on-write faults taken.
    pub faults: u64,
    /// Requests issued into the hierarchy.
    pub issues: u64,
    /// `Core::run` calls.
    pub run_calls: u64,
    /// `Hierarchy::tick_into` calls.
    pub ticks: u64,
}

/// What one traced run produced.
#[derive(Debug, Clone)]
pub struct ReplicaRun {
    /// Statistics built exactly as `System::run_to_completion` builds them.
    pub stats: RunStats,
    /// Per-core data-TLB statistics, in core order.
    pub tlb: Vec<TlbStats>,
    /// Port-side counts.
    pub counts: PortCounts,
}

/// An instruction stream whose every `next_instr` is a span.
struct TracedStream<S> {
    inner: S,
    log: SharedLog,
}

impl<S: InstrStream> InstrStream for TracedStream<S> {
    fn next_instr(&mut self) -> Option<Instr> {
        timed(&self.log, Layer::NextInstr, || self.inner.next_instr())
    }

    fn remaining_hint(&self) -> Option<u64> {
        self.inner.remaining_hint()
    }
}

struct Slot {
    cpu: Option<Box<dyn Core>>,
    space: Option<SpaceId>,
    dtlb: Tlb,
}

/// A machine assembled from the simulator's public parts.
pub struct Replica {
    cfg: SystemConfig,
    mm: MemoryManager,
    hier: Hierarchy,
    slots: Vec<Slot>,
    log: SharedLog,
}

impl Replica {
    /// A machine for `cfg` whose address spaces copy `layout`'s mappings
    /// (not its page tables: nothing has run on `layout` yet).
    ///
    /// # Panics
    ///
    /// Panics if `layout` holds a file-backed mapping (the benchmark's
    /// workloads map anonymous memory only) or a mapping cannot be copied.
    pub fn new(cfg: SystemConfig, layout: &mut System, log: SharedLog) -> Self {
        let src = layout.memory_manager();
        let mut mm = MemoryManager::new();
        let ids: Vec<SpaceId> = src.space_ids().collect();
        for id in ids {
            let copy = mm.create_space();
            assert_eq!(copy, id, "spaces are created in id order");
            for vma in src.space(id).vmas() {
                assert_eq!(vma.backing, Backing::Anonymous, "anonymous mappings only");
                mm.space_mut(copy)
                    .map_fixed(vma.start, vma.pages, vma.prot, vma.flags, vma.backing)
                    .expect("copy of a non-overlapping layout");
            }
        }
        let slots = (0..cfg.cores)
            .map(|_| Slot {
                cpu: None,
                space: None,
                dtlb: Tlb::new(cfg.tlb_entries),
            })
            .collect();
        Replica {
            hier: Hierarchy::new(cfg.hierarchy()),
            cfg,
            mm,
            slots,
            log,
        }
    }

    /// Starts a thread of address space `space` on `core`, the way
    /// `System::run_thread_stream` does, with its stream traced.
    pub fn start<S: InstrStream + 'static>(&mut self, space: SpaceId, core: usize, stream: S) {
        assert!(
            self.slots[core].cpu.is_none(),
            "core {core} already has a thread"
        );
        let stream = TracedStream {
            inner: stream,
            log: self.log.clone(),
        };
        let start = self.hier.now();
        let cpu: Box<dyn Core> = match self.cfg.cpu_model {
            CpuModel::TimingSimple => Box::new(InOrderCore::new(stream, start)),
            CpuModel::DerivO3 => Box::new(OutOfOrderCore::new(stream, start)),
        };
        self.slots[core].cpu = Some(cpu);
        self.slots[core].space = Some(space);
    }

    /// Runs every started thread to completion inside one root span.
    ///
    /// # Panics
    ///
    /// Panics on deadlock, as `System::run_to_completion` does.
    pub fn run(mut self) -> ReplicaRun {
        let log = self.log.clone();
        let mut counts = PortCounts::default();
        let mut completions = Vec::new();
        log.borrow_mut().enter(Layer::Loop);
        loop {
            for (i, slot) in self.slots.iter_mut().enumerate() {
                let Slot { cpu, space, dtlb } = slot;
                let Some(cpu) = cpu.as_mut() else {
                    continue;
                };
                if !cpu.done() {
                    let mut port = TracedPort {
                        core: i,
                        space: space.expect("running thread has a space"),
                        cfg: &self.cfg,
                        mm: &mut self.mm,
                        hier: &mut self.hier,
                        dtlb,
                        log: &log,
                        counts: &mut counts,
                    };
                    timed(&log, Layer::Cpu, || cpu.run(&mut port));
                    counts.run_calls += 1;
                }
            }

            let hier = &mut self.hier;
            let ticked = timed(&log, Layer::Tick, || match hier.next_event_time() {
                Some(t) => {
                    hier.tick_into(t, &mut completions);
                    true
                }
                None => false,
            });
            if ticked {
                counts.ticks += 1;
                for c in completions.drain(..) {
                    if let Some(cpu) = self.slots[c.core].cpu.as_mut() {
                        timed(&log, Layer::Cpu, || cpu.on_mem_complete(c.req, c.done_at));
                    }
                }
            } else {
                let all_done = self
                    .slots
                    .iter()
                    .all(|s| s.cpu.as_ref().is_none_or(|c| c.done()));
                if all_done {
                    break;
                }
                unreachable!("deadlock: threads waiting with no pending events");
            }
        }
        log.borrow_mut().exit();

        let mut threads = Vec::new();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(cpu) = slot.cpu.take() {
                threads.push(ThreadStats {
                    core: i,
                    cpu: cpu.stats(),
                });
            }
        }
        ReplicaRun {
            stats: RunStats {
                threads,
                hierarchy: self.hier.stats().clone(),
                memory: self.hier.mem_stats(),
            },
            tlb: self.slots.iter().map(|s| s.dtlb.stats()).collect(),
            counts,
        }
    }
}

/// The replica's memory port: `System`'s translation and injection, one
/// span per call into the MMU and coherence crates.
struct TracedPort<'a> {
    core: usize,
    space: SpaceId,
    cfg: &'a SystemConfig,
    mm: &'a mut MemoryManager,
    hier: &'a mut Hierarchy,
    dtlb: &'a mut Tlb,
    log: &'a SharedLog,
    counts: &'a mut PortCounts,
}

impl TracedPort<'_> {
    fn translate(&mut self, va: VirtAddr, op: MemOp) -> (swiftdir_mmu::PhysAddr, bool, u64) {
        let arch: L1Architecture = self.cfg.l1_architecture;
        let vpn = va.vpn();

        if let Some(entry) = timed(self.log, Layer::Tlb, || self.dtlb.lookup(vpn)) {
            if op == MemOp::Load || entry.writable {
                let paddr = entry.pfn.at_offset(va.page_offset());
                return (paddr, entry.write_protected, arch.hit_translation_cycles(1));
            }
        }

        let access = match op {
            MemOp::Load => Access::Read,
            MemOp::Store => Access::Write,
        };
        let (t, pte) = timed(self.log, Layer::Translate, || {
            let t = self
                .mm
                .translate(self.space, va, access)
                .unwrap_or_else(|e| panic!("segfault on core {}: {e}", self.core));
            let pte = self
                .mm
                .space(self.space)
                .page_table()
                .get(vpn)
                .expect("translate installed a PTE");
            (t, pte)
        });
        self.counts.translates += 1;
        self.counts.walk_levels += u64::from(t.walk_levels);
        self.counts.faults += u64::from(t.faults);
        timed(self.log, Layer::Tlb, || {
            if t.faults > 0 {
                self.dtlb.shootdown(vpn);
            }
            self.dtlb.fill(TlbEntry {
                vpn,
                pfn: pte.pfn,
                writable: pte.writable,
                write_protected: t.write_protected,
            });
        });

        let mut extra = t.walk_levels as u64 * self.cfg.walk_cycles_per_level;
        extra += t.faults as u64
            * if access == Access::Write && !t.write_protected && t.faults > 0 {
                self.cfg.cow_fault_cycles
            } else {
                self.cfg.demand_fault_cycles
            };
        if arch == L1Architecture::Vivt
            && timed(self.log, Layer::Issue, || {
                self.hier.l1_state(self.core, t.paddr).load_hits()
            })
        {
            extra = 0;
        }
        (t.paddr, t.write_protected, extra)
    }
}

impl MemPort for TracedPort<'_> {
    fn issue(&mut self, at: Cycle, vaddr: VirtAddr, op: MemOp) -> u64 {
        let (paddr, wp, extra) = self.translate(vaddr, op);
        let mut req = match op {
            MemOp::Load => CoreRequest::load(paddr),
            MemOp::Store => CoreRequest::store(paddr),
        };
        if wp {
            req = req.write_protected();
        }
        self.counts.issues += 1;
        timed(self.log, Layer::Issue, || {
            self.hier.issue_translated(at, extra, self.core, req)
        })
    }
}
