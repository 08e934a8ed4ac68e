//! Whole-system configuration (paper Table V).

use swiftdir_cache::L1Architecture;
use swiftdir_coherence::{HierarchyConfig, ProtocolKind};
use swiftdir_cpu::CpuModel;

/// Configuration of a simulated machine.
///
/// Defaults reproduce the paper's Table V: a 3 GHz out-of-order processor
/// (192-entry ROB, 32-entry LQ/SQ, width 8), 32 KB 4-way L1s with 1-cycle
/// round trip, a shared 2 MB-per-core 16-way L2 with 16-cycle round trip,
/// 64-entry fully-associative TLBs, and DDR3-1600 memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Number of cores (Table V: 1–4).
    pub cores: usize,
    /// Coherence protocol.
    pub protocol: ProtocolKind,
    /// CPU model (`TimingSimpleCPU` or `DerivO3CPU`).
    pub cpu_model: CpuModel,
    /// L1 addressing architecture (paper §IV-B; default VIPT, the common
    /// modern choice).
    pub l1_architecture: L1Architecture,
    /// Data-TLB entries (Table V: 64, fully associative).
    pub tlb_entries: usize,
    /// Cycles per page-table level on a TLB miss (each level is roughly an
    /// LLC-latency access to the page-walk cache / LLC).
    pub walk_cycles_per_level: u64,
    /// OS cost of a demand-paging fault, in cycles.
    pub demand_fault_cycles: u64,
    /// OS cost of a copy-on-write fault, in cycles.
    pub cow_fault_cycles: u64,
    /// Address-sharded LLC/directory banks (power of two; see
    /// [`HierarchyConfig::banks`]).
    pub banks: usize,
    /// Per-hop mesh NoC latency in cycles (see
    /// [`HierarchyConfig::mesh_hop_latency`]).
    pub mesh_hop_latency: u64,
}

impl SystemConfig {
    /// A builder seeded with Table V defaults.
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder::default()
    }

    /// The hierarchy configuration implied by this system configuration.
    pub fn hierarchy(&self) -> HierarchyConfig {
        HierarchyConfig::table_v(self.cores, self.protocol)
            .with_banks(self.banks)
            .with_mesh_hop_latency(self.mesh_hop_latency)
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::builder().build()
    }
}

/// Builder for [`SystemConfig`].
#[derive(Debug, Clone, Copy)]
pub struct SystemConfigBuilder {
    cfg: SystemConfig,
}

impl Default for SystemConfigBuilder {
    fn default() -> Self {
        SystemConfigBuilder {
            cfg: SystemConfig {
                cores: 4,
                protocol: ProtocolKind::Mesi,
                cpu_model: CpuModel::DerivO3,
                l1_architecture: L1Architecture::Vipt,
                tlb_entries: 64,
                walk_cycles_per_level: 16,
                demand_fault_cycles: 1500,
                cow_fault_cycles: 2000,
                banks: 1,
                mesh_hop_latency: 0,
            },
        }
    }
}

impl SystemConfigBuilder {
    /// Sets the core count.
    ///
    /// # Panics
    ///
    /// Panics at [`build`](Self::build) time if zero.
    pub fn cores(mut self, cores: usize) -> Self {
        self.cfg.cores = cores;
        self
    }

    /// Sets the coherence protocol.
    pub fn protocol(mut self, protocol: ProtocolKind) -> Self {
        self.cfg.protocol = protocol;
        self
    }

    /// Sets the CPU model.
    pub fn cpu_model(mut self, model: CpuModel) -> Self {
        self.cfg.cpu_model = model;
        self
    }

    /// Sets the L1 addressing architecture.
    pub fn l1_architecture(mut self, arch: L1Architecture) -> Self {
        self.cfg.l1_architecture = arch;
        self
    }

    /// Sets the data-TLB capacity.
    pub fn tlb_entries(mut self, entries: usize) -> Self {
        self.cfg.tlb_entries = entries;
        self
    }

    /// Sets the per-level page-walk cost.
    pub fn walk_cycles_per_level(mut self, cycles: u64) -> Self {
        self.cfg.walk_cycles_per_level = cycles;
        self
    }

    /// Sets the demand-fault OS cost.
    pub fn demand_fault_cycles(mut self, cycles: u64) -> Self {
        self.cfg.demand_fault_cycles = cycles;
        self
    }

    /// Sets the copy-on-write OS cost.
    pub fn cow_fault_cycles(mut self, cycles: u64) -> Self {
        self.cfg.cow_fault_cycles = cycles;
        self
    }

    /// Shards the LLC/directory into `banks` address-interleaved banks
    /// (default: one monolithic bank).
    ///
    /// # Panics
    ///
    /// Panics at [`build`](Self::build) time unless a power of two.
    pub fn banks(mut self, banks: usize) -> Self {
        self.cfg.banks = banks;
        self
    }

    /// Sets the per-hop mesh NoC latency.
    pub fn mesh_hop_latency(mut self, cycles: u64) -> Self {
        self.cfg.mesh_hop_latency = cycles;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or `tlb_entries` is zero.
    pub fn build(self) -> SystemConfig {
        assert!(self.cfg.cores >= 1, "at least one core");
        assert!(self.cfg.tlb_entries >= 1, "at least one TLB entry");
        assert!(
            self.cfg.banks.is_power_of_two(),
            "banks must be a power of two, got {}",
            self.cfg.banks
        );
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_v_defaults() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.cores, 4);
        assert_eq!(cfg.protocol, ProtocolKind::Mesi);
        assert_eq!(cfg.cpu_model, CpuModel::DerivO3);
        assert_eq!(cfg.l1_architecture, L1Architecture::Vipt);
        assert_eq!(cfg.tlb_entries, 64);
    }

    #[test]
    fn builder_round_trip() {
        let cfg = SystemConfig::builder()
            .cores(2)
            .protocol(ProtocolKind::SwiftDir)
            .cpu_model(CpuModel::TimingSimple)
            .l1_architecture(L1Architecture::Vivt)
            .tlb_entries(8)
            .walk_cycles_per_level(10)
            .demand_fault_cycles(100)
            .cow_fault_cycles(200)
            .build();
        assert_eq!(cfg.cores, 2);
        assert_eq!(cfg.protocol, ProtocolKind::SwiftDir);
        assert_eq!(cfg.cpu_model, CpuModel::TimingSimple);
        assert_eq!(cfg.l1_architecture, L1Architecture::Vivt);
        assert_eq!(cfg.hierarchy().cores, 2);
    }

    #[test]
    fn banks_flow_into_the_hierarchy() {
        let cfg = SystemConfig::builder()
            .cores(64)
            .banks(8)
            .mesh_hop_latency(1)
            .build();
        let h = cfg.hierarchy();
        assert_eq!(h.banks, 8);
        assert_eq!(h.mesh_hop_latency, 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_banks_rejected() {
        SystemConfig::builder().banks(6).build();
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        SystemConfig::builder().cores(0).build();
    }
}
