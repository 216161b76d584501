//! Platform calibration constants.
//!
//! A [`PlatformSpec`] carries everything the engines need to instantiate a
//! platform: structural counts (Table 1), per-segment latencies (decomposed
//! from Table 2 as described in DESIGN.md §4), and per-level bandwidth
//! capacities (Table 3). Latencies are `f64` nanoseconds because the paper
//! reports sub-nanosecond cache latencies; engines round to whole-ns event
//! times when scheduling.
//!
//! The presets encode the two processors the paper characterizes plus a
//! monolithic-SoC baseline used for the ablation in `bench/ablation_monolithic`.

use chiplet_sim::{Bandwidth, ByteSize};
use serde::{Deserialize, Serialize};

use crate::position::DimmPosition;

/// Which platform family a spec describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlatformKind {
    /// AMD EPYC 7302 (Zen 2), the Dell 7525 testbed.
    Epyc7302,
    /// AMD EPYC 9634 (Zen 4), the Supermicro testbed with CXL modules.
    Epyc9634,
    /// A hypothetical monolithic SoC with the 7302's resources but a single
    /// die and an over-provisioned crossbar: the paper's point of contrast.
    Monolithic,
    /// A user-constructed platform.
    Custom,
}

/// Cache hierarchy constants (Tables 1 and 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheSpec {
    /// Per-core L1 data cache capacity.
    pub l1_size: ByteSize,
    /// Per-core L2 capacity.
    pub l2_size: ByteSize,
    /// Shared L3 slice capacity per CCX.
    pub l3_size_per_ccx: ByteSize,
    /// L1 hit latency in nanoseconds.
    pub l1_latency_ns: f64,
    /// L2 hit latency in nanoseconds.
    pub l2_latency_ns: f64,
    /// L3 hit latency in nanoseconds.
    pub l3_latency_ns: f64,
}

/// Traffic-control (outstanding-request limiter) constants from §3.2:
/// the queueless, token-based module at the CCX/CCD boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficCtrlSpec {
    /// Maximum queueing delay the CCX-level module can add, ns (Table 2
    /// "Max CCX Q": 30 on the 7302, 20 on the 9634).
    pub ccx_max_queue_ns: f64,
    /// Maximum queueing delay of the CCD-level module, ns; `None` on parts
    /// with one CCX per CCD (the 9634) where the module doesn't exist.
    pub ccd_max_queue_ns: Option<f64>,
}

/// I/O-die NoC constants (§3.2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NocSpec {
    /// Latency of one switching hop, ns (~8 on the 7302, ~4 on the 9634).
    pub shop_latency_ns: f64,
    /// I/O hub traversal latency, ns (~15 on both).
    pub io_hub_latency_ns: f64,
    /// Whether the die provisions a diagonal express route (the paper
    /// observes diagonal ≈ horizontal latency on the 9634).
    pub diagonal_express: bool,
    /// Switch hops on the shortest (near) memory path.
    pub near_hops: u32,
}

/// Memory path and UMC constants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemSpec {
    /// Number of UMC channels (== DIMMs in this model).
    pub umc_count: u32,
    /// Latency from the core through L1/L2/L3 miss handling, the Infinity
    /// Fabric, and the cache-coherent master, up to the first NoC switch, ns.
    pub core_to_fabric_ns: f64,
    /// Latency from the coherent station through the UMC and DRAM access, ns.
    pub cs_umc_dram_ns: f64,
    /// Per-UMC read capacity (21.1 GB/s on the 7302, 34.9 on the 9634).
    pub umc_read_bw: Bandwidth,
    /// Per-UMC write capacity (19.0 / 28.3 GB/s).
    pub umc_write_bw: Bandwidth,
}

/// Memory-level parallelism limits (what caps a *single* core's bandwidth,
/// §3.3: "limited by the per-core memory-level parallelism").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpSpec {
    /// Outstanding cacheline reads a core can keep in flight to DRAM.
    pub core_read_outstanding: u32,
    /// Outstanding reads a core can keep in flight to a CXL device (fewer
    /// tags are available on the CXL.mem path).
    pub cxl_core_read_outstanding: u32,
    /// Write-combining buffers per core: posted non-temporal writes in
    /// flight. 7 lines at ~124–141 ns drain RTT ≈ the 3.3–3.6 GB/s per-core
    /// write ceilings of Table 3.
    pub core_write_outstanding: u32,
}

/// Directional bandwidth capacities at each aggregation level (Table 3).
///
/// Reads and writes traverse distinct link directions (data flows toward the
/// core on reads, away on writes), so every level has separate capacities —
/// the mechanism behind the read/write interference onsets of Figure 6.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelCaps {
    /// A single core's sustainable DRAM read bandwidth.
    pub core_read: Bandwidth,
    /// A single core's sustainable (non-temporal) DRAM write bandwidth.
    pub core_write: Bandwidth,
    /// CCX-level limiter read capacity.
    pub ccx_read: Bandwidth,
    /// CCX-level limiter write capacity.
    pub ccx_write: Bandwidth,
    /// Per-CCD GMI link read capacity.
    pub gmi_read: Bandwidth,
    /// Per-CCD GMI link write capacity.
    pub gmi_write: Bandwidth,
    /// Socket-wide I/O-die NoC routing read capacity.
    pub noc_read: Bandwidth,
    /// Socket-wide I/O-die NoC routing write capacity.
    pub noc_write: Bandwidth,
}

/// CXL memory expansion constants (the 9634 testbed's Micron CZ120 path).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CxlSpec {
    /// Number of CXL modules attached.
    pub device_count: u32,
    /// PCIe root complex traversal, ns.
    pub root_complex_ns: f64,
    /// P-Link traversal, ns.
    pub plink_ns: f64,
    /// CXL controller + media access latency inside the device, ns.
    pub device_ns: f64,
    /// Switch hops between the CCM and the I/O hub on the CXL path.
    pub shop_hops: u32,
    /// CXL.mem FLIT size in bytes (68 or 256).
    pub flit_bytes: u32,
    /// Single-core read bandwidth ceiling to CXL.
    pub core_read: Bandwidth,
    /// Single-core write bandwidth ceiling to CXL.
    pub core_write: Bandwidth,
    /// Per-CCD read ceiling to CXL.
    pub ccd_read: Bandwidth,
    /// Per-CCD write ceiling to CXL.
    pub ccd_write: Bandwidth,
    /// Aggregate P-Link/CXL read capacity (all devices).
    pub plink_read: Bandwidth,
    /// Aggregate P-Link/CXL write capacity (all devices).
    pub plink_write: Bandwidth,
}

/// A DMA-capable PCIe NIC attached to the I/O hub (§4 #3: terabit NICs
/// whose inter-fabric bandwidth rivals a compute chiplet's).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NicSpec {
    /// DMA-read capacity (device pulls from memory: the TX path).
    pub dma_read_bw: Bandwidth,
    /// DMA-write capacity (device pushes into memory: the RX path).
    pub dma_write_bw: Bandwidth,
    /// One-way latency from the I/O hub through root complex and PCIe
    /// lanes to the device, ns.
    pub latency_ns: f64,
    /// Outstanding DMA transactions the device engine sustains.
    pub outstanding: u32,
}

impl NicSpec {
    /// A 400 GbE-class NIC: ~50 GB/s of line rate each way, deep DMA queues.
    pub fn gbe400() -> Self {
        NicSpec {
            dma_read_bw: Bandwidth::from_gb_per_s(50.0),
            dma_write_bw: Bandwidth::from_gb_per_s(50.0),
            latency_ns: 180.0,
            outstanding: 256,
        }
    }
}

/// Inter-socket xGMI fabric constants (dual-socket platforms).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct XgmiSpec {
    /// One-way xGMI crossing latency, ns (link + remote CCM ingress).
    pub latency_ns: f64,
    /// Aggregate read-direction capacity of the inter-socket fabric.
    pub read_bw: Bandwidth,
    /// Aggregate write-direction capacity.
    pub write_bw: Bandwidth,
}

/// The full calibration record for one platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformSpec {
    /// Platform family.
    pub kind: PlatformKind,
    /// Human-readable name.
    pub name: String,
    /// Microarchitecture name (Table 1).
    pub microarchitecture: String,
    /// Compute chiplets per socket.
    pub ccd_count: u32,
    /// Core complexes per compute chiplet.
    pub ccx_per_ccd: u32,
    /// Cores per core complex.
    pub cores_per_ccx: u32,
    /// Base clock, GHz (Table 1).
    pub base_freq_ghz: f64,
    /// Turbo clock, GHz.
    pub turbo_freq_ghz: f64,
    /// Compute-die process node, nm.
    pub process_compute_nm: u32,
    /// I/O-die process node, nm.
    pub process_io_nm: u32,
    /// PCIe generation.
    pub pcie_gen: u32,
    /// PCIe lane count.
    pub pcie_lanes: u32,
    /// Quadrant grid of the I/O die as (columns, rows).
    pub quadrant_grid: (u8, u8),
    /// Cache hierarchy constants.
    pub cache: CacheSpec,
    /// Outstanding-request limiter constants.
    pub traffic_ctrl: TrafficCtrlSpec,
    /// NoC constants.
    pub noc: NocSpec,
    /// Memory path constants.
    pub mem: MemSpec,
    /// Memory-level-parallelism limits.
    pub mlp: MlpSpec,
    /// Per-level bandwidth capacities.
    pub caps: LevelCaps,
    /// CXL expansion, when present.
    pub cxl: Option<CxlSpec>,
    /// Sockets on the platform (all per-socket counts above are per socket).
    pub socket_count: u32,
    /// Inter-socket fabric, when `socket_count > 1`.
    pub xgmi: Option<XgmiSpec>,
    /// A DMA-capable NIC on socket 0's I/O hub, when present.
    pub nic: Option<NicSpec>,
}

/// Why a [`PlatformSpec`] cannot be built into a
/// [`Topology`](crate::Topology): the structural conditions
/// [`Topology::build`](crate::Topology::build) would otherwise panic on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlatformError {
    /// `ccd_count`, `ccx_per_ccd` or `cores_per_ccx` is zero.
    NoCores,
    /// `mem.umc_count` is zero.
    NoMemoryChannels,
    /// `socket_count` is not 1 or 2 (the xGMI model joins two sockets).
    SocketCount(u32),
    /// A dual-socket platform without an `xgmi` spec.
    MissingXgmi,
    /// A `quadrant_grid` with zero columns or rows.
    EmptyGrid(u8, u8),
    /// A `quadrant_grid` wider than the switch grid's 255 columns allow.
    GridTooWide(u8),
    /// A `cxl` spec with zero devices.
    NoCxlDevices,
}

impl core::fmt::Display for PlatformError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PlatformError::NoCores => write!(
                f,
                "platform has no cores (ccd_count, ccx_per_ccd and cores_per_ccx must be positive)"
            ),
            PlatformError::NoMemoryChannels => {
                write!(f, "platform has no memory channels (mem.umc_count is 0)")
            }
            PlatformError::SocketCount(n) => {
                write!(f, "platform socket_count {n} is out of range (1 or 2)")
            }
            PlatformError::MissingXgmi => write!(f, "dual-socket platform has no xgmi spec"),
            PlatformError::EmptyGrid(cols, rows) => {
                write!(f, "platform quadrant_grid {cols}x{rows} is empty")
            }
            PlatformError::GridTooWide(cols) => write!(
                f,
                "platform quadrant_grid has {cols} columns (at most {MAX_GRID_COLS})"
            ),
            PlatformError::NoCxlDevices => {
                write!(
                    f,
                    "platform cxl spec has no devices (cxl.device_count is 0)"
                )
            }
        }
    }
}

impl std::error::Error for PlatformError {}

/// Widest quadrant grid: its switch grid has `2 * cols - 1` columns, which
/// must fit the `u8` switch coordinates.
const MAX_GRID_COLS: u8 = 128;

impl PlatformSpec {
    /// The one structural check a platform must pass before
    /// [`Topology::build`](crate::Topology::build): every condition that
    /// would make the build panic, as a typed error. Capacities and
    /// latencies are not checked here.
    pub fn check_buildable(&self) -> Result<(), PlatformError> {
        if self.ccd_count == 0 || self.ccx_per_ccd == 0 || self.cores_per_ccx == 0 {
            return Err(PlatformError::NoCores);
        }
        if self.mem.umc_count == 0 {
            return Err(PlatformError::NoMemoryChannels);
        }
        if !(1..=2).contains(&self.socket_count) {
            return Err(PlatformError::SocketCount(self.socket_count));
        }
        if self.socket_count == 2 && self.xgmi.is_none() {
            return Err(PlatformError::MissingXgmi);
        }
        let (cols, rows) = self.quadrant_grid;
        if cols == 0 || rows == 0 {
            return Err(PlatformError::EmptyGrid(cols, rows));
        }
        if cols > MAX_GRID_COLS {
            return Err(PlatformError::GridTooWide(cols));
        }
        if self.cxl.as_ref().is_some_and(|c| c.device_count == 0) {
            return Err(PlatformError::NoCxlDevices);
        }
        Ok(())
    }

    /// Cores per compute chiplet.
    pub fn cores_per_ccd(&self) -> u32 {
        self.ccx_per_ccd * self.cores_per_ccx
    }

    /// Total cores on the socket.
    pub fn total_cores(&self) -> u32 {
        self.ccd_count * self.cores_per_ccd()
    }

    /// Total CCX count on the socket.
    pub fn total_ccx(&self) -> u32 {
        self.ccd_count * self.ccx_per_ccd
    }

    /// Total L3 capacity on the socket (Table 1's "L3 per CPU").
    pub fn total_l3(&self) -> ByteSize {
        ByteSize::from_bytes(self.cache.l3_size_per_ccx.as_bytes() * self.total_ccx() as u64)
    }

    /// Unloaded DRAM access latency from a core to a DIMM at `position`, ns.
    ///
    /// This is the Table 2 "Memory/Device" row: the core-to-fabric segment,
    /// the position-dependent number of NoC switch hops, and the
    /// CS/UMC/DRAM segment.
    pub fn dram_latency_ns(&self, position: DimmPosition) -> f64 {
        if position == DimmPosition::Remote {
            return self
                .remote_dram_latency_ns()
                .expect("Remote position requires a dual-socket platform");
        }
        let hops = self.noc.near_hops + position.extra_hops(self.noc.diagonal_express);
        self.mem.core_to_fabric_ns
            + hops as f64 * self.noc.shop_latency_ns
            + self.mem.cs_umc_dram_ns
    }

    /// Unloaded latency of a remote (other-socket) DRAM access, ns: the
    /// local egress (two switch hops to the xGMI port), the inter-socket
    /// crossing, and the remote ingress (two hops to the target CS).
    pub fn remote_dram_latency_ns(&self) -> Option<f64> {
        let xgmi = self.xgmi.as_ref()?;
        Some(
            self.mem.core_to_fabric_ns
                + 4.0 * self.noc.shop_latency_ns
                + xgmi.latency_ns
                + self.mem.cs_umc_dram_ns,
        )
    }

    /// Unloaded CXL memory access latency from a core, ns, when CXL is
    /// present. The path adds the I/O hub, root complex, P-Link, and the
    /// device's internal latency (Table 2's "CXL DIMM" row).
    pub fn cxl_latency_ns(&self) -> Option<f64> {
        self.cxl.as_ref().map(|cxl| {
            self.mem.core_to_fabric_ns
                + cxl.shop_hops as f64 * self.noc.shop_latency_ns
                + self.noc.io_hub_latency_ns
                + cxl.root_complex_ns
                + cxl.plink_ns
                + cxl.device_ns
        })
    }

    /// The AMD EPYC 7302 (Zen 2) testbed: 4 CCDs of 2 CCX × 2 cores, one I/O
    /// die with 8 UMCs, no CXL. Constants from Tables 1–3.
    pub fn epyc_7302() -> Self {
        PlatformSpec {
            kind: PlatformKind::Epyc7302,
            name: "AMD EPYC 7302".to_string(),
            microarchitecture: "Zen 2".to_string(),
            ccd_count: 4,
            ccx_per_ccd: 2,
            cores_per_ccx: 2,
            base_freq_ghz: 3.0,
            turbo_freq_ghz: 3.3,
            process_compute_nm: 7,
            process_io_nm: 12,
            pcie_gen: 4,
            pcie_lanes: 128,
            quadrant_grid: (2, 2),
            cache: CacheSpec {
                l1_size: ByteSize::from_kib(32),
                l2_size: ByteSize::from_kib(512),
                // 128 MiB per CPU across 8 CCXs = 16 MiB per CCX.
                l3_size_per_ccx: ByteSize::from_mib(16),
                l1_latency_ns: 1.24,
                l2_latency_ns: 5.66,
                l3_latency_ns: 34.3,
            },
            traffic_ctrl: TrafficCtrlSpec {
                ccx_max_queue_ns: 30.0,
                ccd_max_queue_ns: Some(20.0),
            },
            noc: NocSpec {
                shop_latency_ns: 8.0,
                io_hub_latency_ns: 15.0,
                diagonal_express: false,
                near_hops: 1,
            },
            mem: MemSpec {
                umc_count: 8,
                // 50 + 1×8 + 66 = 124 ns near (Table 2).
                core_to_fabric_ns: 50.0,
                cs_umc_dram_ns: 66.0,
                umc_read_bw: Bandwidth::from_gb_per_s(21.1),
                umc_write_bw: Bandwidth::from_gb_per_s(19.0),
            },
            mlp: MlpSpec {
                // 32 lines in flight at the ~136 ns NPS1-interleaved mean
                // latency ≈ 15 GB/s offered; the 14.9 GB/s per-core port
                // capacity then binds (Table 3).
                core_read_outstanding: 32,
                cxl_core_read_outstanding: 20,
                core_write_outstanding: 7,
            },
            caps: LevelCaps {
                core_read: Bandwidth::from_gb_per_s(14.9),
                core_write: Bandwidth::from_gb_per_s(3.6),
                ccx_read: Bandwidth::from_gb_per_s(25.1),
                ccx_write: Bandwidth::from_gb_per_s(7.1),
                gmi_read: Bandwidth::from_gb_per_s(32.5),
                gmi_write: Bandwidth::from_gb_per_s(14.3),
                noc_read: Bandwidth::from_gb_per_s(106.7),
                noc_write: Bandwidth::from_gb_per_s(55.1),
            },
            cxl: None,
            socket_count: 1,
            xgmi: None,
            nic: None,
        }
    }

    /// The AMD EPYC 9634 (Zen 4) testbed: 12 CCDs of 1 CCX × 7 cores, 12
    /// UMCs, and four Micron CZ120 CXL modules. Constants from Tables 1–3.
    pub fn epyc_9634() -> Self {
        PlatformSpec {
            kind: PlatformKind::Epyc9634,
            name: "AMD EPYC 9634".to_string(),
            microarchitecture: "Zen 4".to_string(),
            ccd_count: 12,
            ccx_per_ccd: 1,
            cores_per_ccx: 7,
            base_freq_ghz: 2.25,
            turbo_freq_ghz: 3.7,
            process_compute_nm: 5,
            process_io_nm: 6,
            pcie_gen: 5,
            pcie_lanes: 128,
            quadrant_grid: (2, 2),
            cache: CacheSpec {
                l1_size: ByteSize::from_kib(64),
                l2_size: ByteSize::from_mib(1),
                // 384 MiB per CPU across 12 CCXs = 32 MiB per CCX.
                l3_size_per_ccx: ByteSize::from_mib(32),
                l1_latency_ns: 1.19,
                l2_latency_ns: 7.51,
                l3_latency_ns: 40.8,
            },
            traffic_ctrl: TrafficCtrlSpec {
                ccx_max_queue_ns: 20.0,
                ccd_max_queue_ns: None,
            },
            noc: NocSpec {
                shop_latency_ns: 4.0,
                io_hub_latency_ns: 15.0,
                diagonal_express: true,
                near_hops: 1,
            },
            mem: MemSpec {
                umc_count: 12,
                // 50 + 1×4 + 87 = 141 ns near (Table 2).
                core_to_fabric_ns: 50.0,
                cs_umc_dram_ns: 87.0,
                umc_read_bw: Bandwidth::from_gb_per_s(34.9),
                umc_write_bw: Bandwidth::from_gb_per_s(28.3),
            },
            mlp: MlpSpec {
                // 34 lines in flight at the ~146 ns interleaved mean
                // latency ≈ 14.9 GB/s offered; the 14.6 GB/s per-core port
                // capacity binds (Table 3).
                core_read_outstanding: 34,
                // 20 in flight at 243 ns ≈ 5.3 GB/s (Table 3 CXL column).
                cxl_core_read_outstanding: 20,
                core_write_outstanding: 7,
            },
            caps: LevelCaps {
                core_read: Bandwidth::from_gb_per_s(14.6),
                core_write: Bandwidth::from_gb_per_s(3.3),
                ccx_read: Bandwidth::from_gb_per_s(35.2),
                ccx_write: Bandwidth::from_gb_per_s(23.8),
                gmi_read: Bandwidth::from_gb_per_s(33.2),
                gmi_write: Bandwidth::from_gb_per_s(23.6),
                noc_read: Bandwidth::from_gb_per_s(366.2),
                noc_write: Bandwidth::from_gb_per_s(270.6),
            },
            cxl: Some(CxlSpec {
                device_count: 4,
                // 50 + 2×4 + 15 + 12 + 20 + 138 = 243 ns (Table 2).
                root_complex_ns: 12.0,
                plink_ns: 20.0,
                device_ns: 138.0,
                shop_hops: 2,
                flit_bytes: 68,
                core_read: Bandwidth::from_gb_per_s(5.4),
                core_write: Bandwidth::from_gb_per_s(2.8),
                ccd_read: Bandwidth::from_gb_per_s(24.3),
                ccd_write: Bandwidth::from_gb_per_s(15.4),
                plink_read: Bandwidth::from_gb_per_s(88.1),
                plink_write: Bandwidth::from_gb_per_s(87.7),
            }),
            socket_count: 1,
            xgmi: None,
            nic: None,
        }
    }

    /// Attaches a NIC to socket 0's I/O hub (builder style).
    pub fn with_nic(mut self, nic: NicSpec) -> Self {
        self.nic = Some(nic);
        self
    }

    /// The Dell 7525 testbed: two EPYC 7302 sockets joined by xGMI-2.
    /// Remote accesses cross both I/O dies and the inter-socket fabric
    /// (~203 ns unloaded, Rome-class).
    pub fn dual_epyc_7302() -> Self {
        let mut spec = Self::epyc_7302();
        spec.name = "2x AMD EPYC 7302 (Dell 7525)".to_string();
        spec.socket_count = 2;
        spec.xgmi = Some(XgmiSpec {
            // remote = core_to_fabric + 4 switch hops + xGMI + CS/UMC/DRAM
            //        = 50 + 32 + 55 + 66 = 203 ns.
            latency_ns: 55.0,
            read_bw: Bandwidth::from_gb_per_s(42.0),
            write_bw: Bandwidth::from_gb_per_s(35.0),
        });
        spec
    }

    /// A monolithic-SoC baseline with the 7302's core and memory resources
    /// but no chiplet partitioning: zero switch hops, no GMI bottleneck, an
    /// over-provisioned crossbar, and no per-CCX limiter.
    ///
    /// Used by the ablation benches to quantify what chiplet routing costs.
    pub fn monolithic_baseline() -> Self {
        let mut spec = Self::epyc_7302();
        spec.kind = PlatformKind::Monolithic;
        spec.name = "Monolithic baseline (7302-class resources)".to_string();
        spec.microarchitecture = "Monolithic".to_string();
        // One big die: a single "chiplet" holding every core.
        spec.ccd_count = 1;
        spec.ccx_per_ccd = 1;
        spec.cores_per_ccx = 16;
        spec.quadrant_grid = (1, 1);
        // Crossbar: no switch hops, no limiter queueing, shorter on-die path.
        spec.noc = NocSpec {
            shop_latency_ns: 0.0,
            io_hub_latency_ns: 15.0,
            diagonal_express: false,
            near_hops: 0,
        };
        spec.traffic_ctrl = TrafficCtrlSpec {
            ccx_max_queue_ns: 0.0,
            ccd_max_queue_ns: None,
        };
        spec.mem.core_to_fabric_ns = 40.0;
        // No GMI or CCX choke points: set them at the aggregate UMC capacity
        // so only the cores and memory controllers bound bandwidth.
        let umc_total_r = Bandwidth::from_gb_per_s(21.1 * spec.mem.umc_count as f64);
        let umc_total_w = Bandwidth::from_gb_per_s(19.0 * spec.mem.umc_count as f64);
        spec.caps.ccx_read = umc_total_r;
        spec.caps.ccx_write = umc_total_w;
        spec.caps.gmi_read = umc_total_r;
        spec.caps.gmi_write = umc_total_w;
        spec.caps.noc_read = umc_total_r;
        spec.caps.noc_write = umc_total_w;
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_structural_counts() {
        let p = PlatformSpec::epyc_7302();
        assert_eq!(p.total_cores(), 16);
        assert_eq!(p.total_ccx(), 8);
        assert_eq!(p.ccd_count, 4);
        assert_eq!(p.total_l3(), ByteSize::from_mib(128));

        let p = PlatformSpec::epyc_9634();
        assert_eq!(p.total_cores(), 84);
        assert_eq!(p.total_ccx(), 12);
        assert_eq!(p.ccd_count, 12);
        assert_eq!(p.total_l3(), ByteSize::from_mib(384));
    }

    #[test]
    fn table2_dram_latency_7302() {
        let p = PlatformSpec::epyc_7302();
        // Paper: 124 / 131 / 141 / 145 ns. Our decomposition reproduces the
        // totals within a few ns (see EXPERIMENTS.md).
        assert_eq!(p.dram_latency_ns(DimmPosition::Near), 124.0);
        assert_eq!(p.dram_latency_ns(DimmPosition::Vertical), 132.0);
        assert_eq!(p.dram_latency_ns(DimmPosition::Horizontal), 140.0);
        assert_eq!(p.dram_latency_ns(DimmPosition::Diagonal), 148.0);
    }

    #[test]
    fn table2_dram_latency_9634() {
        let p = PlatformSpec::epyc_9634();
        // Paper: 141 / 145 / 150 / 149 ns.
        assert_eq!(p.dram_latency_ns(DimmPosition::Near), 141.0);
        assert_eq!(p.dram_latency_ns(DimmPosition::Vertical), 145.0);
        assert_eq!(p.dram_latency_ns(DimmPosition::Horizontal), 149.0);
        // Diagonal express: same as horizontal, matching the paper's
        // observation that diagonal ≈ horizontal on the 9634.
        assert_eq!(p.dram_latency_ns(DimmPosition::Diagonal), 149.0);
    }

    #[test]
    fn table2_cxl_latency() {
        let p = PlatformSpec::epyc_9634();
        assert_eq!(p.cxl_latency_ns(), Some(243.0));
        assert_eq!(PlatformSpec::epyc_7302().cxl_latency_ns(), None);
    }

    #[test]
    fn mlp_supports_core_bandwidth() {
        // Little's law: outstanding × 64 B / latency ≥ the per-core cap,
        // otherwise the engine could never reach the Table 3 value.
        for p in [PlatformSpec::epyc_7302(), PlatformSpec::epyc_9634()] {
            let lat = p.dram_latency_ns(DimmPosition::Near);
            let achievable = p.mlp.core_read_outstanding as f64 * 64.0 / lat;
            assert!(
                achievable >= p.caps.core_read.as_gb_per_s() * 0.98,
                "{}: MLP {} at {} ns gives {:.1} GB/s < cap {}",
                p.name,
                p.mlp.core_read_outstanding,
                lat,
                achievable,
                p.caps.core_read
            );
        }
    }

    #[test]
    fn capacity_hierarchy_is_consistent() {
        for p in [PlatformSpec::epyc_7302(), PlatformSpec::epyc_9634()] {
            // Each level's cap does not exceed what the levels above could
            // ever deliver in aggregate (NoC ≥ one GMI, GMI ≥ ... not strictly
            // monotone per-unit, but socket NoC must exceed a single GMI).
            assert!(p.caps.noc_read.as_gb_per_s() > p.caps.gmi_read.as_gb_per_s());
            assert!(p.caps.noc_write.as_gb_per_s() > p.caps.gmi_write.as_gb_per_s());
            assert!(p.caps.ccx_read.as_gb_per_s() > p.caps.core_read.as_gb_per_s());
        }
    }

    #[test]
    fn monolithic_baseline_is_flatter_and_faster() {
        let mono = PlatformSpec::monolithic_baseline();
        let chiplet = PlatformSpec::epyc_7302();
        assert!(
            mono.dram_latency_ns(DimmPosition::Near) < chiplet.dram_latency_ns(DimmPosition::Near)
        );
        // Uniform memory access: all positions identical.
        let near = mono.dram_latency_ns(DimmPosition::Near);
        for pos in DimmPosition::ALL {
            assert_eq!(mono.dram_latency_ns(pos), near);
        }
        assert_eq!(mono.total_cores(), chiplet.total_cores());
    }

    #[test]
    fn spec_serde_round_trip() {
        for p in [
            PlatformSpec::epyc_7302(),
            PlatformSpec::epyc_9634(),
            PlatformSpec::monolithic_baseline(),
        ] {
            let json = serde_json::to_string(&p).unwrap();
            let back: PlatformSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(p, back);
        }
    }

    #[test]
    fn check_buildable_types_every_degenerate_platform() {
        for p in [
            PlatformSpec::epyc_7302(),
            PlatformSpec::epyc_9634(),
            PlatformSpec::dual_epyc_7302(),
            PlatformSpec::monolithic_baseline(),
        ] {
            assert_eq!(p.check_buildable(), Ok(()), "{}", p.name);
        }
        let broken = |f: fn(&mut PlatformSpec)| {
            let mut p = PlatformSpec::epyc_9634();
            f(&mut p);
            p.check_buildable().unwrap_err()
        };
        use PlatformError::*;
        assert_eq!(broken(|p| p.ccd_count = 0), NoCores);
        assert_eq!(broken(|p| p.ccx_per_ccd = 0), NoCores);
        assert_eq!(broken(|p| p.cores_per_ccx = 0), NoCores);
        assert_eq!(broken(|p| p.mem.umc_count = 0), NoMemoryChannels);
        assert_eq!(broken(|p| p.socket_count = 0), SocketCount(0));
        assert_eq!(broken(|p| p.socket_count = 3), SocketCount(3));
        assert_eq!(broken(|p| p.socket_count = 2), MissingXgmi);
        assert_eq!(broken(|p| p.quadrant_grid = (0, 2)), EmptyGrid(0, 2));
        assert_eq!(broken(|p| p.quadrant_grid = (2, 0)), EmptyGrid(2, 0));
        assert_eq!(broken(|p| p.quadrant_grid = (129, 1)), GridTooWide(129));
        let mut widest = PlatformSpec::epyc_9634();
        widest.quadrant_grid = (MAX_GRID_COLS, 1);
        assert_eq!(widest.check_buildable(), Ok(()));
        assert_eq!(
            broken(|p| p.cxl.as_mut().unwrap().device_count = 0),
            NoCxlDevices
        );
        assert_eq!(
            NoCores.to_string(),
            "platform has no cores (ccd_count, ccx_per_ccd and cores_per_ccx must be positive)"
        );
    }
}
