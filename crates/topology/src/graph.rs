//! The instantiated SoC graph.
//!
//! [`Topology::build`] expands a [`PlatformSpec`] into the node/link graph of
//! Figures 1–2 of the paper:
//!
//! ```text
//! core ─ L3 slice ─ traffic-ctrl ─ GMI port ═(GMI)═ CCM ─ NoC switch grid
//!                                                          │        │
//!                                                   CS ─ UMC ─ DIMM │
//!                                                                I/O hub ─ root
//!                                                                complex ─ CXL
//! ```
//!
//! The NoC switch grid has `2·cols − 1` columns per `rows` rows: quadrant
//! switches in even columns and relay switches in odd columns, so a
//! horizontal crossing costs two hops (the die's long axis) while a vertical
//! crossing costs one — reproducing the near/vertical/horizontal/diagonal
//! latency ordering of Table 2. Platforms with `diagonal_express` add
//! relay-to-corner diagonal edges, which shortens the diagonal route to the
//! horizontal's length (the paper's 9634 observation).
//!
//! Latency placement: the whole core-side segment rides on the GMI link, each
//! switch contributes the per-hop latency as node latency, and the
//! CS/UMC/DRAM segment rides on the memory channel link — so a route's
//! latency sum reproduces `PlatformSpec::dram_latency_ns` exactly.
//!
//! The graph is small (a few hundred nodes) but [`Topology::build`] and
//! [`Topology::route`] sit on the hot path of the `chiplet-dse` analytical
//! estimator, which builds and routes thousands of candidate topologies per
//! second. Adjacency is therefore stored in CSR form (two flat arrays built
//! in one pass) and the BFS prunes leaf subtrees that cannot lie on any
//! simple path to the destination — see `prune_chain`.

use chiplet_sim::Bandwidth;
use serde::{Deserialize, Serialize};

use crate::ids::{CcdId, CoreId, DimmId, LinkId, NodeId, UmcId};
use crate::path::{Hop, RoutePath};
use crate::position::{DimmPosition, NpsMode, Quadrant};
use crate::spec::PlatformSpec;

/// What a node *is*, microarchitecturally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// A CPU core.
    Core {
        /// Socket-wide core index.
        core: CoreId,
        /// Owning compute chiplet.
        ccd: CcdId,
    },
    /// A CCX's shared L3 slice.
    L3Slice {
        /// Socket-wide CCX index.
        ccx: u32,
        /// Owning compute chiplet.
        ccd: CcdId,
    },
    /// The per-CCD token-based outstanding-request limiter (§3.2).
    TrafficCtrl {
        /// Owning compute chiplet.
        ccd: CcdId,
    },
    /// The CCD-side GMI port.
    GmiPort {
        /// Owning compute chiplet.
        ccd: CcdId,
    },
    /// The I/O-die cache-coherent master terminating a GMI link.
    Ccm {
        /// Quadrant the CCM sits in.
        quadrant: Quadrant,
    },
    /// A NoC switch in the I/O die.
    NocSwitch {
        /// Grid x (even = quadrant switch, odd = relay).
        x: u8,
        /// Grid y.
        y: u8,
    },
    /// The I/O hub fronting peripheral links.
    IoHub,
    /// The PCIe root complex.
    RootComplex,
    /// A coherent station fronting one UMC.
    CoherentStation {
        /// The fronted UMC.
        umc: UmcId,
    },
    /// A unified memory controller.
    Umc {
        /// The controller's index.
        umc: UmcId,
    },
    /// An off-chip DIMM.
    Dimm {
        /// The DIMM's index.
        dimm: DimmId,
    },
    /// A CXL memory expansion device.
    CxlDevice {
        /// Device index.
        index: u32,
    },
    /// A DMA-capable PCIe NIC.
    Nic {
        /// Device index.
        index: u32,
    },
}

impl NodeKind {
    /// True for NoC switch nodes; used to count switching hops on a route.
    pub fn is_switch(&self) -> bool {
        matches!(self, NodeKind::NocSwitch { .. })
    }
}

/// The physical class of a link, which decides which capacity it enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkKind {
    /// Core to its CCX L3 slice (on-die fabric). Carries the per-core caps.
    CoreL3,
    /// L3 slice to the CCD traffic controller. Carries the per-CCX caps.
    L3Tc,
    /// Traffic controller to GMI port (on-die).
    TcGmi,
    /// The GMI link between a CCD and the I/O die. Carries per-CCD caps and
    /// the whole core-to-fabric latency segment.
    Gmi,
    /// CCM to its quadrant switch.
    CcmSwitch,
    /// Switch-to-switch mesh edge.
    NocMesh,
    /// Quadrant switch to a coherent station.
    SwitchCs,
    /// Coherent station to UMC.
    CsUmc,
    /// UMC to DIMM; carries per-UMC caps and the CS/UMC/DRAM latency segment.
    MemChannel,
    /// Relay switch to the I/O hub.
    SwitchHub,
    /// I/O hub to root complex; carries the aggregate P-Link/CXL caps.
    HubRc,
    /// Root complex to a CXL device; carries the P-Link latency.
    CxlLane,
    /// The inter-socket xGMI fabric (dual-socket platforms); carries the
    /// crossing latency and the aggregate inter-socket capacity.
    Xgmi,
    /// I/O hub to a PCIe NIC (root complex + lanes lumped); carries the
    /// device's DMA capacities.
    PcieLane,
}

impl LinkKind {
    /// The `(read, write)` capacities a link of this kind enforces on
    /// `spec`, or `None` when the kind is not a capacity point (or the
    /// platform lacks the device it belongs to). This is the one mapping
    /// from link classes to the platform's calibration: the builder stamps
    /// it on every link, and the DSE estimator reads capacities through it.
    pub fn caps(self, spec: &PlatformSpec) -> Option<(Bandwidth, Bandwidth)> {
        match self {
            LinkKind::CoreL3 => Some((spec.caps.core_read, spec.caps.core_write)),
            LinkKind::L3Tc => Some((spec.caps.ccx_read, spec.caps.ccx_write)),
            LinkKind::Gmi => Some((spec.caps.gmi_read, spec.caps.gmi_write)),
            LinkKind::MemChannel => Some((spec.mem.umc_read_bw, spec.mem.umc_write_bw)),
            LinkKind::HubRc => spec.cxl.as_ref().map(|c| (c.plink_read, c.plink_write)),
            LinkKind::Xgmi => spec.xgmi.as_ref().map(|x| (x.read_bw, x.write_bw)),
            LinkKind::PcieLane => spec.nic.as_ref().map(|n| (n.dma_read_bw, n.dma_write_bw)),
            LinkKind::TcGmi
            | LinkKind::CcmSwitch
            | LinkKind::NocMesh
            | LinkKind::SwitchCs
            | LinkKind::CsUmc
            | LinkKind::SwitchHub
            | LinkKind::CxlLane => None,
        }
    }
}

/// A node in the topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Node {
    /// The node's id (its index).
    pub id: NodeId,
    /// What the node is.
    pub kind: NodeKind,
    /// Service latency this node adds to every traversal, ns.
    pub latency_ns: f64,
    /// The quadrant the node belongs to, when meaningful.
    pub quadrant: Option<Quadrant>,
}

/// An undirected link. Reads and writes traverse opposite directions of the
/// same physical link, each with its own capacity (`None` = not a capacity
/// point in this model).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkSpec {
    /// The link's id (its index).
    pub id: LinkId,
    /// Physical class.
    pub kind: LinkKind,
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Propagation latency, ns.
    pub latency_ns: f64,
    /// Read-direction capacity (data flowing toward the core).
    pub read_cap: Option<Bandwidth>,
    /// Write-direction capacity (data flowing away from the core).
    pub write_cap: Option<Bandwidth>,
}

/// The single-attachment subtree ("chain") a node belongs to, used to prune
/// the routing BFS. Every compute chiplet (cores/L3/TC/GMI port) hangs off
/// the fabric by its one GMI link, every memory chain (CS/UMC/DIMM) by its
/// one switch–CS link, and every peripheral (NIC, root complex + CXL
/// devices) by its one hub link — so a *simple* path can only traverse a
/// chain that contains one of its endpoints; entering any other chain is a
/// dead end. Fabric nodes (switches, CCMs, the hub) return `None` and are
/// never pruned.
fn prune_chain(kind: &NodeKind) -> Option<(u8, u32)> {
    match *kind {
        NodeKind::Core { ccd, .. }
        | NodeKind::L3Slice { ccd, .. }
        | NodeKind::TrafficCtrl { ccd }
        | NodeKind::GmiPort { ccd } => Some((0, ccd.0)),
        NodeKind::CoherentStation { umc } | NodeKind::Umc { umc } => Some((1, umc.0)),
        // DIMM ids mirror UMC ids by construction.
        NodeKind::Dimm { dimm } => Some((1, dimm.0)),
        NodeKind::RootComplex | NodeKind::CxlDevice { .. } | NodeKind::Nic { .. } => Some((2, 0)),
        NodeKind::Ccm { .. } | NodeKind::NocSwitch { .. } | NodeKind::IoHub => None,
    }
}

/// True for degree-1 nodes, which no simple path ever passes *through*.
fn is_leaf(kind: &NodeKind) -> bool {
    matches!(
        kind,
        NodeKind::Core { .. }
            | NodeKind::Dimm { .. }
            | NodeKind::Nic { .. }
            | NodeKind::CxlDevice { .. }
    )
}

/// The instantiated SoC topology.
#[derive(Debug, Clone)]
pub struct Topology {
    spec: PlatformSpec,
    nodes: Vec<Node>,
    links: Vec<LinkSpec>,
    /// CSR adjacency: node `n`'s `(link, neighbor)` entries live in
    /// `adj[adj_off[n] as usize..adj_off[n + 1] as usize]`, in deterministic
    /// link-insertion order.
    adj_off: Vec<u32>,
    adj: Vec<(LinkId, NodeId)>,
    cores: Vec<NodeId>,
    dimms: Vec<NodeId>,
    cxl_devices: Vec<NodeId>,
    nics: Vec<NodeId>,
    ccd_quadrant: Vec<Quadrant>,
    umc_quadrant: Vec<Quadrant>,
}

impl Topology {
    /// Builds the graph for a platform.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`PlatformSpec::check_buildable`]; callers
    /// holding untrusted specs run that check first and report its typed
    /// error.
    pub fn build(spec: &PlatformSpec) -> Self {
        if let Err(e) = spec.check_buildable() {
            panic!("{e}");
        }

        let mut b = Builder::new(spec.clone());
        for socket in 0..spec.socket_count {
            b.build_switch_grid(socket);
            b.build_compute_chiplets(socket);
            b.build_memory(socket);
            b.build_io_path(socket);
        }
        b.link_sockets();
        b.finish()
    }

    /// The platform spec this topology was built from.
    pub fn spec(&self) -> &PlatformSpec {
        &self.spec
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links.
    pub fn links(&self) -> &[LinkSpec] {
        &self.links
    }

    /// Looks up a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Looks up a link.
    pub fn link(&self, id: LinkId) -> &LinkSpec {
        &self.links[id.index()]
    }

    /// Number of cores.
    pub fn core_count(&self) -> u32 {
        self.cores.len() as u32
    }

    /// Number of DIMMs.
    pub fn dimm_count(&self) -> u32 {
        self.dimms.len() as u32
    }

    /// Number of CXL devices.
    pub fn cxl_device_count(&self) -> u32 {
        self.cxl_devices.len() as u32
    }

    /// The graph node of a core.
    pub fn core_node(&self, core: CoreId) -> NodeId {
        self.cores[core.index()]
    }

    /// The graph node of a DIMM.
    pub fn dimm_node(&self, dimm: DimmId) -> NodeId {
        self.dimms[dimm.index()]
    }

    /// The graph node of a CXL device.
    pub fn cxl_node(&self, index: u32) -> NodeId {
        self.cxl_devices[index as usize]
    }

    /// Number of NICs.
    pub fn nic_count(&self) -> u32 {
        self.nics.len() as u32
    }

    /// The graph node of a NIC.
    pub fn nic_node(&self, index: u32) -> NodeId {
        self.nics[index as usize]
    }

    /// Route from a NIC's DMA engine to a DIMM, when the NIC exists.
    pub fn route_nic_to_dimm(&self, nic: u32, dimm: DimmId) -> Option<RoutePath> {
        if (nic as usize) >= self.nics.len() {
            return None;
        }
        self.route(self.nic_node(nic), self.dimm_node(dimm))
    }

    /// The compute chiplet that owns a core.
    pub fn ccd_of_core(&self, core: CoreId) -> CcdId {
        CcdId(core.0 / self.spec.cores_per_ccd())
    }

    /// The quadrant a compute chiplet attaches to.
    pub fn quadrant_of_ccd(&self, ccd: CcdId) -> Quadrant {
        self.ccd_quadrant[ccd.index()]
    }

    /// The quadrant a UMC (and its DIMM) sits in.
    pub fn quadrant_of_umc(&self, umc: UmcId) -> Quadrant {
        self.umc_quadrant[umc.index()]
    }

    /// Total compute chiplets across all sockets.
    pub fn ccd_total(&self) -> u32 {
        self.spec.ccd_count * self.spec.socket_count
    }

    /// Total CCX count across all sockets.
    pub fn ccx_total(&self) -> u32 {
        self.spec.total_ccx() * self.spec.socket_count
    }

    /// Number of sockets.
    pub fn socket_count(&self) -> u32 {
        self.spec.socket_count
    }

    /// The socket a compute chiplet belongs to.
    pub fn socket_of_ccd(&self, ccd: CcdId) -> u32 {
        ccd.0 / self.spec.ccd_count
    }

    /// The socket a core belongs to.
    pub fn socket_of_core(&self, core: CoreId) -> u32 {
        self.socket_of_ccd(self.ccd_of_core(core))
    }

    /// The socket a UMC (and its DIMM) belongs to.
    pub fn socket_of_umc(&self, umc: UmcId) -> u32 {
        umc.0 / self.spec.mem.umc_count
    }

    /// Position of `dimm` relative to `core`'s chiplet; `Remote` when they
    /// sit on different sockets.
    pub fn position_of(&self, core: CoreId, dimm: DimmId) -> DimmPosition {
        if self.socket_of_core(core) != self.socket_of_umc(UmcId(dimm.0)) {
            return DimmPosition::Remote;
        }
        let home = self.quadrant_of_ccd(self.ccd_of_core(core));
        let target = self.umc_quadrant[dimm.index()];
        home.position_of(target)
    }

    /// The first DIMM (lowest id) at `position` relative to `core`, if the
    /// platform has a quadrant at that position.
    pub fn dimm_at_position(&self, core: CoreId, position: DimmPosition) -> Option<DimmId> {
        (0..self.dimm_count())
            .map(DimmId)
            .find(|&d| self.position_of(core, d) == position)
    }

    /// All DIMMs within the interleave scope of `core` under `nps`. NUMA
    /// nodes never span sockets, so remote DIMMs are always out of scope.
    pub fn dimms_in_scope(&self, core: CoreId, nps: NpsMode) -> Vec<DimmId> {
        let home = self.quadrant_of_ccd(self.ccd_of_core(core));
        let socket = self.socket_of_core(core);
        let cols = self.spec.quadrant_grid.0;
        (0..self.dimm_count())
            .map(DimmId)
            .filter(|&d| {
                self.socket_of_umc(UmcId(d.0)) == socket
                    && nps.in_scope(home, self.umc_quadrant[d.index()], cols)
            })
            .collect()
    }

    /// Deterministic shortest route between two nodes (BFS with fixed
    /// adjacency order), or `None` when disconnected.
    ///
    /// The BFS skips nodes whose `prune_chain` is neither endpoint's:
    /// those subtrees hang off the fabric by a single edge, so no simple
    /// path transits them and the surviving search discovers every live
    /// node from the same predecessor as the unpruned BFS would — routes
    /// are bit-identical, at a fraction of the visits.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<RoutePath> {
        if src == dst {
            return Some(RoutePath::trivial(src, self.node(src).latency_ns));
        }
        let n = self.nodes.len();
        let src_chain = prune_chain(&self.node(src).kind);
        let dst_chain = prune_chain(&self.node(dst).kind);
        // prev[v] packs (parent, link); MAX = undiscovered, MAX-1 = root.
        const UNDISCOVERED: u64 = u64::MAX;
        const ROOT: u64 = u64::MAX - 1;
        thread_local! {
            /// BFS scratch, reused across calls: the DSE estimator routes
            /// thousands of times per second and the two per-call
            /// allocations were a measurable share of its budget.
            static SCRATCH: std::cell::RefCell<(Vec<u64>, Vec<NodeId>)> =
                const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
        }
        let hops = SCRATCH.with(|scratch| {
            let (prev, queue) = &mut *scratch.borrow_mut();
            prev.clear();
            prev.resize(n, UNDISCOVERED);
            queue.clear();
            prev[src.index()] = ROOT;
            queue.push(src);
            let mut head = 0;
            let mut found = false;
            'bfs: while head < queue.len() {
                let u = queue[head];
                head += 1;
                let lo = self.adj_off[u.index()] as usize;
                let hi = self.adj_off[u.index() + 1] as usize;
                for &(link, v) in &self.adj[lo..hi] {
                    if prev[v.index()] != UNDISCOVERED {
                        continue;
                    }
                    if v == dst {
                        prev[v.index()] = (u.0 as u64) << 32 | link.0 as u64;
                        found = true;
                        break 'bfs;
                    }
                    let vk = &self.nodes[v.index()].kind;
                    if is_leaf(vk) {
                        continue;
                    }
                    if let Some(chain) = prune_chain(vk) {
                        if Some(chain) != src_chain && Some(chain) != dst_chain {
                            continue;
                        }
                    }
                    prev[v.index()] = (u.0 as u64) << 32 | link.0 as u64;
                    queue.push(v);
                }
            }
            if !found {
                return None;
            }
            // Reconstruct.
            let mut rev = Vec::new();
            let mut cur = dst;
            while cur != src {
                let packed = prev[cur.index()];
                debug_assert!(packed < ROOT, "visited node has predecessor");
                let (p, l) = (NodeId((packed >> 32) as u32), LinkId(packed as u32));
                rev.push((cur, l));
                cur = p;
            }
            let mut hops = Vec::with_capacity(rev.len() + 1);
            hops.push(Hop {
                node: src,
                via: None,
            });
            for &(node, link) in rev.iter().rev() {
                hops.push(Hop {
                    node,
                    via: Some(link),
                });
            }
            Some(hops)
        })?;
        Some(RoutePath::from_hops(hops, self))
    }

    /// Route from a core to a DIMM.
    pub fn route_core_to_dimm(&self, core: CoreId, dimm: DimmId) -> RoutePath {
        self.route(self.core_node(core), self.dimm_node(dimm))
            .expect("core and DIMM are always connected")
    }

    /// Route from a core to a CXL device, when the platform has one.
    pub fn route_core_to_cxl(&self, core: CoreId, device: u32) -> Option<RoutePath> {
        if (device as usize) >= self.cxl_devices.len() {
            return None;
        }
        self.route(self.core_node(core), self.cxl_node(device))
    }

    /// Unloaded core-to-core cacheline-transfer latency, ns — the cost of
    /// a dirty-line handoff (lock, message slot) between two cores, the
    /// quantity §4 #2's multikernel discussion turns on.
    ///
    /// * same core: an L1 hit;
    /// * same CCX: a probe of the shared L3 slice;
    /// * cross-chiplet: out over the IF to the I/O die, across the NoC to
    ///   the owner's chiplet, an L3 probe there, and the same way back for
    ///   the data (modeled as 1.5 traversals — request + data overlap);
    /// * cross-socket: additionally two xGMI crossings.
    pub fn c2c_latency_ns(&self, a: CoreId, b: CoreId) -> f64 {
        let spec = &self.spec;
        if a == b {
            return spec.cache.l1_latency_ns;
        }
        let ccx_a = a.0 / spec.cores_per_ccx;
        let ccx_b = b.0 / spec.cores_per_ccx;
        if ccx_a == ccx_b {
            // Shared L3 slice: probe + transfer.
            return spec.cache.l3_latency_ns * 1.3;
        }
        let ccd_a = self.ccd_of_core(a);
        let ccd_b = self.ccd_of_core(b);
        let probe = spec.cache.l3_latency_ns;
        let one_way = if self.socket_of_ccd(ccd_a) == self.socket_of_ccd(ccd_b) {
            let qa = self.quadrant_of_ccd(ccd_a);
            let qb = self.quadrant_of_ccd(ccd_b);
            // Switch hops between the two quadrant switches: enter (1) +
            // XY distance with the long axis costing two columns.
            let dx = (qa.col as i32 - qb.col as i32).unsigned_abs();
            let dy = (qa.row as i32 - qb.row as i32).unsigned_abs();
            let hops = 1 + 2 * dx + dy;
            spec.mem.core_to_fabric_ns + hops as f64 * spec.noc.shop_latency_ns
        } else {
            let xgmi = spec
                .xgmi
                .as_ref()
                .expect("cross-socket c2c needs xGMI")
                .latency_ns;
            spec.mem.core_to_fabric_ns + 4.0 * spec.noc.shop_latency_ns + xgmi
        };
        // Request leg + probe + data leg, with request/data pipelining
        // credited as half a traversal.
        one_way * 1.5 + probe
    }

    /// All core ids.
    pub fn core_ids(&self) -> impl Iterator<Item = CoreId> + '_ {
        (0..self.core_count()).map(CoreId)
    }

    /// All DIMM ids.
    pub fn dimm_ids(&self) -> impl Iterator<Item = DimmId> + '_ {
        (0..self.dimm_count()).map(DimmId)
    }

    /// Cores belonging to a CCD, in id order.
    pub fn cores_of_ccd(&self, ccd: CcdId) -> impl Iterator<Item = CoreId> + '_ {
        let per = self.spec.cores_per_ccd();
        (ccd.0 * per..(ccd.0 + 1) * per).map(CoreId)
    }

    /// Cores belonging to a CCX (socket-wide CCX index), in id order.
    pub fn cores_of_ccx(&self, ccx: u32) -> impl Iterator<Item = CoreId> + '_ {
        let per = self.spec.cores_per_ccx;
        (ccx * per..(ccx + 1) * per).map(CoreId)
    }
}

/// Incremental graph builder; keeps `Topology::build` readable.
struct Builder {
    spec: PlatformSpec,
    nodes: Vec<Node>,
    links: Vec<LinkSpec>,
    cores: Vec<NodeId>,
    dimms: Vec<NodeId>,
    cxl_devices: Vec<NodeId>,
    nics: Vec<NodeId>,
    ccd_quadrant: Vec<Quadrant>,
    umc_quadrant: Vec<Quadrant>,
    /// Per-socket switch grids: `switch_grids[socket][y * grid_w + x]`.
    switch_grids: Vec<Vec<NodeId>>,
    grid_w: u8,
    grid_h: u8,
    io_hubs: Vec<NodeId>,
}

impl Builder {
    fn new(spec: PlatformSpec) -> Self {
        let (cols, rows) = spec.quadrant_grid;
        let grid_w = (cols as u16 * 2 - 1) as u8;
        // Upper-bound node count so the hot DSE path builds without
        // reallocation: switches + per-CCD subtree + per-UMC chain + I/O.
        let per_socket = grid_w as usize * rows as usize
            + spec.ccd_count as usize
                * (3 + spec.ccx_per_ccd as usize * (1 + spec.cores_per_ccx as usize))
            + 3 * spec.mem.umc_count as usize
            + 4
            + spec.cxl.as_ref().map_or(0, |c| c.device_count as usize);
        let cap = per_socket * spec.socket_count as usize;
        Builder {
            spec,
            nodes: Vec::with_capacity(cap),
            // Links track nodes closely (tree edges) plus the mesh.
            links: Vec::with_capacity(cap + 8 * grid_w as usize * rows as usize),
            cores: Vec::new(),
            dimms: Vec::new(),
            cxl_devices: Vec::new(),
            nics: Vec::new(),
            ccd_quadrant: Vec::new(),
            umc_quadrant: Vec::new(),
            switch_grids: Vec::new(),
            grid_w,
            grid_h: rows,
            io_hubs: Vec::new(),
        }
    }

    fn add_node(&mut self, kind: NodeKind, latency_ns: f64, quadrant: Option<Quadrant>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            kind,
            latency_ns,
            quadrant,
        });
        id
    }

    /// Adds a link whose capacities are its kind's ([`LinkKind::caps`]).
    fn add_link(&mut self, kind: LinkKind, a: NodeId, b: NodeId, latency_ns: f64) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        let caps = kind.caps(&self.spec);
        self.links.push(LinkSpec {
            id,
            kind,
            a,
            b,
            latency_ns,
            read_cap: caps.map(|c| c.0),
            write_cap: caps.map(|c| c.1),
        });
        id
    }

    fn switch_at(&self, socket: u32, x: u8, y: u8) -> NodeId {
        self.switch_grids[socket as usize][y as usize * self.grid_w as usize + x as usize]
    }

    /// Quadrant switches live at even columns: quadrant (c, r) ↔ grid (2c, r).
    fn quadrant_switch(&self, socket: u32, q: Quadrant) -> NodeId {
        self.switch_at(socket, q.col * 2, q.row)
    }

    /// The switch the xGMI port and I/O hub hang off: the first relay
    /// column (or the only switch on single-column grids).
    fn relay_switch(&self, socket: u32, row: u8) -> NodeId {
        if self.grid_w == 1 {
            self.switch_at(socket, 0, 0)
        } else {
            self.switch_at(socket, 1, row)
        }
    }

    fn build_switch_grid(&mut self, socket: u32) {
        let shop = self.spec.noc.shop_latency_ns;
        let mut grid = Vec::new();
        for y in 0..self.grid_h {
            for x in 0..self.grid_w {
                let id = self.add_node(NodeKind::NocSwitch { x, y }, shop, None);
                grid.push(id);
            }
        }
        self.switch_grids.push(grid);
        // Mesh edges.
        for y in 0..self.grid_h {
            for x in 0..self.grid_w {
                if x + 1 < self.grid_w {
                    let (a, b) = (
                        self.switch_at(socket, x, y),
                        self.switch_at(socket, x + 1, y),
                    );
                    self.add_link(LinkKind::NocMesh, a, b, 0.0);
                }
                if y + 1 < self.grid_h {
                    let (a, b) = (
                        self.switch_at(socket, x, y),
                        self.switch_at(socket, x, y + 1),
                    );
                    self.add_link(LinkKind::NocMesh, a, b, 0.0);
                }
            }
        }
        // Diagonal express: relay switches (odd columns) link to the corner
        // switches of the *other* rows, shortening XY diagonal routes by one.
        if self.spec.noc.diagonal_express {
            for y in 0..self.grid_h {
                for x in (1..self.grid_w).step_by(2) {
                    for oy in 0..self.grid_h {
                        if oy == y {
                            continue;
                        }
                        let (a, b) = (
                            self.switch_at(socket, x, y),
                            self.switch_at(socket, x - 1, oy),
                        );
                        self.add_link(LinkKind::NocMesh, a, b, 0.0);
                        let (a, b) = (
                            self.switch_at(socket, x, y),
                            self.switch_at(socket, x + 1, oy),
                        );
                        self.add_link(LinkKind::NocMesh, a, b, 0.0);
                    }
                }
            }
        }
    }

    fn quadrant_of_index(&self, i: u32) -> Quadrant {
        let (cols, rows) = self.spec.quadrant_grid;
        let q = i % (cols as u32 * rows as u32);
        Quadrant::new((q % cols as u32) as u8, (q / cols as u32) as u8)
    }

    fn build_compute_chiplets(&mut self, socket: u32) {
        // Copy the handful of scalar knobs out so the loop can borrow
        // `self` mutably without cloning the whole spec per socket.
        let (ccd_count, ccx_per_ccd, cores_per_ccx) = (
            self.spec.ccd_count,
            self.spec.ccx_per_ccd,
            self.spec.cores_per_ccx,
        );
        let core_to_fabric_ns = self.spec.mem.core_to_fabric_ns;
        for local_ccd in 0..ccd_count {
            let ccd_i = socket * ccd_count + local_ccd;
            let ccd = CcdId(ccd_i);
            let quadrant = self.quadrant_of_index(local_ccd);
            self.ccd_quadrant.push(quadrant);

            let tc = self.add_node(NodeKind::TrafficCtrl { ccd }, 0.0, Some(quadrant));
            let gmi_port = self.add_node(NodeKind::GmiPort { ccd }, 0.0, Some(quadrant));
            self.add_link(LinkKind::TcGmi, tc, gmi_port, 0.0);

            // CCM on the I/O die, attached to the quadrant switch.
            let ccm = self.add_node(NodeKind::Ccm { quadrant }, 0.0, Some(quadrant));
            // The GMI link carries the entire core-to-fabric latency segment
            // and the per-CCD capacity.
            self.add_link(LinkKind::Gmi, gmi_port, ccm, core_to_fabric_ns);
            let qswitch = self.quadrant_switch(socket, quadrant);
            self.add_link(LinkKind::CcmSwitch, ccm, qswitch, 0.0);

            for ccx_local in 0..ccx_per_ccd {
                let ccx_global = ccd_i * ccx_per_ccd + ccx_local;
                let l3 = self.add_node(
                    NodeKind::L3Slice {
                        ccx: ccx_global,
                        ccd,
                    },
                    0.0,
                    Some(quadrant),
                );
                // CCX-level limiter capacity rides the L3→TC link.
                self.add_link(LinkKind::L3Tc, l3, tc, 0.0);
                for core_local in 0..cores_per_ccx {
                    let core = CoreId(ccx_global * cores_per_ccx + core_local);
                    let cnode = self.add_node(NodeKind::Core { core, ccd }, 0.0, Some(quadrant));
                    self.add_link(LinkKind::CoreL3, cnode, l3, 0.0);
                    self.cores.push(cnode);
                }
            }
        }
        // Cores were created in (ccd, ccx, core) order, so `cores[i]`
        // already corresponds to socket-wide CoreId(i).
    }

    fn build_memory(&mut self, socket: u32) {
        let mem = self.spec.mem.clone();
        for local_umc in 0..mem.umc_count {
            let umc_i = socket * mem.umc_count + local_umc;
            let umc = UmcId(umc_i);
            let quadrant = self.quadrant_of_index(local_umc);
            self.umc_quadrant.push(quadrant);

            let cs = self.add_node(NodeKind::CoherentStation { umc }, 0.0, Some(quadrant));
            let umc_node = self.add_node(NodeKind::Umc { umc }, 0.0, Some(quadrant));
            let dimm = DimmId(umc_i);
            let dimm_node = self.add_node(NodeKind::Dimm { dimm }, 0.0, Some(quadrant));

            let qswitch = self.quadrant_switch(socket, quadrant);
            self.add_link(LinkKind::SwitchCs, qswitch, cs, 0.0);
            self.add_link(LinkKind::CsUmc, cs, umc_node, 0.0);
            // The memory channel carries the CS/UMC/DRAM latency segment and
            // the per-UMC capacity.
            self.add_link(
                LinkKind::MemChannel,
                umc_node,
                dimm_node,
                mem.cs_umc_dram_ns,
            );
            self.dimms.push(dimm_node);
        }
    }

    fn build_io_path(&mut self, socket: u32) {
        let io_hub_latency_ns = self.spec.noc.io_hub_latency_ns;
        let hub = self.add_node(NodeKind::IoHub, io_hub_latency_ns, None);
        self.io_hubs.push(hub);
        // The hub hangs off every relay switch (odd columns) so every
        // quadrant reaches it in exactly two switch hops. Single-column
        // grids (monolithic) attach it to the only switch.
        if self.grid_w == 1 {
            let s = self.switch_at(socket, 0, 0);
            self.add_link(LinkKind::SwitchHub, s, hub, 0.0);
        } else {
            for y in 0..self.grid_h {
                for x in (1..self.grid_w).step_by(2) {
                    let s = self.switch_at(socket, x, y);
                    self.add_link(LinkKind::SwitchHub, s, hub, 0.0);
                }
            }
        }

        // Peripheral devices attach to socket 0 (the testbed's CXL modules
        // hang off one socket; remote sockets reach them over xGMI).
        if socket != 0 {
            return;
        }
        if let Some(nic) = self.spec.nic.clone() {
            let node = self.add_node(
                NodeKind::Nic {
                    index: self.nics.len() as u32,
                },
                0.0,
                None,
            );
            // Root complex and PCIe lanes lumped into one link: the NIC's
            // DMA capacities ride its directions (read = device pulls from
            // memory, write = device pushes into memory).
            self.add_link(LinkKind::PcieLane, hub, node, nic.latency_ns);
            self.nics.push(node);
        }
        if let Some(cxl) = self.spec.cxl.clone() {
            let rc = self.add_node(NodeKind::RootComplex, cxl.root_complex_ns, None);
            // The shared hub→root-complex hop carries the aggregate
            // P-Link/CXL capacity.
            self.add_link(LinkKind::HubRc, hub, rc, 0.0);
            for index in 0..cxl.device_count {
                let dev = self.add_node(NodeKind::CxlDevice { index }, cxl.device_ns, None);
                self.add_link(LinkKind::CxlLane, rc, dev, cxl.plink_ns);
                self.cxl_devices.push(dev);
            }
        }
    }

    /// Joins the two sockets' I/O dies with the xGMI fabric.
    fn link_sockets(&mut self) {
        if self.spec.socket_count < 2 {
            return;
        }
        let latency_ns = self
            .spec
            .xgmi
            .as_ref()
            .expect("dual socket has xgmi")
            .latency_ns;
        let a = self.relay_switch(0, 0);
        let b = self.relay_switch(1, 0);
        self.add_link(LinkKind::Xgmi, a, b, latency_ns);
    }

    fn finish(self) -> Topology {
        // CSR adjacency in two passes over the links. Filling in link-id
        // order reproduces exactly the per-node neighbor order the old
        // push-per-add_link representation had, so routes are unchanged.
        let n = self.nodes.len();
        let mut adj_off = vec![0u32; n + 1];
        for l in &self.links {
            adj_off[l.a.index() + 1] += 1;
            adj_off[l.b.index() + 1] += 1;
        }
        for i in 0..n {
            adj_off[i + 1] += adj_off[i];
        }
        let mut cursor: Vec<u32> = adj_off[..n].to_vec();
        let mut adj = vec![(LinkId(0), NodeId(0)); 2 * self.links.len()];
        for l in &self.links {
            adj[cursor[l.a.index()] as usize] = (l.id, l.b);
            cursor[l.a.index()] += 1;
            adj[cursor[l.b.index()] as usize] = (l.id, l.a);
            cursor[l.b.index()] += 1;
        }
        Topology {
            spec: self.spec,
            nodes: self.nodes,
            links: self.links,
            adj_off,
            adj,
            cores: self.cores,
            dimms: self.dimms,
            cxl_devices: self.cxl_devices,
            nics: self.nics,
            ccd_quadrant: self.ccd_quadrant,
            umc_quadrant: self.umc_quadrant,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PlatformSpec;

    #[test]
    fn widest_grid_builds() {
        let mut spec = PlatformSpec::epyc_7302();
        spec.quadrant_grid = (128, 1);
        let t = Topology::build(&spec);
        assert_eq!(t.dimm_count(), 8);
    }

    #[test]
    fn capped_links_carry_their_kinds_caps() {
        let spec = PlatformSpec::epyc_9634().with_nic(crate::spec::NicSpec::gbe400());
        let t = Topology::build(&spec);
        let mut capped = std::collections::BTreeSet::new();
        for l in t.links() {
            let caps = l.kind.caps(&spec);
            assert_eq!(l.read_cap, caps.map(|c| c.0), "{:?}", l.kind);
            assert_eq!(l.write_cap, caps.map(|c| c.1), "{:?}", l.kind);
            if caps.is_some() {
                capped.insert(format!("{:?}", l.kind));
            }
        }
        // Every capped kind but the dual-socket xGMI appears here.
        assert_eq!(
            capped.into_iter().collect::<Vec<_>>(),
            ["CoreL3", "Gmi", "HubRc", "L3Tc", "MemChannel", "PcieLane"]
        );
    }

    #[test]
    fn builds_7302() {
        let t = Topology::build(&PlatformSpec::epyc_7302());
        assert_eq!(t.core_count(), 16);
        assert_eq!(t.dimm_count(), 8);
        assert_eq!(t.cxl_device_count(), 0);
        // 4 CCDs over 4 quadrants: one each.
        let quads: Vec<_> = (0..4).map(|i| t.quadrant_of_ccd(CcdId(i))).collect();
        assert_eq!(
            quads.iter().collect::<std::collections::HashSet<_>>().len(),
            4
        );
    }

    #[test]
    fn builds_9634() {
        let t = Topology::build(&PlatformSpec::epyc_9634());
        assert_eq!(t.core_count(), 84);
        assert_eq!(t.dimm_count(), 12);
        assert_eq!(t.cxl_device_count(), 4);
    }

    #[test]
    fn ccd_of_core_mapping() {
        let t = Topology::build(&PlatformSpec::epyc_7302());
        // 4 cores per CCD on the 7302.
        assert_eq!(t.ccd_of_core(CoreId(0)), CcdId(0));
        assert_eq!(t.ccd_of_core(CoreId(3)), CcdId(0));
        assert_eq!(t.ccd_of_core(CoreId(4)), CcdId(1));
        assert_eq!(t.ccd_of_core(CoreId(15)), CcdId(3));
    }

    #[test]
    fn every_position_reachable_from_core0() {
        for spec in [PlatformSpec::epyc_7302(), PlatformSpec::epyc_9634()] {
            let t = Topology::build(&spec);
            for pos in DimmPosition::ALL {
                assert!(
                    t.dimm_at_position(CoreId(0), pos).is_some(),
                    "{}: no DIMM at {pos}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn route_latency_matches_spec_all_positions() {
        for spec in [
            PlatformSpec::epyc_7302(),
            PlatformSpec::epyc_9634(),
            PlatformSpec::monolithic_baseline(),
        ] {
            let t = Topology::build(&spec);
            for core in t.core_ids() {
                for dimm in t.dimm_ids() {
                    let pos = t.position_of(core, dimm);
                    let path = t.route_core_to_dimm(core, dimm);
                    let expected = spec.dram_latency_ns(pos);
                    assert!(
                        (path.latency_ns - expected).abs() < 1e-9,
                        "{}: {core}->{dimm} ({pos}): path {} vs spec {}",
                        spec.name,
                        path.latency_ns,
                        expected
                    );
                }
            }
        }
    }

    #[test]
    fn route_switch_hops_match_position() {
        let spec = PlatformSpec::epyc_7302();
        let t = Topology::build(&spec);
        for dimm in t.dimm_ids() {
            let pos = t.position_of(CoreId(0), dimm);
            let path = t.route_core_to_dimm(CoreId(0), dimm);
            let expected = spec.noc.near_hops + pos.extra_hops(false);
            assert_eq!(
                path.switch_hops, expected,
                "{pos}: got {} switch hops",
                path.switch_hops
            );
        }
    }

    #[test]
    fn cxl_route_latency_matches_spec() {
        let spec = PlatformSpec::epyc_9634();
        let t = Topology::build(&spec);
        for core in t.core_ids() {
            for dev in 0..t.cxl_device_count() {
                let path = t.route_core_to_cxl(core, dev).unwrap();
                assert!(
                    (path.latency_ns - spec.cxl_latency_ns().unwrap()).abs() < 1e-9,
                    "core {core} dev {dev}: {} ns",
                    path.latency_ns
                );
            }
        }
    }

    #[test]
    fn cxl_absent_on_7302() {
        let t = Topology::build(&PlatformSpec::epyc_7302());
        assert!(t.route_core_to_cxl(CoreId(0), 0).is_none());
    }

    #[test]
    fn nps_scoping_shrinks_dimm_set() {
        let t = Topology::build(&PlatformSpec::epyc_9634());
        let all = t.dimms_in_scope(CoreId(0), NpsMode::Nps1);
        let half = t.dimms_in_scope(CoreId(0), NpsMode::Nps2);
        let quarter = t.dimms_in_scope(CoreId(0), NpsMode::Nps4);
        assert_eq!(all.len(), 12);
        assert_eq!(half.len(), 6);
        assert_eq!(quarter.len(), 3);
        // NPS4 DIMMs are all near.
        for d in &quarter {
            assert_eq!(t.position_of(CoreId(0), *d), DimmPosition::Near);
        }
    }

    #[test]
    fn routes_are_deterministic() {
        let t = Topology::build(&PlatformSpec::epyc_9634());
        let a = t.route_core_to_dimm(CoreId(5), DimmId(7));
        let b = t.route_core_to_dimm(CoreId(5), DimmId(7));
        assert_eq!(a.hops, b.hops);
    }

    #[test]
    fn route_to_self_is_trivial() {
        let t = Topology::build(&PlatformSpec::epyc_7302());
        let n = t.core_node(CoreId(0));
        let p = t.route(n, n).unwrap();
        assert_eq!(p.hops.len(), 1);
        assert_eq!(p.switch_hops, 0);
    }

    #[test]
    fn monolithic_has_uniform_routes() {
        let t = Topology::build(&PlatformSpec::monolithic_baseline());
        let lats: Vec<f64> = t
            .dimm_ids()
            .map(|d| t.route_core_to_dimm(CoreId(0), d).latency_ns)
            .collect();
        for l in &lats {
            assert!((l - lats[0]).abs() < 1e-9);
        }
    }

    #[test]
    fn c2c_latency_classes_are_ordered() {
        let t = Topology::build(&PlatformSpec::epyc_7302());
        let same_core = t.c2c_latency_ns(CoreId(0), CoreId(0));
        let same_ccx = t.c2c_latency_ns(CoreId(0), CoreId(1));
        let same_ccd = t.c2c_latency_ns(CoreId(0), CoreId(2)); // other CCX
        let cross_ccd = t.c2c_latency_ns(CoreId(0), CoreId(4));
        assert!(same_core < same_ccx);
        assert!(same_ccx < same_ccd, "{same_ccx} vs {same_ccd}");
        assert!(same_ccd <= cross_ccd);
        // Rome-class magnitudes: ~45 ns shared L3, ~100+ ns cross-chiplet.
        assert!((30.0..=60.0).contains(&same_ccx), "{same_ccx}");
        assert!((90.0..=180.0).contains(&cross_ccd), "{cross_ccd}");
    }

    #[test]
    fn c2c_cross_socket_is_the_most_expensive() {
        let t = Topology::build(&PlatformSpec::dual_epyc_7302());
        let cross_ccd = t.c2c_latency_ns(CoreId(0), CoreId(12));
        let cross_socket = t.c2c_latency_ns(CoreId(0), CoreId(16));
        assert!(
            cross_socket > cross_ccd + 50.0,
            "{cross_socket} vs {cross_ccd}"
        );
        assert!((180.0..=300.0).contains(&cross_socket), "{cross_socket}");
    }

    #[test]
    fn c2c_is_symmetric() {
        let t = Topology::build(&PlatformSpec::epyc_9634());
        for (a, b) in [(0u32, 10), (3, 80), (7, 7), (20, 41)] {
            assert_eq!(
                t.c2c_latency_ns(CoreId(a), CoreId(b)),
                t.c2c_latency_ns(CoreId(b), CoreId(a))
            );
        }
    }

    #[test]
    fn capacity_points_present_on_memory_route() {
        let t = Topology::build(&PlatformSpec::epyc_9634());
        let path = t.route_core_to_dimm(CoreId(0), DimmId(0));
        let kinds: Vec<LinkKind> = path
            .hops
            .iter()
            .filter_map(|h| h.via)
            .map(|l| t.link(l).kind)
            .collect();
        assert!(kinds.contains(&LinkKind::CoreL3));
        assert!(kinds.contains(&LinkKind::L3Tc));
        assert!(kinds.contains(&LinkKind::Gmi));
        assert!(kinds.contains(&LinkKind::MemChannel));
    }
}
