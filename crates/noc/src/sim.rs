//! The cycle-driven NoC engine.
//!
//! One [`NocSim::step`] advances every router by one cycle. Both router
//! disciplines are implemented:
//!
//! * **Buffered XY** — five input FIFOs per router (N/E/S/W/Local) with
//!   credit-style admission (a FIFO accepts at most its free slots per
//!   cycle), dimension-order routing, and per-output round-robin
//!   arbitration.
//! * **Deflection** — bufferless: every in-flight flit moves every cycle;
//!   at each router the oldest flit gets its productive port and losers are
//!   deflected to any free port (BLESS-style age arbitration). Injection is
//!   admitted only when the router holds fewer flits than its degree, and
//!   one flit may eject per cycle.
//!
//! Determinism: all arbitration orders are fixed functions of router id,
//! port index, flit age, and flit id; traffic randomness comes exclusively
//! from the caller's seeded [`DetRng`].

use std::collections::VecDeque;

use chiplet_sim::DetRng;

use crate::config::{NocConfig, Routing};
use crate::pattern::TrafficPattern;
use crate::stats::NocStats;

/// Port indices: North, East, South, West, Local.
const PORTS: usize = 5;
const LOCAL: usize = 4;

#[derive(Debug, Clone, Copy)]
struct Flit {
    id: u64,
    /// Owning packet.
    pkt: u64,
    dst: usize,
    born_cycle: u64,
    is_head: bool,
    is_tail: bool,
}

/// The flit-level NoC simulator.
pub struct NocSim {
    config: NocConfig,
    cycle: u64,
    next_flit_id: u64,
    /// Source queues: flits generated but not yet injected.
    source_queues: Vec<VecDeque<Flit>>,
    /// Buffered mode: input FIFOs per router per port.
    buffers: Vec<[VecDeque<Flit>; PORTS]>,
    /// Buffered mode: round-robin arbitration pointer per router per output.
    rr_pointers: Vec<[usize; PORTS]>,
    /// Wormhole locks: per router, per input port, the output port and
    /// packet currently holding the channel.
    locks: Vec<[Option<(usize, u64)>; PORTS]>,
    next_pkt_id: u64,
    /// Deflection mode: flits present at each router this cycle.
    resident: Vec<Vec<Flit>>,
    /// Only flits born at or after this cycle contribute to statistics
    /// (warmup exclusion).
    measure_from: u64,
    stats: NocStats,
}

impl NocSim {
    /// Creates an idle network.
    pub fn new(config: NocConfig) -> Self {
        assert!(config.packet_len >= 1, "packets need at least one flit");
        assert!(
            config.packet_len == 1 || matches!(config.routing, Routing::BufferedXY { .. }),
            "multi-flit (wormhole) packets require the buffered router"
        );
        let n = config.topology.node_count();
        NocSim {
            config,
            cycle: 0,
            next_flit_id: 0,
            source_queues: vec![VecDeque::new(); n],
            buffers: (0..n).map(|_| Default::default()).collect(),
            rr_pointers: vec![[0; PORTS]; n],
            locks: vec![[None; PORTS]; n],
            next_pkt_id: 0,
            resident: vec![Vec::new(); n],
            measure_from: 0,
            stats: NocStats::new(n),
        }
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Queues a flit for injection at `src` toward `dst`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range router ids or `src == dst`.
    pub fn generate(&mut self, src: usize, dst: usize) {
        let n = self.config.topology.node_count();
        assert!(src < n && dst < n, "router id out of range");
        assert_ne!(src, dst, "flit must travel");
        let pkt = self.next_pkt_id;
        self.next_pkt_id += 1;
        let len = self.config.packet_len as u64;
        for i in 0..len {
            let flit = Flit {
                id: self.next_flit_id,
                pkt,
                dst,
                born_cycle: self.cycle,
                is_head: i == 0,
                is_tail: i == len - 1,
            };
            self.next_flit_id += 1;
            self.source_queues[src].push_back(flit);
        }
    }

    /// Flits still in source queues or in the network.
    pub fn in_flight(&self) -> usize {
        let queued: usize = self.source_queues.iter().map(VecDeque::len).sum();
        let network: usize = match self.config.routing {
            Routing::BufferedXY { .. } => self
                .buffers
                .iter()
                .map(|b| b.iter().map(VecDeque::len).sum::<usize>())
                .sum(),
            Routing::Deflection => self.resident.iter().map(Vec::len).sum(),
        };
        queued + network
    }

    /// Advances one cycle.
    pub fn step(&mut self) {
        match self.config.routing {
            Routing::BufferedXY { buffer_depth } => self.step_buffered(buffer_depth as usize),
            Routing::Deflection => self.step_deflection(),
        }
        self.cycle += 1;
        self.stats.cycles = self.cycle;
    }

    /// Neighbor of `router` through `port`, if the link exists.
    fn neighbor(&self, router: usize, port: usize) -> Option<usize> {
        let topo = self.config.topology;
        let (w, h) = topo.dims();
        let (x, y) = topo.coords_of(router);
        let wraps = topo.wraps();
        let (nx, ny) = match port {
            0 => {
                // North: -y
                if y == 0 {
                    if wraps {
                        (x, h - 1)
                    } else {
                        return None;
                    }
                } else {
                    (x, y - 1)
                }
            }
            1 => {
                // East: +x
                if x + 1 == w {
                    if wraps {
                        (0, y)
                    } else {
                        return None;
                    }
                } else {
                    (x + 1, y)
                }
            }
            2 => {
                // South: +y
                if y + 1 == h {
                    if wraps {
                        (x, 0)
                    } else {
                        return None;
                    }
                } else {
                    (x, y + 1)
                }
            }
            3 => {
                // West: -x
                if x == 0 {
                    if wraps {
                        (w - 1, y)
                    } else {
                        return None;
                    }
                } else {
                    (x - 1, y)
                }
            }
            _ => return None,
        };
        Some(topo.id_of(nx, ny))
    }

    /// The arrival port at the neighbor reached through `out_port`.
    fn arrival_port(out_port: usize) -> usize {
        // Leaving north arrives from the south, etc.
        match out_port {
            0 => 2,
            1 => 3,
            2 => 0,
            3 => 1,
            p => p,
        }
    }

    /// Dimension-order (XY) productive port for `dst` from `router`;
    /// `LOCAL` when already there. Torus picks the shorter wrap direction,
    /// ties broken toward the positive direction.
    fn xy_port(&self, router: usize, dst: usize) -> usize {
        let topo = self.config.topology;
        let (w, h) = topo.dims();
        let (x, y) = topo.coords_of(router);
        let (dx, dy) = topo.coords_of(dst);
        if x != dx {
            let right = (dx as i32 - x as i32).rem_euclid(w as i32) as u32;
            let left = (x as i32 - dx as i32).rem_euclid(w as i32) as u32;
            if topo.wraps() {
                if right <= left {
                    1
                } else {
                    3
                }
            } else if dx > x {
                1
            } else {
                3
            }
        } else if y != dy {
            let down = (dy as i32 - y as i32).rem_euclid(h as i32) as u32;
            let up = (y as i32 - dy as i32).rem_euclid(h as i32) as u32;
            if topo.wraps() {
                if down <= up {
                    2
                } else {
                    0
                }
            } else if dy > y {
                2
            } else {
                0
            }
        } else {
            LOCAL
        }
    }

    // Routers are addressed by dense index throughout; range loops over
    // `r`/ports index several parallel state arrays, which reads clearer
    // than zipped iterators here.
    #[allow(clippy::needless_range_loop)]
    fn step_buffered(&mut self, depth: usize) {
        let n = self.config.topology.node_count();
        // Free space snapshot (credits) at cycle start.
        let mut free: Vec<[usize; PORTS]> = (0..n)
            .map(|r| {
                let mut f = [0; PORTS];
                for (p, slot) in f.iter_mut().enumerate() {
                    *slot = depth - self.buffers[r][p].len();
                }
                f
            })
            .collect();

        // Injection: local FIFO admission against the snapshot.
        for r in 0..n {
            while free[r][LOCAL] > 0 {
                match self.source_queues[r].pop_front() {
                    Some(flit) => {
                        if flit.is_head && flit.born_cycle >= self.measure_from {
                            self.stats.injected += 1;
                        }
                        self.buffers[r][LOCAL].push_back(flit);
                        free[r][LOCAL] -= 1;
                    }
                    None => break,
                }
            }
            if !self.source_queues[r].is_empty() {
                self.stats.injection_stalls += self.source_queues[r].len() as u64;
            }
        }

        // Switch allocation: wormhole continuations first (an input whose
        // channel is locked to an output has absolute priority there), then
        // round-robin arbitration among head flits. Each input sends at
        // most one flit per cycle.
        let mut moves: Vec<(usize, usize, usize, usize)> = Vec::new(); // (router, in_port, out_port, dest_router)
        for r in 0..n {
            let mut input_used = [false; PORTS];
            let mut output_used = [false; PORTS];

            // Phase 1: continuations.
            for inp in 0..PORTS {
                let Some((out, pkt)) = self.locks[r][inp] else {
                    continue;
                };
                let Some(front) = self.buffers[r][inp].front() else {
                    continue;
                };
                if front.pkt != pkt {
                    // The packet's next flit has not arrived yet.
                    continue;
                }
                if out == LOCAL {
                    input_used[inp] = true;
                    output_used[out] = true;
                    moves.push((r, inp, out, r));
                } else {
                    let next = self.neighbor(r, out).expect("locked port exists");
                    let ap = Self::arrival_port(out);
                    if free[next][ap] == 0 {
                        output_used[out] = true; // channel held, nobody else may use it
                        continue;
                    }
                    free[next][ap] -= 1;
                    input_used[inp] = true;
                    output_used[out] = true;
                    moves.push((r, inp, out, next));
                }
            }

            // Phase 2: new head flits.
            for out in 0..PORTS {
                if output_used[out] {
                    continue;
                }
                let start = self.rr_pointers[r][out];
                for k in 0..PORTS {
                    let inp = (start + k) % PORTS;
                    if input_used[inp] || self.locks[r][inp].is_some() {
                        continue;
                    }
                    let Some(head) = self.buffers[r][inp].front() else {
                        continue;
                    };
                    if !head.is_head || self.xy_port(r, head.dst) != out {
                        continue;
                    }
                    if out == LOCAL {
                        input_used[inp] = true;
                        moves.push((r, inp, out, r));
                        self.rr_pointers[r][out] = (inp + 1) % PORTS;
                        break;
                    }
                    let Some(next) = self.neighbor(r, out) else {
                        continue;
                    };
                    let ap = Self::arrival_port(out);
                    if free[next][ap] == 0 {
                        // No credit downstream; this output stays idle
                        // (head-of-line blocking, as in real routers).
                        break;
                    }
                    free[next][ap] -= 1;
                    input_used[inp] = true;
                    moves.push((r, inp, out, next));
                    self.rr_pointers[r][out] = (inp + 1) % PORTS;
                    break;
                }
            }
        }

        // Apply moves; maintain wormhole locks.
        for (r, inp, out, dest) in moves {
            let flit = self.buffers[r][inp]
                .pop_front()
                .expect("allocated input has a head flit");
            if flit.is_tail {
                self.locks[r][inp] = None;
            } else if flit.is_head {
                self.locks[r][inp] = Some((out, flit.pkt));
            }
            if out == LOCAL {
                // A packet is delivered when its tail ejects.
                if flit.is_tail && flit.born_cycle >= self.measure_from {
                    self.stats.record_delivery(self.cycle + 1 - flit.born_cycle);
                }
            } else {
                self.buffers[dest][Self::arrival_port(out)].push_back(flit);
            }
        }
    }

    #[allow(clippy::needless_range_loop)]
    fn step_deflection(&mut self) {
        let n = self.config.topology.node_count();
        let degree: Vec<usize> = (0..n)
            .map(|r| (0..4).filter(|&p| self.neighbor(r, p).is_some()).count())
            .collect();

        let mut next_resident: Vec<Vec<Flit>> = vec![Vec::new(); n];

        for r in 0..n {
            let mut flits = std::mem::take(&mut self.resident[r]);

            // Ejection: deliver the oldest flit destined here (one per cycle).
            if let Some(pos) = flits
                .iter()
                .enumerate()
                .filter(|(_, f)| f.dst == r)
                .min_by_key(|(_, f)| (f.born_cycle, f.id))
                .map(|(i, _)| i)
            {
                let f = flits.swap_remove(pos);
                if f.born_cycle >= self.measure_from {
                    self.stats.record_delivery(self.cycle + 1 - f.born_cycle);
                }
            }

            // Injection: admitted while the router holds fewer flits than
            // its degree (every resident flit must get an output port).
            while flits.len() < degree[r] {
                match self.source_queues[r].pop_front() {
                    Some(f) => {
                        if f.born_cycle >= self.measure_from {
                            self.stats.injected += 1;
                        }
                        flits.push(f);
                    }
                    None => break,
                }
            }
            if !self.source_queues[r].is_empty() {
                self.stats.injection_stalls += self.source_queues[r].len() as u64;
            }

            // Port assignment: oldest first; productive port if free, else
            // any free on-grid port (a deflection).
            flits.sort_by_key(|f| (f.born_cycle, f.id));
            let mut port_used = [false; 4];
            for f in flits {
                let want = self.xy_port(r, f.dst);
                let assigned = if want < 4 && !port_used[want] && self.neighbor(r, want).is_some() {
                    want
                } else {
                    // Deflect: first free on-grid port. `want == LOCAL` only
                    // when dst == r and ejection was already taken; the flit
                    // loops through a neighbor and retries.
                    let free_port = (0..4)
                        .find(|&p| !port_used[p] && self.neighbor(r, p).is_some())
                        .expect("flit count never exceeds router degree");
                    self.stats.deflections += 1;
                    free_port
                };
                port_used[assigned] = true;
                let next = self.neighbor(r, assigned).expect("assigned port exists");
                next_resident[next].push(f);
            }
        }

        self.resident = next_resident;
    }

    /// Runs a synthetic-traffic experiment: Bernoulli injection at
    /// `rate` flits/node/cycle under `pattern` for `warmup + measure`
    /// cycles (statistics reset after warmup), then drains up to
    /// `4 × measure` extra cycles.
    pub fn run_synthetic(
        config: NocConfig,
        pattern: TrafficPattern,
        rate: f64,
        warmup: u64,
        measure: u64,
        rng: &mut DetRng,
    ) -> NocStats {
        let mut sim = NocSim::new(config);
        let n = config.topology.node_count();
        for phase in 0..2u8 {
            let cycles = if phase == 0 { warmup } else { measure };
            if phase == 1 {
                sim.stats = NocStats::new(n);
                sim.measure_from = sim.cycle;
            }
            let start_cycle = sim.cycle;
            while sim.cycle - start_cycle < cycles {
                for src in 0..n {
                    if rng.next_f64() < rate {
                        let dst = pattern.destination(src, config.topology, rng);
                        sim.generate(src, dst);
                    }
                }
                sim.step();
            }
        }
        // Drain without new injections so measured flits deliver; the
        // effective cycle count runs from measurement start to drain
        // completion, so backlogged traffic (e.g. a saturated hotspot) is
        // charged the cycles it actually needed.
        let drain_limit = sim.cycle + measure * 4;
        while sim.in_flight() > 0 && sim.cycle < drain_limit {
            sim.step();
        }
        sim.stats.cycles = sim.cycle - sim.measure_from;
        sim.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NocTopology;

    fn mesh(w: u8, h: u8) -> NocTopology {
        NocTopology::Mesh {
            width: w,
            height: h,
        }
    }

    fn buffered(w: u8, h: u8) -> NocConfig {
        NocConfig {
            topology: mesh(w, h),
            routing: Routing::BufferedXY { buffer_depth: 4 },
            packet_len: 1,
        }
    }

    fn deflect(w: u8, h: u8) -> NocConfig {
        NocConfig {
            topology: mesh(w, h),
            routing: Routing::Deflection,
            packet_len: 1,
        }
    }

    #[test]
    fn single_flit_takes_manhattan_plus_pipeline() {
        let cfg = buffered(4, 4);
        let mut sim = NocSim::new(cfg);
        let src = cfg.topology.id_of(0, 0);
        let dst = cfg.topology.id_of(3, 2);
        sim.generate(src, dst);
        for _ in 0..50 {
            sim.step();
        }
        assert_eq!(sim.stats().delivered, 1);
        let lat = sim.stats().mean_latency();
        // 5 hops of distance; each hop costs one cycle plus injection and
        // ejection stages.
        let dist = cfg.topology.distance(src, dst) as f64;
        assert!(
            lat >= dist && lat <= dist + 3.0,
            "latency {lat} for distance {dist}"
        );
    }

    #[test]
    fn buffered_delivers_everything_at_low_load() {
        let mut rng = DetRng::seed_from_u64(1);
        let stats = NocSim::run_synthetic(
            buffered(4, 4),
            TrafficPattern::UniformRandom,
            0.05,
            200,
            2000,
            &mut rng,
        );
        assert!(stats.delivered > 0);
        // Drained: delivered == injected during the measured window.
        assert_eq!(stats.delivered, stats.injected);
        assert_eq!(stats.deflections, 0);
    }

    #[test]
    fn deflection_delivers_everything_at_low_load() {
        let mut rng = DetRng::seed_from_u64(2);
        let stats = NocSim::run_synthetic(
            deflect(4, 4),
            TrafficPattern::UniformRandom,
            0.05,
            200,
            2000,
            &mut rng,
        );
        assert_eq!(stats.delivered, stats.injected);
    }

    #[test]
    fn latency_rises_with_load_buffered() {
        let mut rng = DetRng::seed_from_u64(3);
        let low = NocSim::run_synthetic(
            buffered(4, 4),
            TrafficPattern::UniformRandom,
            0.05,
            300,
            3000,
            &mut rng,
        );
        let high = NocSim::run_synthetic(
            buffered(4, 4),
            TrafficPattern::UniformRandom,
            0.40,
            300,
            3000,
            &mut rng,
        );
        assert!(
            high.mean_latency() > low.mean_latency(),
            "high-load latency {} should exceed low-load {}",
            high.mean_latency(),
            low.mean_latency()
        );
    }

    #[test]
    fn deflections_appear_under_load() {
        let mut rng = DetRng::seed_from_u64(4);
        let stats = NocSim::run_synthetic(
            deflect(4, 4),
            TrafficPattern::UniformRandom,
            0.35,
            300,
            3000,
            &mut rng,
        );
        assert!(stats.deflections > 0, "expected deflections under load");
    }

    #[test]
    fn hotspot_saturates_before_uniform() {
        let mut rng = DetRng::seed_from_u64(5);
        let uniform = NocSim::run_synthetic(
            buffered(4, 4),
            TrafficPattern::UniformRandom,
            0.25,
            300,
            3000,
            &mut rng,
        );
        let hotspot = NocSim::run_synthetic(
            buffered(4, 4),
            TrafficPattern::Hotspot { target: 5 },
            0.25,
            300,
            3000,
            &mut rng,
        );
        // The hotspot's ejection port (1 flit/cycle) caps throughput.
        assert!(hotspot.throughput() < uniform.throughput());
    }

    #[test]
    fn torus_beats_mesh_on_corner_traffic() {
        let mut rng = DetRng::seed_from_u64(6);
        let mesh_cfg = buffered(4, 4);
        let torus_cfg = NocConfig {
            topology: NocTopology::Torus {
                width: 4,
                height: 4,
            },
            routing: Routing::BufferedXY { buffer_depth: 4 },
            packet_len: 1,
        };
        let m = NocSim::run_synthetic(
            mesh_cfg,
            TrafficPattern::UniformRandom,
            0.05,
            200,
            2000,
            &mut rng,
        );
        let t = NocSim::run_synthetic(
            torus_cfg,
            TrafficPattern::UniformRandom,
            0.05,
            200,
            2000,
            &mut rng,
        );
        assert!(t.mean_latency() < m.mean_latency());
    }

    #[test]
    fn determinism_same_seed_same_stats() {
        let run = |seed| {
            let mut rng = DetRng::seed_from_u64(seed);
            NocSim::run_synthetic(
                deflect(4, 2),
                TrafficPattern::UniformRandom,
                0.2,
                100,
                1000,
                &mut rng,
            )
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.deflections, b.deflections);
        assert_eq!(a.mean_latency(), b.mean_latency());
        let c = run(10);
        // Different seeds almost surely differ somewhere.
        assert!(
            a.delivered != c.delivered
                || a.deflections != c.deflections
                || a.mean_latency() != c.mean_latency()
        );
    }

    #[test]
    #[should_panic(expected = "flit must travel")]
    fn self_traffic_rejected() {
        let mut sim = NocSim::new(buffered(2, 2));
        sim.generate(1, 1);
    }

    fn wormhole(w: u8, h: u8, len: u8) -> NocConfig {
        NocConfig {
            topology: mesh(w, h),
            routing: Routing::BufferedXY { buffer_depth: 4 },
            packet_len: len,
        }
    }

    #[test]
    fn wormhole_packet_latency_is_pipelined() {
        // A 4-flit packet over distance d arrives ~d + 3 cycles after the
        // single-flit case: the body pipelines behind the head.
        let cfg1 = wormhole(4, 4, 1);
        let cfg4 = wormhole(4, 4, 4);
        let lat = |cfg: NocConfig| {
            let mut sim = NocSim::new(cfg);
            let src = cfg.topology.id_of(0, 0);
            let dst = cfg.topology.id_of(3, 2);
            sim.generate(src, dst);
            for _ in 0..60 {
                sim.step();
            }
            assert_eq!(sim.stats().delivered, 1, "packet not delivered");
            sim.stats().mean_latency()
        };
        let l1 = lat(cfg1);
        let l4 = lat(cfg4);
        assert!(
            (l4 - l1 - 3.0).abs() <= 1.0,
            "pipelining off: 1-flit {l1}, 4-flit {l4}"
        );
    }

    #[test]
    fn wormhole_conserves_packets_under_load() {
        let mut rng = DetRng::seed_from_u64(12);
        let stats = NocSim::run_synthetic(
            wormhole(4, 4, 4),
            TrafficPattern::UniformRandom,
            0.02, // packets/node/cycle: 0.08 flits/node/cycle
            200,
            2000,
            &mut rng,
        );
        assert!(stats.delivered > 0);
        assert_eq!(stats.delivered, stats.injected);
    }

    #[test]
    fn wormhole_packets_never_interleave() {
        // Heavy load with long packets: every packet still arrives intact
        // (delivery is tail-based; a lost/reordered body would deadlock or
        // drop the count).
        let mut rng = DetRng::seed_from_u64(13);
        let stats = NocSim::run_synthetic(
            wormhole(4, 2, 8),
            TrafficPattern::UniformRandom,
            0.01,
            200,
            3000,
            &mut rng,
        );
        assert_eq!(stats.delivered, stats.injected);
    }

    #[test]
    fn long_packets_raise_latency_at_equal_flit_rate() {
        let mut rng = DetRng::seed_from_u64(14);
        let short = NocSim::run_synthetic(
            wormhole(4, 4, 1),
            TrafficPattern::UniformRandom,
            0.20,
            300,
            3000,
            &mut rng,
        );
        let long = NocSim::run_synthetic(
            wormhole(4, 4, 4),
            TrafficPattern::UniformRandom,
            0.05, // same flit rate
            300,
            3000,
            &mut rng,
        );
        assert!(
            long.mean_latency() > short.mean_latency(),
            "wormhole blocking should cost latency: {} vs {}",
            long.mean_latency(),
            short.mean_latency()
        );
    }

    #[test]
    #[should_panic(expected = "require the buffered router")]
    fn deflection_rejects_multiflit() {
        let _ = NocSim::new(NocConfig {
            topology: mesh(2, 2),
            routing: Routing::Deflection,
            packet_len: 2,
        });
    }
}
