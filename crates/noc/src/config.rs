//! NoC configuration: topology and router discipline.

use serde::{Deserialize, Serialize};

/// The switch interconnection pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NocTopology {
    /// A `width × height` 2-D mesh.
    Mesh {
        /// Columns.
        width: u8,
        /// Rows.
        height: u8,
    },
    /// A `width × height` 2-D torus (wraparound links in both dimensions).
    Torus {
        /// Columns.
        width: u8,
        /// Rows.
        height: u8,
    },
}

impl NocTopology {
    /// Router count.
    pub fn node_count(self) -> usize {
        let (w, h) = self.dims();
        w as usize * h as usize
    }

    /// `(width, height)`.
    pub fn dims(self) -> (u8, u8) {
        match self {
            NocTopology::Mesh { width, height } | NocTopology::Torus { width, height } => {
                (width, height)
            }
        }
    }

    /// True for torus wraparound.
    pub fn wraps(self) -> bool {
        matches!(self, NocTopology::Torus { .. })
    }

    /// Router id at `(x, y)`.
    pub fn id_of(self, x: u8, y: u8) -> usize {
        let (w, _) = self.dims();
        y as usize * w as usize + x as usize
    }

    /// `(x, y)` of a router id.
    pub fn coords_of(self, id: usize) -> (u8, u8) {
        let (w, _) = self.dims();
        ((id % w as usize) as u8, (id / w as usize) as u8)
    }

    /// Hop distance under the topology's shortest routing.
    pub fn distance(self, a: usize, b: usize) -> u32 {
        let (w, h) = self.dims();
        let (ax, ay) = self.coords_of(a);
        let (bx, by) = self.coords_of(b);
        let dx = (ax as i32 - bx as i32).unsigned_abs();
        let dy = (ay as i32 - by as i32).unsigned_abs();
        if self.wraps() {
            dx.min(w as u32 - dx) + dy.min(h as u32 - dy)
        } else {
            dx + dy
        }
    }
}

/// The router discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Routing {
    /// Input-buffered dimension-order (XY) routing with credit-based flow
    /// control.
    BufferedXY {
        /// Input FIFO depth per port, flits.
        buffer_depth: u8,
    },
    /// Bufferless deflection routing: flits always move; on output-port
    /// conflict the oldest flit wins and losers deflect (BLESS-style).
    Deflection,
}

/// Full NoC configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NocConfig {
    /// Switch interconnection.
    pub topology: NocTopology,
    /// Router discipline.
    pub routing: Routing,
    /// Flits per packet. Multi-flit packets use wormhole switching on the
    /// buffered router (the head locks each traversed channel until the
    /// tail passes); bufferless deflection requires single-flit packets.
    pub packet_len: u8,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_coords_round_trip() {
        let t = NocTopology::Mesh {
            width: 4,
            height: 3,
        };
        for id in 0..t.node_count() {
            let (x, y) = t.coords_of(id);
            assert_eq!(t.id_of(x, y), id);
        }
        assert_eq!(t.node_count(), 12);
    }

    #[test]
    fn mesh_distance_is_manhattan() {
        let t = NocTopology::Mesh {
            width: 4,
            height: 4,
        };
        assert_eq!(t.distance(t.id_of(0, 0), t.id_of(3, 3)), 6);
        assert_eq!(t.distance(t.id_of(1, 1), t.id_of(1, 1)), 0);
        assert_eq!(t.distance(t.id_of(0, 2), t.id_of(2, 2)), 2);
    }

    #[test]
    fn torus_wraps_shorten_distance() {
        let mesh = NocTopology::Mesh {
            width: 4,
            height: 4,
        };
        let torus = NocTopology::Torus {
            width: 4,
            height: 4,
        };
        // Corner to corner: mesh 6, torus 2 (one wrap in each dimension).
        assert_eq!(mesh.distance(0, mesh.id_of(3, 3)), 6);
        assert_eq!(torus.distance(0, torus.id_of(3, 3)), 2);
    }

    #[test]
    fn distance_symmetry() {
        for t in [
            NocTopology::Mesh {
                width: 5,
                height: 3,
            },
            NocTopology::Torus {
                width: 5,
                height: 3,
            },
        ] {
            for a in 0..t.node_count() {
                for b in 0..t.node_count() {
                    assert_eq!(t.distance(a, b), t.distance(b, a));
                }
            }
        }
    }
}
