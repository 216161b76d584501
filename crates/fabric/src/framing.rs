//! CXL.mem FLIT framing.
//!
//! §2.3: "a CXL mem transaction, encoded as the FLIT size (68/256B), goes
//! from a compute chiplet and I/O chiplet to a CXL DIMM". A 64 B cacheline
//! rides in a 68 B FLIT (64 B data + 4 B header/CRC) in the 68 B format, or
//! packs with others into a 256 B FLIT (240 B usable payload after framing).
//! The wire-byte inflation is why CXL links deliver less *payload* bandwidth
//! than their raw rate.

use serde::{Deserialize, Serialize};

/// FLIT framing parameters for a CXL-style serial link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlitFraming {
    /// Total FLIT size on the wire, bytes.
    pub flit_bytes: u32,
    /// Payload bytes a FLIT carries.
    pub payload_bytes: u32,
}

impl FlitFraming {
    /// The 68 B FLIT format: one 64 B cacheline per FLIT.
    pub const CXL_68B: FlitFraming = FlitFraming {
        flit_bytes: 68,
        payload_bytes: 64,
    };

    /// The 256 B FLIT format: 240 B of payload after framing overhead.
    pub const CXL_256B: FlitFraming = FlitFraming {
        flit_bytes: 256,
        payload_bytes: 240,
    };

    /// Chooses the standard framing for a spec's `flit_bytes` field.
    ///
    /// # Panics
    ///
    /// Panics on a FLIT size that is not 68 or 256 (the two formats the CXL
    /// spec and the paper name).
    pub fn for_flit_size(flit_bytes: u32) -> Self {
        match flit_bytes {
            68 => Self::CXL_68B,
            256 => Self::CXL_256B,
            other => panic!("unsupported CXL FLIT size {other}, expected 68 or 256"),
        }
    }

    /// FLITs needed to carry `payload` bytes.
    pub fn flits_for(&self, payload: u64) -> u64 {
        payload.div_ceil(self.payload_bytes as u64)
    }

    /// Wire bytes consumed to carry `payload` bytes.
    pub fn wire_bytes(&self, payload: u64) -> u64 {
        self.flits_for(payload) * self.flit_bytes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cacheline_in_68b_flit() {
        let f = FlitFraming::CXL_68B;
        assert_eq!(f.flits_for(64), 1);
        assert_eq!(f.wire_bytes(64), 68);
    }

    #[test]
    fn large_transfer_in_256b_flits() {
        let f = FlitFraming::CXL_256B;
        // 4 KiB = 4096 B: ceil(4096/240) = 18 FLITs = 4608 wire bytes.
        assert_eq!(f.flits_for(4096), 18);
        assert_eq!(f.wire_bytes(4096), 4608);
    }

    #[test]
    fn partial_flit_rounds_up() {
        let f = FlitFraming::CXL_68B;
        assert_eq!(f.flits_for(1), 1);
        assert_eq!(f.flits_for(65), 2);
        assert_eq!(f.wire_bytes(65), 136);
    }

    #[test]
    fn spec_selection() {
        assert_eq!(FlitFraming::for_flit_size(68), FlitFraming::CXL_68B);
        assert_eq!(FlitFraming::for_flit_size(256), FlitFraming::CXL_256B);
    }

    #[test]
    #[should_panic(expected = "unsupported CXL FLIT size")]
    fn odd_flit_size_rejected() {
        let _ = FlitFraming::for_flit_size(128);
    }

    #[test]
    fn cacheline_fits_68b_flits_tighter() {
        // A single line wastes 192 payload bytes of a 256 B FLIT.
        assert!(FlitFraming::CXL_68B.wire_bytes(64) < FlitFraming::CXL_256B.wire_bytes(64));
    }
}
