//! Operation kinds and access patterns.
//!
//! The characterization utility "can flexibly generate different data flows
//! (such as one or multiple concurrent cachelines, random/sequential
//! read/write access patterns, and temporal or non-temporal writes) over a
//! size-configurable working set" (§3.1). This module captures those
//! semantics and the concurrency each pattern sustains; whether a stream
//! stays in the cache hierarchy is decided per flow in `chiplet-net`.

use serde::{Deserialize, Serialize};

/// The operation a request performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// A cacheline read (load / AVX-512 gather stream).
    Read,
    /// A temporal (write-back cached) store.
    WriteTemporal,
    /// A non-temporal streaming store: bypasses the hierarchy and always
    /// produces memory traffic (the paper measures writes this way).
    WriteNonTemporal,
}

impl OpKind {
    /// True for either write kind.
    pub fn is_write(self) -> bool {
        matches!(self, OpKind::WriteTemporal | OpKind::WriteNonTemporal)
    }
}

impl core::fmt::Display for OpKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            OpKind::Read => "read",
            OpKind::WriteTemporal => "write",
            OpKind::WriteNonTemporal => "write-nt",
        })
    }
}

/// The spatial pattern of a request stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Pattern {
    /// Sequential streaming: prefetch-friendly, full memory-level
    /// parallelism.
    Sequential,
    /// Uniform random over the working set: independent accesses still
    /// overlap, but without the prefetcher's streaming the core sustains
    /// roughly half its sequential memory-level parallelism.
    Random,
    /// Dependent pointer chasing: exactly one access in flight; the
    /// latency-measurement mode of the paper's utility.
    PointerChase,
}

impl Pattern {
    /// The concurrency this pattern sustains, given a hardware MLP budget.
    pub fn effective_mlp(self, hardware_mlp: u32) -> u32 {
        match self {
            Pattern::Sequential => hardware_mlp,
            // No prefetch streams: only the out-of-order window's demand
            // misses overlap.
            Pattern::Random => hardware_mlp.div_ceil(2),
            Pattern::PointerChase => 1,
        }
    }
}

impl core::fmt::Display for Pattern {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Pattern::Sequential => "sequential",
            Pattern::Random => "random",
            Pattern::PointerChase => "pointer-chase",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointer_chase_serializes() {
        assert_eq!(Pattern::PointerChase.effective_mlp(29), 1);
        assert_eq!(Pattern::Sequential.effective_mlp(29), 29);
        // Random loses the prefetcher's half of the parallelism.
        assert_eq!(Pattern::Random.effective_mlp(29), 15);
        assert_eq!(Pattern::Random.effective_mlp(1), 1);
    }

    #[test]
    fn op_kind_predicates() {
        assert!(!OpKind::Read.is_write());
        assert!(OpKind::WriteTemporal.is_write());
        assert!(OpKind::WriteNonTemporal.is_write());
    }
}
