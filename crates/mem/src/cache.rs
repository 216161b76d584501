//! Cache-hierarchy resolution.
//!
//! The characterization utility measures latency "by configuring the
//! pointer-chasing mode ... and gradually increasing the working set"
//! (Table 2). The model is deliberately simple and deterministic: a working
//! set resolves at the innermost level that contains it. Boundary effects
//! (partial hits while a set slightly overflows a level) are second-order
//! for the paper's step-function methodology and are not modeled.

use chiplet_sim::ByteSize;
use chiplet_topology::CacheSpec;
use serde::{Deserialize, Serialize};

/// Where an access is served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CacheLevel {
    /// Per-core L1 data cache.
    L1,
    /// Per-core L2.
    L2,
    /// CCX-shared L3 slice.
    L3,
    /// Beyond the hierarchy: DRAM or a device.
    Memory,
}

impl core::fmt::Display for CacheLevel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            CacheLevel::L1 => "L1",
            CacheLevel::L2 => "L2",
            CacheLevel::L3 => "L3",
            CacheLevel::Memory => "memory",
        })
    }
}

/// A platform's cache hierarchy with capacity-based resolution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheHierarchy {
    l1_size: ByteSize,
    l2_size: ByteSize,
    l3_size: ByteSize,
    l1_latency_ns: f64,
    l2_latency_ns: f64,
    l3_latency_ns: f64,
}

impl CacheHierarchy {
    /// Builds from a platform's cache spec.
    pub fn from_spec(spec: &CacheSpec) -> Self {
        CacheHierarchy {
            l1_size: spec.l1_size,
            l2_size: spec.l2_size,
            l3_size: spec.l3_size_per_ccx,
            l1_latency_ns: spec.l1_latency_ns,
            l2_latency_ns: spec.l2_latency_ns,
            l3_latency_ns: spec.l3_latency_ns,
        }
    }

    /// The innermost level that holds a working set of `size` bytes.
    pub fn level_for(&self, size: ByteSize) -> CacheLevel {
        if size <= self.l1_size {
            CacheLevel::L1
        } else if size <= self.l2_size {
            CacheLevel::L2
        } else if size <= self.l3_size {
            CacheLevel::L3
        } else {
            CacheLevel::Memory
        }
    }

    /// Hit latency of a level, ns. [`CacheLevel::Memory`] has no hierarchy
    /// latency here — the fabric path supplies it — so this returns `None`.
    pub fn hit_latency_ns(&self, level: CacheLevel) -> Option<f64> {
        match level {
            CacheLevel::L1 => Some(self.l1_latency_ns),
            CacheLevel::L2 => Some(self.l2_latency_ns),
            CacheLevel::L3 => Some(self.l3_latency_ns),
            CacheLevel::Memory => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_topology::PlatformSpec;

    fn h(spec: &PlatformSpec) -> CacheHierarchy {
        CacheHierarchy::from_spec(&spec.cache)
    }

    fn chase(c: &CacheHierarchy, size: ByteSize) -> Option<f64> {
        c.hit_latency_ns(c.level_for(size))
    }

    #[test]
    fn working_set_walks_down_the_hierarchy_7302() {
        let c = h(&PlatformSpec::epyc_7302());
        assert_eq!(c.level_for(ByteSize::from_kib(16)), CacheLevel::L1);
        assert_eq!(c.level_for(ByteSize::from_kib(32)), CacheLevel::L1);
        assert_eq!(c.level_for(ByteSize::from_kib(64)), CacheLevel::L2);
        assert_eq!(c.level_for(ByteSize::from_kib(512)), CacheLevel::L2);
        assert_eq!(c.level_for(ByteSize::from_mib(1)), CacheLevel::L3);
        assert_eq!(c.level_for(ByteSize::from_mib(16)), CacheLevel::L3);
        assert_eq!(c.level_for(ByteSize::from_mib(64)), CacheLevel::Memory);
    }

    #[test]
    fn table2_cache_latencies() {
        let c = h(&PlatformSpec::epyc_7302());
        assert_eq!(chase(&c, ByteSize::from_kib(16)), Some(1.24));
        assert_eq!(chase(&c, ByteSize::from_kib(256)), Some(5.66));
        assert_eq!(chase(&c, ByteSize::from_mib(8)), Some(34.3));
        assert_eq!(chase(&c, ByteSize::from_gib(1)), None);

        let c = h(&PlatformSpec::epyc_9634());
        assert_eq!(chase(&c, ByteSize::from_kib(32)), Some(1.19));
        assert_eq!(chase(&c, ByteSize::from_kib(768)), Some(7.51));
        assert_eq!(chase(&c, ByteSize::from_mib(16)), Some(40.8));
    }

    #[test]
    fn bigger_l1_on_zen4() {
        let zen2 = h(&PlatformSpec::epyc_7302());
        let zen4 = h(&PlatformSpec::epyc_9634());
        // 64 KiB fits Zen 4's L1 but spills Zen 2's.
        assert_eq!(zen4.level_for(ByteSize::from_kib(64)), CacheLevel::L1);
        assert_eq!(zen2.level_for(ByteSize::from_kib(64)), CacheLevel::L2);
    }

    #[test]
    fn latencies_increase_outward() {
        for spec in [PlatformSpec::epyc_7302(), PlatformSpec::epyc_9634()] {
            let c = h(&spec);
            let l1 = c.hit_latency_ns(CacheLevel::L1).unwrap();
            let l2 = c.hit_latency_ns(CacheLevel::L2).unwrap();
            let l3 = c.hit_latency_ns(CacheLevel::L3).unwrap();
            assert!(l1 < l2 && l2 < l3);
            assert_eq!(c.hit_latency_ns(CacheLevel::Memory), None);
        }
    }
}
