//! Core scopes: the paper's "from a core / CCX / CCD / CPU" rows.

use chiplet_net::scenario::CoreSelect;
use chiplet_topology::PlatformSpec;
use serde::{Deserialize, Serialize};

/// Which cores a probe issues from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CoreScope {
    /// One core (core 0 of the chosen CCD).
    Core,
    /// All cores of one CCX (CCX 0 of the chosen CCD).
    Ccx,
    /// All cores of one CCD.
    Ccd,
    /// Every core on the socket.
    Cpu,
}

impl CoreScope {
    /// The four scopes in Table 3 order.
    pub const ALL: [CoreScope; 4] = [
        CoreScope::Core,
        CoreScope::Ccx,
        CoreScope::Ccd,
        CoreScope::Cpu,
    ];

    /// The scope's cores as a spec core selection, anchored at CCD `ccd`
    /// (core 0 of the CCD, CCX 0 of the CCD, the CCD, or every core).
    pub fn select(self, spec: &PlatformSpec, ccd: u32) -> CoreSelect {
        match self {
            CoreScope::Core => CoreSelect::Cores(vec![ccd * spec.cores_per_ccd()]),
            CoreScope::Ccx => CoreSelect::Ccx(ccd * spec.ccx_per_ccd),
            CoreScope::Ccd => CoreSelect::Ccd(ccd),
            CoreScope::Cpu => CoreSelect::All,
        }
    }
}

impl core::fmt::Display for CoreScope {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            CoreScope::Core => "Core",
            CoreScope::Ccx => "CCX",
            CoreScope::Ccd => "CCD",
            CoreScope::Cpu => "CPU",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiplet_topology::{CcdId, CoreId, Topology};

    fn cores(scope: CoreScope, topo: &Topology, ccd: u32) -> Vec<CoreId> {
        scope.select(topo.spec(), ccd).resolve(topo).unwrap()
    }

    #[test]
    fn scope_sizes_on_7302() {
        let topo = Topology::build(&PlatformSpec::epyc_7302());
        assert_eq!(cores(CoreScope::Core, &topo, 0).len(), 1);
        assert_eq!(cores(CoreScope::Ccx, &topo, 0).len(), 2);
        assert_eq!(cores(CoreScope::Ccd, &topo, 0).len(), 4);
        assert_eq!(cores(CoreScope::Cpu, &topo, 0).len(), 16);
    }

    #[test]
    fn scope_anchors_at_the_requested_ccd() {
        let topo = Topology::build(&PlatformSpec::epyc_7302());
        let ccd2 = cores(CoreScope::Ccd, &topo, 2);
        assert!(ccd2.iter().all(|c| topo.ccd_of_core(*c) == CcdId(2)));
        assert_eq!(cores(CoreScope::Core, &topo, 2), vec![CoreId(8)]);
    }

    #[test]
    fn scope_sizes_on_9634() {
        let topo = Topology::build(&PlatformSpec::epyc_9634());
        // One CCX per CCD on Zen 4: CCX and CCD scopes coincide.
        assert_eq!(cores(CoreScope::Ccx, &topo, 0).len(), 7);
        assert_eq!(cores(CoreScope::Ccd, &topo, 0).len(), 7);
        assert_eq!(cores(CoreScope::Cpu, &topo, 0).len(), 84);
    }
}
