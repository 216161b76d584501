//! Peak-bandwidth probes (Table 3).

use chiplet_mem::OpKind;
use chiplet_net::scenario::{ScenarioReport, ScenarioSpec, TargetSpec};
use chiplet_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::scope::CoreScope;

/// Where a bandwidth probe points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Destination {
    /// All DIMMs, cacheline-interleaved (the NPS1 default).
    Dimms,
    /// CXL device 0.
    Cxl,
}

/// One Table 3 row: scope plus read/write bandwidth, GB/s.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BandwidthRow {
    /// Issuing scope.
    pub scope: CoreScope,
    /// Sequential-read bandwidth, GB/s.
    pub read_gb_s: f64,
    /// Non-temporal-write bandwidth, GB/s.
    pub write_gb_s: f64,
}

/// Peak-bandwidth specs for one Table 3 column: for each scope of
/// [`CoreScope::ALL`], AVX-style sequential reads then non-temporal writes
/// at full throttle, 40 µs each. `Err` when the destination does not exist
/// on the platform.
pub fn bandwidth(
    base: &ScenarioSpec,
    dest: Destination,
) -> Result<Vec<ScenarioSpec>, &'static str> {
    let topo = crate::topology(base);
    let target = match dest {
        Destination::Dimms => TargetSpec::AllDimms,
        Destination::Cxl if topo.cxl_device_count() == 0 => {
            return Err("platform has no CXL device")
        }
        Destination::Cxl => TargetSpec::Cxl(0),
    };
    Ok(CoreScope::ALL
        .iter()
        .flat_map(|&scope| [(scope, OpKind::Read), (scope, OpKind::WriteNonTemporal)])
        .map(|(scope, op)| {
            let cores = scope.select(topo.spec(), 0);
            let flow = crate::stream("bw-probe", cores, target.clone(), op, None);
            crate::probe(
                base,
                format!("bandwidth {scope} {op}"),
                "peak-bandwidth probe (Table 3)",
                SimTime::from_micros(40),
                vec![flow],
            )
        })
        .collect())
}

/// Folds a [`bandwidth`] run into its rows: one per scope, read then write.
pub fn table3_rows(reports: &[ScenarioReport]) -> Vec<BandwidthRow> {
    CoreScope::ALL
        .iter()
        .zip(reports.chunks(2))
        .map(|(&scope, pair)| BandwidthRow {
            scope,
            read_gb_s: crate::flows(&pair[0])[0].achieved_gb_s,
            write_gb_s: crate::flows(&pair[1])[0].achieved_gb_s,
        })
        .collect()
}

/// The full Table 3 column for one destination: all four scopes, read and
/// write. `None` when the destination does not exist on the platform.
pub fn table3_column(base: &ScenarioSpec, dest: Destination) -> Option<Vec<BandwidthRow>> {
    let specs = bandwidth(base, dest).ok()?;
    Some(table3_rows(&crate::execute(specs)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base;

    #[test]
    fn scopes_scale_up_bandwidth() {
        let rows = table3_column(&base("epyc_7302", true), Destination::Dimms).unwrap();
        assert_eq!(rows.len(), 4);
        for w in rows.windows(2) {
            assert!(
                w[1].read_gb_s > w[0].read_gb_s,
                "read bandwidth should grow with scope: {w:?}"
            );
        }
        // Reads always beat NT writes at the same scope (Table 3).
        for r in &rows {
            assert!(r.read_gb_s > r.write_gb_s, "{r:?}");
        }
    }

    #[test]
    fn cxl_column_absent_on_7302() {
        assert!(table3_column(&base("epyc_7302", true), Destination::Cxl).is_none());
    }

    #[test]
    fn cxl_slower_than_dram_on_9634() {
        let b = base("epyc_9634", true);
        let dram = table3_column(&b, Destination::Dimms).unwrap()[0];
        let cxl = table3_column(&b, Destination::Cxl).unwrap()[0];
        assert!(cxl.read_gb_s < dram.read_gb_s * 0.5);
    }
}
