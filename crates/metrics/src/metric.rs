//! The metric catalogue: 29 Ganglia default metrics plus the paper's four
//! vmstat additions, for a total of `n = 33` performance metrics per
//! snapshot — the width of the paper's raw data pool `A(n×m)`.

use serde::{Deserialize, Serialize};

/// Number of metrics in every snapshot (the paper's `n = 33`).
pub const METRIC_COUNT: usize = 33;

/// Identifier of one performance metric.
///
/// The first 29 variants mirror Ganglia gmond's default metric list circa
/// 2005; the last four are the paper's additions collected via `vmstat` and
/// injected into gmond's metric list (Section 4.1): I/O blocks in/out and
/// swap (paging) in/out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[repr(usize)]
#[allow(missing_docs)] // the names are the documentation; see `description()`
pub enum MetricId {
    // --- CPU ---
    CpuUser = 0,
    CpuSystem,
    CpuIdle,
    CpuNice,
    CpuWio,
    CpuNum,
    CpuSpeed,
    CpuAidle,
    // --- load / processes ---
    LoadOne,
    LoadFive,
    LoadFifteen,
    ProcRun,
    ProcTotal,
    // --- memory ---
    MemFree,
    MemShared,
    MemBuffers,
    MemCached,
    MemTotal,
    SwapFree,
    SwapTotal,
    // --- network ---
    BytesIn,
    BytesOut,
    PktsIn,
    PktsOut,
    // --- disk ---
    DiskFree,
    DiskTotal,
    PartMaxUsed,
    // --- host constants ---
    Boottime,
    Gexec,
    // --- the paper's four vmstat additions ---
    IoBi,
    IoBo,
    SwapIn,
    SwapOut,
}

impl MetricId {
    /// All metrics, in frame order.
    pub const ALL: [MetricId; METRIC_COUNT] = [
        MetricId::CpuUser,
        MetricId::CpuSystem,
        MetricId::CpuIdle,
        MetricId::CpuNice,
        MetricId::CpuWio,
        MetricId::CpuNum,
        MetricId::CpuSpeed,
        MetricId::CpuAidle,
        MetricId::LoadOne,
        MetricId::LoadFive,
        MetricId::LoadFifteen,
        MetricId::ProcRun,
        MetricId::ProcTotal,
        MetricId::MemFree,
        MetricId::MemShared,
        MetricId::MemBuffers,
        MetricId::MemCached,
        MetricId::MemTotal,
        MetricId::SwapFree,
        MetricId::SwapTotal,
        MetricId::BytesIn,
        MetricId::BytesOut,
        MetricId::PktsIn,
        MetricId::PktsOut,
        MetricId::DiskFree,
        MetricId::DiskTotal,
        MetricId::PartMaxUsed,
        MetricId::Boottime,
        MetricId::Gexec,
        MetricId::IoBi,
        MetricId::IoBo,
        MetricId::SwapIn,
        MetricId::SwapOut,
    ];

    /// The paper's Table 1: the eight expert-selected metrics, one
    /// correlated pair per application class.
    ///
    /// * CPU System / CPU User → CPU-intensive,
    /// * Bytes In / Bytes Out → Network-intensive,
    /// * IO BI / IO BO → IO-intensive,
    /// * Swap In / Swap Out → Memory(paging)-intensive.
    pub const EXPERT_EIGHT: [MetricId; 8] = [
        MetricId::CpuSystem,
        MetricId::CpuUser,
        MetricId::BytesIn,
        MetricId::BytesOut,
        MetricId::IoBi,
        MetricId::IoBo,
        MetricId::SwapIn,
        MetricId::SwapOut,
    ];

    /// Index of this metric within a [`MetricFrame`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Looks a metric up by frame index.
    pub fn from_index(i: usize) -> Option<MetricId> {
        MetricId::ALL.get(i).copied()
    }

    /// The gmond-style metric name.
    pub fn name(self) -> &'static str {
        match self {
            MetricId::CpuUser => "cpu_user",
            MetricId::CpuSystem => "cpu_system",
            MetricId::CpuIdle => "cpu_idle",
            MetricId::CpuNice => "cpu_nice",
            MetricId::CpuWio => "cpu_wio",
            MetricId::CpuNum => "cpu_num",
            MetricId::CpuSpeed => "cpu_speed",
            MetricId::CpuAidle => "cpu_aidle",
            MetricId::LoadOne => "load_one",
            MetricId::LoadFive => "load_five",
            MetricId::LoadFifteen => "load_fifteen",
            MetricId::ProcRun => "proc_run",
            MetricId::ProcTotal => "proc_total",
            MetricId::MemFree => "mem_free",
            MetricId::MemShared => "mem_shared",
            MetricId::MemBuffers => "mem_buffers",
            MetricId::MemCached => "mem_cached",
            MetricId::MemTotal => "mem_total",
            MetricId::SwapFree => "swap_free",
            MetricId::SwapTotal => "swap_total",
            MetricId::BytesIn => "bytes_in",
            MetricId::BytesOut => "bytes_out",
            MetricId::PktsIn => "pkts_in",
            MetricId::PktsOut => "pkts_out",
            MetricId::DiskFree => "disk_free",
            MetricId::DiskTotal => "disk_total",
            MetricId::PartMaxUsed => "part_max_used",
            MetricId::Boottime => "boottime",
            MetricId::Gexec => "gexec",
            MetricId::IoBi => "io_bi",
            MetricId::IoBo => "io_bo",
            MetricId::SwapIn => "swap_in",
            MetricId::SwapOut => "swap_out",
        }
    }

    /// Unit string for display.
    pub fn unit(self) -> &'static str {
        match self {
            MetricId::CpuUser
            | MetricId::CpuSystem
            | MetricId::CpuIdle
            | MetricId::CpuNice
            | MetricId::CpuWio
            | MetricId::CpuAidle
            | MetricId::PartMaxUsed => "%",
            MetricId::CpuNum | MetricId::ProcRun | MetricId::ProcTotal | MetricId::Gexec => "count",
            MetricId::CpuSpeed => "MHz",
            MetricId::LoadOne | MetricId::LoadFive | MetricId::LoadFifteen => "load",
            MetricId::MemFree
            | MetricId::MemShared
            | MetricId::MemBuffers
            | MetricId::MemCached
            | MetricId::MemTotal
            | MetricId::SwapFree
            | MetricId::SwapTotal => "kB",
            MetricId::BytesIn | MetricId::BytesOut => "bytes/s",
            MetricId::PktsIn | MetricId::PktsOut => "pkts/s",
            MetricId::DiskFree | MetricId::DiskTotal => "GB",
            MetricId::Boottime => "s",
            MetricId::IoBi | MetricId::IoBo => "blocks/s",
            MetricId::SwapIn | MetricId::SwapOut => "kB/s",
        }
    }

    /// Short human description (Table 1 wording for the expert eight).
    pub fn description(self) -> &'static str {
        match self {
            MetricId::CpuSystem => "Percent CPU System",
            MetricId::CpuUser => "Percent CPU User",
            MetricId::BytesIn => "Number of bytes per second into the network",
            MetricId::BytesOut => "Number of bytes per second out of the network",
            // vmstat semantics: `bi` = blocks received FROM a block device
            // (reads), `bo` = blocks sent TO one (writes). The paper's
            // Table 1 words the pair the other way around; we follow
            // vmstat, which is what the simulated VM reports.
            MetricId::IoBi => "Blocks received from a block device (reads, blocks/s)",
            MetricId::IoBo => "Blocks sent to a block device (writes, blocks/s)",
            MetricId::SwapIn => "Amount of memory swapped in from disk (kB/s)",
            MetricId::SwapOut => "Amount of memory swapped out to disk (kB/s)",
            MetricId::CpuIdle => "Percent CPU idle",
            MetricId::CpuWio => "Percent CPU waiting on I/O",
            MetricId::LoadOne => "One-minute load average",
            MetricId::MemFree => "Free memory",
            MetricId::SwapFree => "Free swap space",
            _ => "Ganglia default metric",
        }
    }

    /// True for the four metrics the paper added through vmstat.
    pub fn is_vmstat_addition(self) -> bool {
        matches!(self, MetricId::IoBi | MetricId::IoBo | MetricId::SwapIn | MetricId::SwapOut)
    }
}

/// One node's metric values at a single instant: a fixed-width frame of the
/// full 33-metric catalogue, indexed by [`MetricId`].
///
/// The values live inline, so a frame (and a [`Snapshot`](crate::Snapshot)
/// holding one) never touches the heap. The width is part of the type:
/// deserialising any other number of values fails instead of producing a
/// short or long frame. `Clone` but not `Copy`, so copying its 264 bytes
/// stays explicit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricFrame {
    values: [f64; METRIC_COUNT],
}

impl MetricFrame {
    /// All-zero frame.
    pub fn zeroed() -> Self {
        MetricFrame { values: [0.0; METRIC_COUNT] }
    }

    /// Resets every metric to zero in place.
    pub fn reset_zero(&mut self) {
        self.values = [0.0; METRIC_COUNT];
    }

    /// Builds a frame from a full-width value slice.
    pub fn from_values(values: &[f64]) -> Option<Self> {
        Some(MetricFrame { values: values.try_into().ok()? })
    }

    /// Builds a frame from a full-width value array.
    pub fn from_array(values: [f64; METRIC_COUNT]) -> Self {
        MetricFrame { values }
    }

    /// Reads one metric.
    #[inline]
    pub fn get(&self, id: MetricId) -> f64 {
        self.values[id.index()]
    }

    /// Writes one metric.
    #[inline]
    pub fn set(&mut self, id: MetricId, value: f64) {
        self.values[id.index()] = value;
    }

    /// The raw values, in [`MetricId::ALL`] order.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Extracts the values for a subset of metrics, in the given order.
    pub fn select(&self, ids: &[MetricId]) -> Vec<f64> {
        ids.iter().map(|&id| self.get(id)).collect()
    }

    /// Index of the first non-finite value, if any.
    pub fn first_non_finite(&self) -> Option<usize> {
        self.values.iter().position(|v| !v.is_finite())
    }
}

impl Default for MetricFrame {
    fn default() -> Self {
        MetricFrame::zeroed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn catalogue_has_33_metrics() {
        assert_eq!(MetricId::ALL.len(), METRIC_COUNT);
        assert_eq!(METRIC_COUNT, 33);
    }

    #[test]
    fn indices_are_dense_and_unique() {
        for (i, id) in MetricId::ALL.iter().enumerate() {
            assert_eq!(id.index(), i);
            assert_eq!(MetricId::from_index(i), Some(*id));
        }
        assert_eq!(MetricId::from_index(METRIC_COUNT), None);
    }

    #[test]
    fn names_are_unique() {
        let names: HashSet<_> = MetricId::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), METRIC_COUNT);
    }

    #[test]
    fn expert_eight_matches_table1() {
        assert_eq!(MetricId::EXPERT_EIGHT.len(), 8);
        // Table 1's four pairs.
        assert!(MetricId::EXPERT_EIGHT.contains(&MetricId::CpuSystem));
        assert!(MetricId::EXPERT_EIGHT.contains(&MetricId::CpuUser));
        assert!(MetricId::EXPERT_EIGHT.contains(&MetricId::BytesIn));
        assert!(MetricId::EXPERT_EIGHT.contains(&MetricId::BytesOut));
        assert!(MetricId::EXPERT_EIGHT.contains(&MetricId::IoBi));
        assert!(MetricId::EXPERT_EIGHT.contains(&MetricId::IoBo));
        assert!(MetricId::EXPERT_EIGHT.contains(&MetricId::SwapIn));
        assert!(MetricId::EXPERT_EIGHT.contains(&MetricId::SwapOut));
    }

    #[test]
    fn vmstat_additions_are_exactly_four() {
        let adds: Vec<_> = MetricId::ALL.iter().filter(|m| m.is_vmstat_addition()).collect();
        assert_eq!(adds.len(), 4);
        // and the default Ganglia list is therefore 29
        assert_eq!(METRIC_COUNT - adds.len(), 29);
    }

    #[test]
    fn frame_get_set_roundtrip() {
        let mut f = MetricFrame::zeroed();
        f.set(MetricId::CpuUser, 42.5);
        f.set(MetricId::SwapOut, 7.0);
        assert_eq!(f.get(MetricId::CpuUser), 42.5);
        assert_eq!(f.get(MetricId::SwapOut), 7.0);
        assert_eq!(f.get(MetricId::BytesIn), 0.0);
    }

    #[test]
    fn frame_select_order_preserved() {
        let mut f = MetricFrame::zeroed();
        f.set(MetricId::CpuUser, 1.0);
        f.set(MetricId::BytesIn, 2.0);
        let v = f.select(&[MetricId::BytesIn, MetricId::CpuUser]);
        assert_eq!(v, vec![2.0, 1.0]);
    }

    #[test]
    fn frame_from_values_checks_width() {
        assert!(MetricFrame::from_values(&[0.0; 5]).is_none());
        assert!(MetricFrame::from_values(&[0.0; METRIC_COUNT]).is_some());
    }

    #[test]
    fn frame_detects_non_finite() {
        let mut f = MetricFrame::zeroed();
        assert_eq!(f.first_non_finite(), None);
        f.set(MetricId::LoadOne, f64::INFINITY);
        assert_eq!(f.first_non_finite(), Some(MetricId::LoadOne.index()));
    }

    #[test]
    fn units_and_descriptions_exist() {
        for id in MetricId::ALL {
            assert!(!id.name().is_empty());
            assert!(!id.unit().is_empty());
            assert!(!id.description().is_empty());
        }
    }

    #[test]
    fn serde_roundtrip() {
        let mut f = MetricFrame::zeroed();
        f.set(MetricId::IoBi, 123.0);
        let json = serde_json::to_string(&f).unwrap();
        let back: MetricFrame = serde_json::from_str(&json).unwrap();
        assert_eq!(f, back);
    }

    #[test]
    fn serde_rejects_every_width_but_the_catalogue() {
        let values = |n: usize| {
            let items: Vec<String> = (0..n).map(|i| format!("{i}.5")).collect();
            format!("{{\"values\":[{}]}}", items.join(","))
        };
        let snapshot = |n: usize| format!("{{\"node\":1,\"time\":5,\"frame\":{}}}", values(n));
        for n in [0, 1, 2, METRIC_COUNT - 1, METRIC_COUNT + 1] {
            assert!(serde_json::from_str::<MetricFrame>(&values(n)).is_err(), "{n} values");
            assert!(
                serde_json::from_str::<crate::Snapshot>(&snapshot(n)).is_err(),
                "snapshot with {n} values"
            );
        }
        // A full-width frame still parses and prints back to the same text.
        let json = values(METRIC_COUNT);
        let f: MetricFrame = serde_json::from_str(&json).unwrap();
        assert_eq!(f.get(MetricId::SwapOut), 32.5);
        assert_eq!(serde_json::to_string(&f).unwrap(), json);
        let snap: crate::Snapshot = serde_json::from_str(&snapshot(METRIC_COUNT)).unwrap();
        assert!(snap.validate().is_ok());
        assert_eq!(serde_json::to_string(&snap).unwrap(), snapshot(METRIC_COUNT));
    }
}
