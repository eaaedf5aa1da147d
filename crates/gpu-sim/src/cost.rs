//! Kernel cost descriptors and per-kernel-class accounting.
//!
//! Every simulated kernel reports what it did in hardware-neutral units;
//! [`crate::TimingModel`] turns a [`KernelCost`] into seconds for a concrete
//! device. Aggregation by [`KernelClass`] produces the per-kernel breakdowns
//! of Fig. 4 and Fig. 5.

use mdmp_precision::Format;
use std::collections::BTreeMap;

/// The kernel taxonomy of the paper's Pseudocode 1 plus host-side steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelClass {
    /// `precalculation` — rolling statistics and initial QT row/column.
    Precalc,
    /// `dist_calc` — the streaming-dot-product distance row update (Eq. 1).
    DistCalc,
    /// `sort_&_incl_scan` — Bitonic sort + inclusive scan along dimensions.
    SortScan,
    /// `update_mat_prof` — min/argmin merge into the running profile.
    UpdateProfile,
    /// Host→device or device→host transfer.
    Transfer,
    /// CPU-side merge of tile results (Pseudocode 2, line 7).
    Merge,
}

impl KernelClass {
    /// All classes in the paper's breakdown order.
    pub const ALL: [KernelClass; 6] = [
        KernelClass::Precalc,
        KernelClass::DistCalc,
        KernelClass::SortScan,
        KernelClass::UpdateProfile,
        KernelClass::Transfer,
        KernelClass::Merge,
    ];

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            KernelClass::Precalc => "precalculation",
            KernelClass::DistCalc => "dist_calc",
            KernelClass::SortScan => "sort_&_incl_scan",
            KernelClass::UpdateProfile => "update_mat_prof",
            KernelClass::Transfer => "transfer",
            KernelClass::Merge => "merge",
        }
    }
}

/// What one (possibly aggregated) kernel execution did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCost {
    /// Which pipeline step this belongs to.
    pub class: KernelClass,
    /// Arithmetic/storage format of the kernel's working data.
    pub format: Format,
    /// Bytes read from device memory.
    pub bytes_read: u64,
    /// Bytes written to device memory.
    pub bytes_written: u64,
    /// Floating-point operations (in the kernel's format).
    pub flops: u64,
    /// Shared-memory-resident simple operations (compare-exchange, scan
    /// adds) — the currency of the sort kernel.
    pub smem_ops: u64,
    /// Number of kernel launches folded into this cost.
    pub launches: u64,
    /// Number of coarse-grained group barriers executed.
    pub barriers: u64,
    /// Tensor-core MMA input format when the kernel's FLOPs run on the
    /// tensor cores instead of the vector pipelines; `None` otherwise.
    /// `format` stays the accumulator/storage format (FP32 for TC modes).
    pub tc: Option<Format>,
    /// Shared-memory fragment bytes staged into the MMA units (on-chip
    /// traffic — deliberately *not* part of [`KernelCost::bytes`]).
    pub frag_bytes: u64,
}

impl KernelCost {
    /// A zeroed cost for the given class and format.
    pub fn new(class: KernelClass, format: Format) -> KernelCost {
        KernelCost {
            class,
            format,
            bytes_read: 0,
            bytes_written: 0,
            flops: 0,
            smem_ops: 0,
            launches: 0,
            barriers: 0,
            tc: None,
            frag_bytes: 0,
        }
    }

    /// Total device-memory traffic.
    pub fn bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Component-wise accumulation (class/format must match).
    ///
    /// # Panics
    /// Panics if `other` has a different class or format.
    pub fn merge(&mut self, other: &KernelCost) {
        assert_eq!(self.class, other.class, "cannot merge costs across classes");
        assert_eq!(
            self.format, other.format,
            "cannot merge costs across formats"
        );
        assert_eq!(
            self.tc, other.tc,
            "cannot merge tensor-core and vector costs"
        );
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.flops += other.flops;
        self.smem_ops += other.smem_ops;
        self.launches += other.launches;
        self.barriers += other.barriers;
        self.frag_bytes += other.frag_bytes;
    }

    /// Scale every extensive quantity by an integer factor — used to fold
    /// `n` identical per-iteration launches into one record.
    pub fn repeated(mut self, times: u64) -> KernelCost {
        self.bytes_read *= times;
        self.bytes_written *= times;
        self.flops *= times;
        self.smem_ops *= times;
        self.launches *= times;
        self.barriers *= times;
        self.frag_bytes *= times;
        self
    }
}

/// Accumulated cost and modelled time per kernel class.
#[derive(Debug, Clone, Default)]
pub struct CostLedger {
    entries: BTreeMap<KernelClass, LedgerEntry>,
}

/// One row of a [`CostLedger`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LedgerEntry {
    /// Modelled seconds attributed to this class.
    pub seconds: f64,
    /// Total device-memory bytes moved.
    pub bytes: u64,
    /// Total floating point operations.
    pub flops: u64,
    /// Total shared-memory ops.
    pub smem_ops: u64,
    /// Total kernel launches.
    pub launches: u64,
    /// Total group barriers.
    pub barriers: u64,
}

impl CostLedger {
    /// An empty ledger.
    pub fn new() -> CostLedger {
        CostLedger::default()
    }

    /// Record one kernel cost with its modelled duration.
    pub fn record(&mut self, cost: &KernelCost, seconds: f64) {
        let e = self.entries.entry(cost.class).or_default();
        e.seconds += seconds;
        e.bytes += cost.bytes();
        e.flops += cost.flops;
        e.smem_ops += cost.smem_ops;
        e.launches += cost.launches;
        e.barriers += cost.barriers;
    }

    /// Fold another ledger into this one.
    pub fn absorb(&mut self, other: &CostLedger) {
        for (class, e) in &other.entries {
            let mine = self.entries.entry(*class).or_default();
            mine.seconds += e.seconds;
            mine.bytes += e.bytes;
            mine.flops += e.flops;
            mine.smem_ops += e.smem_ops;
            mine.launches += e.launches;
            mine.barriers += e.barriers;
        }
    }

    /// The entry for a class, if any cost was recorded.
    pub fn entry(&self, class: KernelClass) -> Option<&LedgerEntry> {
        self.entries.get(&class)
    }

    /// Modelled seconds for one class (0 if absent).
    pub fn seconds(&self, class: KernelClass) -> f64 {
        self.entries.get(&class).map_or(0.0, |e| e.seconds)
    }

    /// Sum of modelled seconds across all classes — the serialized total;
    /// overlap-aware totals come from [`crate::DeviceTimeline::makespan`].
    pub fn total_seconds(&self) -> f64 {
        self.entries.values().map(|e| e.seconds).sum()
    }

    /// Iterate over (class, entry) rows in breakdown order.
    pub fn rows(&self) -> impl Iterator<Item = (KernelClass, &LedgerEntry)> {
        self.entries.iter().map(|(c, e)| (*c, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(class: KernelClass) -> KernelCost {
        KernelCost {
            class,
            format: Format::Fp64,
            bytes_read: 100,
            bytes_written: 50,
            flops: 10,
            smem_ops: 5,
            launches: 1,
            barriers: 2,
            tc: None,
            frag_bytes: 0,
        }
    }

    #[test]
    fn cost_merge_and_repeat() {
        let mut a = sample(KernelClass::DistCalc);
        let b = sample(KernelClass::DistCalc);
        a.merge(&b);
        assert_eq!(a.bytes(), 300);
        assert_eq!(a.launches, 2);
        let r = sample(KernelClass::DistCalc).repeated(10);
        assert_eq!(r.bytes_read, 1000);
        assert_eq!(r.barriers, 20);
    }

    #[test]
    fn tc_and_frag_traffic_accounting() {
        let mut a = sample(KernelClass::DistCalc);
        a.tc = Some(Format::Fp16);
        a.frag_bytes = 64;
        let r = a.repeated(4);
        assert_eq!(r.frag_bytes, 256);
        assert_eq!(r.tc, Some(Format::Fp16));
        let mut merged = a;
        merged.merge(&a);
        assert_eq!(merged.frag_bytes, 128);
        // Fragment traffic is on-chip: it never counts as DRAM bytes.
        assert_eq!(merged.bytes(), 300);
    }

    #[test]
    #[should_panic(expected = "tensor-core")]
    fn merge_rejects_tc_mismatch() {
        let mut a = sample(KernelClass::DistCalc);
        let mut b = a;
        b.tc = Some(Format::Fp16);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "across classes")]
    fn merge_rejects_class_mismatch() {
        let mut a = sample(KernelClass::DistCalc);
        a.merge(&sample(KernelClass::SortScan));
    }

    #[test]
    fn ledger_accumulates_and_totals() {
        let mut ledger = CostLedger::new();
        ledger.record(&sample(KernelClass::DistCalc), 1.5);
        ledger.record(&sample(KernelClass::DistCalc), 0.5);
        ledger.record(&sample(KernelClass::SortScan), 2.0);
        assert_eq!(ledger.seconds(KernelClass::DistCalc), 2.0);
        assert_eq!(ledger.total_seconds(), 4.0);
        assert_eq!(ledger.entry(KernelClass::DistCalc).unwrap().bytes, 300);
        assert_eq!(ledger.seconds(KernelClass::Merge), 0.0);
    }

    #[test]
    fn ledger_absorb() {
        let mut a = CostLedger::new();
        a.record(&sample(KernelClass::Precalc), 1.0);
        let mut b = CostLedger::new();
        b.record(&sample(KernelClass::Precalc), 2.0);
        b.record(&sample(KernelClass::Merge), 0.25);
        a.absorb(&b);
        assert_eq!(a.seconds(KernelClass::Precalc), 3.0);
        assert_eq!(a.seconds(KernelClass::Merge), 0.25);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(KernelClass::SortScan.label(), "sort_&_incl_scan");
        assert_eq!(KernelClass::DistCalc.label(), "dist_calc");
    }
}
