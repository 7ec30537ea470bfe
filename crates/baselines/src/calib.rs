//! Calibration constants for the comparison platforms, each annotated
//! with its source: the GNNIE paper itself, a public spec sheet, or a fit
//! chosen so the paper's reported speedup *orderings* hold (marked FIT).

/// Intel Xeon Gold 6132: 14 cores × 2.6 GHz × 32 f32 FLOP/cycle (AVX-512
/// FMA) ≈ 1.16 TFLOP/s peak. Source: Intel ARK.
pub const CPU_PEAK_FLOPS: f64 = 1.16e12;

/// Xeon Gold 6132 six-channel DDR4-2666 ≈ 119 GB/s. Source: Intel ARK.
pub const CPU_MEM_BW: f64 = 119.0e9;

/// Xeon Gold 6132 TDP. Source: Intel ARK.
pub const CPU_POWER_W: f64 = 140.0;

/// Dense-matmul efficiency of MKL-class kernels on this core count. FIT
/// (typical measured GEMM efficiency 50–70%).
pub const CPU_DENSE_EFF: f64 = 0.55;

/// Scatter/gather aggregation efficiency on CPU: PyG's `scatter_add` over
/// power-law neighbor lists is cache-hostile. FIT to the paper's PyG-CPU
/// speedup magnitudes (Fig. 12a).
pub const CPU_SPARSE_EFF: f64 = 0.0006;

/// Per-operator framework overhead on CPU (dispatch + allocation), ~80 µs.
/// FIT (public PyG profiling places per-op overhead at tens of µs).
pub const CPU_OP_OVERHEAD_S: f64 = 80.0e-6;

/// NVIDIA Tesla V100S-PCIe: 16.4 TFLOP/s f32. Source: NVIDIA datasheet.
pub const GPU_PEAK_FLOPS: f64 = 16.4e12;

/// V100S HBM2: 1134 GB/s. Source: NVIDIA datasheet.
pub const GPU_MEM_BW: f64 = 1134.0e9;

/// V100S board power. Source: NVIDIA datasheet.
pub const GPU_POWER_W: f64 = 250.0;

/// Dense-matmul efficiency (cuBLAS at these small-batch sizes). FIT.
pub const GPU_DENSE_EFF: f64 = 0.60;

/// Sparse aggregation efficiency on GPU (atomics + irregular loads). FIT.
pub const GPU_SPARSE_EFF: f64 = 0.03;

/// Per-kernel launch overhead, ~12 µs (launch + sync + Python dispatch).
/// FIT (public CUDA launch overhead measurements are 5–20 µs via
/// frameworks).
pub const GPU_OP_OVERHEAD_S: f64 = 12.0e-6;

/// GraphSAGE neighborhood sampling cost per sampled neighbor. The paper
/// notes sampling cycles through pregenerated random numbers and charges
/// the cost; PyG's sampler is CPU-side, so the GPU pays it *plus*
/// host-device transfer — the reason the paper's GPU speedup for
/// GraphSAGE (2427×) exceeds its CPU speedup (1827×). FIT.
pub const CPU_SAMPLE_OVERHEAD_S_PER_EDGE: f64 = 0.15e-6;
/// See [`CPU_SAMPLE_OVERHEAD_S_PER_EDGE`].
pub const GPU_SAMPLE_OVERHEAD_S_PER_EDGE: f64 = 0.6e-6;

/// HyGCN clock. Source: HyGCN paper (HPCA 2020).
pub const HYGCN_CLOCK_HZ: f64 = 1.0e9;

/// HyGCN Aggregation engine: 32 SIMD16 cores = 512 lanes. Source: HyGCN
/// paper.
pub const HYGCN_AGG_LANES: u64 = 512;

/// HyGCN Combination engine: 8 systolic modules × 512 = 4096 MACs.
/// Source: HyGCN paper ("4608 units" total with the aggregation lanes).
pub const HYGCN_COMB_MACS: u64 = 4096;

/// HyGCN on-chip buffers: 24 MB (aggregation + combination) + 128 KB.
/// Source: GNNIE paper §VIII-C.
pub const HYGCN_BUFFER_BYTES: u64 = 24 * 1024 * 1024;

/// HyGCN power. Source: GNNIE paper §VIII-D (6.7 W at 12 nm).
pub const HYGCN_POWER_W: f64 = 6.7;

/// HyGCN's effective DRAM bandwidth during Aggregation: window
/// sliding/shrinking leaves most neighbor fetches with poor locality on
/// highly sparse adjacency matrices (GNNIE paper §VII). FIT: fraction of
/// the 256 GB/s HBM stream it sustains.
pub const HYGCN_AGG_BW_EFF: f64 = 0.20;

/// Fraction of redundant neighbor ops HyGCN's window shrinking removes.
/// FIT: the GNNIE paper calls its efficacy "limited" on sparse graphs.
pub const HYGCN_WINDOW_ELIMINATION: f64 = 0.10;

/// HyGCN systolic-array utilization on dense Combination. FIT.
pub const HYGCN_COMB_EFF: f64 = 0.80;

/// Inter-engine coordination overhead (buffer arbitration, §VII). FIT.
pub const HYGCN_PIPELINE_OVERHEAD: f64 = 0.10;

/// AWB-GCN: 4096 PEs. Source: GNNIE paper §VIII-C.
pub const AWBGCN_MACS: u64 = 4096;

/// AWB-GCN clock: 330 MHz on the Intel D5005 FPGA. Source: AWB-GCN paper
/// (MICRO 2020).
pub const AWBGCN_CLOCK_HZ: f64 = 330.0e6;

/// AWB-GCN board power. FIT (Stratix-10 class FPGA accelerators draw
/// 20–45 W; chosen so its Fig. 15 efficiency band lands between HyGCN and
/// GNNIE, as the paper reports).
pub const AWBGCN_POWER_W: f64 = 25.0;

/// The sparsity AWB-GCN's workload balancing is designed for (75%,
/// GNNIE paper §I). Ultra-sparse input layers leave its PEs starved.
pub const AWBGCN_DESIGN_SPARSITY: f64 = 0.75;

/// Utilization floor once sparsity exceeds the design point. FIT: at
/// 98.7% input sparsity the 75%-design mapping leaves ~1 nonzero per 20
/// PE slots and the rebalancer cannot refill fast enough; the floor is
/// chosen so the paper's ~2.1× GNNIE advantage emerges on the citation
/// graphs despite AWB-GCN's 3.4× MAC count.
pub const AWBGCN_MIN_UTIL: f64 = 0.10;

/// On-chip memory available for the dense XW operand: the D5005's
/// M20K/eSRAM minus AWB-GCN's task queues, double buffers, and
/// rebalancing switch state. When XW fits, the A·(XW) row gathers never
/// touch DRAM. Source: AWB-GCN paper platform (FIT to the byte).
pub const AWBGCN_ONCHIP_BYTES: u64 = 4 * 1024 * 1024;

/// Cycles lost to runtime rebalancing rounds (inter-PE communication,
/// GNNIE paper §VII). FIT.
pub const AWBGCN_REBALANCE_OVERHEAD: f64 = 0.12;

/// AWB-GCN's effective DRAM bandwidth for the graph-agnostic SpMM walk of
/// the adjacency matrix (random accesses, §VII). FIT.
pub const AWBGCN_ADJ_BW_EFF: f64 = 0.30;

/// DRAM bandwidth both accelerator baselines attach to (HBM, as GNNIE).
pub const ACCEL_MEM_BW: f64 = 256.0e9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn peak_ratios_are_sane() {
        // GPU ≈ 14× CPU peak; both positive.
        assert!(GPU_PEAK_FLOPS / CPU_PEAK_FLOPS > 10.0);
        assert!(CPU_SPARSE_EFF < CPU_DENSE_EFF);
        assert!(GPU_SPARSE_EFF < GPU_DENSE_EFF);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn sampling_penalty_is_worse_on_gpu() {
        assert!(GPU_SAMPLE_OVERHEAD_S_PER_EDGE > CPU_SAMPLE_OVERHEAD_S_PER_EDGE);
    }

    #[test]
    fn accelerator_configs_match_cited_numbers() {
        assert_eq!(HYGCN_AGG_LANES + HYGCN_COMB_MACS, 4608);
        assert_eq!(AWBGCN_MACS, 4096);
        assert!((HYGCN_POWER_W - 6.7).abs() < 1e-9);
    }
}
