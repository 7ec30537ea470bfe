//! Comparison platforms for the GNNIE evaluation (paper §VIII-B/C/D).
//!
//! The paper compares GNNIE against four platforms:
//!
//! * **PyG-CPU** — PyTorch Geometric on an Intel Xeon Gold 6132
//!   ([`PygCpuModel`]), and **PyG-GPU** — PyG on an NVIDIA V100S
//!   ([`PygGpuModel`]): modeled as calibrated rooflines with framework
//!   per-operator overheads and sparse-kernel efficiencies ([`pyg`]).
//! * **HyGCN** — the two-engine (Aggregation + Combination) accelerator
//!   ([`HygcnModel`]), reproducing the four inefficiencies the paper
//!   attributes to it ([`hygcn`]).
//! * **AWB-GCN** — the SpMM-view GCN accelerator with runtime workload
//!   rebalancing ([`AwbGcnModel`], [`awbgcn`]).
//!
//! None of these platforms is available in this offline environment; each
//! is a calibrated analytical model that preserves the evaluation's
//! *shape* (the speedup orderings `tests/baseline_orderings.rs` pins).
//! Every constant lives in [`calib`] with its source next to it.

pub mod awbgcn;
pub mod calib;
pub mod hygcn;
pub mod pyg;

pub use awbgcn::AwbGcnModel;
pub use hygcn::HygcnModel;
pub use pyg::{PygCpuModel, PygGpuModel};

use serde::{Deserialize, Serialize};

/// Identity of a comparison platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Platform {
    /// PyTorch Geometric on the Xeon Gold 6132.
    PygCpu,
    /// PyTorch Geometric on the Tesla V100S.
    PygGpu,
    /// The HyGCN accelerator (Yan et al., HPCA 2020).
    Hygcn,
    /// The AWB-GCN accelerator (Geng et al., MICRO 2020).
    AwbGcn,
}

impl std::fmt::Display for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Platform::PygCpu => "PyG-CPU",
            Platform::PygGpu => "PyG-GPU",
            Platform::Hygcn => "HyGCN",
            Platform::AwbGcn => "AWB-GCN",
        })
    }
}

/// Outcome of running one inference on a comparison platform.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaselineReport {
    /// Which platform produced this.
    pub platform: Platform,
    /// End-to-end inference latency in seconds.
    pub latency_s: f64,
    /// Energy for the inference in joules.
    pub energy_j: f64,
}

impl BaselineReport {
    /// Inferences per kilojoule (the Fig. 15 metric).
    pub fn inferences_per_kj(&self) -> f64 {
        if self.energy_j <= 0.0 {
            return 0.0;
        }
        1000.0 / self.energy_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_names_match_paper() {
        assert_eq!(Platform::PygCpu.to_string(), "PyG-CPU");
        assert_eq!(Platform::Hygcn.to_string(), "HyGCN");
    }

    #[test]
    fn inferences_per_kj_inverts_energy() {
        let r = BaselineReport { platform: Platform::PygGpu, latency_s: 1.0, energy_j: 0.5 };
        assert!((r.inferences_per_kj() - 2000.0).abs() < 1e-9);
        let zero = BaselineReport { platform: Platform::PygGpu, latency_s: 1.0, energy_j: 0.0 };
        assert_eq!(zero.inferences_per_kj(), 0.0);
    }
}
