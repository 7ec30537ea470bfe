//! Tiered feature-memory hierarchy: on-chip → DRAM → SSD.
//!
//! GNNIE's cache model is a single on-chip level in front of DRAM. Ginex
//! shows that billion-node GNN workloads become single-machine-viable
//! with an in-memory cache over an SSD tier, and DCI argues the capacity
//! *split* between cache levels should be workload-aware rather than
//! fixed. This module supplies both pieces:
//!
//! * [`TierConfig`] — one level of the hierarchy: capacity, hit latency,
//!   and a seq-vs-random traffic model (the same bandwidth / burst /
//!   random-penalty parameters as [`HbmModel`]; the existing DRAM byte
//!   split *is* the DRAM tier's traffic model).
//! * [`MemoryHierarchy`] — a stack of tiers behind the [`VertexMemory`]
//!   trait the cache walk charges its traffic to. A read of vertex `v`
//!   hits the tier `v` is resident in; a miss in tier *k* is a hit in
//!   some tier *k+j* and fills the topmost capacitated tier, demoting
//!   the lowest-degree resident down the stack (the last tier is the
//!   unbounded backstop). Per-tier hit/miss/eviction/byte accounting is
//!   surfaced as [`TierStats`].
//! * [`TierSpec`] / [`SplitMode`] — how a run asks for tiers: an
//!   explicit per-tier budget, a naive even split of one global budget,
//!   or a *workload-aware* split that sizes the on-chip tier to the hot
//!   vertex prefix found by a degree-profiling pre-pass
//!   ([`workload_split`]) and gives everything else to DRAM so cold
//!   vertices stay off the SSD.
//!
//! Vertices are pre-staged by id: under the engine's descending-degree
//! stream order, ids `0..c0` (the hottest vertices) start resident in
//! the on-chip tier, the next `c1` in DRAM, and the rest on the SSD —
//! degree-based static pinning at the hierarchy level. With a
//! single-tier spec the hierarchy charges exactly what the flat
//! [`HbmModel`] would: the legacy engine is the one-tier special case.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

use gnnie_graph::CsrGraph;

use crate::dram::{DramCounters, HbmModel};

/// The abstract memory channel the cache walk charges traffic to.
///
/// [`HbmModel`] implements it by ignoring the vertex id and delegating
/// 1:1 — the flat single-channel engine — while [`MemoryHierarchy`]
/// routes each access to the tier the vertex is resident in. All
/// methods return channel cycles in the accelerator clock domain.
pub trait VertexMemory {
    /// Streams `bytes` of vertex `v` in; returns channel cycles.
    fn read_seq(&mut self, v: u32, bytes: u64) -> u64;
    /// Randomly reads `bytes` of vertex `v`; returns channel cycles.
    fn read_random(&mut self, v: u32, bytes: u64) -> u64;
    /// Streams `bytes` of vertex `v` out; returns channel cycles.
    fn write_seq(&mut self, v: u32, bytes: u64) -> u64;
    /// Randomly writes `bytes` of vertex `v`; returns channel cycles.
    fn write_random(&mut self, v: u32, bytes: u64) -> u64;
    /// A copy of the DRAM-class byte counters — for a hierarchy, the
    /// DRAM tier's counters; for a flat channel, its own.
    fn counter_snapshot(&self) -> DramCounters;
    /// Per-tier accounting; empty for a flat channel.
    fn tier_stats(&self) -> Vec<TierStats> {
        Vec::new()
    }
}

impl VertexMemory for HbmModel {
    fn read_seq(&mut self, _v: u32, bytes: u64) -> u64 {
        HbmModel::read_seq(self, bytes)
    }
    fn read_random(&mut self, _v: u32, bytes: u64) -> u64 {
        HbmModel::read_random(self, bytes)
    }
    fn write_seq(&mut self, _v: u32, bytes: u64) -> u64 {
        HbmModel::write_seq(self, bytes)
    }
    fn write_random(&mut self, _v: u32, bytes: u64) -> u64 {
        HbmModel::write_random(self, bytes)
    }
    fn counter_snapshot(&self) -> DramCounters {
        *self.counters()
    }
}

/// One level of the memory hierarchy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierConfig {
    /// Tier name (`"onchip"`, `"dram"`, `"ssd"`).
    pub name: String,
    /// Capacity budget in bytes. The *last* tier in a stack is the
    /// backstop: every vertex fits there and its capacity is
    /// informational only.
    pub capacity_bytes: u64,
    /// Fixed latency charged per access that hits this tier.
    pub hit_latency_cycles: u64,
    /// Peak sequential bandwidth in bytes per second.
    pub bandwidth_bytes_per_s: f64,
    /// Burst granularity; random transfers round up to this.
    pub burst_bytes: u64,
    /// Sequential-to-random slowdown factor (≥ 1.0).
    pub random_penalty: f64,
    /// Access energy in pJ per bit.
    pub energy_pj_per_bit: f64,
}

impl TierConfig {
    /// An SRAM-class on-chip tier: 1 TB/s, single-cycle hit latency,
    /// no random-access penalty, 0.2 pJ/bit.
    pub fn onchip(capacity_bytes: u64) -> Self {
        Self {
            name: "onchip".into(),
            capacity_bytes,
            hit_latency_cycles: 1,
            bandwidth_bytes_per_s: 1.0e12,
            burst_bytes: 64,
            random_penalty: 1.0,
            energy_pj_per_bit: 0.2,
        }
    }

    /// The paper's HBM 2.0 DRAM tier: exactly the
    /// [`HbmModel::hbm2_256gbps`] parameters with zero added hit
    /// latency, so a single-tier `dram` stack charges byte-identically
    /// to the flat engine.
    pub fn dram(capacity_bytes: u64) -> Self {
        Self {
            name: "dram".into(),
            capacity_bytes,
            hit_latency_cycles: 0,
            bandwidth_bytes_per_s: 256.0e9,
            burst_bytes: 64,
            random_penalty: 8.0,
            energy_pj_per_bit: 3.97,
        }
    }

    /// An NVMe-class SSD tier: 4 GB/s, 4 KiB bursts, 16x random
    /// penalty, 60 pJ/bit, and a 4000-cycle amortized access latency
    /// (a Ginex-style prefetch pipeline hides most of the raw ~80 µs
    /// NVMe read latency; what remains is the per-access toll).
    pub fn ssd(capacity_bytes: u64) -> Self {
        Self {
            name: "ssd".into(),
            capacity_bytes,
            hit_latency_cycles: 4000,
            bandwidth_bytes_per_s: 4.0e9,
            burst_bytes: 4096,
            random_penalty: 16.0,
            energy_pj_per_bit: 60.0,
        }
    }
}

/// Per-tier accounting surfaced through `CacheSimResult`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierStats {
    /// Tier name.
    pub name: String,
    /// Vertices the tier can hold (the backstop tier reports the full
    /// vertex count).
    pub capacity_vertices: u64,
    /// Accesses that found their vertex resident in this tier.
    pub hits: u64,
    /// Accesses that probed this tier and had to go deeper.
    pub misses: u64,
    /// Residents demoted to make room for a promoted vertex.
    pub evictions: u64,
    /// Bytes read from this tier.
    pub read_bytes: u64,
    /// Bytes written to this tier.
    pub write_bytes: u64,
    /// Bytes installed into this tier by fills from deeper tiers.
    pub fill_bytes: u64,
    /// Channel cycles charged by this tier (transfer + hit latency).
    pub cycles: u64,
}

impl TierStats {
    /// Hits over probes; 0.0 when the tier was never probed.
    pub fn hit_rate(&self) -> f64 {
        let probes = self.hits + self.misses;
        if probes == 0 {
            return 0.0;
        }
        self.hits as f64 / probes as f64
    }

    /// Adds another tier's counters into this one (multi-chip folds).
    pub fn merge(&mut self, other: &TierStats) {
        self.capacity_vertices += other.capacity_vertices;
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.read_bytes += other.read_bytes;
        self.write_bytes += other.write_bytes;
        self.fill_bytes += other.fill_bytes;
        self.cycles += other.cycles;
    }

    /// Records this tier's accounting into the registry under
    /// `mem.tier.<name>.*`. Counters accumulate across layers (one
    /// `TierStats` is produced per layer walk), so the registry ends up
    /// with whole-run totals; `hit_rate` is re-derived from them.
    pub fn record_metrics(&self, metrics: &gnnie_obs::Metrics) {
        if !metrics.enabled() {
            return;
        }
        let p = format!("mem.tier.{}", self.name);
        metrics.counter_add(&format!("{p}.hits"), self.hits);
        metrics.counter_add(&format!("{p}.misses"), self.misses);
        metrics.counter_add(&format!("{p}.evictions"), self.evictions);
        metrics.counter_add(&format!("{p}.read_bytes"), self.read_bytes);
        metrics.counter_add(&format!("{p}.write_bytes"), self.write_bytes);
        metrics.counter_add(&format!("{p}.fill_bytes"), self.fill_bytes);
        metrics.counter_add(&format!("{p}.cycles"), self.cycles);
        let reg = metrics.snapshot();
        let total = |name: &str| match reg.get(&format!("{p}.{name}")) {
            Some(gnnie_obs::Metric::Counter(c)) => *c,
            _ => 0,
        };
        let (hits, misses) = (total("hits"), total("misses"));
        let probes = hits + misses;
        let rate = if probes == 0 { 0.0 } else { hits as f64 / probes as f64 };
        metrics.gauge_set(&format!("{p}.hit_rate"), rate);
    }
}

/// Per-tier capacity budgets resolved from a [`TierSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierBudgets {
    /// On-chip tier capacity in bytes.
    pub onchip_bytes: u64,
    /// DRAM tier capacity in bytes.
    pub dram_bytes: u64,
    /// SSD backstop capacity (informational); `None` makes DRAM the
    /// backstop and drops the SSD tier.
    pub ssd_bytes: Option<u64>,
}

/// How one global capacity budget is divided across the caching tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SplitMode {
    /// Naive halves: on-chip and DRAM each get `total / 2`.
    Even,
    /// Workload-aware: the on-chip tier is sized to the hot vertex
    /// prefix covering half of all edge endpoints (found by a
    /// degree-profiling pre-pass); DRAM gets the remainder.
    Workload,
}

impl SplitMode {
    /// Stable token (`even` / `workload`) for reports and the CLI.
    pub fn name(&self) -> &'static str {
        match self {
            SplitMode::Even => "even",
            SplitMode::Workload => "workload",
        }
    }
}

/// A run's tier request: explicit budgets, or one global budget plus a
/// split mode. `resolve` turns it into a concrete [`TierConfig`] stack.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TierSpec {
    /// Explicit per-tier byte budgets.
    Explicit(TierBudgets),
    /// One global budget divided by `mode` over onchip + DRAM, with an
    /// SSD backstop.
    Split {
        /// The global caching budget in bytes.
        total_bytes: u64,
        /// How the budget is divided.
        mode: SplitMode,
    },
}

impl TierSpec {
    /// Concrete tier stack for `graph`, with `line_bytes` the per-vertex
    /// fetch footprint (features + connectivity) used to translate byte
    /// budgets into vertex counts.
    pub fn resolve(&self, graph: &CsrGraph, line_bytes: u64) -> Vec<TierConfig> {
        let budgets = match self {
            TierSpec::Explicit(b) => *b,
            TierSpec::Split { total_bytes, mode: SplitMode::Even } => even_split(*total_bytes),
            TierSpec::Split { total_bytes, mode: SplitMode::Workload } => {
                workload_split(graph, *total_bytes, line_bytes)
            }
        };
        let mut tiers = vec![
            TierConfig::onchip(budgets.onchip_bytes),
            TierConfig::dram(budgets.dram_bytes),
        ];
        if let Some(ssd) = budgets.ssd_bytes {
            tiers.push(TierConfig::ssd(ssd));
        }
        tiers
    }

    /// This spec scaled to one chip's share of a multi-chip run:
    /// explicit/even budgets divide evenly by `chips`; the
    /// workload-aware split allocates proportionally to the chip's
    /// share of the edges (`part_edges / total_edges`), so busy
    /// partitions get more cache.
    pub fn for_chip(&self, chips: u64, part_edges: u64, total_edges: u64) -> TierSpec {
        let chips = chips.max(1);
        match self {
            TierSpec::Explicit(b) => TierSpec::Explicit(TierBudgets {
                onchip_bytes: b.onchip_bytes / chips,
                dram_bytes: b.dram_bytes / chips,
                ssd_bytes: b.ssd_bytes.map(|s| s / chips),
            }),
            TierSpec::Split { total_bytes, mode: SplitMode::Even } => {
                TierSpec::Split { total_bytes: total_bytes / chips, mode: SplitMode::Even }
            }
            TierSpec::Split { total_bytes, mode: SplitMode::Workload } => {
                let share = if total_edges == 0 {
                    total_bytes / chips
                } else {
                    ((*total_bytes as u128 * part_edges as u128) / total_edges as u128) as u64
                };
                TierSpec::Split { total_bytes: share, mode: SplitMode::Workload }
            }
        }
    }
}

/// Naive even split: half the budget to each caching tier.
pub fn even_split(total_bytes: u64) -> TierBudgets {
    let onchip = total_bytes / 2;
    TierBudgets { onchip_bytes: onchip, dram_bytes: total_bytes - onchip, ssd_bytes: Some(0) }
}

/// The smallest count of top-degree vertices whose degrees cover
/// `num / den` of all edge endpoints — the profiling pre-pass shared by
/// the workload-aware splitter and the `split` cache policy.
pub fn hot_prefix_len(graph: &CsrGraph, num: u64, den: u64) -> u64 {
    let mut degs: Vec<u64> =
        (0..graph.num_vertices()).map(|v| graph.degree(v) as u64).collect();
    degs.sort_unstable_by(|a, b| b.cmp(a));
    let total: u64 = degs.iter().sum();
    let target = (total as u128 * num as u128 / den.max(1) as u128) as u64;
    let mut acc = 0u64;
    let mut hot = 0u64;
    for d in degs {
        if acc >= target {
            break;
        }
        acc += d;
        hot += 1;
    }
    hot.max(1)
}

/// Workload-aware split: size the on-chip tier to the hot vertex prefix
/// covering half of all edge endpoints, give DRAM the rest. Power-law
/// graphs have small hot sets, so this keeps most of the budget in DRAM
/// where it holds cold vertices off the SSD.
pub fn workload_split(graph: &CsrGraph, total_bytes: u64, line_bytes: u64) -> TierBudgets {
    let hot = hot_prefix_len(graph, 1, 2);
    // At least one line — but a budget below one line degenerates to an
    // all-on-chip split rather than an inverted clamp.
    let lo = line_bytes.min(total_bytes);
    let want = hot.saturating_mul(line_bytes.max(1));
    // Pin exactly the hot prefix when it fits in half the budget. When
    // it overflows that, pinning has saturated its marginal value — a
    // share big enough to cover the hot set would starve both the DRAM
    // tier and the SRAM the on-chip tier is carved from — so fall back
    // to an eighth of the budget: still the very hottest vertices,
    // with most capacity left where it keeps cold vertices off the SSD.
    let onchip = if want <= total_bytes / 2 { want.max(lo) } else { (total_bytes / 8).max(lo) };
    TierBudgets { onchip_bytes: onchip, dram_bytes: total_bytes - onchip, ssd_bytes: Some(0) }
}

/// One resident level of a [`MemoryHierarchy`].
#[derive(Debug, Clone)]
struct Level {
    hit_latency_cycles: u64,
    capacity_vertices: u64,
    model: HbmModel,
    stats: TierStats,
    /// FIFO of resident vertex ids in install order, with lazy
    /// deletion: entries whose `home` no longer points here are skipped
    /// on pop. Pre-staged residents are queued coldest-first so the
    /// hottest survive the first conflicts.
    queue: VecDeque<u32>,
    occupancy: u64,
}

/// A stack of memory tiers the cache walk charges its traffic to.
///
/// Every access goes to the tier its vertex is resident in; reads
/// promote the vertex to the topmost capacitated tier, demoting that
/// tier's oldest resident (FIFO; pre-staged residents leave
/// coldest-first) one level down, cascading until the backstop absorbs
/// it. Initial residency is by id: the hottest `c0` vertices (lowest
/// ids, under the engine's descending-degree stream order) start
/// on-chip, the next `c1` in DRAM, the rest on the backstop.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    levels: Vec<Level>,
    /// Tier index each vertex is currently resident in.
    home: Vec<u8>,
    /// Topmost tier with nonzero capacity (or the backstop).
    top: usize,
    /// The tier whose counters stand in for "DRAM traffic" (named
    /// `dram`, else the backstop).
    dram_idx: usize,
}

impl MemoryHierarchy {
    /// Builds a hierarchy over `num_vertices` vertices whose per-vertex
    /// fetch footprint is `line_bytes`, with cycles reported in the
    /// `clock_hz` domain.
    ///
    /// # Panics
    ///
    /// Panics if `tiers` is empty or more than 255 levels deep.
    pub fn new(
        tiers: &[TierConfig],
        clock_hz: f64,
        num_vertices: u32,
        line_bytes: u64,
    ) -> Self {
        assert!(!tiers.is_empty(), "hierarchy needs at least one tier");
        assert!(tiers.len() <= u8::MAX as usize, "at most 255 tiers");
        let last = tiers.len() - 1;
        let line = line_bytes.max(1);
        let mut levels: Vec<Level> = tiers
            .iter()
            .enumerate()
            .map(|(i, t)| {
                // A tier smaller than one line holds nothing; the
                // backstop holds everything regardless of its budget.
                let cap = if i == last { num_vertices as u64 } else { t.capacity_bytes / line };
                Level {
                    hit_latency_cycles: t.hit_latency_cycles,
                    capacity_vertices: cap,
                    model: HbmModel::new(
                        t.bandwidth_bytes_per_s,
                        clock_hz,
                        t.burst_bytes,
                        t.random_penalty,
                        t.energy_pj_per_bit,
                    ),
                    stats: TierStats {
                        name: t.name.clone(),
                        capacity_vertices: cap,
                        ..TierStats::default()
                    },
                    queue: VecDeque::new(),
                    occupancy: 0,
                }
            })
            .collect();
        // Pre-stage by id: the hottest vertices (lowest ids under the
        // engine's descending-degree order) start in the upper tiers.
        let mut home = vec![last as u8; num_vertices as usize];
        let mut v = 0u32;
        for (i, lvl) in levels.iter_mut().enumerate().take(last) {
            let take = lvl.capacity_vertices.min(num_vertices as u64 - v as u64) as u32;
            for id in (v..v + take).rev() {
                home[id as usize] = i as u8;
                lvl.queue.push_back(id);
            }
            lvl.occupancy = take as u64;
            v += take;
        }
        let top = levels[..last].iter().position(|l| l.capacity_vertices > 0).unwrap_or(last);
        let dram_idx = levels.iter().position(|l| l.stats.name == "dram").unwrap_or(last);
        Self { levels, home, top, dram_idx }
    }

    /// Per-tier accounting so far.
    pub fn stats(&self) -> Vec<TierStats> {
        self.levels.iter().map(|l| l.stats.clone()).collect()
    }

    /// The DRAM tier's byte counters (the backstop's when no tier is
    /// named `dram`) — what the engine folds into its session channel.
    pub fn dram_counters(&self) -> DramCounters {
        *self.levels[self.dram_idx].model.counters()
    }

    /// Total access energy across all tiers, in picojoules.
    pub fn energy_pj(&self) -> f64 {
        self.levels.iter().map(|l| l.model.energy_pj()).sum()
    }

    fn home_of(&self, v: u32) -> usize {
        self.home.get(v as usize).map_or(self.levels.len() - 1, |&t| t as usize)
    }

    /// Installs `v` into `tier`, cascading demotions toward the
    /// backstop.
    fn install(&mut self, mut v: u32, mut tier: usize) {
        let last = self.levels.len() - 1;
        loop {
            if tier >= last {
                self.home[v as usize] = last as u8;
                return;
            }
            let lvl = &mut self.levels[tier];
            if lvl.capacity_vertices == 0 {
                tier += 1;
                continue;
            }
            self.home[v as usize] = tier as u8;
            lvl.queue.push_back(v);
            lvl.occupancy += 1;
            if lvl.occupancy <= lvl.capacity_vertices {
                return;
            }
            // Over capacity: demote the oldest resident one level
            // down. Lazy deletion: skip queue entries that have since
            // moved elsewhere.
            let victim = loop {
                let c = lvl.queue.pop_front().expect("occupancy > 0 implies a resident");
                if self.home[c as usize] as usize == tier {
                    break c;
                }
            };
            lvl.occupancy -= 1;
            lvl.stats.evictions += 1;
            v = victim;
            tier += 1;
        }
    }

    fn read(&mut self, v: u32, bytes: u64, random: bool) -> u64 {
        let t = self.home_of(v);
        // Every capacitated tier above the hit is a probe that missed.
        for k in 0..t {
            if self.levels[k].capacity_vertices > 0 {
                self.levels[k].stats.misses += 1;
            }
        }
        let lvl = &mut self.levels[t];
        let transfer =
            if random { lvl.model.read_random(bytes) } else { lvl.model.read_seq(bytes) };
        let cycles = transfer + lvl.hit_latency_cycles;
        lvl.stats.hits += 1;
        lvl.stats.read_bytes += bytes;
        lvl.stats.cycles += cycles;
        if t > self.top {
            // Fill the top tier with the just-read line.
            self.levels[t].occupancy = self.levels[t].occupancy.saturating_sub(1);
            self.levels[self.top].stats.fill_bytes += bytes;
            self.install(v, self.top);
        }
        cycles
    }

    fn write(&mut self, v: u32, bytes: u64, random: bool) -> u64 {
        let t = self.home_of(v);
        let lvl = &mut self.levels[t];
        let transfer =
            if random { lvl.model.write_random(bytes) } else { lvl.model.write_seq(bytes) };
        let cycles = transfer + lvl.hit_latency_cycles;
        lvl.stats.write_bytes += bytes;
        lvl.stats.cycles += cycles;
        cycles
    }
}

impl VertexMemory for MemoryHierarchy {
    fn read_seq(&mut self, v: u32, bytes: u64) -> u64 {
        self.read(v, bytes, false)
    }
    fn read_random(&mut self, v: u32, bytes: u64) -> u64 {
        self.read(v, bytes, true)
    }
    fn write_seq(&mut self, v: u32, bytes: u64) -> u64 {
        self.write(v, bytes, false)
    }
    fn write_random(&mut self, v: u32, bytes: u64) -> u64 {
        self.write(v, bytes, true)
    }
    fn counter_snapshot(&self) -> DramCounters {
        self.dram_counters()
    }
    fn tier_stats(&self) -> Vec<TierStats> {
        self.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnie_graph::CsrGraph;

    fn line() -> u64 {
        64
    }

    fn chain(n: usize) -> CsrGraph {
        let pairs: Vec<(u32, u32)> = (0..n as u32 - 1).map(|v| (v, v + 1)).collect();
        CsrGraph::from_edges(n, pairs)
    }

    #[test]
    fn single_dram_tier_charges_exactly_like_the_flat_model() {
        let tiers = [TierConfig::dram(0)];
        let mut h = MemoryHierarchy::new(&tiers, 1.3e9, 64, line());
        let mut flat = HbmModel::hbm2_256gbps(1.3e9);
        let mut hc = 0u64;
        let mut fc = 0u64;
        for v in 0..64u32 {
            hc += VertexMemory::read_seq(&mut h, v, 100 + v as u64);
            fc += VertexMemory::read_seq(&mut flat, v, 100 + v as u64);
            hc += VertexMemory::write_random(&mut h, v, 9);
            fc += VertexMemory::write_random(&mut flat, v, 9);
        }
        assert_eq!(hc, fc, "cycles must match the flat HBM model");
        assert_eq!(h.counter_snapshot(), flat.counter_snapshot());
        let stats = h.stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].hits, 64, "one hit per read; writes are not probes");
        assert_eq!(stats[0].misses, 0);
    }

    #[test]
    fn hits_promote_and_demote_the_lowest_degree_resident() {
        // onchip holds 2 lines; dram backstop.
        let tiers = [TierConfig::onchip(2 * line()), TierConfig::dram(0)];
        let mut h = MemoryHierarchy::new(&tiers, 1.3e9, 8, line());
        // Pre-staged: vertices 0,1 on-chip.
        assert_eq!(h.home_of(0), 0);
        assert_eq!(h.home_of(1), 0);
        assert_eq!(h.home_of(2), 1);
        // Reading vertex 5 misses on-chip, hits dram, promotes 5 and
        // demotes the highest resident id (1).
        VertexMemory::read_seq(&mut h, 5, line());
        assert_eq!(h.home_of(5), 0);
        assert_eq!(h.home_of(1), 1);
        assert_eq!(h.home_of(0), 0, "hottest vertex stays pinned");
        let s = h.stats();
        assert_eq!(s[0].misses, 1);
        assert_eq!(s[0].evictions, 1);
        assert_eq!(s[0].fill_bytes, line());
        assert_eq!(s[1].hits, 1);
    }

    #[test]
    fn zero_capacity_middle_tier_is_a_pass_through() {
        let tiers = [TierConfig::onchip(4 * line()), TierConfig::dram(0), TierConfig::ssd(0)];
        let mut h = MemoryHierarchy::new(&tiers, 1.3e9, 16, line());
        // DRAM has zero capacity: demotions out of onchip skip it and
        // land on the ssd backstop; nothing panics.
        for v in 0..16u32 {
            VertexMemory::read_seq(&mut h, v, line());
        }
        let s = h.stats();
        assert_eq!(s[1].hits + s[1].evictions, 0, "zero-capacity tier holds nothing");
        assert!(s[0].hits > 0);
        assert!(s[2].hits > 0);
        for v in 0..16u32 {
            assert!(h.home_of(v) != 1, "vertex {v} resident in the empty tier");
        }
    }

    #[test]
    fn tier_smaller_than_one_line_holds_nothing() {
        let tiers = [TierConfig::onchip(line() - 1), TierConfig::dram(0)];
        let mut h = MemoryHierarchy::new(&tiers, 1.3e9, 8, line());
        for v in 0..8u32 {
            VertexMemory::read_seq(&mut h, v, line());
        }
        let s = h.stats();
        assert_eq!(s[0].hits, 0);
        assert_eq!(s[0].misses, 0, "a zero-line tier is never probed");
        assert_eq!(s[1].hits, 8);
    }

    #[test]
    fn writes_charge_the_home_tier_without_promotion() {
        let tiers = [TierConfig::onchip(line()), TierConfig::dram(0)];
        let mut h = MemoryHierarchy::new(&tiers, 1.3e9, 4, line());
        VertexMemory::write_seq(&mut h, 3, 10);
        assert_eq!(h.home_of(3), 1, "writes do not promote");
        let s = h.stats();
        assert_eq!(s[1].write_bytes, 10);
        assert_eq!(s[0].write_bytes, 0);
    }

    #[test]
    fn ssd_tier_is_slower_than_dram_which_is_slower_than_onchip() {
        let specs = [TierConfig::onchip(line()), TierConfig::dram(line()), TierConfig::ssd(0)];
        // Compare a transfer large enough that bandwidth, not the
        // one-cycle on-chip hit latency, dominates.
        let bytes = 64 * 1024;
        let mut h = MemoryHierarchy::new(&specs, 1.3e9, 3, line());
        // Pre-staged: 0 onchip, 1 dram, 2 ssd.
        let on = VertexMemory::read_seq(&mut h, 0, bytes);
        let dr = VertexMemory::read_seq(&mut h, 1, bytes);
        // Read vertex 2 from a fresh hierarchy so the promotion shuffle
        // above cannot have moved it off the ssd.
        let mut h2 = MemoryHierarchy::new(&specs, 1.3e9, 3, line());
        let sd = VertexMemory::read_seq(&mut h2, 2, bytes);
        assert!(on < dr, "onchip {on} !< dram {dr}");
        assert!(dr < sd, "dram {dr} !< ssd {sd}");
    }

    #[test]
    fn dram_counters_come_from_the_dram_tier() {
        // DRAM is the backstop here, so vertex 1 pre-stages on it.
        let tiers = [TierConfig::onchip(line()), TierConfig::dram(0)];
        let mut h = MemoryHierarchy::new(&tiers, 1.3e9, 8, line());
        VertexMemory::read_seq(&mut h, 0, 50); // onchip hit
        let before = h.counter_snapshot();
        assert_eq!(before.total_bytes(), 0, "onchip traffic is not DRAM traffic");
        VertexMemory::read_seq(&mut h, 1, 50); // dram hit (pre-staged there)
        assert_eq!(h.counter_snapshot().seq_read_bytes, 50);
    }

    #[test]
    fn workload_split_tracks_the_hot_prefix() {
        // A star graph: vertex 0 touches every edge, so the hot prefix
        // covering half the endpoints is tiny.
        let n = 64;
        let pairs: Vec<(u32, u32)> = (1..n as u32).map(|v| (0, v)).collect();
        let g = CsrGraph::from_edges(n, pairs);
        let b = workload_split(&g, 64 * line(), line());
        let even = even_split(64 * line());
        assert!(
            b.onchip_bytes < even.onchip_bytes,
            "hot set is small: workload onchip {} !< even onchip {}",
            b.onchip_bytes,
            even.onchip_bytes
        );
        assert_eq!(b.onchip_bytes + b.dram_bytes, 64 * line(), "budget is conserved");
        // A uniform chain spreads endpoints evenly: the hot prefix is
        // about half the vertices, near the even split.
        let c = chain(n);
        let bc = workload_split(&c, 64 * line(), line());
        assert!(bc.onchip_bytes >= even.onchip_bytes / 2);
    }

    #[test]
    fn chip_shares_scale_with_edges_for_the_workload_mode() {
        let spec = TierSpec::Split { total_bytes: 1000, mode: SplitMode::Workload };
        let busy = spec.for_chip(4, 600, 1000);
        let idle = spec.for_chip(4, 100, 1000);
        match (busy, idle) {
            (
                TierSpec::Split { total_bytes: b, .. },
                TierSpec::Split { total_bytes: i, .. },
            ) => {
                assert_eq!(b, 600);
                assert_eq!(i, 100);
            }
            other => panic!("unexpected shapes: {other:?}"),
        }
        let even = TierSpec::Split { total_bytes: 1000, mode: SplitMode::Even };
        match even.for_chip(4, 600, 1000) {
            TierSpec::Split { total_bytes, .. } => assert_eq!(total_bytes, 250),
            other => panic!("unexpected shape: {other:?}"),
        }
    }

    #[test]
    fn resolve_builds_the_requested_stack() {
        let g = chain(8);
        let explicit = TierSpec::Explicit(TierBudgets {
            onchip_bytes: 128,
            dram_bytes: 1024,
            ssd_bytes: None,
        });
        let stack = explicit.resolve(&g, line());
        assert_eq!(stack.len(), 2, "no ssd requested");
        assert_eq!(stack[0].name, "onchip");
        assert_eq!(stack[1].name, "dram");
        let split = TierSpec::Split { total_bytes: 4096, mode: SplitMode::Even };
        let stack = split.resolve(&g, line());
        assert_eq!(stack.len(), 3, "split modes keep the ssd backstop");
        assert_eq!(stack[2].name, "ssd");
        assert_eq!(stack[0].capacity_bytes, 2048);
    }
}
