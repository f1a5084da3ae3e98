// Naive broadcast reference model of the SMP private-L2 machine.
//
// The product SMP hierarchy (memsim::PrivateL2Hierarchy[Wide]) resolves
// coherence through a sharers-bitmap directory. This model resolves it the
// slow, obvious way: every L2 miss and every write upgrade probes every
// peer node. It is written from docs/COHERENCE.md's machine model and
// transition table, not from hierarchy.h, and shares nothing with the
// product code beyond `Cache`, `StreamBufferFile`, the public config and
// stats types and the public constants. That independence is the point: a
// bug in the directory's per-peer actions shows up as a difference from
// this model, which a second arm built from the same source could not see.
//
// It is deliberately slow — O(nodes) probes per miss — so suites run it
// live on machines up to ~100 nodes and pin wider machines with literals.
// CmpSimulator does not know this type and replays it through its generic
// virtual-dispatch engine.
#ifndef STAGEDCMP_TESTS_REFERENCE_SMP_H_
#define STAGEDCMP_TESTS_REFERENCE_SMP_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "memsim/cache.h"
#include "memsim/hierarchy.h"
#include "memsim/stream_buffer.h"

namespace stagedcmp::reference {

using memsim::AccessClass;
using memsim::AccessResult;
using memsim::Cache;
using memsim::HierarchyConfig;
using memsim::HierarchyStats;
using memsim::LineState;

class ReferenceSmpHierarchy final : public memsim::MemoryHierarchy {
 public:
  explicit ReferenceSmpHierarchy(const HierarchyConfig& config)
      : config_(config),
        line_shift_(memsim::Log2Floor(config.l2.line_bytes)) {
    nodes_.reserve(config.num_cores);
    for (uint32_t n = 0; n < config.num_cores; ++n) {
      nodes_.push_back(Node{Cache(config.l1i), Cache(config.l1d),
                            Cache(config.l2),
                            memsim::StreamBufferFile(
                                memsim::kStreamBuffers,
                                memsim::kStreamBufferDepth)});
    }
  }

  AccessResult AccessData(uint32_t core, uint64_t addr, bool is_write,
                          uint64_t now) override {
    const uint64_t line = addr >> line_shift_;
    Node& me = nodes_[core];
    AccessResult r;

    // L1D: a read hits any valid copy; a write needs E or M.
    const Cache::ProbeResult p1 = me.l1d.Probe(line);
    if (Writable(me.l1d.StateAt(p1), is_write)) {
      me.l1d.AccessAt(p1, is_write);
      r.latency = config_.lat.l1_hit;
      return Count(stats_.data_count, r);
    }
    // Records a miss, or, for a write to a Shared copy, an L1 lookup hit;
    // either way the access continues at the L2.
    me.l1d.AccessAt(p1, /*is_write=*/false);

    const Cache::ProbeResult p2 = me.l2.Probe(line);
    const LineState l2 = me.l2.StateAt(p2);
    LineState l1_fill = is_write ? LineState::kModified : LineState::kExclusive;
    if (Writable(l2, is_write)) {
      // L2 hit. A write to E dirties the L2 copy (AccessAt sets M).
      me.l2.AccessAt(p2, is_write);
      r.cls = AccessClass::kL2Hit;
      r.latency = config_.lat.l2_hit;
      if (!is_write && l2 == LineState::kShared) l1_fill = LineState::kShared;
    } else if (l2 == LineState::kShared) {
      // Write to a Shared L2 copy: upgrade. Every other holder's L2 and
      // L1D copies are invalidated; no data moves, so the transaction is
      // address-only and costs half a remote transfer.
      for (uint32_t n = 0; n < nodes_.size(); ++n) {
        if (n != core) InvalidatePeer(n, line);
      }
      me.l2.AccessAt(p2, /*is_write=*/true);
      r.cls = AccessClass::kCoherence;
      r.latency = config_.lat.remote_l2 / 2;
      if (config_.smp_bus) {
        r.queue_delay = BusWait(now, memsim::kBusAddrCycles);
        r.latency += r.queue_delay;
      }
    } else {
      // L2 miss: one bus fetch; broadcast to every peer.
      me.l2.AccessAt(p2, /*is_write=*/false);
      if (config_.smp_bus) {
        r.queue_delay =
            BusWait(now, memsim::kBusAddrCycles + memsim::kBusDataCycles);
      }
      bool held_remotely = false;
      bool dirty_remotely = false;
      for (uint32_t n = 0; n < nodes_.size(); ++n) {
        if (n == core) continue;
        Node& peer = nodes_[n];
        const Cache::ProbeResult pp = peer.l2.Probe(line);
        const LineState s = peer.l2.StateAt(pp);
        if (s == LineState::kInvalid) continue;
        held_remotely = true;
        if (s == LineState::kModified) dirty_remotely = true;
        if (is_write) {
          InvalidatePeer(n, line);
        } else if (s != LineState::kShared) {
          // Remote read of an E or M copy: the holder drops to Shared,
          // L1D included.
          peer.l2.DowngradeAt(pp);
          peer.l1d.SetStateAt(peer.l1d.Probe(line), LineState::kShared);
        }
      }
      const LineState fill =
          is_write ? LineState::kModified
                   : (held_remotely ? LineState::kShared
                                    : LineState::kExclusive);
      if (fill == LineState::kShared) l1_fill = LineState::kShared;
      const memsim::EvictedLine victim = me.l2.FillAt(p2, line, is_write, fill);
      if (victim.valid && victim.dirty) {
        ++stats_.writebacks;
        if (config_.smp_bus) BusPost(now);
      }
      r.cls = dirty_remotely ? AccessClass::kCoherence : AccessClass::kOffChip;
      r.latency = (dirty_remotely ? config_.lat.remote_l2
                                  : config_.lat.memory) +
                  r.queue_delay;
    }
    me.l1d.FillAt(p1, line, is_write, l1_fill);
    return Count(stats_.data_count, r);
  }

  AccessResult AccessInstr(uint32_t core, uint64_t addr,
                           uint64_t now) override {
    const uint64_t line = addr >> line_shift_;
    Node& me = nodes_[core];
    AccessResult r;  // an L1I hit costs nothing: fetch is pipelined

    const Cache::ProbeResult p1 = me.l1i.Probe(line);
    if (me.l1i.AccessAt(p1, /*is_write=*/false)) {
      return Count(stats_.instr_count, r);
    }
    if (config_.stream_buffers && me.sbuf.Probe(line)) {
      r.latency = memsim::kStreamBufferHitCycles;
      me.l1i.FillAt(p1, line, /*is_write=*/false);
      return Count(stats_.instr_count, r);
    }
    // The I-side is non-coherent: an L2 miss fills Shared from memory
    // without asking any peer, and its dirty victim is not counted as a
    // writeback (it still occupies the bus).
    const Cache::ProbeResult p2 = me.l2.Probe(line);
    if (me.l2.AccessAt(p2, /*is_write=*/false)) {
      r.cls = AccessClass::kL2Hit;
      r.latency = config_.lat.l2_hit;
    } else {
      r.cls = AccessClass::kOffChip;
      if (config_.smp_bus) {
        r.queue_delay =
            BusWait(now, memsim::kBusAddrCycles + memsim::kBusDataCycles);
      }
      r.latency = config_.lat.memory + r.queue_delay;
      const memsim::EvictedLine victim =
          me.l2.FillAt(p2, line, /*is_write=*/false, LineState::kShared);
      if (config_.smp_bus && victim.valid && victim.dirty) BusPost(now);
    }
    me.l1i.FillAt(p1, line, /*is_write=*/false);
    if (config_.stream_buffers) me.sbuf.Allocate(line);
    return Count(stats_.instr_count, r);
  }

  const HierarchyStats& stats() const override { return stats_; }
  const HierarchyConfig& config() const override { return config_; }

  /// Counters only: cache contents and the bus clock survive warmup.
  void ResetStats() override {
    stats_ = HierarchyStats();
    for (Node& n : nodes_) {
      n.l1i.ResetCounters();
      n.l1d.ResetCounters();
      n.l2.ResetCounters();
    }
  }

  double L1DHitRate() const override { return Rate(&Node::l1d); }
  double L1IHitRate() const override { return Rate(&Node::l1i); }
  double L2HitRate() const override { return Rate(&Node::l2); }

 private:
  struct Node {
    Cache l1i;
    Cache l1d;
    Cache l2;
    memsim::StreamBufferFile sbuf;
  };

  /// MESI permission: any valid copy serves a read; a write needs
  /// Exclusive or Modified.
  static bool Writable(LineState s, bool is_write) {
    if (s == LineState::kInvalid) return false;
    return !is_write || s == LineState::kExclusive ||
           s == LineState::kModified;
  }

  /// Remote write: a peer whose L2 holds the line loses it from its L2
  /// and its L1D. One invalidation per L2 holder.
  void InvalidatePeer(uint32_t n, uint64_t line) {
    Node& peer = nodes_[n];
    const Cache::ProbeResult pp = peer.l2.Probe(line);
    if (!pp.hit()) return;
    peer.l2.InvalidateAt(pp);
    peer.l1d.InvalidateAt(peer.l1d.Probe(line));
    ++stats_.invalidations;
  }

  /// A transaction the requester waits for: it starts when the bus frees,
  /// holds it for `cycles`, and the wait is sampled as queue delay.
  uint64_t BusWait(uint64_t now, uint64_t cycles) {
    const uint64_t start = std::max(now, bus_free_);
    const uint64_t wait = start - now;
    bus_free_ = start + cycles;
    ++stats_.bus_transactions;
    stats_.bus_busy_cycles += cycles;
    stats_.bus_peak_queue = std::max(stats_.bus_peak_queue, wait);
    stats_.queue_delay.Add(wait);
    return wait;
  }

  /// A posted dirty-victim writeback: occupies the data bus, nobody waits.
  void BusPost(uint64_t now) {
    bus_free_ = std::max(now, bus_free_) + memsim::kBusDataCycles;
    ++stats_.bus_transactions;
    stats_.bus_busy_cycles += memsim::kBusDataCycles;
  }

  static AccessResult Count(uint64_t* by_class, const AccessResult& r) {
    ++by_class[static_cast<int>(r.cls)];
    return r;
  }

  double Rate(Cache Node::*level) const {
    uint64_t hits = 0, misses = 0;
    for (const Node& n : nodes_) {
      hits += (n.*level).hits();
      misses += (n.*level).misses();
    }
    const uint64_t all = hits + misses;
    return all ? static_cast<double>(hits) / static_cast<double>(all) : 0.0;
  }

  HierarchyConfig config_;
  uint32_t line_shift_;
  std::vector<Node> nodes_;
  HierarchyStats stats_;
  uint64_t bus_free_ = 0;
};

}  // namespace stagedcmp::reference

#endif  // STAGEDCMP_TESTS_REFERENCE_SMP_H_
