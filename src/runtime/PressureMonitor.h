//===- PressureMonitor.h - Memory-pressure sampling -------------*- C++ -*-===//
///
/// \file
/// Decides *when* an idle heap deserves a compaction pass. The paper's
/// trigger (Section 4.5) is purely allocation-driven: a rate-limited
/// check on the refill path. That leaves a gap the background runtime
/// closes — a heap that fragments and then goes quiet never allocates
/// again, so nothing ever trips the trigger and the committed pages
/// linger forever.
///
/// The monitor samples a HeapFootprint (committed vs bitmap-live bytes,
/// dirty-page debt) through the FootprintSource interface plus the
/// process RSS from /proc/self/statm, reduces it to one fragmentation
/// ratio, and answers "is this heap worth compacting right now?"
/// against the configured thresholds. The interface exists so the unit
/// test can drive the policy with a fake source; the real source is a
/// one-line adapter over GlobalHeap::sampleFootprint().
///
//===----------------------------------------------------------------------===//

#ifndef MESH_RUNTIME_PRESSUREMONITOR_H
#define MESH_RUNTIME_PRESSUREMONITOR_H

#include "core/MeshStats.h"

#include <cstddef>
#include <cstdint>

namespace mesh {

class GlobalHeap;

/// Anything that can report a heap footprint. Implemented by the
/// GlobalHeap adapter below and by the unit tests' fakes.
class FootprintSource {
public:
  virtual ~FootprintSource() = default;
  virtual HeapFootprint sampleFootprint() const = 0;
};

/// Adapter: the production FootprintSource, one page-table walk per
/// sample (see GlobalHeap::sampleFootprint for cost and locking).
class GlobalHeapFootprintSource final : public FootprintSource {
public:
  explicit GlobalHeapFootprintSource(const GlobalHeap &Heap) : Heap(Heap) {}
  HeapFootprint sampleFootprint() const override;

private:
  const GlobalHeap &Heap;
};

/// Pressure-policy knobs (mirrors MeshOptions::PressureFragThresholdPct
/// and PressureMinCommittedBytes; duplicated so the monitor stays
/// testable without a full options struct).
struct PressureConfig {
  /// Trigger when frag ratio >= this percentage. 0 disables.
  uint32_t FragThresholdPct = 30;
  /// Never trigger below this committed-bytes floor.
  size_t MinCommittedBytes = 8 * 1024 * 1024;
};

/// One evaluated sample: the raw footprint plus the derived signals.
struct PressureSample {
  HeapFootprint Footprint;
  /// Process resident set from /proc/self/statm (0 when unreadable —
  /// non-Linux or a locked-down /proc). statm counts a meshed physical
  /// page once per virtual alias, so after meshing this overstates
  /// resident memory (about 2x was seen after heavy meshing); PSS from
  /// /proc/self/smaps_rollup counts each page once. statm stays because
  /// smaps_rollup walks every page table entry, a cost this sampler
  /// would pay on every wake. Observability only: the trigger decision
  /// uses the heap's own committed counter, which is not polluted by
  /// non-heap mappings.
  size_t RssBytes = 0;
  /// (committed - in_use) / committed in parts-per-million, clamped to
  /// [0, 1e6]. Fixed-point so it travels through the u64 mallctl
  /// surface losslessly.
  uint32_t FragPpm = 0;
};

class PressureMonitor {
public:
  PressureMonitor(const FootprintSource &Source, const PressureConfig &Cfg)
      : Source(Source), Cfg(Cfg) {}

  /// Takes a fresh footprint sample and derives the pressure signals.
  PressureSample sample() const;

  /// The trigger policy: enabled, heap big enough to care, and enough
  /// of its committed memory not backing live objects.
  bool underPressure(const PressureSample &S) const {
    if (Cfg.FragThresholdPct == 0)
      return false;
    if (S.Footprint.CommittedBytes < Cfg.MinCommittedBytes)
      return false;
    return S.FragPpm >= Cfg.FragThresholdPct * 10000u;
  }

  const PressureConfig &config() const { return Cfg; }

  /// Fragmentation in parts-per-million. InUse above Committed (the
  /// attached-span overcount racing a commit update) clamps to 0.
  static uint32_t fragPpm(size_t CommittedBytes, size_t InUseBytes);

  /// Resident-set bytes of this process via /proc/self/statm (meshed
  /// pages counted once per alias, see PressureSample::RssBytes); 0
  /// when the read fails. Allocation-free (stack buffer + raw
  /// syscalls): it runs inside an allocator.
  static size_t readRssBytes();

private:
  const FootprintSource &Source;
  PressureConfig Cfg;
};

} // namespace mesh

#endif // MESH_RUNTIME_PRESSUREMONITOR_H
