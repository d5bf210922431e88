//===- Harness.h - Shared machinery of the perfbench workloads --*- C++ -*-===//
///
/// \file
/// What every workload shares: the allocator under test (a Mesh
/// instance Runtime with the shipped defaults, or glibc for reference
/// runs), the clock, per-thread latency and front-end samples, the PSS
/// sampler, the checksums that make outputs checkable without trusting
/// the allocator, and the result that main() prints.
///
/// The harness's own memory (sample vectors, indexes, the live-entry
/// table of redis-lru) stays on glibc: this binary links mesh_core but
/// not the interposition shim, so only calls made through Heap reach
/// Mesh.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "core/Runtime.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

uint64_t nowNs();
/// User + system CPU seconds of the whole process so far.
double cpuSeconds();

/// Adds one to a counter only its own thread writes (others may read).
inline void bump(std::atomic<uint64_t> &Counter) {
  Counter.store(Counter.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
}

/// Progress at one point of the timed phase. Consecutive marks bound a
/// window; throughput and CPU cost are reported as medians over the
/// windows, so a burst of interference from outside the process moves
/// a window or two, not the result.
struct Mark {
  uint64_t Ns;
  uint64_t Ops;
  double CpuS;
};

/// Command-line settings of one run.
struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Reference runs only: serve every workload allocation from glibc.
  bool Glibc = false;
  /// Worker threads for kv-zipf and span-churn; 0 picks the default.
  int Threads = 0;
  /// Corruption to plant (checks test only); empty in real runs.
  std::string Plant;
  /// CLOCK_MONOTONIC ns at process start (passed by run.py); 0 means
  /// "use main() entry".
  uint64_t StartNs = 0;
};

/// Worker threads for the multi-threaded workloads: two, so that the
/// workers plus the PSS sampler leave the background mesher a CPU on a
/// 4-CPU host; fewer on smaller hosts.
int defaultWorkerThreads();

/// \p Want, or less when the process's file-size or address-space limit
/// would not let an arena of \p Want bytes be created. Raises the soft
/// limits to the hard ones first.
size_t arenaBytesWithinLimits(size_t Want);

/// The options the process-default heap gets when no MESH_* variable
/// is set (see optionsFromEnvironment in src/api/mesh.cpp): MeshOptions
/// defaults with the background mesher on. The one change: the arena
/// reservation is cut to arenaBytesWithinLimits.
mesh::MeshOptions shippedDefaults();

/// A latency sample of bounded size. Every Stride-th event is kept;
/// when the buffer fills, every other sample is dropped and the stride
/// doubles, so the sample stays uniform over the whole run while the
/// harness's own memory (which PSS counts) stays fixed: the buffer is
/// allocated and touched before the timed phase.
class Sampler {
public:
  explicit Sampler(uint64_t Stride, size_t Capacity = size_t{1} << 17);

  /// True when the next event should be timed.
  bool due() { return ++Events % Stride == 0; }
  void add(uint64_t Ns);

  std::vector<uint64_t> &values() { return V; }
  const std::vector<uint64_t> &values() const { return V; }
  /// Samples kept.
  size_t size() const { return V.size(); }

private:
  std::vector<uint64_t> V;
  size_t Capacity;
  uint64_t Stride;
  uint64_t Events = 0;
};

/// Per-thread samples. Each worker owns one; Heap reaches it through a
/// thread-local pointer so code that only sees a HeapBackend (KVStore)
/// is traced too.
struct ThreadSamples {
  explicit ThreadSamples(uint64_t OpStride, uint32_t WorkerId = 0)
      : Op(OpStride), WorkerId(WorkerId) {}

  Sampler Op;
  /// Front-end calls, traced runs only (one call in 64 is timed).
  Sampler Malloc{64, 1 << 15};
  Sampler FreeLocal{64, 1 << 15};
  Sampler FreeRemote{64, 1 << 15};
  /// Identifies the thread in value tags (kv-zipf remote-free split).
  uint32_t WorkerId;
};

void setThreadSamples(ThreadSamples *S);
ThreadSamples *threadSamples();

/// How a traced free is filed: by the harness's knowledge of which
/// thread allocated the object.
enum class FreeKind { Local, Remote, Unknown };

/// The allocator under test.
class Heap {
public:
  Heap(bool Glibc, bool Trace);
  ~Heap();

  Heap(const Heap &) = delete;
  Heap &operator=(const Heap &) = delete;

  void *malloc(size_t Bytes);
  void *calloc(size_t Count, size_t Bytes);
  /// Traced runs time one free in 64 of each known kind.
  void free(void *Ptr, FreeKind Kind = FreeKind::Local);
  size_t usableSize(const void *Ptr) const;

  /// Null for glibc runs.
  mesh::Runtime *runtime() { return R.get(); }
  bool tracing() const { return Trace; }

private:
  std::unique_ptr<mesh::Runtime> R;
  bool Trace;
};

/// Proportional set size of this process (/proc/self/smaps_rollup), in
/// bytes; 0 if unreadable.
uint64_t readPssBytes();

/// Samples PSS on its own thread over the timed phase. In traced runs
/// it also times GlobalHeap::sampleFootprint, the call the background
/// mesher's pressure monitor makes on each wake.
class PssSampler {
public:
  PssSampler(Heap &H, uint32_t IntervalMs);
  ~PssSampler();

  PssSampler(const PssSampler &) = delete;
  PssSampler &operator=(const PssSampler &) = delete;

  void start();
  void stop();

  double meanBytes() const;
  uint64_t peakBytes() const { return Peak; }
  size_t samples() const { return Count; }
  const std::vector<uint64_t> &footprintNs() const { return FootprintNs; }

private:
  void loop();

  Heap &H;
  uint32_t IntervalMs;
  std::atomic<bool> Stop{false};
  double Sum = 0;
  uint64_t Peak = 0;
  size_t Count = 0;
  std::vector<uint64_t> FootprintNs;
  std::thread Thread;
};

/// Percentile (nearest rank) of \p V, which is sorted in place; 0 when
/// empty.
uint64_t percentile(std::vector<uint64_t> &V, double Q);

/// Fast 64-bit checksum over \p Len bytes (any alignment).
uint64_t checksum(const void *Data, size_t Len, uint64_t Seed);

/// splitmix64 step: the deterministic content generator.
inline uint64_t mix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ULL;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ULL;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBULL;
  return X ^ (X >> 31);
}

/// Fills \p Len bytes with a stream derived from \p Seed.
void fillBytes(void *Data, size_t Len, uint64_t Seed);

/// The outcome of one workload run.
class Result {
public:
  /// Records a failed output check; the run reports correct=false.
  void checkFailed(const std::string &What);
  bool correct() const { return Failures == 0; }

  void metric(const std::string &Name, double Value, const char *Unit);
  /// Prints the JSON result line (the last line of stdout).
  void print() const;

  uint64_t Attempted = 0;
  uint64_t Failed = 0;

private:
  struct Metric {
    std::string Name;
    double Value;
    const char *Unit;
  };
  std::vector<Metric> Metrics;
  uint64_t Failures = 0;
};

/// Allocator counters read at the start and the end of the measured
/// window (timed phase plus closing idle); per-layer metrics are their
/// deltas.
struct LayerSnapshot {
  uint64_t MeshPasses = 0;
  uint64_t MeshPairs = 0;
  uint64_t MeshProbes = 0;
  uint64_t PagesMeshed = 0;
  uint64_t BytesCopied = 0;
  uint64_t MeshNs = 0;
  uint64_t BgWakeups = 0;
  uint64_t BgPasses = 0;
  std::vector<uint64_t> Hists; ///< Every telemetry.hist.* leaf, packed.
};

LayerSnapshot takeLayerSnapshot(mesh::Runtime &R);

/// Emits every per-layer metric of a traced run. Workload-specific
/// inputs (front-end samples, fork timings) come in through \p Front
/// and \p ForkPauseNs / \p ForkChildNs; metrics without samples on this
/// workload read 0.
void emitLayerMetrics(Result &Out, mesh::Runtime &R, const LayerSnapshot &Start,
                      const LayerSnapshot &End, uint64_t Ops,
                      ThreadSamples &Front, const PssSampler &Sampler,
                      std::vector<uint64_t> &ForkPauseNs,
                      std::vector<uint64_t> &ForkChildNs);

/// Appends every sample of \p From to \p Into.
void mergeSamples(ThreadSamples &Into, const ThreadSamples &From);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
