//===- Workloads.h - The three perfbench workloads --------------*- C++ -*-===//
///
/// \file
/// A workload has a load/fill phase (counted in setup_s), a timed phase
/// of whole rounds run until a deadline, and an end-of-run walk that
/// verifies every output it still holds. main.cpp drives the phases and
/// measures around them; README.md gives each workload's make-up.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Harness.h"

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

namespace perfbench {

class Workload {
public:
  Workload(const Config &C, Heap &H, Result &Out, uint64_t OpStride)
      : Samples(OpStride), C(C), H(H), Out(Out) {}
  virtual ~Workload() = default;

  Workload(const Workload &) = delete;
  Workload &operator=(const Workload &) = delete;

  /// Load/fill phase: everything before the first timed operation.
  virtual void setup() = 0;
  /// Runs whole rounds until \p DeadlineNs has passed.
  virtual void runTimed(uint64_t DeadlineNs) = 0;
  /// Verifies every live output (after the closing idle period).
  virtual void verifyEnd() = 0;
  /// Bytes the harness itself knows to be live in the heap.
  virtual uint64_t liveBytes() const = 0;
  /// Frees everything the workload holds.
  virtual void teardown() = 0;

  /// Records progress; main() marks the start of the timed phase
  /// and each workload marks whole rounds or about once a second.
  void mark(uint64_t OpsSoFar) {
    Marks.push_back({nowNs(), OpsSoFar, cpuSeconds()});
  }

  /// Operations attempted and failed (null malloc, refused set) in the
  /// timed phase.
  uint64_t Ops = 0;
  uint64_t Failed = 0;
  std::vector<Mark> Marks;
  /// Samples of every worker, merged after the timed phase.
  ThreadSamples Samples;
  /// redis-lru only: fork() duration in the parent, and fork start to
  /// the child's first instruction (after the atfork child handlers).
  std::vector<uint64_t> ForkPauseNs;
  std::vector<uint64_t> ForkChildNs;

protected:
  /// Sleeps until \p DeadlineNs, marking the sum of the workers'
  /// counters once a second (the threaded workloads' timed phase).
  template <typename WorkerVec>
  void markUntil(uint64_t DeadlineNs, const WorkerVec &Workers) {
    for (uint64_t Now = nowNs(); Now < DeadlineNs; Now = nowNs()) {
      const uint64_t Step =
          DeadlineNs - Now < kMarkNs ? DeadlineNs - Now : kMarkNs;
      std::this_thread::sleep_for(std::chrono::nanoseconds(Step));
      uint64_t Sum = 0;
      for (const auto &W : Workers)
        Sum += W->Done.load(std::memory_order_relaxed);
      mark(Sum);
    }
  }

  static constexpr uint64_t kMarkNs = 1000000000;

  const Config &C;
  Heap &H;
  Result &Out;
};

std::unique_ptr<Workload> makeKvZipf(const Config &C, Heap &H, Result &Out);
std::unique_ptr<Workload> makeRedisLru(const Config &C, Heap &H, Result &Out);
std::unique_ptr<Workload> makeSpanChurn(const Config &C, Heap &H, Result &Out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
