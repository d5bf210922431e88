//===- SpanChurn.cpp - span-churn: batches that never survive -------------===//
///
/// Each worker allocates a batch of 64 objects of mixed 16-512 B (one
/// in eight through calloc), fills every object, verifies every
/// object, and frees the whole batch. Nothing survives a batch, so the
/// mesher has nothing to mesh and the work lands on the thread-local
/// front end and on span refill/release under the shared shard locks:
/// a thread's working set spans several spans per size class.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/Rng.h"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

constexpr int kBatch = 64;
constexpr size_t kSizeTable = 4096; ///< Power of two.
constexpr int kWarmBatches = 20000;
/// One op in 127 is timed (coprime with the 128 ops of a batch).
constexpr uint64_t kOpStride = 127;

/// Writes \p Tag into every byte position of the object (as 8-byte
/// words, the tail as the tag's low bytes).
void fillTag(unsigned char *P, size_t Len, uint64_t Tag) {
  size_t I = 0;
  for (; I + 8 <= Len; I += 8)
    memcpy(P + I, &Tag, 8);
  memcpy(P + I, &Tag, Len - I);
}

bool hasTag(const unsigned char *P, size_t Len, uint64_t Tag) {
  size_t I = 0;
  for (; I + 8 <= Len; I += 8)
    if (memcmp(P + I, &Tag, 8) != 0)
      return false;
  return memcmp(P + I, &Tag, Len - I) == 0;
}

bool allZero(const unsigned char *P, size_t Len) {
  unsigned char Or = 0;
  for (size_t I = 0; I < Len; ++I)
    Or |= P[I];
  return Or == 0;
}

class SpanChurn final : public Workload {
public:
  SpanChurn(const Config &C, Heap &H, Result &Out)
      : Workload(C, H, Out, kOpStride) {}

  ~SpanChurn() override { stopWorkers(); }

  void setup() override {
    const int N = C.Threads > 0 ? C.Threads : defaultWorkerThreads();
    Workers.reserve(static_cast<size_t>(N));
    for (int T = 0; T < N; ++T) {
      Workers.push_back(std::make_unique<Worker>(static_cast<uint32_t>(T)));
      Worker &W = *Workers.back();
      mesh::Rng Random(mix64(C.Seed * 0x100 + static_cast<uint64_t>(T)));
      for (size_t I = 0; I < kSizeTable; ++I) {
        W.Sizes[I] = static_cast<uint16_t>(Random.inRange(16, 512));
        W.Calloc[I] = Random.inRange(0, 7) == 0;
      }
    }
    for (auto &W : Workers)
      W->Thread = std::thread([this, &W] { workerMain(*W); });
    // Setup ends once every worker has run its warm-up batches (the
    // thread-local heaps hold spans of every class in the mix).
    while (Ready.load(std::memory_order_acquire) != N)
      std::this_thread::yield();
  }

  void runTimed(uint64_t DeadlineNs) override {
    Phase.store(kRun, std::memory_order_release);
    markUntil(DeadlineNs, Workers);
    stopWorkers();
    for (auto &W : Workers) {
      Ops += W->Done.load(std::memory_order_relaxed);
      Failed += W->Failed;
      mergeSamples(Samples, W->S);
      if (W->CheckFailures > 0)
        Out.checkFailed("span-churn worker " + std::to_string(W->S.WorkerId) +
                        ": " + std::to_string(W->CheckFailures) +
                        " bad objects, first: " + W->FirstFailure);
    }
  }

  // Every batch is freed before its worker moves on: nothing is live.
  void verifyEnd() override {}
  uint64_t liveBytes() const override { return 0; }
  void teardown() override {}

private:
  enum : int { kWarm = 0, kRun = 1, kStop = 2 };

  struct Worker {
    explicit Worker(uint32_t Id) : S(kOpStride, Id) {}
    uint16_t Sizes[kSizeTable];
    bool Calloc[kSizeTable];
    ThreadSamples S;
    std::atomic<uint64_t> Done{0};
    uint64_t Failed = 0;
    uint64_t CheckFailures = 0;
    std::string FirstFailure;
    std::thread Thread;
  };

  void stopWorkers() {
    Phase.store(kStop, std::memory_order_release);
    for (auto &W : Workers)
      if (W->Thread.joinable())
        W->Thread.join();
  }

  void workerMain(Worker &W) {
    uint64_t BatchNo = 0;
    for (int I = 0; I < kWarmBatches; ++I)
      runBatch(W, BatchNo++, /*Timed=*/false);
    Ready.fetch_add(1, std::memory_order_acq_rel);
    while (Phase.load(std::memory_order_acquire) == kWarm)
      std::this_thread::yield();
    setThreadSamples(&W.S);
    while (Phase.load(std::memory_order_relaxed) == kRun)
      runBatch(W, BatchNo++, /*Timed=*/true);
    setThreadSamples(nullptr);
  }

  void bad(Worker &W, const char *What, uint64_t BatchNo, int Slot) {
    if (W.CheckFailures++ == 0) {
      char Buf[160];
      snprintf(Buf, sizeof(Buf), "%s (batch %" PRIu64 ", slot %d)", What,
               BatchNo, Slot);
      W.FirstFailure = Buf;
    }
  }

  void runBatch(Worker &W, uint64_t BatchNo, bool Timed) {
    unsigned char *P[kBatch];
    size_t Len[kBatch];
    const size_t Base = static_cast<size_t>(BatchNo) * kBatch;
    const bool PlantHere = Timed && BatchNo == kWarmBatches + 100 &&
                           W.S.WorkerId == 0;
    for (int I = 0; I < kBatch; ++I) {
      const size_t Slot = (Base + static_cast<size_t>(I)) & (kSizeTable - 1);
      Len[I] = W.Sizes[Slot];
      const bool Zeroed = W.Calloc[Slot];
      const bool Sample = Timed && W.S.Op.due();
      const uint64_t T0 = Sample ? nowNs() : 0;
      P[I] = static_cast<unsigned char *>(Zeroed ? H.calloc(1, Len[I])
                                                 : H.malloc(Len[I]));
      if (Sample)
        W.S.Op.add(nowNs() - T0);
      if (Timed)
        bump(W.Done);
      if (P[I] == nullptr) {
        if (Timed)
          ++W.Failed;
        continue;
      }
      if (reinterpret_cast<uintptr_t>(P[I]) % 16 != 0)
        bad(W, "object not 16-byte aligned", BatchNo, I);
      if (H.usableSize(P[I]) < Len[I])
        bad(W, "usable size below the request", BatchNo, I);
      if (Zeroed) {
        if (PlantHere && C.Plant == "calloc-dirty")
          P[I][Len[I] / 2] = 1;
        if (!allZero(P[I], Len[I]))
          bad(W, "calloc memory not zero", BatchNo, I);
      }
    }
    // Fill every object before checking any: two live objects that
    // overlap show as a tag mismatch in one of them.
    auto TagOf = [&](int I) {
      return mix64((static_cast<uint64_t>(W.S.WorkerId) << 48) ^
                   (BatchNo * kBatch + static_cast<uint64_t>(I)));
    };
    for (int I = 0; I < kBatch; ++I)
      if (P[I] != nullptr)
        fillTag(P[I], Len[I], TagOf(I));
    if (PlantHere && C.Plant == "overlap" && P[0] != nullptr) {
      const uint64_t Other = TagOf(1);
      memcpy(P[0], &Other, 8);
    }
    for (int I = 0; I < kBatch; ++I)
      if (P[I] != nullptr && !hasTag(P[I], Len[I], TagOf(I)))
        bad(W, "object bytes changed while live (overlap?)", BatchNo, I);
    for (int I = 0; I < kBatch; ++I) {
      if (P[I] == nullptr)
        continue;
      const bool Sample = Timed && W.S.Op.due();
      const uint64_t T0 = Sample ? nowNs() : 0;
      H.free(P[I]);
      if (Sample)
        W.S.Op.add(nowNs() - T0);
      if (Timed)
        bump(W.Done);
    }
  }

  std::vector<std::unique_ptr<Worker>> Workers;
  std::atomic<int> Ready{0};
  std::atomic<int> Phase{kWarm};
};

} // namespace

std::unique_ptr<Workload> makeSpanChurn(const Config &C, Heap &H, Result &Out) {
  return std::make_unique<SpanChurn>(C, H, Out);
}

} // namespace perfbench
