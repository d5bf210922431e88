//===- KvZipf.cpp - kv-zipf: a sharded LRU cache under a Zipfian mix -------===//
///
/// Worker threads run a closed-loop 70/25/5 get/set/del mix over a
/// Zipfian keyspace (theta 0.99) on eight mutex-guarded KVStore shards
/// whose LRU budgets sum to 32 MiB of key+value payload. The keyspace
/// holds several times the budget, and each worker's value length steps
/// through eight sizes, one per generation of ops, so the cache keeps
/// evicting and reshaping. Keys are not partitioned between workers:
/// a value one worker wrote is overwritten, deleted or evicted by
/// another about half of the time, so frees cross threads (the epoch
/// path) as well as staying local.
///
/// Every value carries a tag (magic + writer), its key id and a
/// trailing checksum over every other byte; every get verifies all
/// three, and the end of the run walks the whole keyspace the same way.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "baseline/HeapBackend.h"
#include "support/Rng.h"
#include "workloads/KVStore.h"
#include "workloads/Zipfian.h"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

constexpr int kShards = 8;
constexpr uint64_t kKeyspace = 400000;
constexpr size_t kBudgetBytes = size_t{32} << 20;
constexpr uint64_t kOpsPerGeneration = 25000;
constexpr uint64_t kWarmOps = 400000;
constexpr uint64_t kOpStride = 31;
constexpr size_t kValueLens[] = {96, 240, 492, 128, 640, 1024, 64, 320};
constexpr size_t kMaxValueLen = 1024;
constexpr uint32_t kValueMagic = 0xB5EC7A11u;
constexpr size_t kKeyLen = 10;

uint64_t scrambledKey(uint64_t Rank) {
  return (Rank * 0x9E3779B97F4A7C15ULL) % kKeyspace;
}

size_t valueLenForGeneration(uint64_t Gen) {
  return kValueLens[Gen % (sizeof(kValueLens) / sizeof(kValueLens[0]))];
}

std::string_view makeKey(char (&Buf)[kKeyLen], uint64_t KeyId) {
  Buf[0] = 'k';
  Buf[1] = ':';
  memcpy(Buf + 2, &KeyId, 8);
  return std::string_view(Buf, kKeyLen);
}

/// Value layout: [magic:u32 writer:u32][key id:u64][content][checksum:u64]
/// with the checksum over every byte before it.
void makeValue(unsigned char *V, size_t Len, uint64_t KeyId, uint32_t Writer,
               uint64_t ContentSeed) {
  const uint64_t Tag = (static_cast<uint64_t>(Writer) << 32) | kValueMagic;
  memcpy(V, &Tag, 8);
  memcpy(V + 8, &KeyId, 8);
  fillBytes(V + 16, Len - 24, ContentSeed);
  const uint64_t Sum = checksum(V, Len - 8, KeyId);
  memcpy(V + Len - 8, &Sum, 8);
}

/// Empty string when \p V is a correct value of \p KeyId.
const char *valueFault(const unsigned char *V, size_t Len, uint64_t KeyId) {
  if (Len < 24 || Len > kMaxValueLen)
    return "bad value length";
  uint32_t Magic;
  memcpy(&Magic, V, 4);
  if (Magic != kValueMagic)
    return "bad value tag";
  uint64_t StoredKey;
  memcpy(&StoredKey, V + 8, 8);
  if (StoredKey != KeyId)
    return "value belongs to another key";
  uint64_t Sum;
  memcpy(&Sum, V + Len - 8, 8);
  if (Sum != checksum(V, Len - 8, KeyId))
    return "value checksum mismatch";
  return "";
}

/// KVStore's allocator: the heap under test. In traced runs a free of
/// a value is filed local or remote by the writer in its tag; keys,
/// nodes and bucket arrays carry no tag and are not timed.
class StoreBackend final : public mesh::HeapBackend {
public:
  explicit StoreBackend(Heap &H) : H(H) {}

  void *malloc(size_t Bytes) override { return H.malloc(Bytes); }
  void free(void *Ptr) override {
    FreeKind Kind = FreeKind::Unknown;
    const ThreadSamples *S = H.tracing() ? threadSamples() : nullptr;
    if (S != nullptr && Ptr != nullptr) {
      // Every allocation KVStore makes here is at least 10 bytes and
      // usable to 16, so the first word is readable.
      uint64_t Tag;
      memcpy(&Tag, Ptr, 8);
      if (static_cast<uint32_t>(Tag) == kValueMagic)
        Kind = (Tag >> 32) == S->WorkerId ? FreeKind::Local : FreeKind::Remote;
    }
    H.free(Ptr, Kind);
  }
  size_t usableSize(const void *Ptr) const override {
    return H.usableSize(Ptr);
  }
  size_t committedBytes() const override { return 0; }
  size_t peakCommittedBytes() const override { return 0; }
  const char *name() const override { return "perfbench"; }

private:
  Heap &H;
};

class KvZipf final : public Workload {
public:
  KvZipf(const Config &C, Heap &H, Result &Out)
      : Workload(C, H, Out, kOpStride), Backend(H), Zipf(kKeyspace) {}

  void setup() override {
    for (Shard &S : Shards)
      S.Store = std::make_unique<mesh::KVStore>(Backend, kBudgetBytes / kShards);
    // Fill in popularity order until the budget is reached, with every
    // value length of the cycle.
    unsigned char Value[kMaxValueLen];
    char Key[kKeyLen];
    for (uint64_t Rank = 0; Rank < kKeyspace; ++Rank) {
      const uint64_t KeyId = scrambledKey(Rank);
      const size_t Len = valueLenForGeneration(Rank);
      makeValue(Value, Len, KeyId, 0, mix64(C.Seed ^ KeyId));
      Shard &S = Shards[KeyId % kShards];
      if (!S.Store->set(makeKey(Key, KeyId),
                        std::string_view(reinterpret_cast<char *>(Value), Len)))
        Out.checkFailed("kv-zipf fill: set refused");
      if (S.Store->evictionCount() > 0)
        break;
    }
    // Warm-up: the same mix for a fixed number of ops per worker, so
    // the timed phase starts from the cache's steady state.
    runWorkers(/*Timed=*/false, 0);
  }

  void runTimed(uint64_t DeadlineNs) override {
    runWorkers(/*Timed=*/true, DeadlineNs);
  }

  void verifyEnd() override {
    char Key[kKeyLen];
    if (C.Plant == "kv-value")
      plantCorruption();
    uint64_t Bad = 0;
    std::string First;
    for (uint64_t KeyId = 0; KeyId < kKeyspace; ++KeyId) {
      Shard &S = Shards[KeyId % kShards];
      const std::string_view V = S.Store->get(makeKey(Key, KeyId));
      if (V.empty())
        continue;
      const char *Fault = valueFault(
          reinterpret_cast<const unsigned char *>(V.data()), V.size(), KeyId);
      if (*Fault != '\0' && Bad++ == 0)
        First = Fault;
    }
    if (Bad > 0)
      Out.checkFailed("kv-zipf end walk: " + std::to_string(Bad) +
                      " bad values, first: " + First);
  }

  uint64_t liveBytes() const override {
    uint64_t Bytes = 0;
    for (const Shard &S : Shards)
      Bytes += S.Store->payloadBytes();
    return Bytes;
  }

  void teardown() override {
    for (Shard &S : Shards)
      S.Store.reset();
  }

private:
  struct Shard {
    std::mutex Lock;
    std::unique_ptr<mesh::KVStore> Store;
  };

  struct Worker {
    explicit Worker(uint32_t Id) : S(kOpStride, Id) {}
    ThreadSamples S;
    std::atomic<uint64_t> Done{0};
    uint64_t Failed = 0;
    uint64_t BadGets = 0;
    std::string FirstBad;
    std::thread Thread;
  };

  /// Runs the worker threads: for kWarmOps ops each, or (timed) until
  /// \p DeadlineNs, marking progress.
  void runWorkers(bool Timed, uint64_t DeadlineNs) {
    const int N = C.Threads > 0 ? C.Threads : defaultWorkerThreads();
    // Timed workers are 1..N, warm-up workers N+1..2N, the fill 0: the
    // value tag tells which thread wrote it.
    const uint32_t IdBase = Timed ? 1 : static_cast<uint32_t>(N) + 1;
    std::vector<std::unique_ptr<Worker>> Workers;
    for (int T = 0; T < N; ++T)
      Workers.push_back(
          std::make_unique<Worker>(IdBase + static_cast<uint32_t>(T)));
    Stop.store(false, std::memory_order_relaxed);
    for (auto &W : Workers)
      W->Thread = std::thread([this, &W, Timed] {
        workerMain(*W, Timed ? ~uint64_t{0} : kWarmOps, Timed);
      });
    if (Timed) {
      markUntil(DeadlineNs, Workers);
      Stop.store(true, std::memory_order_relaxed);
    }
    for (auto &W : Workers) {
      W->Thread.join();
      if (Timed) {
        Ops += W->Done.load(std::memory_order_relaxed);
        Failed += W->Failed;
        mergeSamples(Samples, W->S);
      }
      if (W->BadGets > 0)
        Out.checkFailed("kv-zipf: " + std::to_string(W->BadGets) +
                        " gets returned a bad value, first: " + W->FirstBad);
    }
  }

  void workerMain(Worker &W, uint64_t OpLimit, bool Timed) {
    if (Timed)
      setThreadSamples(&W.S);
    mesh::Rng Random(mix64(C.Seed * 0x1000 + W.S.WorkerId));
    unsigned char Value[kMaxValueLen];
    unsigned char Copy[kMaxValueLen];
    char Key[kKeyLen];
    for (uint64_t I = 0; I < OpLimit && !Stop.load(std::memory_order_relaxed);
         ++I) {
      const uint64_t KeyId = scrambledKey(Zipf.next(Random));
      const std::string_view K = makeKey(Key, KeyId);
      Shard &S = Shards[KeyId % kShards];
      const uint32_t Op = Random.inRange(0, 99);
      size_t Len = 0;
      if (Op >= 70 && Op < 95) {
        // Build the value before the clock starts: the op is the set.
        Len = valueLenForGeneration(I / kOpsPerGeneration + 1);
        makeValue(Value, Len, KeyId, W.S.WorkerId, Random.next());
      }
      const bool Sample = Timed && W.S.Op.due();
      const uint64_t T0 = Sample ? nowNs() : 0;
      size_t Got = 0;
      if (Op < 70) {
        std::lock_guard<std::mutex> G(S.Lock);
        const std::string_view V = S.Store->get(K);
        // Copy out under the lock; verify after the clock stops.
        Got = V.size() <= kMaxValueLen ? V.size() : kMaxValueLen + 1;
        if (Got != 0 && Got <= kMaxValueLen)
          memcpy(Copy, V.data(), Got);
      } else if (Op < 95) {
        std::lock_guard<std::mutex> G(S.Lock);
        if (!S.Store->set(K, std::string_view(reinterpret_cast<char *>(Value),
                                              Len)))
          ++W.Failed;
      } else {
        std::lock_guard<std::mutex> G(S.Lock);
        S.Store->del(K);
      }
      if (Sample)
        W.S.Op.add(nowNs() - T0);
      bump(W.Done);
      if (Op < 70 && Got != 0) {
        const char *Fault = valueFault(Copy, Got, KeyId);
        if (*Fault != '\0' && W.BadGets++ == 0)
          W.FirstBad = Fault;
      }
    }
    setThreadSamples(nullptr);
  }

  /// Flips one byte inside the first live value (checks test only).
  void plantCorruption() {
    char Key[kKeyLen];
    for (uint64_t KeyId = 0; KeyId < kKeyspace; ++KeyId) {
      const std::string_view V =
          Shards[KeyId % kShards].Store->get(makeKey(Key, KeyId));
      if (!V.empty()) {
        const_cast<char *>(V.data())[V.size() / 2] ^= 0x20;
        return;
      }
    }
  }

  StoreBackend Backend;
  mesh::ZipfianGenerator Zipf;
  Shard Shards[kShards];
  std::atomic<bool> Stop{false};
};

} // namespace

std::unique_ptr<Workload> makeKvZipf(const Config &C, Heap &H, Result &Out) {
  return std::make_unique<KvZipf>(C, H, Out);
}

} // namespace perfbench
