//===- bench_mt.cpp - Multi-threaded hot-path benchmark ---------------------===//
///
/// The paper's core speed claim (Sections 4.3-4.4): malloc and free
/// complete without locks in the common case, and a non-local free is
/// one atomic bitmap update. This harness measures exactly those two
/// regimes:
///
///   - local  mix: every thread allocates and frees its own objects —
///     the pure thread-local fast path. No freeing threads run, so
///     nothing but the allocator threads competes for the CPUs.
///   - cross  mix: allocator threads hand 90% of their objects to
///     dedicated freeing threads over SPSC rings — the lock-free
///     remote-free path under maximum cross-thread pressure.
///   - multiclass mix: the cross mix spread uniformly over all 24 size
///     classes, so refills and remote frees from different threads land
///     on *different* per-class shards of the global heap concurrently.
///     The large span geometry of the top classes (8 objects per span)
///     makes refills frequent: this mix measures the sharded
///     allocation path, where the old design serialized every refill,
///     re-bin, and pending-free drain on one global lock.
///   - refillmiss mix: whole-span allocate/free batches with a TLS
///     release between batches, so every batch misses the thread cache
///     and lands on the global heap's refill and the arena's span
///     recycling. This is the regression guard for the per-class arena
///     shards: before the split, every one of these batches crossed
///     one process-wide arena lock.
///
/// --threads=1,2,4 sweeps the local and multiclass mixes over those
/// allocator-thread counts (multiclass pairs each allocator with one
/// freeing thread), one line per count with per-thread ops/s and
/// scaling efficiency: per-thread ops/s over that of the sweep's first
/// count, so 1.0 is linear scaling.
///
/// Reports aggregate ops/sec (mallocs + frees) and sampled p99 per-op
/// latency for each mix. This is the regression guard for the TLS heap
/// cache, the page-table free dispatch, and the epoch-protected remote
/// free; run before/after any hot-path change.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "core/Runtime.h"
#include "core/SizeClass.h"
#include "runtime/BackgroundMesher.h"
#include "support/Rng.h"
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

using namespace mesh;

namespace {

using Clock = std::chrono::steady_clock;

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Single-producer single-consumer pointer ring. The producer is an
/// allocator thread, the consumer a freeing thread.
class Ring {
public:
  static constexpr size_t kSlots = 4096;

  bool tryPush(void *Ptr) {
    const size_t Tail = TailIdx.load(std::memory_order_relaxed);
    if (Tail - HeadIdx.load(std::memory_order_acquire) == kSlots)
      return false;
    Slots[Tail % kSlots].store(Ptr, std::memory_order_relaxed);
    TailIdx.store(Tail + 1, std::memory_order_release);
    return true;
  }

  void *tryPop() {
    const size_t Head = HeadIdx.load(std::memory_order_relaxed);
    if (Head == TailIdx.load(std::memory_order_acquire))
      return nullptr;
    void *Ptr = Slots[Head % kSlots].load(std::memory_order_relaxed);
    HeadIdx.store(Head + 1, std::memory_order_release);
    return Ptr;
  }

private:
  std::atomic<void *> Slots[kSlots] = {};
  alignas(64) std::atomic<size_t> HeadIdx{0};
  alignas(64) std::atomic<size_t> TailIdx{0};
};

/// Pass --threads=N[,N...] to sweep the local and multiclass mixes over
/// allocator-thread counts; without it each mix runs at kDefaultThreads.
constexpr int kDefaultThreads = 4;
/// Upper bound on one --threads entry: a sweep value, not a stress knob.
constexpr int kMaxSweepThreads = 64;
constexpr int kLatencySampleEvery = 64;

std::vector<int> &sweepThreads() {
  static std::vector<int> Counts;
  return Counts;
}

/// Parses --threads=1,2,4 (each count in [1, kMaxSweepThreads]).
bool parseThreadsArg(const char *Arg) {
  constexpr char kFlag[] = "--threads=";
  if (std::strncmp(Arg, kFlag, sizeof(kFlag) - 1) != 0)
    return false;
  const char *P = Arg + sizeof(kFlag) - 1;
  for (;;) {
    char *End = nullptr;
    const long N = std::strtol(P, &End, 10);
    if (End == P || N < 1 || N > kMaxSweepThreads ||
        (*End != ',' && *End != '\0')) {
      fprintf(stderr, "bench_mt: --threads takes counts in [1, %d], e.g. "
                      "--threads=1,2,4\n",
              kMaxSweepThreads);
      exit(2);
    }
    sweepThreads().push_back(static_cast<int>(N));
    if (*End == '\0')
      return true;
    P = End + 1;
  }
}

/// The thread-count sweep a line belongs to: its allocator-thread
/// count and the per-thread rate of the sweep's first count, against
/// which scaling efficiency is measured (0 while the first count runs:
/// that line is its own base).
struct SweepPoint {
  int Threads;
  double BasePerThreadOps;
};

/// Prints one run and emits its JSON line. Per-thread figures divide by
/// the allocator threads (each freeing thread serves one allocator in
/// the sweep's cross-thread mix). Returns the per-thread ops/s.
double reportRun(const char *Config, Runtime &R, int AllocThreads,
                 int FreeThreads, uint64_t TotalOps, double Seconds,
                 std::vector<std::vector<uint64_t>> &MallocSamples,
                 std::vector<std::vector<uint64_t>> &FreeSamples,
                 const SweepPoint *Sweep) {
  const double OpsPerSec = static_cast<double>(TotalOps) / Seconds;
  const double PerThreadOps = OpsPerSec / AllocThreads;
  const double Efficiency =
      Sweep == nullptr || Sweep->BasePerThreadOps == 0
          ? 1.0
          : PerThreadOps / Sweep->BasePerThreadOps;
  const double PeakRssMiB = toMiB(static_cast<double>(
      pagesToBytes(R.global().stats().PeakCommittedPages.load())));
  std::vector<uint64_t> AllMallocs, AllFrees;
  for (auto &S : MallocSamples)
    AllMallocs.insert(AllMallocs.end(), S.begin(), S.end());
  for (auto &S : FreeSamples)
    AllFrees.insert(AllFrees.end(), S.begin(), S.end());
  // Shared interpolated-quantile helper (BenchUtil.h): the old local
  // `size()*99/100` nearest-rank was ~= max() on the small smoke-mode
  // sample sets, which made --smoke --json p99s pure noise.
  const double P99MallocNs = benchQuantile(AllMallocs, 0.99);
  const double P99FreeNs = benchQuantile(AllFrees, 0.99);

  // Pass attribution (who executed compaction): with MESH_BACKGROUND=1
  // every pass should land on the mesher thread and the foreground max
  // pause should be zero — exactly what the json line lets CI assert.
  const auto &Stats = R.global().stats();
  const double FgPasses = static_cast<double>(
      Stats.MeshPassesForeground.load(std::memory_order_relaxed));
  const double BgPasses = static_cast<double>(
      Stats.MeshPassesBackground.load(std::memory_order_relaxed));
  const BackgroundMesher *Bg = R.backgroundMesher();

  printf("  %-14s %10.2f Mops/s   p99 malloc %7.0f ns   p99 free %7.0f ns"
         "   peak RSS %7.1f MiB   passes fg/bg %.0f/%.0f",
         Config, OpsPerSec / 1e6, P99MallocNs, P99FreeNs, PeakRssMiB,
         FgPasses, BgPasses);
  if (Sweep != nullptr)
    printf("   %.2f Mops/s/thread, efficiency %.2f", PerThreadOps / 1e6,
           Efficiency);
  printf("\n");

  BenchJsonWriter W("bench_mt", Config);
  W.number("alloc_threads", AllocThreads);
  W.number("free_threads", FreeThreads);
  W.number("ops_per_sec", OpsPerSec);
  if (Sweep != nullptr) {
    W.number("threads", Sweep->Threads);
    W.number("per_thread_ops_per_sec", PerThreadOps);
    // Per-thread rate relative to the sweep's first count: 1.0 is
    // linear scaling.
    W.number("scaling_efficiency", Efficiency);
  }
  W.number("p99_malloc_ns", P99MallocNs);
  W.number("p99_free_ns", P99FreeNs);
  // Sample counts let consumers judge the tail estimates: a p99 over a
  // dozen smoke-mode samples is shape, not measurement.
  W.number("samples_n_malloc", static_cast<double>(AllMallocs.size()));
  W.number("samples_n_free", static_cast<double>(AllFrees.size()));
  W.number("peak_rss_mib", PeakRssMiB);
  W.number("background_enabled", Bg != nullptr && Bg->running() ? 1.0 : 0.0);
  W.number("background_wakeups",
           Bg != nullptr ? static_cast<double>(Bg->wakeups()) : 0.0);
  W.number("background_requests",
           Bg != nullptr ? static_cast<double>(Bg->requests()) : 0.0);
  W.number("background_passes", BgPasses);
  W.number("foreground_passes", FgPasses);
  W.number("max_pause_foreground_ns",
           static_cast<double>(
               Stats.MaxForegroundPassNs.load(std::memory_order_relaxed)));
  W.number("max_pause_background_ns",
           static_cast<double>(
               Stats.MaxBackgroundPassNs.load(std::memory_order_relaxed)));
  W.emit();
  return PerThreadOps;
}

/// One benchmark configuration: \p AllocThreads threads each run
/// \p OpsPerThread allocations; \p RemotePermille of them are handed to
/// one of \p FreeThreads freeing threads (0 = local-only mix, which
/// starts no freeing threads at all). \p AllClasses draws sizes
/// uniformly from every size class instead of the 16B-512B band,
/// spreading the load across the global heap's per-class structures.
double runMix(const char *Config, uint32_t RemotePermille,
              size_t OpsPerThread, bool AllClasses, int AllocThreads,
              int FreeThreads, const SweepPoint *Sweep = nullptr) {
  Runtime R(benchMeshOptions());
  std::unique_ptr<Ring[]> Rings(new Ring[AllocThreads]);
  std::atomic<int> ProducersDone{0};
  std::atomic<uint64_t> TotalOps{0};
  std::vector<std::vector<uint64_t>> MallocSamples(AllocThreads);
  std::vector<std::vector<uint64_t>> FreeSamples(AllocThreads + FreeThreads);

  const uint64_t Start = nowNs();

  std::vector<std::thread> Threads;
  for (int T = 0; T < AllocThreads; ++T)
    Threads.emplace_back([&, T] {
      Rng Driver(9000 + T);
      auto &Mallocs = MallocSamples[T];
      auto &Frees = FreeSamples[T];
      Mallocs.reserve(OpsPerThread / kLatencySampleEvery + 1);
      Frees.reserve(OpsPerThread / kLatencySampleEvery + 1);
      uint64_t Ops = 0;
      std::vector<void *> Local;
      Local.reserve(128);
      for (size_t I = 0; I < OpsPerThread; ++I) {
        const size_t Size =
            AllClasses
                ? objectSizeForClass(
                      static_cast<int>(Driver.inRange(0, kNumSizeClasses - 1)))
                : 16 << Driver.inRange(0, 5); // 16B..512B
        void *P;
        if (I % kLatencySampleEvery == 0) {
          const uint64_t T0 = nowNs();
          P = R.malloc(Size);
          Mallocs.push_back(nowNs() - T0);
        } else {
          P = R.malloc(Size);
        }
        static_cast<char *>(P)[0] = static_cast<char>(I);
        ++Ops;
        const bool Remote = Driver.inRange(0, 999) < RemotePermille;
        if (Remote) {
          // Block until the consumer drains: the cross mix must
          // actually measure remote frees, not silently degrade to
          // local ones when the ring fills. Yield rather than spin so
          // oversubscribed machines hand the CPU to the consumer.
          while (!Rings[T].tryPush(P))
            std::this_thread::yield();
          continue; // Freed (and counted) by a freeing thread.
        }
        Local.push_back(P);
        if (Local.size() >= 64) {
          // Free in shuffled batches so the local mix still exercises
          // non-LIFO frees.
          for (void *Q : Local) {
            if (Ops % kLatencySampleEvery == 0) {
              const uint64_t T0 = nowNs();
              R.free(Q);
              Frees.push_back(nowNs() - T0);
            } else {
              R.free(Q);
            }
            ++Ops;
          }
          Local.clear();
        }
      }
      for (void *Q : Local) {
        R.free(Q);
        ++Ops;
      }
      R.localHeap().releaseAll();
      TotalOps.fetch_add(Ops);
      ProducersDone.fetch_add(1);
    });

  for (int T = 0; T < FreeThreads; ++T)
    Threads.emplace_back([&, T] {
      auto &Frees = FreeSamples[AllocThreads + T];
      uint64_t Ops = 0;
      for (;;) {
        bool Idle = true;
        for (int Src = T; Src < AllocThreads; Src += FreeThreads) {
          while (void *P = Rings[Src].tryPop()) {
            Idle = false;
            if (Ops % kLatencySampleEvery == 0) {
              const uint64_t T0 = nowNs();
              R.free(P);
              Frees.push_back(nowNs() - T0);
            } else {
              R.free(P);
            }
            ++Ops;
          }
        }
        if (Idle) {
          if (ProducersDone.load() == AllocThreads)
            break;
          std::this_thread::yield();
        }
      }
      TotalOps.fetch_add(Ops);
    });

  for (auto &Th : Threads)
    Th.join();

  const double Seconds = static_cast<double>(nowNs() - Start) / 1e9;
  return reportRun(Config, R, AllocThreads, FreeThreads, TotalOps.load(),
                   Seconds, MallocSamples, FreeSamples, Sweep);
}

/// The anti-cache mix: every batch allocates one whole span's worth of
/// objects for a class and then frees all of them, ending with a TLS
/// release — so the next batch's first allocation always misses the
/// thread cache, refills from the global heap, and the free side
/// destroys the emptied span back into the arena. Nothing here
/// measures the TLS fast path; it is all shard refill + arena span
/// recycling, the two paths the arena-bin sharding parallelized.
/// Threads work disjoint class slices so a correctly sharded arena
/// shows no cross-thread lock transfer at all.
void runRefillMiss(size_t BatchesPerThread) {
  Runtime R(benchMeshOptions());
  std::atomic<uint64_t> TotalOps{0};
  std::vector<std::vector<uint64_t>> MallocSamples(kDefaultThreads);
  std::vector<std::vector<uint64_t>> FreeSamples(kDefaultThreads);
  constexpr int kClassesPerThread = kNumSizeClasses / kDefaultThreads;

  const uint64_t Start = nowNs();
  std::vector<std::thread> Threads;
  for (int T = 0; T < kDefaultThreads; ++T)
    Threads.emplace_back([&, T] {
      Rng Driver(4200 + T);
      auto &Mallocs = MallocSamples[T];
      auto &Frees = FreeSamples[T];
      uint64_t Ops = 0;
      std::vector<void *> Batch;
      for (size_t B = 0; B < BatchesPerThread; ++B) {
        const int Class =
            T * kClassesPerThread +
            static_cast<int>(Driver.inRange(0, kClassesPerThread - 1));
        const SizeClassInfo &Info = sizeClassInfo(Class);
        Batch.clear();
        Batch.reserve(Info.ObjectCount);
        for (uint32_t I = 0; I < Info.ObjectCount; ++I) {
          void *P;
          if (Ops % kLatencySampleEvery == 0) {
            const uint64_t T0 = nowNs();
            P = R.malloc(Info.ObjectSize);
            Mallocs.push_back(nowNs() - T0);
          } else {
            P = R.malloc(Info.ObjectSize);
          }
          static_cast<char *>(P)[0] = static_cast<char>(I);
          ++Ops;
          Batch.push_back(P);
        }
        for (void *P : Batch) {
          if (Ops % kLatencySampleEvery == 0) {
            const uint64_t T0 = nowNs();
            R.free(P);
            Frees.push_back(nowNs() - T0);
          } else {
            R.free(P);
          }
          ++Ops;
        }
        // Hand the (now empty) spans back to the global heap so the
        // next batch is a guaranteed refill miss.
        R.localHeap().releaseAll();
      }
      TotalOps.fetch_add(Ops);
    });
  for (auto &Th : Threads)
    Th.join();

  const double Seconds = static_cast<double>(nowNs() - Start) / 1e9;
  reportRun("refillmiss", R, kDefaultThreads, 0, TotalOps.load(), Seconds,
            MallocSamples, FreeSamples, nullptr);
}

/// Runs one mix at every --threads count. Each count gets its own
/// config ("local-t2"), so the lines stay distinct for bench_compare.
void runSweep(const char *Mix, uint32_t RemotePermille, size_t OpsPerThread,
              bool AllClasses) {
  SweepPoint Point{0, 0.0};
  for (int N : sweepThreads()) {
    char Config[32];
    snprintf(Config, sizeof(Config), "%s-t%d", Mix, N);
    Point.Threads = N;
    const double PerThread =
        runMix(Config, RemotePermille, OpsPerThread, AllClasses, N,
               RemotePermille == 0 ? 0 : N, &Point);
    if (Point.BasePerThreadOps == 0)
      Point.BasePerThreadOps = PerThread;
  }
}

} // namespace

int main(int argc, char **argv) {
  benchInit(argc, argv, parseThreadsArg);
  printHeader("MT hot paths",
              "lock-free malloc/free under cross-thread pressure");
  printf("%d allocator threads unless swept (cross and multiclass: plus as "
         "many freeing threads), sizes 16B-512B\n\n",
         kDefaultThreads);
  const size_t Ops = benchScaled(2000000, 64);
  // Multi-class spread keeps span sizes large (up to 16 KiB objects at
  // 8 per span), so this mix is refill-dominated; it runs a quarter of
  // the ops to keep the default run time comparable to the other mixes.
  if (sweepThreads().empty())
    runMix("local", /*RemotePermille=*/0, Ops, false, kDefaultThreads, 0);
  else
    runSweep("local", /*RemotePermille=*/0, Ops, false);
  runMix("cross", /*RemotePermille=*/900, Ops, false, kDefaultThreads,
         kDefaultThreads);
  if (sweepThreads().empty())
    runMix("multiclass", /*RemotePermille=*/900, Ops / 4,
           /*AllClasses=*/true, kDefaultThreads, kDefaultThreads);
  else
    runSweep("multiclass", /*RemotePermille=*/900, Ops / 4,
             /*AllClasses=*/true);
  // Batches, not ops: each batch is a span's worth of objects (8..256)
  // plus a forced refill; ~100 ops per batch on average keeps this in
  // the same time band as the mixes above.
  runRefillMiss(benchScaled(20000, 16));
  return 0;
}
