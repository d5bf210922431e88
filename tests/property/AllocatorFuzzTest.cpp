//===- AllocatorFuzzTest.cpp - Randomized differential fuzzing -------------===//
///
/// Drives random malloc/free/realloc sequences against a shadow model
/// (size -> fill pattern) across several heap configurations, with
/// periodic forced meshing. Any divergence means heap corruption.
///
/// Two layers: a single-threaded parameterized sweep over the heap's
/// configuration axes, and a multi-threaded differential fuzz that
/// drives malloc/calloc/realloc/free across *all 24 size classes* from
/// N threads at once — every per-class shard of the global heap sees
/// concurrent refills, remote frees, and mesh passes. Runs in the ASan
/// and TSan CI jobs; the shadow model (exact size + fill pattern per
/// live object) turns any cross-shard bookkeeping bug into a visible
/// divergence.
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "core/SizeClass.h"

#include "../core/TestConfig.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

namespace mesh {
namespace {

struct Shadow {
  char *Ptr;
  size_t Size;
  unsigned char Pattern;
};

void fill(Shadow &S) { memset(S.Ptr, S.Pattern, S.Size); }

void check(const Shadow &S) {
  for (size_t I = 0; I < S.Size; ++I)
    ASSERT_EQ(static_cast<unsigned char>(S.Ptr[I]), S.Pattern)
        << "byte " << I << " of " << S.Size << "-byte object corrupted";
}

struct FuzzConfig {
  const char *Name;
  bool Meshing;
  bool Randomized;
};

// Without a printer gtest lists the raw struct bytes (a pointer that
// moves under ASLR plus uninitialised padding), so the test names
// ctest discovers would differ on every discovery.
void PrintTo(const FuzzConfig &Cfg, std::ostream *OS) { *OS << Cfg.Name; }

class AllocatorFuzz : public ::testing::TestWithParam<FuzzConfig> {};

TEST_P(AllocatorFuzz, DifferentialAgainstShadowModel) {
  const FuzzConfig &Cfg = GetParam();
  MeshOptions Opts = testOptions(0xF00D + Cfg.Meshing * 2 + Cfg.Randomized);
  Opts.MeshingEnabled = Cfg.Meshing;
  Opts.Randomized = Cfg.Randomized;
  Runtime R(Opts);
  Rng Driver(20240611);

  std::vector<Shadow> Live;
  unsigned char NextPattern = 1;
  for (int Step = 0; Step < 60000; ++Step) {
    const uint32_t Op = Driver.inRange(0, 99);
    if (Live.empty() || Op < 45) {
      // malloc: sizes biased small, occasionally large.
      size_t Size;
      const uint32_t Kind = Driver.inRange(0, 9);
      if (Kind < 7)
        Size = 1 + Driver.inRange(0, 1023);
      else if (Kind < 9)
        Size = 1024 + Driver.inRange(0, 15360);
      else
        Size = 16385 + Driver.inRange(0, 100000);
      auto *P = static_cast<char *>(R.malloc(Size));
      ASSERT_NE(P, nullptr);
      Shadow S{P, Size, NextPattern};
      NextPattern = NextPattern == 255 ? 1 : NextPattern + 1;
      fill(S);
      Live.push_back(S);
    } else if (Op < 80) {
      // free a random object (after verifying it).
      const size_t Idx = Driver.inRange(0, Live.size() - 1);
      check(Live[Idx]);
      R.free(Live[Idx].Ptr);
      Live[Idx] = Live.back();
      Live.pop_back();
    } else if (Op < 90) {
      // realloc a random object.
      const size_t Idx = Driver.inRange(0, Live.size() - 1);
      check(Live[Idx]);
      const size_t NewSize = 1 + Driver.inRange(0, 4095);
      auto *P = static_cast<char *>(R.realloc(Live[Idx].Ptr, NewSize));
      ASSERT_NE(P, nullptr);
      const size_t Preserved =
          NewSize < Live[Idx].Size ? NewSize : Live[Idx].Size;
      for (size_t I = 0; I < Preserved; ++I)
        ASSERT_EQ(static_cast<unsigned char>(P[I]), Live[Idx].Pattern);
      Live[Idx].Ptr = P;
      Live[Idx].Size = NewSize;
      fill(Live[Idx]);
    } else if (Op < 98) {
      // verify a random survivor.
      check(Live[Driver.inRange(0, Live.size() - 1)]);
    } else {
      // rotate spans to the global heap and force a mesh pass.
      R.localHeap().releaseAll();
      R.meshNow();
    }
  }
  for (auto &S : Live) {
    check(S);
    R.free(S.Ptr);
  }
  R.localHeap().releaseAll();
  EXPECT_EQ(R.committedBytes(), 0u)
      << "all memory must return when every object is freed";
}

INSTANTIATE_TEST_SUITE_P(
    Configs, AllocatorFuzz,
    ::testing::Values(FuzzConfig{"full", true, true},
                      FuzzConfig{"nomesh", false, true},
                      FuzzConfig{"norand", true, false},
                      FuzzConfig{"neither", false, false}),
    [](const ::testing::TestParamInfo<FuzzConfig> &Info) {
      return Info.param.Name;
    });

/// Cross-thread handoff pool: objects (with their shadow state) posted
/// by one thread and later verified + freed by another, so remote
/// frees land on every shard from every thread. A plain mutex is fine
/// here — the pool is test scaffolding, not the system under test.
class HandoffPool {
public:
  void post(const Shadow &S) {
    std::lock_guard<std::mutex> Guard(Mu);
    Pool.push_back(S);
  }

  bool take(Rng &Driver, Shadow *Out) {
    std::lock_guard<std::mutex> Guard(Mu);
    if (Pool.empty())
      return false;
    const size_t Idx = Driver.inRange(0, Pool.size() - 1);
    *Out = Pool[Idx];
    Pool[Idx] = Pool.back();
    Pool.pop_back();
    return true;
  }

  std::vector<Shadow> drain() {
    std::lock_guard<std::mutex> Guard(Mu);
    std::vector<Shadow> Rest;
    Rest.swap(Pool);
    return Rest;
  }

private:
  std::mutex Mu;
  std::vector<Shadow> Pool;
};

/// The multi-threaded differential fuzz: every thread works all 24
/// size classes (exact class sizes, so each shard's bins, stash, and
/// refill path are exercised by name) plus occasional large objects,
/// through malloc, calloc (zero-check before filling), realloc, local
/// frees, and remote frees of objects another thread allocated. One
/// thread doubles as the mesher, forcing passes while the others run.
TEST(AllocatorFuzzMT, AllClassesAcrossThreads) {
  MeshOptions Opts = testOptions(0x5A4D);
  Runtime R(Opts);

  constexpr int kThreads = 4;
  // Acceptance floor is 10k ops/thread; the CI stress soak doubles it.
  const size_t OpsPerThread = stressScaled(12000);

  HandoffPool Pool;
  std::atomic<uint64_t> RemoteVerified{0};
  // Object *contents* vs. forced mesh passes: during a pass the
  // consolidation memcpy races application reads/writes by design —
  // the mprotect write barrier serializes them physically, which TSan
  // cannot see (tsan.supp covers the copy only when its stack
  // restores, and this test's deep histories often lose it). So
  // content access (fill/check/realloc/calloc, which read or write
  // object bytes) takes this lock shared and the forced pass takes it
  // exclusive. Allocator *metadata* — refills, drains, remote frees,
  // shard locks, bitmap claims — stays completely unserialized: that
  // concurrency is what this test exists to break.
  std::shared_mutex ContentMu;

  std::vector<std::thread> Threads;
  for (int T = 0; T < kThreads; ++T)
    Threads.emplace_back([&, T] {
      Rng Driver(0xFA220000 + T);
      std::vector<Shadow> Live;
      unsigned char NextPattern = static_cast<unsigned char>(1 + T * 60);
      auto BumpPattern = [&] {
        NextPattern = NextPattern >= 250 ? static_cast<unsigned char>(1)
                                         : static_cast<unsigned char>(
                                               NextPattern + 1);
      };
      for (size_t Step = 0; Step < OpsPerThread; ++Step) {
        const uint32_t Op = Driver.inRange(0, 99);
        if (Live.empty() || Op < 40) {
          // Allocate: usually an exact size-class size (uniform over
          // all 24 classes), sometimes an odd intra-class size, rarely
          // large. Every shard's refill path gets continuous traffic.
          size_t Size;
          const uint32_t Kind = Driver.inRange(0, 19);
          if (Kind < 16) {
            const int Class =
                static_cast<int>(Driver.inRange(0, kNumSizeClasses - 1));
            Size = objectSizeForClass(Class);
            if (Kind >= 12 && Size > 1) // interior size, same class
              Size -= Driver.inRange(1, static_cast<uint32_t>(
                                            Size > 16 ? 15 : Size - 1));
          } else if (Kind < 19) {
            Size = 1 + Driver.inRange(0, 16383);
          } else {
            Size = 16385 + Driver.inRange(0, 65536);
          }
          std::shared_lock<std::shared_mutex> Content(ContentMu);
          char *P;
          if (Driver.inRange(0, 3) == 0) {
            // calloc lane: returned memory must read back zero before
            // the shadow pattern goes in (pins the zero-skip path for
            // recycled vs pristine spans).
            P = static_cast<char *>(R.calloc(1, Size));
            ASSERT_NE(P, nullptr);
            for (size_t I = 0; I < Size; ++I)
              ASSERT_EQ(P[I], 0) << "calloc returned dirty memory at "
                                 << I << " of " << Size;
          } else {
            P = static_cast<char *>(R.malloc(Size));
            ASSERT_NE(P, nullptr);
          }
          ASSERT_GE(R.usableSize(P), Size);
          Shadow S{P, Size, NextPattern};
          BumpPattern();
          fill(S);
          Live.push_back(S);
        } else if (Op < 65) {
          // Free one of our own (verify first).
          const size_t Idx = Driver.inRange(0, Live.size() - 1);
          {
            std::shared_lock<std::shared_mutex> Content(ContentMu);
            check(Live[Idx]);
          }
          R.free(Live[Idx].Ptr);
          Live[Idx] = Live.back();
          Live.pop_back();
        } else if (Op < 75) {
          // Hand one of ours to the pool for another thread to free.
          const size_t Idx = Driver.inRange(0, Live.size() - 1);
          Pool.post(Live[Idx]);
          Live[Idx] = Live.back();
          Live.pop_back();
        } else if (Op < 85) {
          // Verify + remote-free an object some other thread made.
          Shadow S;
          if (Pool.take(Driver, &S)) {
            {
              std::shared_lock<std::shared_mutex> Content(ContentMu);
              check(S);
            }
            R.free(S.Ptr);
            RemoteVerified.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (Op < 93) {
          // realloc one of ours across class boundaries (the shared
          // lock also covers realloc's internal object copy).
          const size_t Idx = Driver.inRange(0, Live.size() - 1);
          std::shared_lock<std::shared_mutex> Content(ContentMu);
          check(Live[Idx]);
          const size_t NewSize =
              1 + Driver.inRange(0, 2 * kMaxSizeClassedObject);
          auto *P =
              static_cast<char *>(R.realloc(Live[Idx].Ptr, NewSize));
          ASSERT_NE(P, nullptr);
          const size_t Preserved =
              NewSize < Live[Idx].Size ? NewSize : Live[Idx].Size;
          for (size_t I = 0; I < Preserved; ++I)
            ASSERT_EQ(static_cast<unsigned char>(P[I]), Live[Idx].Pattern);
          Live[Idx].Ptr = P;
          Live[Idx].Size = NewSize;
          fill(Live[Idx]);
        } else if (Op < 98) {
          std::shared_lock<std::shared_mutex> Content(ContentMu);
          check(Live[Driver.inRange(0, Live.size() - 1)]);
        } else {
          // Rotate spans to the global heap; thread 0 also forces a
          // mesh pass so consolidation races the other threads'
          // metadata work (and, under the exclusive content lock,
          // relocates their live objects out from under later checks).
          R.localHeap().releaseAll();
          if (T == 0) {
            std::unique_lock<std::shared_mutex> Content(ContentMu);
            R.meshNow();
          }
        }
      }
      for (auto &S : Live) {
        {
          std::shared_lock<std::shared_mutex> Content(ContentMu);
          check(S);
        }
        R.free(S.Ptr);
      }
      R.localHeap().releaseAll();
    });
  for (auto &Th : Threads)
    Th.join();

  // Whatever is still parked in the pool is live and must be intact.
  for (auto &S : Pool.drain()) {
    check(S);
    R.free(S.Ptr);
  }
  EXPECT_GT(RemoteVerified.load(), 0u)
      << "the cross-thread lane never exercised a remote free";

  // Everything was freed; the forced pass visits and drains every
  // shard (empty transitions already drained inline), after which the
  // heap must be back to (nearly) nothing committed.
  R.free(R.malloc(16));
  R.localHeap().releaseAll();
  R.meshNow();
  EXPECT_LT(R.committedBytes(), size_t{4} * 1024 * 1024)
      << "multi-threaded fuzz leaked spans";
}

} // namespace
} // namespace mesh
