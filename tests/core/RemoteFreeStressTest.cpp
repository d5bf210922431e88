//===- RemoteFreeStressTest.cpp - Cross-thread free vs. meshing stress ------===//
///
/// Integration stress for the epoch-protected remote-free path:
/// allocator threads hand every pointer to freeing threads over rings
/// while a meshing thread runs continuous passes. This is the exact
/// lookup/mesh/destroy interleaving DESIGN.md describes — a remote
/// free resolves a MiniHeap through the page table while a concurrent
/// pass consolidates or destroys it — and must survive ASan and TSan
/// with no lost frees, no metadata use-after-free, and no data races.
///
/// Two size regimes share one scaffolding: a small-band mix (the PR 2
/// lock-free hot-path pin) and a striped multi-class mix where every
/// producer works a disjoint stripe of the 24 size classes, so
/// concurrent remote frees land on *different* per-class shards of the
/// global heap (the shard/pending-stash split pin).
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "core/SizeClass.h"

#include "TestConfig.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

namespace mesh {
namespace {

/// Minimal SPSC pointer ring (one producer, one consumer).
class Ring {
public:
  static constexpr size_t kSlots = 1024;

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

/// Shared scaffolding for the ring-handoff stress tests: producers
/// allocate, stamp, detach spans periodically (so meshing has detached
/// candidates), and hand every pointer across threads; consumers
/// validate the producer-indexed stamp and free remotely; a mesher
/// thread runs continuous passes against both. \p SizeFor picks each
/// allocation's size from (driver RNG, producer index). Asserts that
/// every object is freed exactly once and that the heap drains back to
/// (nearly) nothing committed.
template <typename SizeFn>
void runRingHandoffStress(size_t ItemsPerProducer, SizeFn SizeFor) {
  MeshOptions Opts = testOptions();
  Opts.MeshPeriodMs = 0; // Mesh whenever asked, and on free triggers.
  Runtime R(Opts);

  constexpr int kProducers = 4;

  Ring Rings[kProducers];
  std::atomic<int> ProducersDone{0};
  std::atomic<uint64_t> Freed{0};

  std::vector<std::thread> Producers;
  for (int T = 0; T < kProducers; ++T)
    Producers.emplace_back([&, T] {
      Rng Driver(7000 + T);
      for (size_t I = 0; I < ItemsPerProducer; ++I) {
        const size_t Size = SizeFor(Driver, T);
        auto *P = static_cast<unsigned char *>(R.malloc(Size));
        ASSERT_NE(P, nullptr);
        P[0] = static_cast<unsigned char>(0xA0 + T);
        P[Size - 1] = 0x5C;
        while (!Rings[T].tryPush(P))
          std::this_thread::yield();
        if (I % 1024 == 0)
          R.localHeap().releaseAll();
      }
      R.localHeap().releaseAll();
      ProducersDone.fetch_add(1);
    });

  std::vector<std::thread> Consumers;
  for (int T = 0; T < 2; ++T)
    Consumers.emplace_back([&, T] {
      // Exit protocol: a producer's final push can land between our
      // scan of its ring and the done check, and each ring has only
      // one consumer — so after first observing every producer done,
      // run one more full sweep and only stop once it comes up empty.
      bool DoneSeen = false;
      for (;;) {
        bool Idle = true;
        for (int Src = T; Src < kProducers; Src += 2) {
          while (void *P = Rings[Src].tryPop()) {
            Idle = false;
            ASSERT_EQ(static_cast<unsigned char *>(P)[0],
                      static_cast<unsigned char>(0xA0 + Src))
                << "object corrupted in cross-thread handoff";
            R.free(P);
            Freed.fetch_add(1);
          }
        }
        if (!Idle)
          continue;
        if (DoneSeen)
          break;
        if (ProducersDone.load() == kProducers)
          DoneSeen = true;
        else
          std::this_thread::yield();
      }
    });

  // Mesher: continuous passes racing the remote frees.
  std::atomic<bool> StopMesher{false};
  std::thread Mesher([&] {
    while (!StopMesher.load())
      R.meshNow();
  });

  for (auto &Th : Producers)
    Th.join();
  for (auto &Th : Consumers)
    Th.join();
  StopMesher.store(true);
  Mesher.join();

  EXPECT_EQ(Freed.load(),
            static_cast<uint64_t>(kProducers) * ItemsPerProducer);

  // Every object went through the remote path and every span was
  // detached: after a final drain (any allocation drains its shard;
  // empty transitions drained inline) and a pass, the heap should be
  // back to (nearly) nothing committed.
  R.free(R.malloc(16));
  R.localHeap().releaseAll();
  R.meshNow();
  const size_t Committed = R.committedBytes();
  EXPECT_LT(Committed, size_t{4} * 1024 * 1024)
      << "remote frees leaked spans";
}

TEST(RemoteFreeStressTest, RingHandoffWhileMeshing) {
  // Small-band sizes (16B-256B): dense spans, maximal meshing churn.
  runRingHandoffStress(stressScaled(40000), [](Rng &Driver, int) {
    return size_t{16} << Driver.inRange(0, 4);
  });
}

TEST(RemoteFreeStressTest, MultiClassShardedRemoteFrees) {
  // Producer T draws only size classes congruent to T mod 4: the
  // stripes are disjoint, so concurrent remote frees always target
  // different shards' stashes and bins, while the mesher walks every
  // shard in order. Guards the shard/pending-stash split: a free
  // pushed onto the wrong shard's stash, or a drain re-binning into
  // another class's bins, corrupts the heap or trips the stamp check.
  runRingHandoffStress(stressScaled(30000), [](Rng &Driver, int T) {
    const int Class = T + 4 * static_cast<int>(
                              Driver.inRange(0, kNumSizeClasses / 4 - 1));
    return size_t{objectSizeForClass(Class)};
  });
}

TEST(RemoteFreeStressTest, RemoteFreesIntoOwnersSpare) {
  // Owners churn a working set of exactly two spans of one class, so
  // each keeps an attached span and a spare and never releases either.
  // Half of every batch is freed remotely by a consumer — into the
  // spare or the attached span, racing the owner's local frees into the
  // spare and its swaps (attach claims bits while remote frees clear
  // them) — while a mesher runs passes that must skip both held spans.
  // Stamps catch any slot handed out twice.
  Runtime R(testOptions()); // Passes come only from the mesher below.

  constexpr int kOwners = 2;
  constexpr size_t kSize = 256;
  int Class = -1;
  ASSERT_TRUE(sizeClassForSize(kSize, &Class));
  const uint32_t Batch = 2 * sizeClassInfo(Class).ObjectCount;
  const size_t Rounds = stressScaled(4000);

  Ring Rings[kOwners];
  std::atomic<int> OwnersDone{0};
  std::atomic<uint64_t> RemoteFreed{0};

  std::vector<std::thread> Threads;
  for (int T = 0; T < kOwners; ++T)
    Threads.emplace_back([&, T] {
      std::vector<uint64_t *> Objs(Batch);
      uint64_t Serial = 0;
      for (size_t Round = 0; Round < Rounds; ++Round) {
        for (uint64_t *&P : Objs) {
          P = static_cast<uint64_t *>(R.malloc(kSize));
          ASSERT_NE(P, nullptr);
          P[0] = (uint64_t{0xA0u + T} << 56) | ++Serial;
          P[kSize / sizeof(uint64_t) - 1] = ~P[0];
        }
        for (uint32_t I = 0; I < Batch; ++I) {
          uint64_t *P = Objs[I];
          ASSERT_EQ(P[kSize / sizeof(uint64_t) - 1], ~P[0])
              << "slot handed out twice";
          if (I % 2 == 0) {
            R.free(P);
            continue;
          }
          while (!Rings[T].tryPush(P))
            std::this_thread::yield();
        }
      }
      OwnersDone.fetch_add(1);
    });
  for (int T = 0; T < kOwners; ++T)
    Threads.emplace_back([&, T] {
      bool DoneSeen = false;
      for (;;) {
        bool Idle = true;
        while (void *Ptr = Rings[T].tryPop()) {
          Idle = false;
          auto *P = static_cast<uint64_t *>(Ptr);
          ASSERT_EQ(P[0] >> 56, uint64_t{0xA0u + T});
          ASSERT_EQ(P[kSize / sizeof(uint64_t) - 1], ~P[0])
              << "object corrupted before its remote free";
          R.free(P);
          RemoteFreed.fetch_add(1);
        }
        if (!Idle)
          continue;
        if (DoneSeen)
          break;
        if (OwnersDone.load() == kOwners)
          DoneSeen = true;
        else
          std::this_thread::yield();
      }
    });
  // One paced mesher instead of back-to-back passes (and none on the
  // owners' refills): with both of each owner's spans held, most passes
  // find little to do, and a tight loop of them evicts a remap's stack
  // from TSan's history before a consumer reads through the remapped
  // alias — the tsan.supp entry for that benign report then no longer
  // matches it.
  std::atomic<bool> StopMesher{false};
  std::thread Mesher([&] {
    while (!StopMesher.load()) {
      R.meshNow();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (auto &Th : Threads)
    Th.join();
  StopMesher.store(true);
  Mesher.join();

  EXPECT_EQ(RemoteFreed.load(),
            uint64_t{kOwners} * Rounds * (Batch / 2));
  // The owners exited, handing back both spans each; everything was
  // freed, so nothing may stay committed after a drain.
  R.free(R.malloc(kSize));
  R.localHeap().releaseAll();
  EXPECT_EQ(R.committedBytes(), 0u);
}

TEST(RemoteFreeStressTest, ConcurrentRemoteFreesSameSpan) {
  // Many threads free objects from the *same* spans concurrently:
  // maximal contention on single bitmaps and the pending stash.
  Runtime R(testOptions());
  constexpr int kRounds = 200;
  constexpr int kThreads = 8;

  for (int Round = 0; Round < kRounds; ++Round) {
    std::vector<void *> Ptrs;
    for (int I = 0; I < 512; ++I)
      Ptrs.push_back(R.malloc(32));
    R.localHeap().releaseAll(); // Everything detached: all frees global.

    std::atomic<size_t> NextIdx{0};
    std::vector<std::thread> Threads;
    for (int T = 0; T < kThreads; ++T)
      Threads.emplace_back([&] {
        for (;;) {
          const size_t I = NextIdx.fetch_add(1);
          if (I >= Ptrs.size())
            return;
          R.free(Ptrs[I]);
        }
      });
    for (auto &Th : Threads)
      Th.join();
  }
  // All spans emptied remotely; nothing may survive the final drain.
  R.free(R.malloc(16)); // Drains the pending stash via alloc.
  R.localHeap().releaseAll();
  EXPECT_LT(R.committedBytes(), size_t{4} * 1024 * 1024);
}

} // namespace
} // namespace mesh
