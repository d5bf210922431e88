//===- ThreadLocalHeapTest.cpp - Thread-local heap tests -------------------===//

#include "core/ThreadLocalHeap.h"

#include "TestConfig.h"
#include "core/Runtime.h"
#include "support/Epoch.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

namespace mesh {
namespace {

TEST(ThreadLocalHeapTest, SmallAllocationBasics) {
  GlobalHeap G(testOptions());
  {
    ThreadLocalHeap H(&G, 42);
    void *P = H.malloc(100);
    ASSERT_NE(P, nullptr);
    memset(P, 0xEE, 100);
    EXPECT_EQ(G.usableSize(P), 112u) << "100 bytes lands in the 112 class";
    H.free(P);
  }
  EXPECT_EQ(G.committedBytes(), 0u) << "heap drains fully on destruction";
}

TEST(ThreadLocalHeapTest, DistinctPointersUnderChurn) {
  GlobalHeap G(testOptions());
  ThreadLocalHeap H(&G, 42);
  std::set<void *> Live;
  std::vector<void *> Order;
  for (int I = 0; I < 5000; ++I) {
    void *P = H.malloc(48);
    ASSERT_TRUE(Live.insert(P).second);
    Order.push_back(P);
    if (I % 3 == 0) {
      H.free(Order.back());
      Live.erase(Order.back());
      Order.pop_back();
    }
  }
  for (void *P : Order)
    H.free(P);
  H.releaseAll();
  EXPECT_EQ(G.committedBytes(), 0u);
}

TEST(ThreadLocalHeapTest, ExhaustedVectorRefillsFromFreshSpan) {
  GlobalHeap G(testOptions());
  ThreadLocalHeap H(&G, 42);
  // The 16-byte class holds 256 objects per span: allocating 600 spans
  // three spans.
  std::vector<void *> Ptrs;
  for (int I = 0; I < 600; ++I)
    Ptrs.push_back(H.malloc(16));
  std::set<void *> Unique(Ptrs.begin(), Ptrs.end());
  EXPECT_EQ(Unique.size(), 600u);
  for (void *P : Ptrs)
    H.free(P);
  H.releaseAll();
  EXPECT_EQ(G.committedBytes(), 0u);
}

TEST(ThreadLocalHeapTest, LargeRequestsForwardToGlobal) {
  GlobalHeap G(testOptions());
  ThreadLocalHeap H(&G, 42);
  void *P = H.malloc(1 << 20);
  ASSERT_NE(P, nullptr);
  memset(P, 1, 1 << 20);
  EXPECT_EQ(G.usableSize(P), size_t{1} << 20);
  H.free(P);
  EXPECT_EQ(G.committedBytes(), 0u);
}

TEST(ThreadLocalHeapTest, AttachedOwnerTagTracksAttachment) {
  // The O(1) free dispatch recognizes "my span" via the MiniHeap's
  // attachedOwner tag; it must be set while attached and cleared once
  // the span returns to the global heap.
  GlobalHeap G(testOptions());
  ThreadLocalHeap Alice(&G, 1);
  ThreadLocalHeap Bob(&G, 2);
  void *P = Alice.malloc(64);
  {
    Epoch::Section Guard(G.miniheapEpoch());
    MiniHeap *MH = G.miniheapFor(P);
    ASSERT_NE(MH, nullptr);
    EXPECT_EQ(MH->attachedOwner(), &Alice);
    EXPECT_NE(MH->attachedOwner(), &Bob);
  }
  Alice.free(P);
  Alice.releaseAll();
  EXPECT_EQ(G.committedBytes(), 0u);
}

TEST(ThreadLocalHeapTest, FreeDispatchAcrossManyClasses) {
  // Interleaved frees across every size class land in the right
  // shuffle vector through the page-table dispatch (no per-class scan
  // to fall back on anymore).
  GlobalHeap G(testOptions());
  ThreadLocalHeap H(&G, 42);
  std::vector<std::pair<void *, size_t>> Ptrs;
  for (int Round = 0; Round < 64; ++Round)
    for (size_t Size = 16; Size <= 16384; Size *= 2) {
      void *P = H.malloc(Size);
      memset(P, 0x3C, Size);
      Ptrs.push_back({P, Size});
    }
  // Free in a different order than allocation (by class, descending).
  for (auto It = Ptrs.rbegin(); It != Ptrs.rend(); ++It)
    H.free(It->first);
  H.releaseAll();
  EXPECT_EQ(G.committedBytes(), 0u);
}

TEST(ThreadLocalHeapTest, NonLocalFreeFallsThroughToGlobal) {
  GlobalHeap G(testOptions());
  ThreadLocalHeap Alice(&G, 1);
  ThreadLocalHeap Bob(&G, 2);
  void *P = Alice.malloc(64);
  // Bob frees Alice's pointer: remote free via the global heap, which
  // clears the bitmap bit but leaves Alice's shuffle vector alone.
  Bob.free(P);
  {
    Epoch::Section Guard(G.miniheapEpoch());
    MiniHeap *MH = G.miniheapFor(P);
    ASSERT_NE(MH, nullptr);
    EXPECT_TRUE(MH->isAttached()) << "span remains attached to Alice";
  }
  Alice.releaseAll();
  Bob.releaseAll();
  EXPECT_EQ(G.committedBytes(), 0u);
}

TEST(ThreadLocalHeapTest, RemoteFreedSlotIsReusedOnReattach) {
  GlobalHeap G(testOptions());
  ThreadLocalHeap Alice(&G, 1);
  ThreadLocalHeap Bob(&G, 2);
  // Fill one full span.
  std::vector<void *> Ptrs;
  for (int I = 0; I < 256; ++I)
    Ptrs.push_back(Alice.malloc(16));
  // Bob remote-frees half of them.
  for (int I = 0; I < 256; I += 2)
    Bob.free(Ptrs[I]);
  // Alice keeps allocating: after her current vector refills, the
  // remote-freed slots come back.
  std::set<void *> Freed(Ptrs.begin(), Ptrs.end());
  int Recycled = 0;
  for (int I = 0; I < 512; ++I) {
    void *P = Alice.malloc(16);
    if (Freed.count(P))
      ++Recycled;
  }
  EXPECT_GT(Recycled, 0) << "remote-freed slots must be recycled";
}

TEST(ThreadLocalHeapTest, EverySizeClassRoundTrips) {
  GlobalHeap G(testOptions());
  ThreadLocalHeap H(&G, 42);
  for (int C = 0; C < kNumSizeClasses; ++C) {
    const size_t Size = sizeClassInfo(C).ObjectSize;
    void *P = H.malloc(Size);
    ASSERT_NE(P, nullptr) << "class " << C;
    memset(P, 0x3C, Size);
    EXPECT_EQ(G.usableSize(P), Size);
    H.free(P);
  }
  H.releaseAll();
  EXPECT_EQ(G.committedBytes(), 0u);
}

TEST(ThreadLocalHeapTest, WritesLandInDistinctMemory) {
  GlobalHeap G(testOptions());
  ThreadLocalHeap H(&G, 42);
  constexpr int N = 500;
  std::vector<uint64_t *> Ptrs;
  for (int I = 0; I < N; ++I) {
    auto *P = static_cast<uint64_t *>(H.malloc(sizeof(uint64_t)));
    *P = I;
    Ptrs.push_back(P);
  }
  for (int I = 0; I < N; ++I)
    ASSERT_EQ(*Ptrs[I], static_cast<uint64_t>(I));
  for (auto *P : Ptrs)
    H.free(P);
}

//===----------------------------------------------------------------------===//
// The spare span: the span a vector last ran dry on stays with the
// thread (attached, owner-tagged) and is swapped back in at the next
// refill when it has free slots.
//===----------------------------------------------------------------------===//

/// The 512-byte class: 8 objects in one page, so a few allocations
/// cross spans.
constexpr size_t kSpareObjSize = 512;

int spareClass() {
  int Class = -1;
  EXPECT_TRUE(sizeClassForSize(kSpareObjSize, &Class));
  return Class;
}

uint32_t objectsPerSpan() { return sizeClassInfo(spareClass()).ObjectCount; }

size_t bytesPerSpan() {
  return pagesToBytes(sizeClassInfo(spareClass()).SpanPages);
}

/// The MiniHeap owning \p Ptr (read under the epoch; the caller holds
/// the span, so the pointer stays valid afterwards).
MiniHeap *ownerOf(GlobalHeap &G, void *Ptr) {
  Epoch::Section Guard(G.miniheapEpoch());
  return G.miniheapFor(Ptr);
}

/// Allocates one span's worth plus one object: the first span runs dry
/// and becomes the spare, the extra object comes from a second span.
/// Returns the first span's objects in allocation order.
std::vector<void *> fillSpareAndAttach(ThreadLocalHeap &H, void **Extra) {
  std::vector<void *> First;
  for (uint32_t I = 0; I < objectsPerSpan(); ++I)
    First.push_back(H.malloc(kSpareObjSize));
  *Extra = H.malloc(kSpareObjSize);
  return First;
}

uint64_t histTotal(telemetry::HistId Hist) {
  uint64_t Buckets[telemetry::kHistBuckets];
  telemetry::readHistogram(Hist, Buckets);
  uint64_t Total = 0;
  for (uint64_t B : Buckets)
    Total += B;
  return Total;
}

TEST(ThreadLocalHeapSpareTest, SteadyChurnOverTwoSpansStaysLocal) {
  // A working set of exactly two spans churns with no span carved, no
  // span destroyed and no epoch synchronize: committed bytes stay at
  // two spans even right after every object is freed.
  GlobalHeap G(testOptions());
  ThreadLocalHeap H(&G, 42);
  std::vector<char *> Ptrs(2 * objectsPerSpan());
  const auto Round = [&] {
    for (char *&P : Ptrs) {
      P = static_cast<char *>(H.malloc(kSpareObjSize));
      ASSERT_NE(P, nullptr);
      memset(P, 0x6B, kSpareObjSize);
    }
    std::set<char *> Unique(Ptrs.begin(), Ptrs.end());
    ASSERT_EQ(Unique.size(), Ptrs.size());
    for (char *P : Ptrs)
      H.free(P);
  };
  Round(); // Warm-up: carves the two spans.
  ASSERT_EQ(G.committedBytes(), 2 * bytesPerSpan());

  telemetry::reset();
  telemetry::enable();
  for (int I = 0; I < 200; ++I) {
    Round();
    ASSERT_EQ(G.committedBytes(), 2 * bytesPerSpan()) << "round " << I;
  }
  telemetry::disable();
  EXPECT_EQ(histTotal(telemetry::kHistSpanAcquire), 0u)
      << "steady churn carved a new span";
  EXPECT_EQ(histTotal(telemetry::kHistEpochSync), 0u)
      << "steady churn reached the epoch";
  telemetry::reset();
  EXPECT_EQ(G.binnedCount(spareClass()), 0u)
      << "neither held span went back to the global heap";

  H.releaseAll();
  EXPECT_EQ(G.committedBytes(), 0u);
}

TEST(ThreadLocalHeapSpareTest, LocalFreeIntoSpareIsReusedOnNextSwap) {
  GlobalHeap G(testOptions());
  ThreadLocalHeap H(&G, 42);
  void *Extra = nullptr;
  std::vector<void *> First = fillSpareAndAttach(H, &Extra);
  MiniHeap *Spare = ownerOf(G, First[0]);
  ASSERT_NE(Spare, ownerOf(G, Extra));
  EXPECT_TRUE(Spare->isAttached());
  EXPECT_EQ(Spare->attachedOwner(), &H) << "the spare stays owner-tagged";

  H.free(First[3]); // Local free into the spare: clears its bit.
  EXPECT_EQ(Spare->inUseCount(), objectsPerSpan() - 1);
  EXPECT_EQ(Spare->pendingFrees(), 0u) << "no pending-stash push";
  EXPECT_EQ(G.binnedCount(spareClass()), 0u);

  // Run the second span dry; the next refill swaps the spare back in,
  // and its one free slot is the object just freed.
  for (uint32_t I = 1; I < objectsPerSpan(); ++I)
    H.malloc(kSpareObjSize);
  EXPECT_EQ(H.malloc(kSpareObjSize), First[3]);
  EXPECT_EQ(ownerOf(G, First[3]), Spare);

  H.releaseAll();
}

TEST(ThreadLocalHeapSpareTest, InvalidFreesIntoSpareAreDiagnosedAndDiscarded) {
  GlobalHeap G(testOptions());
  ThreadLocalHeap H(&G, 42);
  void *Extra = nullptr;
  std::vector<void *> First = fillSpareAndAttach(H, &Extra);
  MiniHeap *Spare = ownerOf(G, First[0]);

  H.free(First[2]);
  testing::internal::CaptureStderr();
  H.free(First[2]); // Double free: the bit is already clear.
  H.free(static_cast<char *>(First[5]) + 8); // Interior pointer.
  const std::string Log = testing::internal::GetCapturedStderr();
  EXPECT_NE(Log.find("double free"), std::string::npos) << Log;
  EXPECT_NE(Log.find("interior pointer"), std::string::npos) << Log;
  EXPECT_EQ(Spare->inUseCount(), objectsPerSpan() - 1)
      << "a rejected free must not clear a second bit";
  EXPECT_TRUE(Spare->isAttached());

  // The slot comes back exactly once: after the swap hands it out, the
  // spare is full again and the next refill carves a fresh span.
  for (uint32_t I = 1; I < objectsPerSpan(); ++I)
    H.malloc(kSpareObjSize);
  EXPECT_EQ(H.malloc(kSpareObjSize), First[2]);
  void *Next = H.malloc(kSpareObjSize);
  EXPECT_NE(ownerOf(G, Next), Spare);

  H.releaseAll();
}

TEST(ThreadLocalHeapSpareTest, RemoteFreeIntoSpareIsPickedUpAtReattach) {
  GlobalHeap G(testOptions());
  ThreadLocalHeap Alice(&G, 1);
  void *Extra = nullptr;
  std::vector<void *> First = fillSpareAndAttach(Alice, &Extra);
  MiniHeap *Spare = ownerOf(G, First[0]);

  std::thread Bob([&] {
    ThreadLocalHeap BobHeap(&G, 2);
    BobHeap.free(First[6]); // Not Bob's span: the global remote path.
  });
  Bob.join();
  EXPECT_EQ(Spare->inUseCount(), objectsPerSpan() - 1);
  EXPECT_TRUE(Spare->isAttached()) << "a remote free leaves the spare held";
  EXPECT_EQ(Spare->attachedOwner(), &Alice);
  EXPECT_EQ(G.binnedCount(spareClass()), 0u)
      << "the drain must skip the attached spare";

  for (uint32_t I = 1; I < objectsPerSpan(); ++I)
    Alice.malloc(kSpareObjSize);
  EXPECT_EQ(Alice.malloc(kSpareObjSize), First[6]);

  Alice.releaseAll();
}

TEST(ThreadLocalHeapSpareTest, PartiallyFullSpareIsNeverMeshed) {
  GlobalHeap G(testOptions());
  ThreadLocalHeap Alice(&G, 1);
  void *Extra = nullptr;
  std::vector<void *> First = fillSpareAndAttach(Alice, &Extra);
  MiniHeap *Spare = ownerOf(G, First[0]);
  // Leave the spare one-eighth full (a prime meshing candidate were it
  // detached), its survivor stamped.
  for (uint32_t I = 1; I < objectsPerSpan(); ++I)
    Alice.free(First[I]);
  memset(First[0], 0x77, kSpareObjSize);

  // Detached spans of the same class, sparse enough to mesh.
  ThreadLocalHeap Bob(&G, 2);
  std::vector<void *> BobAll, BobKept;
  for (uint32_t I = 0; I < 16 * objectsPerSpan(); ++I)
    BobAll.push_back(Bob.malloc(kSpareObjSize));
  Bob.releaseAll();
  for (uint32_t I = 0; I < BobAll.size(); ++I) {
    if (I % objectsPerSpan() == 0)
      BobKept.push_back(BobAll[I]);
    else
      Bob.free(BobAll[I]);
  }

  EXPECT_GT(G.meshNow(), 0u) << "the detached spans must mesh";
  EXPECT_EQ(ownerOf(G, First[0]), Spare);
  EXPECT_EQ(Spare->spans().size(), 1u) << "nothing meshed into the spare";
  EXPECT_TRUE(Spare->isAttached());
  EXPECT_EQ(Spare->attachedOwner(), &Alice);
  for (size_t B = 0; B < kSpareObjSize; ++B)
    ASSERT_EQ(static_cast<unsigned char *>(First[0])[B], 0x77);

  Alice.free(First[0]);
  Alice.free(Extra);
  for (void *P : BobKept)
    Bob.free(P);
  Alice.releaseAll();
  EXPECT_EQ(G.committedBytes(), 0u);
}

TEST(ThreadLocalHeapSpareTest, ReleaseAllReturnsBothSpans) {
  GlobalHeap G(testOptions());
  ThreadLocalHeap H(&G, 42);
  void *Extra = nullptr;
  std::vector<void *> First = fillSpareAndAttach(H, &Extra);
  MiniHeap *Spare = ownerOf(G, First[0]);
  MiniHeap *Attached = ownerOf(G, Extra);
  H.releaseAll();
  for (MiniHeap *MH : {Spare, Attached}) {
    EXPECT_FALSE(MH->isAttached());
    EXPECT_EQ(MH->attachedOwner(), nullptr);
  }
  for (void *P : First)
    H.free(P);
  H.free(Extra);
  EXPECT_EQ(G.committedBytes(), 0u);
}

TEST(ThreadLocalHeapSpareTest, ThreadExitReturnsBothSpans) {
  Runtime R(testOptions());
  std::vector<void *> First;
  void *Extra = nullptr;
  std::thread Worker([&] {
    for (uint32_t I = 0; I < objectsPerSpan(); ++I)
      First.push_back(R.malloc(kSpareObjSize));
    Extra = R.malloc(kSpareObjSize);
  });
  Worker.join();
  for (void *P : {First[0], Extra}) {
    MiniHeap *MH = ownerOf(R.global(), P);
    EXPECT_FALSE(MH->isAttached()) << "thread exit must hand back " << P;
    EXPECT_EQ(MH->attachedOwner(), nullptr);
  }
  for (void *P : First)
    R.free(P);
  R.free(Extra);
  R.localHeap().releaseAll();
  EXPECT_EQ(R.committedBytes(), 0u);
}

TEST(ThreadLocalHeapSpareTest, ForkWithLiveSpareKeepsChildObjectsIntact) {
  Runtime R(testOptions());
  std::vector<unsigned char *> Live;
  for (uint32_t I = 0; I <= objectsPerSpan(); ++I)
    Live.push_back(static_cast<unsigned char *>(R.malloc(kSpareObjSize)));
  // The first span is now the spare; free half of it locally so the
  // fork snapshots a partially full spare.
  std::vector<unsigned char *> Kept;
  for (uint32_t I = 0; I < Live.size(); ++I) {
    if (I < objectsPerSpan() && I % 2 == 1) {
      R.free(Live[I]);
      continue;
    }
    memset(Live[I], static_cast<int>(0x30 + I), kSpareObjSize);
    Kept.push_back(Live[I]);
  }
  const auto Intact = [&](const std::vector<unsigned char *> &Ptrs) {
    for (unsigned char *P : Ptrs)
      for (size_t B = 0; B < kSpareObjSize; ++B)
        if (P[B] != P[0])
          return false;
    return true;
  };
  // Both sides churn across the swap (the spare's free slots come back
  // into use) and check that no kept object was handed out or lost.
  const auto Churn = [&](unsigned char Fill) {
    std::vector<unsigned char *> New;
    for (uint32_t I = 0; I < 3 * objectsPerSpan(); ++I) {
      New.push_back(static_cast<unsigned char *>(R.malloc(kSpareObjSize)));
      memset(New.back(), Fill, kSpareObjSize);
    }
    bool Ok = Intact(Kept);
    for (unsigned char *P : New) {
      Ok = Ok && P[0] == Fill && P[kSpareObjSize - 1] == Fill;
      R.free(P);
    }
    return Ok && Intact(Kept);
  };
  std::vector<unsigned char> Stamps;
  for (unsigned char *P : Kept)
    Stamps.push_back(P[0]);

  const pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    bool Ok = Churn(0xC1);
    for (size_t I = 0; I < Kept.size(); ++I)
      Ok = Ok && Kept[I][0] == Stamps[I];
    _exit(Ok ? 0 : 1);
  }
  const bool ParentOk = Churn(0xD2);
  int Status = 0;
  ASSERT_EQ(waitpid(Pid, &Status, 0), Pid);
  ASSERT_TRUE(WIFEXITED(Status)) << "child crashed (status " << Status << ")";
  EXPECT_EQ(WEXITSTATUS(Status), 0) << "child saw corrupted objects";
  EXPECT_TRUE(ParentOk);
  for (size_t I = 0; I < Kept.size(); ++I)
    EXPECT_EQ(Kept[I][0], Stamps[I]);
  for (unsigned char *P : Kept)
    R.free(P);
}

} // namespace
} // namespace mesh
