//===- RuntimeTest.cpp - Runtime facade tests ------------------------------===//

#include "core/Runtime.h"

#include "TestConfig.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

namespace mesh {
namespace {

TEST(RuntimeTest, ArenaFitsUnderFileSizeLimit) {
  // The arena's memfd length counts against RLIMIT_FSIZE: a reservation
  // above the soft limit used to die of SIGXFSZ in the ftruncate. The
  // limit is lowered in a child so the test process keeps its own.
  const pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    constexpr size_t kLimit = (size_t{64} << 20) + 12345;
    struct rlimit Limit;
    if (getrlimit(RLIMIT_FSIZE, &Limit) != 0)
      _exit(10);
    Limit.rlim_cur = kLimit;
    if (setrlimit(RLIMIT_FSIZE, &Limit) != 0)
      _exit(11);
    Runtime R{MeshOptions{}}; // The shipped 16 GiB reservation.
    if (R.global().arenaForTest().vm().arenaBytes() != (size_t{64} << 20))
      _exit(12); // Cut to the limit in whole 128 KiB spans.
    auto *Small = static_cast<char *>(R.malloc(100));
    auto *Large = static_cast<char *>(R.malloc(size_t{1} << 20));
    if (Small == nullptr || Large == nullptr)
      _exit(13);
    memset(Small, 0x5A, 100);
    memset(Large, 0xA5, size_t{1} << 20);
    R.free(Small);
    R.free(Large);
    _exit(0);
  }
  int Status = 0;
  ASSERT_EQ(waitpid(Pid, &Status, 0), Pid);
  ASSERT_FALSE(WIFSIGNALED(Status))
      << "child killed by signal " << WTERMSIG(Status);
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 0);
}

TEST(RuntimeTest, ArenaWithinFileSizeLimitIsNotCut) {
  const pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    struct rlimit Limit;
    if (getrlimit(RLIMIT_FSIZE, &Limit) != 0)
      _exit(10);
    Limit.rlim_cur = testOptions().ArenaBytes;
    if (setrlimit(RLIMIT_FSIZE, &Limit) != 0)
      _exit(11);
    Runtime R(testOptions());
    if (R.global().arenaForTest().vm().arenaBytes() !=
        testOptions().ArenaBytes)
      _exit(12);
    _exit(0);
  }
  int Status = 0;
  ASSERT_EQ(waitpid(Pid, &Status, 0), Pid);
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 0);
}

TEST(RuntimeTest, MallocFreeRoundTrip) {
  Runtime R(testOptions());
  void *P = R.malloc(100);
  ASSERT_NE(P, nullptr);
  memset(P, 1, 100);
  R.free(P);
  R.free(nullptr); // must be a no-op
}

TEST(RuntimeTest, CallocZeroesAndChecksOverflow) {
  Runtime R(testOptions());
  auto *P = static_cast<unsigned char *>(R.calloc(100, 7));
  ASSERT_NE(P, nullptr);
  for (int I = 0; I < 700; ++I)
    ASSERT_EQ(P[I], 0);
  R.free(P);
  EXPECT_EQ(R.calloc(SIZE_MAX / 2, 3), nullptr);
}

TEST(RuntimeTest, CallocZeroesRecycledDirtyMemory) {
  Runtime R(testOptions());
  // Dirty a slot, free it, calloc the same class: must read zero.
  auto *P = static_cast<unsigned char *>(R.malloc(64));
  memset(P, 0xFF, 64);
  R.free(P);
  auto *Q = static_cast<unsigned char *>(R.calloc(1, 64));
  for (int I = 0; I < 64; ++I)
    ASSERT_EQ(Q[I], 0);
  R.free(Q);
}

TEST(RuntimeTest, CallocLargeIsZeroOnPristineSpans) {
  // Large callocs served by freshly committed memfd pages skip the
  // memset; the pages must still read as zero.
  Runtime R(testOptions());
  constexpr size_t kBytes = 128 * 1024;
  auto *P = static_cast<unsigned char *>(R.calloc(1, kBytes));
  ASSERT_NE(P, nullptr);
  for (size_t I = 0; I < kBytes; ++I)
    ASSERT_EQ(P[I], 0) << "byte " << I << " not zeroed";
  R.free(P);
}

TEST(RuntimeTest, CallocLargeIsZeroOnRecycledSpans) {
  // Large frees punch their pages immediately, so a recycled large
  // span is demand-zero again; the zero-skip must still hold after the
  // span has been dirtied, freed, and reused.
  Runtime R(testOptions());
  constexpr size_t kBytes = 16 * kPageSize; // Binnable power-of-two span.
  auto *P = static_cast<unsigned char *>(R.malloc(kBytes));
  ASSERT_NE(P, nullptr);
  memset(P, 0xAB, kBytes);
  R.free(P);
  auto *Q = static_cast<unsigned char *>(R.calloc(1, kBytes));
  ASSERT_NE(Q, nullptr);
  EXPECT_EQ(Q, P) << "expected the punched span to be recycled in place";
  for (size_t I = 0; I < kBytes; ++I)
    ASSERT_EQ(Q[I], 0) << "recycled byte " << I << " not zeroed";
  R.free(Q);
}

TEST(RuntimeTest, ReallocSemantics) {
  Runtime R(testOptions());
  auto *P = static_cast<char *>(R.malloc(32));
  strcpy(P, "hello realloc");
  // Grow within the class: pointer may stay.
  auto *Q = static_cast<char *>(R.realloc(P, 40));
  EXPECT_STREQ(Q, "hello realloc");
  // Grow across classes: contents preserved.
  auto *S = static_cast<char *>(R.realloc(Q, 4000));
  EXPECT_STREQ(S, "hello realloc");
  // Grow to large-object territory.
  auto *L = static_cast<char *>(R.realloc(S, 200 * 1024));
  EXPECT_STREQ(L, "hello realloc");
  // Shrink back down.
  auto *T = static_cast<char *>(R.realloc(L, 16));
  EXPECT_EQ(strncmp(T, "hello realloc", 13), 0)
      << "first 13 bytes survive the shrink to a 16-byte slot";
  R.free(T);
  // realloc(nullptr) behaves like malloc; realloc(p, 0) frees.
  void *M = R.realloc(nullptr, 50);
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(R.realloc(M, 0), nullptr);
}

TEST(RuntimeTest, PosixMemalign) {
  Runtime R(testOptions());
  for (size_t Align : {16u, 64u, 256u, 1024u, 4096u}) {
    void *P = nullptr;
    ASSERT_EQ(R.posixMemalign(&P, Align, 100), 0) << "align " << Align;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % Align, 0u);
    R.free(P);
  }
  void *P = nullptr;
  EXPECT_EQ(R.posixMemalign(&P, 3, 100), EINVAL) << "non-power-of-two";
  EXPECT_EQ(R.posixMemalign(&P, 8192, 1 << 20), EINVAL)
      << "page-exceeding alignment unsupported";
}

TEST(RuntimeTest, UsableSizeMatchesClassRounding) {
  Runtime R(testOptions());
  void *P = R.malloc(33);
  EXPECT_EQ(R.usableSize(P), 48u);
  R.free(P);
  void *L = R.malloc(20000);
  EXPECT_EQ(R.usableSize(L), bytesToPages(20000) * kPageSize);
  R.free(L);
  EXPECT_EQ(R.usableSize(nullptr), 0u);
}

TEST(RuntimeTest, MallctlControlsAndStats) {
  Runtime R(testOptions());
  uint64_t Value = 0;
  size_t Len = sizeof(Value);
  ASSERT_EQ(R.mallctl("mesh.enabled", &Value, &Len, nullptr, 0), 0);
  EXPECT_EQ(Value, 1u);

  bool Off = false;
  ASSERT_EQ(R.mallctl("mesh.enabled", nullptr, nullptr, &Off, sizeof(Off)),
            0);
  Len = sizeof(Value);
  ASSERT_EQ(R.mallctl("mesh.enabled", &Value, &Len, nullptr, 0), 0);
  EXPECT_EQ(Value, 0u);

  uint64_t Period = 0;
  ASSERT_EQ(R.mallctl("mesh.period_ms", nullptr, nullptr, &Period,
                      sizeof(Period)),
            0);

  Len = sizeof(Value);
  ASSERT_EQ(R.mallctl("stats.committed_bytes", &Value, &Len, nullptr, 0), 0);
  EXPECT_EQ(Value, R.committedBytes());

  EXPECT_EQ(R.mallctl("no.such.knob", &Value, &Len, nullptr, 0), ENOENT);
  EXPECT_EQ(R.mallctl("mesh.enabled", &Value, nullptr, nullptr, 0), EINVAL);
}

TEST(RuntimeTest, ManyThreadsAllocateIndependently) {
  Runtime R(testOptions());
  std::vector<std::thread> Threads;
  for (int T = 0; T < 8; ++T)
    Threads.emplace_back([&R, T] {
      std::vector<void *> Mine;
      for (int I = 0; I < 2000; ++I) {
        void *P = R.malloc(16 + (T * 16) % 128);
        ASSERT_NE(P, nullptr);
        memset(P, T, 16);
        Mine.push_back(P);
      }
      for (void *P : Mine)
        R.free(P);
    });
  for (auto &Th : Threads)
    Th.join();
}

TEST(RuntimeTest, CrossThreadFreeIsSafe) {
  Runtime R(testOptions());
  std::vector<void *> Ptrs(4000);
  std::thread Producer([&] {
    for (auto &P : Ptrs) {
      P = R.malloc(64);
      memset(P, 0xAB, 64);
    }
  });
  Producer.join();
  std::thread Consumer([&] {
    for (void *P : Ptrs)
      R.free(P);
  });
  Consumer.join();
}

} // namespace
} // namespace mesh
