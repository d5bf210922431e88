//===- RedisLru.cpp - redis-lru: the Section 6.2.2 shape in waves ---------===//
///
/// One client thread drives a capped LRU store (32 MiB of entries,
/// Redis-style sampled eviction: the oldest of five random entries
/// goes) through repeated waves of the paper's Redis experiment:
/// 240 B inserts worth 1.68x the cap, then 492 B inserts worth 0.84x
/// the cap, then an idle period in which the background mesher can
/// compact the fragmentation the evictions left. After each idle
/// period the client walks every live entry, and then takes one
/// BGSAVE-style fork snapshot whose child re-walks its copy of the heap.
///
/// Entries live in the heap under test (header + value in one
/// allocation, as Redis keeps an sds next to its object); the index of
/// live entries, with each entry's key and content checksum, lives on
/// glibc, so every check compares heap contents against a record the
/// allocator never touched.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/Rng.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <fcntl.h>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

namespace perfbench {

namespace {

constexpr size_t kBudgetBytes = size_t{32} << 20;
constexpr size_t kPhase1Len = 240;
constexpr size_t kPhase2Len = 492;
constexpr uint32_t kEvictionSamples = 5;
constexpr uint32_t kIdleMs = 400;
constexpr uint64_t kOpStride = 7;
/// A snapshot child that has not exited by then is killed and the run
/// fails its check.
constexpr uint64_t kChildLimitNs = uint64_t{60} * 1000000000;

struct Entry {
  uint64_t Key;
  Entry *Self; ///< Its own address: meshing must never move an entry.
  uint64_t Stamp;
  uint32_t Len; ///< Value bytes following the header.
  uint32_t Slot;

  unsigned char *value() { return reinterpret_cast<unsigned char *>(this + 1); }
};

constexpr size_t entryBytes(size_t Len) { return sizeof(Entry) + Len; }

class RedisLru final : public Workload {
public:
  RedisLru(const Config &C, Heap &H, Result &Out)
      : Workload(C, H, Out, kOpStride), Random(mix64(C.Seed ^ 0x7ED15)) {}

  ~RedisLru() override {
    if (ChildPid > 0)
      reapChild();
  }

  void setup() override {
    // The most entries the cap admits, plus the one a set adds before
    // it evicts: the index never reallocates in the timed phase.
    const size_t MaxEntries = kBudgetBytes / entryBytes(kPhase1Len) + 2;
    Live.reserve(MaxEntries);
    Keys.reserve(MaxEntries);
    Sums.reserve(MaxEntries);
    // Fill the cache with phase-1 entries, then run one untimed wave:
    // the timed waves all start from the state a wave leaves behind.
    while (Payload + entryBytes(kPhase1Len) <= kBudgetBytes)
      set(kPhase1Len, /*Timed=*/false);
    runWave(/*Timed=*/false);
  }

  void runTimed(uint64_t DeadlineNs) override {
    setThreadSamples(&Samples);
    uint64_t Wave = 0;
    do {
      runWave(/*Timed=*/true);
      if (Wave++ == 0 && C.Plant == "redis-entry" && !Live.empty())
        Live[Live.size() / 2]->value()[7] ^= 0x01;
      uint64_t Faults = 0;
      const uint64_t LiveSum = walk(&Faults);
      if (Faults > 0)
        Out.checkFailed("redis-lru wave " + std::to_string(Wave) + ": " +
                        std::to_string(Faults) +
                        " live entries moved or changed");
      if (ChildPid > 0)
        reapChild();
      snapshot(LiveSum);
      mark(Ops);
    } while (nowNs() < DeadlineNs);
    if (ChildPid > 0)
      reapChild();
    setThreadSamples(nullptr);
  }

  void verifyEnd() override {
    uint64_t Faults = 0;
    walk(&Faults);
    if (Faults > 0)
      Out.checkFailed("redis-lru end walk: " + std::to_string(Faults) +
                      " live entries moved or changed");
  }

  uint64_t liveBytes() const override { return Payload; }

  void teardown() override {
    for (Entry *E : Live)
      H.free(E);
    Live.clear();
    Keys.clear();
    Sums.clear();
    Payload = 0;
  }

private:
  /// The paper's two insert phases, then the idle period.
  void runWave(bool Timed) {
    const size_t Phase1 =
        static_cast<size_t>(1.68 * static_cast<double>(kBudgetBytes) /
                            static_cast<double>(kPhase1Len));
    const size_t Phase2 =
        static_cast<size_t>(0.84 * static_cast<double>(kBudgetBytes) /
                            static_cast<double>(kPhase2Len));
    for (size_t I = 0; I < Phase1; ++I)
      set(kPhase1Len, Timed);
    for (size_t I = 0; I < Phase2; ++I)
      set(kPhase2Len, Timed);
    std::this_thread::sleep_for(std::chrono::milliseconds(kIdleMs));
  }

  void set(size_t Len, bool Timed) {
    const uint64_t Key = Random.next();
    const bool Sample = Timed && Samples.Op.due();
    const uint64_t T0 = Sample ? nowNs() : 0;
    auto *E = static_cast<Entry *>(H.malloc(entryBytes(Len)));
    if (E != nullptr) {
      E->Key = Key;
      E->Self = E;
      E->Stamp = ++Clock;
      E->Len = static_cast<uint32_t>(Len);
      E->Slot = static_cast<uint32_t>(Live.size());
      fillBytes(E->value(), Len, mix64(Key));
      Live.push_back(E);
      Keys.push_back(Key);
      Sums.push_back(checksum(E->value(), Len, Key));
      Payload += entryBytes(Len);
      while (Payload > kBudgetBytes)
        evictOne();
    }
    if (Sample)
      Samples.Op.add(nowNs() - T0);
    if (Timed) {
      ++Ops;
      if (E == nullptr)
        ++Failed;
    }
  }

  void evictOne() {
    const uint32_t N = static_cast<uint32_t>(Live.size());
    uint32_t Victim = Random.inRange(0, N - 1);
    for (uint32_t I = 1; I < kEvictionSamples; ++I) {
      const uint32_t Slot = Random.inRange(0, N - 1);
      if (Live[Slot]->Stamp < Live[Victim]->Stamp)
        Victim = Slot;
    }
    Entry *E = Live[Victim];
    Payload -= entryBytes(E->Len);
    Live[Victim] = Live.back();
    Keys[Victim] = Keys.back();
    Sums[Victim] = Sums.back();
    Live[Victim]->Slot = Victim;
    Live.pop_back();
    Keys.pop_back();
    Sums.pop_back();
    H.free(E);
  }

  /// Verifies every live entry at the address recorded for it and
  /// returns the live-set checksum. Allocation-free: the snapshot
  /// child runs it.
  uint64_t walk(uint64_t *Faults) const {
    uint64_t LiveSum = Live.size();
    for (size_t I = 0; I < Live.size(); ++I) {
      Entry *E = Live[I];
      const uint64_t Sum = checksum(E->value(), E->Len, E->Key);
      if (E->Self != E || E->Slot != I || E->Key != Keys[I] || Sum != Sums[I])
        ++*Faults;
      LiveSum = mix64(LiveSum ^ Sum);
    }
    return LiveSum;
  }

  /// BGSAVE: fork; the child re-walks its copy of the heap and exits 0
  /// only if the live-set checksum equals the parent's.
  void snapshot(uint64_t ParentSum) {
    int Fds[2];
    if (pipe2(Fds, O_CLOEXEC) != 0) {
      Out.checkFailed("redis-lru: pipe2 failed");
      return;
    }
    const uint64_t T0 = nowNs();
    const pid_t Pid = fork();
    if (Pid == 0) {
      const uint64_t Ready = nowNs() - T0;
      ssize_t Rc;
      do
        Rc = write(Fds[1], &Ready, sizeof(Ready));
      while (Rc < 0 && errno == EINTR);
      uint64_t Faults = 0;
      uint64_t ChildSum = walk(&Faults);
      if (C.Plant == "child-checksum")
        ChildSum ^= 1;
      _exit(Faults == 0 && ChildSum == ParentSum ? 0 : 3);
    }
    const uint64_t Pause = nowNs() - T0;
    close(Fds[1]);
    if (Pid < 0) {
      close(Fds[0]);
      Out.checkFailed("redis-lru: fork failed");
      return;
    }
    ForkPauseNs.push_back(Pause);
    ChildPid = Pid;
    ChildPipe = Fds[0];
  }

  /// Waits for the snapshot child, killing it after kChildLimitNs.
  void reapChild() {
    const uint64_t Limit = nowNs() + kChildLimitNs;
    int Status = 0;
    pid_t Rc;
    while ((Rc = waitpid(ChildPid, &Status, WNOHANG)) == 0 && nowNs() < Limit)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (Rc == 0) {
      kill(ChildPid, SIGKILL);
      while (waitpid(ChildPid, &Status, 0) < 0 && errno == EINTR)
        ;
      Out.checkFailed("redis-lru: snapshot child timed out");
    } else if (Rc < 0) {
      Out.checkFailed("redis-lru: waitpid failed");
    } else if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
      Out.checkFailed(WIFEXITED(Status)
                          ? "redis-lru: snapshot child saw a different live "
                            "set than the parent"
                          : "redis-lru: snapshot child crashed");
    }
    uint64_t Ready = 0;
    if (read(ChildPipe, &Ready, sizeof(Ready)) == sizeof(Ready))
      ForkChildNs.push_back(Ready);
    close(ChildPipe);
    ChildPid = -1;
    ChildPipe = -1;
  }

  mesh::Rng Random;
  std::vector<Entry *> Live;
  std::vector<uint64_t> Keys;
  std::vector<uint64_t> Sums;
  uint64_t Payload = 0;
  uint64_t Clock = 0;
  pid_t ChildPid = -1;
  int ChildPipe = -1;
};

} // namespace

std::unique_ptr<Workload> makeRedisLru(const Config &C, Heap &H, Result &Out) {
  return std::make_unique<RedisLru>(C, H, Out);
}

} // namespace perfbench
