//===- Harness.cpp - Shared machinery of the perfbench workloads -----------===//

#include "Harness.h"

#include "core/GlobalHeap.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

namespace perfbench {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double cpuSeconds() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_usec) / 1e6;
  };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

int defaultWorkerThreads() {
  const long Cpus = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<int>(std::clamp<long>(Cpus - 2, 1, 2));
}

namespace {

/// Raises the soft limit \p Resource to its hard limit and returns the
/// soft limit that holds afterwards.
rlim_t raiseSoftLimit(int Resource) {
  rlimit L;
  if (getrlimit(Resource, &L) != 0)
    return RLIM_INFINITY;
  if (L.rlim_cur != L.rlim_max) {
    L.rlim_cur = L.rlim_max;
    (void)setrlimit(Resource, &L);
    (void)getrlimit(Resource, &L);
  }
  return L.rlim_cur;
}

} // namespace

size_t arenaBytesWithinLimits(size_t Want) {
  // MemfdArena ftruncates its memfd to the whole reservation, and the
  // kernel checks that length against RLIMIT_FSIZE: over the limit the
  // process gets SIGXFSZ before the heap exists. The reservation is one
  // mapping, so RLIMIT_AS bounds it as well; leave half of the address
  // space limit to everything else. Under either limit the arena shrinks
  // to fit, in whole 64 MiB steps.
  constexpr size_t kStep = size_t{64} << 20;
  size_t Fit = Want;
  const rlim_t FileLimit = raiseSoftLimit(RLIMIT_FSIZE);
  if (FileLimit != RLIM_INFINITY && FileLimit < Fit)
    Fit = static_cast<size_t>(FileLimit);
  const rlim_t SpaceLimit = raiseSoftLimit(RLIMIT_AS);
  if (SpaceLimit != RLIM_INFINITY && SpaceLimit / 2 < Fit)
    Fit = static_cast<size_t>(SpaceLimit / 2);
  return std::max(kStep, Fit / kStep * kStep);
}

mesh::MeshOptions shippedDefaults() {
  mesh::MeshOptions Opts;
  Opts.BackgroundMeshing = true;
  Opts.ArenaBytes = arenaBytesWithinLimits(Opts.ArenaBytes);
  return Opts;
}

//===----------------------------------------------------------------------===//
// Samples
//===----------------------------------------------------------------------===//

Sampler::Sampler(uint64_t Stride, size_t Capacity)
    : Capacity(Capacity), Stride(Stride) {
  // Touch the whole buffer now so PSS does not grow with the op count.
  V.resize(Capacity);
  V.clear();
}

void Sampler::add(uint64_t Ns) {
  if (V.size() == Capacity) {
    // Keep the samples whose event index is a multiple of the doubled
    // stride (1-based odd positions drop out).
    for (size_t I = 0; 2 * I + 1 < V.size(); ++I)
      V[I] = V[2 * I + 1];
    V.resize(V.size() / 2);
    Events -= Events % (2 * Stride);
    Stride *= 2;
  }
  V.push_back(Ns);
}

namespace {
thread_local ThreadSamples *CurrentSamples = nullptr;
} // namespace

void setThreadSamples(ThreadSamples *S) { CurrentSamples = S; }
ThreadSamples *threadSamples() { return CurrentSamples; }

void mergeSamples(ThreadSamples &Into, const ThreadSamples &From) {
  auto Append = [](Sampler &To, const Sampler &Src) {
    std::vector<uint64_t> &V = To.values();
    V.insert(V.end(), Src.values().begin(), Src.values().end());
  };
  Append(Into.Op, From.Op);
  Append(Into.Malloc, From.Malloc);
  Append(Into.FreeLocal, From.FreeLocal);
  Append(Into.FreeRemote, From.FreeRemote);
}

uint64_t percentile(std::vector<uint64_t> &V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(Q * static_cast<double>(V.size()));
  if (Rank >= V.size())
    Rank = V.size() - 1;
  return V[Rank];
}

//===----------------------------------------------------------------------===//
// Heap
//===----------------------------------------------------------------------===//

Heap::Heap(bool Glibc, bool Trace) : Trace(Trace) {
  if (!Glibc)
    R = std::make_unique<mesh::Runtime>(shippedDefaults());
  if (Trace && R) {
    bool On = true;
    R->mallctl("telemetry.enabled", nullptr, nullptr, &On, sizeof(On));
  }
}

Heap::~Heap() = default;

void *Heap::malloc(size_t Bytes) {
  ThreadSamples *S = Trace ? CurrentSamples : nullptr;
  if (S == nullptr || !S->Malloc.due())
    return R ? R->malloc(Bytes) : ::malloc(Bytes);
  const uint64_t T0 = nowNs();
  void *P = R ? R->malloc(Bytes) : ::malloc(Bytes);
  S->Malloc.add(nowNs() - T0);
  return P;
}

void *Heap::calloc(size_t Count, size_t Bytes) {
  ThreadSamples *S = Trace ? CurrentSamples : nullptr;
  if (S == nullptr || !S->Malloc.due())
    return R ? R->calloc(Count, Bytes) : ::calloc(Count, Bytes);
  const uint64_t T0 = nowNs();
  void *P = R ? R->calloc(Count, Bytes) : ::calloc(Count, Bytes);
  S->Malloc.add(nowNs() - T0);
  return P;
}

void Heap::free(void *Ptr, FreeKind Kind) {
  ThreadSamples *S = Trace ? CurrentSamples : nullptr;
  Sampler *Into = nullptr;
  if (S != nullptr && Kind != FreeKind::Unknown)
    Into = Kind == FreeKind::Remote ? &S->FreeRemote : &S->FreeLocal;
  if (Into == nullptr || !Into->due()) {
    if (R)
      R->free(Ptr);
    else
      ::free(Ptr);
    return;
  }
  const uint64_t T0 = nowNs();
  if (R)
    R->free(Ptr);
  else
    ::free(Ptr);
  Into->add(nowNs() - T0);
}

size_t Heap::usableSize(const void *Ptr) const {
  return R ? R->usableSize(Ptr) : malloc_usable_size(const_cast<void *>(Ptr));
}

//===----------------------------------------------------------------------===//
// PSS
//===----------------------------------------------------------------------===//

uint64_t readPssBytes() {
  const int Fd = open("/proc/self/smaps_rollup", O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return 0;
  char Buf[4096];
  size_t Len = 0;
  for (;;) {
    const ssize_t N = read(Fd, Buf + Len, sizeof(Buf) - 1 - Len);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Len += static_cast<size_t>(N);
  }
  close(Fd);
  Buf[Len] = '\0';
  // The "Pss:" line (not Pss_Anon/Pss_File/...), in kB.
  const char *Line = strstr(Buf, "\nPss:");
  if (Line == nullptr)
    return 0;
  return strtoull(Line + 5, nullptr, 10) * 1024;
}

PssSampler::PssSampler(Heap &H, uint32_t IntervalMs)
    : H(H), IntervalMs(IntervalMs) {
  FootprintNs.reserve(1 << 14);
}

PssSampler::~PssSampler() { stop(); }

void PssSampler::start() { Thread = std::thread([this] { loop(); }); }

void PssSampler::stop() {
  Stop.store(true, std::memory_order_relaxed);
  if (Thread.joinable())
    Thread.join();
}

double PssSampler::meanBytes() const {
  return Count == 0 ? 0.0 : Sum / static_cast<double>(Count);
}

void PssSampler::loop() {
  while (!Stop.load(std::memory_order_relaxed)) {
    const uint64_t Pss = readPssBytes();
    Sum += static_cast<double>(Pss);
    Peak = std::max(Peak, Pss);
    ++Count;
    if (H.tracing() && H.runtime() != nullptr &&
        FootprintNs.size() < FootprintNs.capacity()) {
      const uint64_t T0 = nowNs();
      (void)H.runtime()->global().sampleFootprint();
      FootprintNs.push_back(nowNs() - T0);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(IntervalMs));
  }
}

//===----------------------------------------------------------------------===//
// Checksums
//===----------------------------------------------------------------------===//

uint64_t checksum(const void *Data, size_t Len, uint64_t Seed) {
  const auto *P = static_cast<const unsigned char *>(Data);
  uint64_t H = mix64(Seed ^ Len);
  size_t I = 0;
  for (; I + 8 <= Len; I += 8) {
    uint64_t W;
    memcpy(&W, P + I, 8);
    H = (H ^ W) * 0x100000001B3ULL;
    H ^= H >> 29;
  }
  uint64_t Tail = 0;
  memcpy(&Tail, P + I, Len - I);
  return mix64(H ^ Tail);
}

void fillBytes(void *Data, size_t Len, uint64_t Seed) {
  auto *P = static_cast<unsigned char *>(Data);
  uint64_t X = Seed;
  size_t I = 0;
  for (; I + 8 <= Len; I += 8) {
    X = mix64(X);
    memcpy(P + I, &X, 8);
  }
  X = mix64(X);
  memcpy(P + I, &X, Len - I);
}

//===----------------------------------------------------------------------===//
// Result
//===----------------------------------------------------------------------===//

void Result::checkFailed(const std::string &What) {
  // Report the first few; a systematic fault would flood stderr.
  if (Failures < 10)
    fprintf(stderr, "perfbench: output check failed: %s\n", What.c_str());
  ++Failures;
}

void Result::metric(const std::string &Name, double Value, const char *Unit) {
  Metrics.push_back({Name, Value, Unit});
}

void Result::print() const {
  for (const Metric &M : Metrics)
    printf("# %-28s %.6g %s\n", M.Name.c_str(), M.Value, M.Unit);
  printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
         ", \"metrics\": {",
         correct() ? "true" : "false", Attempted, Failed);
  for (size_t I = 0; I < Metrics.size(); ++I)
    printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
           I == 0 ? "" : ", ", Metrics[I].Name.c_str(), Metrics[I].Value,
           Metrics[I].Unit);
  printf("}}\n");
  fflush(stdout);
}

//===----------------------------------------------------------------------===//
// Per-layer metrics
//===----------------------------------------------------------------------===//

namespace {

constexpr size_t kNumHists = static_cast<size_t>(mesh::telemetry::kNumHists);
constexpr size_t kBuckets = mesh::telemetry::kHistBuckets;

uint64_t readU64(mesh::Runtime &R, const char *Name) {
  uint64_t V = 0;
  size_t Len = sizeof(V);
  return R.mallctl(Name, &V, &Len, nullptr, 0) == 0 ? V : 0;
}

/// The run's share of one telemetry histogram (end minus start).
struct HistDelta {
  uint64_t B[kBuckets] = {};
  uint64_t Count = 0;

  HistDelta(const LayerSnapshot &Start, const LayerSnapshot &End,
            mesh::telemetry::HistId H) {
    const size_t Off = static_cast<size_t>(H) * kBuckets;
    for (size_t I = 0; I < kBuckets; ++I) {
      B[I] = End.Hists[Off + I] - Start.Hists[Off + I];
      Count += B[I];
    }
  }

  /// Quantile in ns, read as the midpoint of the log2 bucket that
  /// holds it (bucket b >= 1 spans [2^(b-1), 2^b)); 0 when empty.
  double quantileNs(double Q) const {
    if (Count == 0)
      return 0;
    const uint64_t Rank = static_cast<uint64_t>(Q * static_cast<double>(Count));
    uint64_t Seen = 0;
    for (size_t I = 0; I < kBuckets; ++I) {
      Seen += B[I];
      if (Seen > Rank)
        return I == 0 ? 0.0 : 1.5 * static_cast<double>(uint64_t{1} << (I - 1));
    }
    return 0;
  }
};

} // namespace

LayerSnapshot takeLayerSnapshot(mesh::Runtime &R) {
  LayerSnapshot S;
  const mesh::MeshStats &Stats = R.global().stats();
  S.MeshPasses = readU64(R, "stats.mesh_passes");
  S.MeshPairs = readU64(R, "stats.mesh_count");
  // No mallctl leaf exposes the probe count; read the counter itself.
  S.MeshProbes = Stats.MeshProbeCount.load(std::memory_order_relaxed);
  S.PagesMeshed = readU64(R, "stats.pages_meshed");
  S.BytesCopied = readU64(R, "stats.bytes_copied");
  S.MeshNs = readU64(R, "stats.mesh_ns");
  S.BgWakeups = readU64(R, "background.wakeups");
  S.BgPasses = readU64(R, "background.passes");
  S.Hists.assign(kNumHists * kBuckets, 0);
  for (size_t H = 0; H < kNumHists; ++H) {
    const std::string Leaf =
        std::string("telemetry.hist.") +
        mesh::telemetry::histName(static_cast<mesh::telemetry::HistId>(H));
    size_t Len = kBuckets * sizeof(uint64_t);
    R.mallctl(Leaf.c_str(), &S.Hists[H * kBuckets], &Len, nullptr, 0);
  }
  return S;
}

void emitLayerMetrics(Result &Out, mesh::Runtime &R, const LayerSnapshot &Start,
                      const LayerSnapshot &End, uint64_t Ops,
                      ThreadSamples &Front, const PssSampler &Sampler,
                      std::vector<uint64_t> &ForkPauseNs,
                      std::vector<uint64_t> &ForkChildNs) {
  using mesh::telemetry::HistId;
  constexpr double MiB = 1024.0 * 1024.0;
  auto Ns = [](std::vector<uint64_t> &V, double Q) {
    return static_cast<double>(percentile(V, Q));
  };

  Out.metric("front.malloc_p50_ns", Ns(Front.Malloc.values(), 0.50), "ns");
  Out.metric("front.malloc_p99_ns", Ns(Front.Malloc.values(), 0.99), "ns");
  Out.metric("front.free_local_p50_ns", Ns(Front.FreeLocal.values(), 0.50),
             "ns");
  Out.metric("front.free_remote_p50_ns", Ns(Front.FreeRemote.values(), 0.50),
             "ns");
  Out.metric("front.free_remote_p99_ns", Ns(Front.FreeRemote.values(), 0.99),
             "ns");

  const HistDelta Acquire(Start, End, HistId::kHistSpanAcquire);
  Out.metric("heap.span_acquire_count", static_cast<double>(Acquire.Count),
             "count");
  Out.metric("heap.span_acquire_per_kop",
             Ops == 0 ? 0.0
                      : static_cast<double>(Acquire.Count) * 1000.0 /
                            static_cast<double>(Ops),
             "1/kop");
  Out.metric("heap.span_acquire_p50_ns", Acquire.quantileNs(0.50), "ns");
  Out.metric("heap.span_acquire_p99_ns", Acquire.quantileNs(0.99), "ns");

  const uint64_t Probes = End.MeshProbes - Start.MeshProbes;
  const uint64_t Pairs = End.MeshPairs - Start.MeshPairs;
  Out.metric("mesh.passes", static_cast<double>(End.MeshPasses - Start.MeshPasses),
             "count");
  Out.metric("mesh.pairs", static_cast<double>(Pairs), "count");
  Out.metric("mesh.probes", static_cast<double>(Probes), "count");
  Out.metric("mesh.pairs_per_kprobe",
             Probes == 0 ? 0.0
                         : static_cast<double>(Pairs) * 1000.0 /
                               static_cast<double>(Probes),
             "1/kprobe");
  Out.metric("mesh.pages_meshed",
             static_cast<double>(End.PagesMeshed - Start.PagesMeshed), "count");
  Out.metric("mesh.bytes_copied_mib",
             static_cast<double>(End.BytesCopied - Start.BytesCopied) / MiB,
             "MiB");
  Out.metric("mesh.pass_total_ms",
             static_cast<double>(End.MeshNs - Start.MeshNs) / 1e6, "ms");
  Out.metric("mesh.pass_p99_ms",
             HistDelta(Start, End, HistId::kHistMeshPass).quantileNs(0.99) / 1e6,
             "ms");
  Out.metric("mesh.scan_p50_us",
             HistDelta(Start, End, HistId::kHistMeshScan).quantileNs(0.50) / 1e3,
             "us");
  Out.metric("mesh.remap_p50_us",
             HistDelta(Start, End, HistId::kHistMeshRemap).quantileNs(0.50) /
                 1e3,
             "us");
  Out.metric("mesh.release_p99_ms",
             HistDelta(Start, End, HistId::kHistMeshRelease).quantileNs(0.99) /
                 1e6,
             "ms");

  const HistDelta Punch(Start, End, HistId::kHistPunchSyscall);
  Out.metric("arena.punch_count", static_cast<double>(Punch.Count), "count");
  Out.metric("arena.punch_p50_us", Punch.quantileNs(0.50) / 1e3, "us");
  Out.metric("arena.remap_syscall_p50_us",
             HistDelta(Start, End, HistId::kHistRemapSyscall).quantileNs(0.50) /
                 1e3,
             "us");
  Out.metric("arena.committed_end_mib",
             static_cast<double>(readU64(R, "stats.committed_bytes")) / MiB,
             "MiB");
  Out.metric("arena.kernel_file_end_mib",
             static_cast<double>(readU64(R, "stats.kernel_file_bytes")) / MiB,
             "MiB");
  Out.metric("arena.dirty_end_mib",
             static_cast<double>(readU64(R, "stats.dirty_bytes")) / MiB, "MiB");

  const HistDelta Sync(Start, End, HistId::kHistEpochSync);
  Out.metric("epoch.sync_count", static_cast<double>(Sync.Count), "count");
  Out.metric("epoch.sync_p99_us", Sync.quantileNs(0.99) / 1e3, "us");

  Out.metric("bg.wakeups", static_cast<double>(End.BgWakeups - Start.BgWakeups),
             "count");
  Out.metric("bg.passes", static_cast<double>(End.BgPasses - Start.BgPasses),
             "count");
  std::vector<uint64_t> Footprint = Sampler.footprintNs();
  Out.metric("bg.footprint_sample_us", Ns(Footprint, 0.50) / 1e3, "us");

  Out.metric("fork.parent_pause_ms", Ns(ForkPauseNs, 0.50) / 1e6, "ms");
  Out.metric("fork.child_ready_ms", Ns(ForkChildNs, 0.50) / 1e6, "ms");
}

} // namespace perfbench
