//===- main.cpp - perfbench: one workload run, measured end to end --------===//
///
/// Usage:
///   perfbench --workload kv-zipf|redis-lru|span-churn --seed N
///             --seconds S --trace 0|1 [--backend mesh|glibc]
///             [--threads N] [--plant KIND] [--start-ns NS]
///
/// Runs the workload's setup, then whole rounds for S seconds (the
/// timed phase), then a closing idle period with the data set still
/// live, then the output checks. The last line of stdout is one JSON
/// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
/// the metrics are the end-to-end ones; with --trace 1 the telemetry
/// layer is on, one front-end call in 64 is timed, and the metrics are
/// the per-layer ones. Exit status: 0, 1 when an output check failed,
/// 2 on a usage error.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Workloads.h"

#include "core/GlobalHeap.h"

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

/// The closing idle period: the background mesher's chance to compact
/// before pss_end_mib is read.
constexpr uint32_t kClosingIdleMs = 1000;
constexpr uint32_t kPssIntervalMs = 50;
constexpr double kMiB = 1024.0 * 1024.0;

[[noreturn]] void usage(const char *Why) {
  fprintf(stderr,
          "perfbench: %s\nusage: perfbench --workload kv-zipf|redis-lru|"
          "span-churn --seed N --seconds S --trace 0|1 [--backend "
          "mesh|glibc] [--threads N] [--plant KIND] [--start-ns NS]\n",
          Why);
  exit(2);
}

uint64_t parseU64(const char *S, const char *Flag) {
  char *End = nullptr;
  errno = 0;
  const unsigned long long V = strtoull(S, &End, 10);
  if (errno != 0 || End == S || *End != '\0')
    usage((std::string("bad value for ") + Flag).c_str());
  return V;
}

Config parseArgs(int Argc, char **Argv) {
  Config C;
  bool HaveSeconds = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    const char *V = Argv[++I];
    if (Flag == "--workload")
      C.Workload = V;
    else if (Flag == "--seed")
      C.Seed = parseU64(V, "--seed");
    else if (Flag == "--seconds") {
      C.Seconds = static_cast<double>(parseU64(V, "--seconds"));
      HaveSeconds = true;
    } else if (Flag == "--trace")
      C.Trace = parseU64(V, "--trace") != 0;
    else if (Flag == "--backend") {
      if (std::string(V) != "mesh" && std::string(V) != "glibc")
        usage("--backend takes mesh or glibc");
      C.Glibc = std::string(V) == "glibc";
    } else if (Flag == "--threads")
      C.Threads = static_cast<int>(parseU64(V, "--threads"));
    else if (Flag == "--plant")
      C.Plant = V;
    else if (Flag == "--start-ns")
      C.StartNs = parseU64(V, "--start-ns");
    else
      usage(("unknown flag " + Flag).c_str());
  }
  if (C.Workload.empty() || !HaveSeconds || C.Seconds < 1)
    usage("--workload and --seconds (>= 1) are required");
  if (C.Threads > 64)
    usage("--threads is at most 64");
  if (C.Trace && C.Glibc)
    usage("--trace 1 needs the mesh backend");
  return C;
}

/// The allocator-independent invariants at the end of a Mesh run.
void checkInvariants(Result &Out, mesh::Runtime &R, uint64_t Live,
                     uint64_t PssEnd) {
  const mesh::HeapFootprint F = R.global().sampleFootprint();
  const uint64_t KernelFile = mesh::pagesToBytes(R.global().kernelFilePages());
  auto Fail = [&](const char *What, uint64_t A, uint64_t B) {
    char Buf[200];
    snprintf(Buf, sizeof(Buf), "%s (%" PRIu64 " > %" PRIu64 " bytes)", What, A,
             B);
    Out.checkFailed(Buf);
  };
  if (Live > F.InUseBytes)
    Fail("harness live bytes exceed the heap's in_use", Live, F.InUseBytes);
  if (F.InUseBytes > F.CommittedBytes)
    Fail("in_use exceeds committed", F.InUseBytes, F.CommittedBytes);
  if (KernelFile > F.CommittedBytes)
    Fail("kernel-charged file bytes exceed committed", KernelFile,
         F.CommittedBytes);
  if (KernelFile > PssEnd)
    Fail("kernel-charged file bytes exceed PSS", KernelFile, PssEnd);
}

} // namespace

int main(int Argc, char **Argv) {
  const uint64_t MainNs = nowNs();
  const Config C = parseArgs(Argc, Argv);
  Result Out;
  Heap H(C.Glibc, C.Trace);
  std::unique_ptr<Workload> W;
  if (C.Workload == "kv-zipf")
    W = makeKvZipf(C, H, Out);
  else if (C.Workload == "redis-lru")
    W = makeRedisLru(C, H, Out);
  else if (C.Workload == "span-churn")
    W = makeSpanChurn(C, H, Out);
  else
    usage(("unknown workload " + C.Workload).c_str());

  W->setup();
  mesh::Runtime *R = H.runtime();
  LayerSnapshot Start;
  if (R != nullptr)
    Start = takeLayerSnapshot(*R);
  PssSampler Sampler(H, kPssIntervalMs);
  Sampler.start();
  const uint64_t T0 = nowNs();
  W->mark(0);
  const uint64_t StartNs =
      C.StartNs != 0 && C.StartNs < MainNs ? C.StartNs : MainNs;
  const double SetupS = static_cast<double>(T0 - StartNs) / 1e9;
  W->runTimed(T0 + static_cast<uint64_t>(C.Seconds * 1e9));
  const uint64_t T1 = nowNs();
  Sampler.stop();

  // The windows between marks: ops per second, and CPU seconds (all
  // threads, the background mesher's included) per million ops.
  std::vector<uint64_t> Rates, CpuPerMop;
  for (size_t I = 1; I < W->Marks.size(); ++I) {
    const Mark &A = W->Marks[I - 1], &B = W->Marks[I];
    if (B.Ops == A.Ops)
      continue;
    const double Ops = static_cast<double>(B.Ops - A.Ops);
    Rates.push_back(static_cast<uint64_t>(Ops * 1e9 /
                                          static_cast<double>(B.Ns - A.Ns)));
    CpuPerMop.push_back(static_cast<uint64_t>((B.CpuS - A.CpuS) * 1e15 / Ops));
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(kClosingIdleMs));
  const uint64_t PssEnd = readPssBytes();
  LayerSnapshot End;
  if (R != nullptr) {
    End = takeLayerSnapshot(*R);
    checkInvariants(Out, *R, W->liveBytes(), PssEnd);
    if (C.Workload == "redis-lru") {
      if (End.PagesMeshed == Start.PagesMeshed)
        Out.checkFailed("redis-lru: no pages were meshed");
      if (PssEnd >= Sampler.peakBytes())
        Out.checkFailed("redis-lru: PSS did not drop below its peak by the "
                        "end of the closing idle period");
    }
  }
  W->verifyEnd();

  const uint64_t Ops = W->Ops;
  printf("# workload %s seed %" PRIu64 " backend %s workers %d: %" PRIu64
         " ops in %.3f s (%zu windows), %zu latency samples, %zu PSS "
         "samples, %zu forks\n",
         C.Workload.c_str(), C.Seed, C.Glibc ? "glibc" : "mesh",
         C.Workload == "redis-lru" ? 1
         : C.Threads > 0            ? C.Threads
                                    : defaultWorkerThreads(),
         Ops,
         static_cast<double>(T1 - T0) / 1e9, Rates.size(),
         W->Samples.Op.size(),
         Sampler.samples(), W->ForkPauseNs.size());
  if (R != nullptr)
    printf("# arena reservation %zu MiB\n",
           R->global().options().ArenaBytes >> 20);
  if (C.Trace) {
    emitLayerMetrics(Out, *R, Start, End, Ops, W->Samples, Sampler,
                     W->ForkPauseNs, W->ForkChildNs);
  } else {
    std::vector<uint64_t> &Lat = W->Samples.Op.values();
    Out.metric("setup_s", SetupS, "s");
    Out.metric("ops_per_s", static_cast<double>(percentile(Rates, 0.5)),
               "ops/s");
    Out.metric("op_p50_us", static_cast<double>(percentile(Lat, 0.50)) / 1e3,
               "us");
    Out.metric("op_p99_us", static_cast<double>(percentile(Lat, 0.99)) / 1e3,
               "us");
    Out.metric("pss_mean_mib", Sampler.meanBytes() / kMiB, "MiB");
    Out.metric("pss_peak_mib", static_cast<double>(Sampler.peakBytes()) / kMiB,
               "MiB");
    Out.metric("pss_end_mib", static_cast<double>(PssEnd) / kMiB, "MiB");
    Out.metric("cpu_s", static_cast<double>(percentile(CpuPerMop, 0.5)) / 1e9,
               "s");
  }
  W->teardown();
  Out.Attempted = Ops;
  Out.Failed = W->Failed;
  Out.print();
  return Out.correct() ? 0 : 1;
}
