//===- mesh/mesh.h - Public Mesh API ----------------------------*- C++ -*-===//
///
/// \file
/// Public entry points for the Mesh allocator.
///
/// Two usage models:
///  - the process-default heap via the C functions below (what the
///    malloc interposition shim forwards to), configured through
///    MESH_* environment variables; and
///  - instance heaps via mesh::Runtime (include core/Runtime.h), used
///    by the tests and benchmarks to run several configurations in one
///    process.
///
//===----------------------------------------------------------------------===//

#ifndef MESH_API_MESH_H
#define MESH_API_MESH_H

#include <cstddef>

extern "C" {

/// malloc/free family over the process-default Mesh heap.
void *mesh_malloc(size_t Bytes);
void mesh_free(void *Ptr);
void *mesh_calloc(size_t Count, size_t Size);
void *mesh_realloc(void *Ptr, size_t Bytes);
int mesh_posix_memalign(void **Out, size_t Alignment, size_t Bytes);
size_t mesh_malloc_usable_size(const void *Ptr);

/// jemalloc-style control/introspection interface (paper Section 4.5).
/// Names: "mesh.enabled", "mesh.period_ms", "mesh.probes",
/// "mesh.max_per_pass", "mesh.now", "heap.num_shards",
/// "heap.flush_dirty", "epoch.fence_mode",
/// "stats.committed_bytes", "stats.peak_committed_bytes",
/// "stats.kernel_file_bytes", "stats.dirty_bytes", "stats.mesh_count",
/// "stats.mesh_passes", "stats.mesh_passes_foreground",
/// "stats.mesh_passes_background", "stats.pages_meshed",
/// "stats.bytes_copied", "stats.mesh_ns", "stats.max_pause_ns",
/// "stats.max_pause_foreground_ns", "stats.max_pause_background_ns";
/// the background meshing runtime: "background.enabled",
/// "background.wakeups", "background.requests", "background.passes",
/// "background.poke_passes", "background.pressure_passes";
/// the pressure monitor (fresh sample per read): "pressure.frag_ppm"
/// (fragmentation of committed memory, parts-per-million),
/// "pressure.rss_bytes" (/proc/self/statm RSS, which counts a meshed
/// physical page once per virtual alias, so after meshing it overstates
/// resident memory — read PSS from /proc/self/smaps_rollup for that),
/// "pressure.committed_bytes", "pressure.in_use_bytes",
/// "pressure.span_bytes";
/// fault/degradation observability (DESIGN.md "Failure policy"):
/// "faults.injected", "faults.retried", "faults.oom_returns",
/// "faults.mesh_rollbacks", "faults.punch_fallbacks", and the write
/// leaf "faults.reset" (zeroes all of the above for delta assertions);
/// the telemetry layer (DESIGN.md "Observability"):
/// "telemetry.enabled" (r/w bool), "telemetry.ring_size" (r/w u64,
/// power of two, settable only while disabled), "telemetry.events",
/// "telemetry.overflow_events", "telemetry.rings_in_use", the write
/// leaves "telemetry.reset" and "telemetry.dump" (NewP = output path,
/// Chrome trace_event JSON), and the packed 64xu64 histogram read-outs
/// "telemetry.hist.mesh_pass", "telemetry.hist.mesh_scan",
/// "telemetry.hist.mesh_remap", "telemetry.hist.mesh_release",
/// "telemetry.hist.epoch_sync", "telemetry.hist.span_acquire",
/// "telemetry.hist.punch_syscall", "telemetry.hist.remap_syscall";
/// and "version.leaves", which enumerates every registered leaf
/// newline-joined (OldP = buffer, or null to query the needed size).
int mesh_mallctl(const char *Name, void *OldP, size_t *OldLenP, void *NewP,
                 size_t NewLen);

/// Convenience wrappers over mesh_mallctl.
size_t mesh_committed_bytes(void);
size_t mesh_mesh_now(void);

} // extern "C"

namespace mesh {

class Runtime;

/// The process-default Runtime (created on first use; never destroyed).
///
/// Environment configuration, read once at creation (invalid or
/// out-of-range values warn and keep the default):
///   MESH_NO_MESH=1      disable meshing
///   MESH_NO_RAND=1      disable randomized allocation
///   MESH_NO_BARRIER=1   disable the concurrent-mesh write barrier
///   MESH_PERIOD_MS=N    meshing rate limit (default 100)
///   MESH_PROBES=N       SplitMesher probe budget t (default 64)
///   MESH_SEED=N         RNG seed
///   MESH_BACKGROUND=0|1 background meshing thread (default 1 here;
///                       instance heaps default off)
///   MESH_BG_WAKE_MS=N   background wake / pressure sampling interval
///                       (default 100, valid 1..3600000)
///   MESH_PRESSURE_PCT=N pressure trigger: mesh when >= N% of committed
///                       bytes are not live (default 30; 0 disables)
///   MESH_PRESSURE_MIN_BYTES=N  pressure floor: never pressure-mesh a
///                       heap below N committed bytes (default 8 MiB)
///   MESH_MEMBARRIER=0|1 force the epoch fence protocol: 0 = seq-cst
///                       fallback, 1 (default) = probe for the
///                       expedited membarrier
///   MESH_FAULT_INJECT=<spec>  deterministic syscall fault injection
///                       (see support/Sys.h for the spec grammar)
///   MESH_TRACE=<path>   enable the telemetry layer at startup and
///                       write a Chrome trace_event JSON dump (load in
///                       chrome://tracing, or render with
///                       tools/mesh-top.py) to <path> at process exit
Runtime &defaultRuntime();

} // namespace mesh

#endif // MESH_API_MESH_H
