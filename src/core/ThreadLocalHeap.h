//===- ThreadLocalHeap.h - Per-thread allocation fast path ------*- C++ -*-===//
///
/// \file
/// Thread-local heaps (paper Section 4.3): one shuffle vector per size
/// class plus a thread-local RNG. malloc and free requests start here
/// and complete without locks in the common case; large allocations and
/// non-local frees forward to the global heap.
///
/// Beyond the paper's one attached span per class, each class keeps
/// one *spare*: the span the vector last ran dry on. The spare stays
/// attached and owner-tagged, so it is never binned, meshed or drained
/// by another thread. A refill swaps the spare back into the vector
/// when it has free slots, and only a full spare goes back to the
/// global heap (one shard lock for the release, one for the new span).
/// A thread whose working set fits in two spans per class therefore
/// never reaches a shard lock or an epoch synchronize. Retention bound:
/// at most two spans per class per thread.
///
/// free() dispatches in O(1): a last-freed-vector cache catches repeat
/// frees with zero atomics, and everything else takes one lock-free
/// page-table read plus an is-it-mine check against this thread's
/// attached and spare MiniHeaps. A hit on the attached span completes
/// in the shuffle vector; a hit on the spare clears its bitmap bit.
///
//===----------------------------------------------------------------------===//

#ifndef MESH_CORE_THREADLOCALHEAP_H
#define MESH_CORE_THREADLOCALHEAP_H

#include "core/GlobalHeap.h"
#include "core/ShuffleVector.h"
#include "core/SizeClass.h"
#include "support/Rng.h"

#include <cstddef>

namespace mesh {

class ThreadLocalHeap {
public:
  ThreadLocalHeap(GlobalHeap *Global, uint64_t Seed);
  ~ThreadLocalHeap();

  ThreadLocalHeap(const ThreadLocalHeap &) = delete;
  ThreadLocalHeap &operator=(const ThreadLocalHeap &) = delete;

  /// Allocates \p Bytes: pops from the size class's shuffle vector,
  /// refilling it when exhausted (from the spare span, else from the
  /// global heap); requests larger than 16 KiB forward to the global
  /// heap (Figure 4 pseudocode).
  void *malloc(size_t Bytes);

  /// Frees \p Ptr: the owning MiniHeap is found through the page table
  /// (one read, no epoch); if it is this thread's attached span the
  /// free completes in its shuffle vector, if it is the spare it
  /// clears the bitmap bit, otherwise it forwards to the global heap
  /// (Figure 4 pseudocode).
  void free(void *Ptr);

  /// Detaches every shuffle vector and hands back every spare,
  /// returning all of this thread's spans to the global heap. Called on
  /// thread exit and by tests.
  void releaseAll();

  Rng &rng() { return Random; }

private:
  /// The spans one size class holds: at most these two.
  struct HeldSpans {
    /// The shuffle vector's span (nullptr when detached).
    MiniHeap *Attached = nullptr;
    /// The span the vector last ran dry on, kept for the next refill.
    MiniHeap *Spare = nullptr;
  };

  /// Refill slow path: the spent span becomes the spare, and the old
  /// spare (when it has free slots) or a fresh global-heap span is
  /// attached. Returns false when the arena cannot produce a span.
  bool refill(int SizeClass);
  /// Clears \p MH's owner tag and returns it to the global heap.
  void handBack(MiniHeap *MH);

  ShuffleVector Vectors[kNumSizeClasses];
  /// Dense mirror of the held set (kept in lock-step with each
  /// MiniHeap's attachedOwner tag — the tag records ownership on the
  /// MiniHeap itself, this array is its cache-friendly thread-local
  /// image): the is-it-mine check after the page-table read is a
  /// pointer-equality scan over this array — no atomics and no
  /// dereference of a MiniHeap that is not ours (it may be retiring
  /// concurrently), so the local fast path needs no epoch section. A
  /// stale page-table read that aliases a recycled MiniHeap address is
  /// caught before anything is freed: by the vector's span-range check
  /// for the attached span, by offsetOfAligned for the spare.
  HeldSpans Held[kNumSizeClasses];
  /// Number of non-null Held pointers; lets a thread that only frees (a
  /// consumer in a producer/consumer pipeline) skip the is-it-mine scan
  /// entirely.
  int HeldCount = 0;
  /// The vector that served the most recent local free; repeat frees
  /// into the same span skip even the page-table read.
  ShuffleVector *LastFreed = nullptr;
  GlobalHeap *Global;
  Rng Random;
};

} // namespace mesh

#endif // MESH_CORE_THREADLOCALHEAP_H
