//===- MemfdArena.h - File-backed virtual memory arena ----------*- C++ -*-===//
///
/// \file
/// The virtual-memory substrate from paper Section 4.5.1. Mesh's arena
/// is not an anonymous mapping: it is backed by a temporary in-memory
/// file (memfd_create) so that the same file offset — a physical span —
/// can be mapped at several virtual addresses. Meshing a span is then:
///
///   1. copy live objects from the victim span into the keeper span,
///   2. mmap(MAP_FIXED) every victim virtual span onto the keeper's
///      file offset (atomic with respect to concurrent readers), and
///   3. fallocate(FALLOC_FL_PUNCH_HOLE) the victim's old file pages,
///      returning the physical memory to the OS.
///
/// The arena also tracks a precise committed-page count, which is the
/// allocator-side equivalent of the RSS measured by the paper's mstat
/// tool (see DESIGN.md, substitution table).
///
//===----------------------------------------------------------------------===//

#ifndef MESH_ARENA_MEMFDARENA_H
#define MESH_ARENA_MEMFDARENA_H

#include "support/Common.h"

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace mesh {

/// Span enumeration for MemfdArena::reinitializeAfterFork().
/// Implemented by the heap layer (GlobalHeap walks its page table);
/// declared here so the arena substrate needs no core/ dependency.
///
/// The contract is fork-async-signal-tolerant: implementations run in
/// the atfork child handler and must not allocate, take locks, or call
/// anything that is not async-signal-safe. Plain function pointer +
/// context instead of std::function for the same reason.
class ForkSpanSource {
public:
  /// Called once per live *virtual* span. Identity-mapped spans report
  /// VirtPageOff == PhysPageOff; meshed aliases report the keeper's
  /// physical span offset. A physical span is visited exactly once as
  /// an identity entry (plus once per alias meshed onto it).
  using SpanVisitor = void (*)(void *Ctx, size_t VirtPageOff,
                               size_t PhysPageOff, size_t Pages);

  /// Invokes \p Visit for every live virtual span. May be called more
  /// than once per reinitialization (one walk per replay pass).
  virtual void forEachVirtualSpan(SpanVisitor Visit, void *Ctx) = 0;

protected:
  ~ForkSpanSource() = default;
};

/// A contiguous reservation of virtual address space backed by a
/// memfd file with identity virtual->file mapping at creation.
///
/// Pages are addressed by their page offset from the arena base. All
/// methods are thread-compatible: callers (MeshableArena / GlobalHeap)
/// serialize mutations under the global heap lock; the committed-page
/// counter is atomic so statistics reads need no lock.
class MemfdArena {
public:
  /// Reserves \p ArenaBytes of address space (default 16 GiB; address
  /// space is free — physical pages are committed on first touch).
  /// Under a soft RLIMIT_FSIZE below \p ArenaBytes the reservation is
  /// cut to the limit in whole 128 KiB spans, with one warning per
  /// process (the memfd's length counts against that limit); it is
  /// fatal only when not even one span fits. arenaBytes() reports the
  /// size in force, and the fork child's fresh file reuses it.
  explicit MemfdArena(size_t ArenaBytes = size_t{16} << 30);
  ~MemfdArena();

  MemfdArena(const MemfdArena &) = delete;
  MemfdArena &operator=(const MemfdArena &) = delete;

  char *base() const { return Base; }
  size_t arenaBytes() const { return ArenaBytes; }
  size_t arenaPages() const { return ArenaBytes >> kPageShift; }

  /// True iff \p Ptr lies inside the arena reservation.
  bool contains(const void *Ptr) const {
    auto P = reinterpret_cast<uintptr_t>(Ptr);
    auto B = reinterpret_cast<uintptr_t>(Base);
    return P >= B && P < B + ArenaBytes;
  }

  char *ptrForPage(size_t PageOff) const {
    return Base + pagesToBytes(PageOff);
  }

  size_t pageForPtr(const void *Ptr) const {
    return (reinterpret_cast<uintptr_t>(Ptr) -
            reinterpret_cast<uintptr_t>(Base)) >>
           kPageShift;
  }

  /// Marks \p Pages pages at \p PageOff as committed (about to be
  /// touched). Pages in a memfd materialize on first write; this keeps
  /// our accounting in sync with what the OS will charge us. Returns
  /// false — without committing anything — when the sys::commitGate
  /// fault-injection gate refuses the pages (the stand-in for the
  /// kernel's refusal, which un-injected arrives as SIGBUS at first
  /// touch; see DESIGN.md "Failure policy").
  [[nodiscard]] bool commit(size_t PageOff, size_t Pages);

  /// Punches a hole over the file pages under the identity mapping at
  /// \p PageOff, returning physical memory to the OS. The virtual pages
  /// remain mapped and read back as zero (and re-commit on next touch).
  /// Returns false with the committed count unchanged when the punch
  /// fails; the caller decides how to degrade (the pages stay backed
  /// and keep their contents).
  [[nodiscard]] bool release(size_t PageOff, size_t Pages);

  /// Remaps the virtual span at \p VictimPageOff onto the file offset
  /// of \p KeeperPageOff (both spans are \p Pages long). Step 2 of a
  /// mesh; the caller has already copied live objects and must have
  /// arranged that no thread writes the victim span during the remap
  /// (see WriteBarrier). Does not touch the committed-page count: the
  /// caller releases the victim's own file pages separately. Returns
  /// false when the remap fails; the victim mapping is unchanged (mmap
  /// over an existing mapping either fully replaces it or fails with
  /// the old mapping intact), so the caller can roll the mesh back.
  [[nodiscard]] bool alias(size_t VictimPageOff, size_t KeeperPageOff,
                           size_t Pages);

  /// Restores the identity virtual->file mapping for \p Pages pages at
  /// \p PageOff. Used when a previously-meshed virtual span is recycled
  /// for a fresh allocation. The underlying file pages are holes, so
  /// the span reads back as zero. Returns false when the remap fails
  /// (old alias mapping intact).
  [[nodiscard]] bool resetMapping(size_t PageOff, size_t Pages);

  /// Applies mprotect with \p ReadOnly to the span (write barrier).
  /// Returns false when the protection change fails.
  [[nodiscard]] bool protect(size_t PageOff, size_t Pages, bool ReadOnly);

  /// Best-effort MADV_DONTNEED over the identity-mapped span — the
  /// degraded substitute when release() fails: drops the PTEs and RSS
  /// charge, but file pages (and kernelFilePages) stay allocated until
  /// a later punch succeeds. Only meaningful on identity mappings.
  void dropResident(size_t PageOff, size_t Pages);

  /// Pages this arena believes are backed by physical memory.
  size_t committedPages() const {
    return Committed.load(std::memory_order_relaxed);
  }

  /// Ground truth from the kernel: file blocks actually allocated to
  /// the memfd, in pages. Used by tests to validate our accounting.
  size_t kernelFilePages() const;

  /// The fork-child copy protocol (reference implementation's
  /// approach): after fork(), parent and child share this arena's
  /// memfd — MAP_SHARED data pages under COW-private metadata — so
  /// both sides would hand out the same slots and corrupt each other.
  /// Called from the atfork child handler (single-threaded, every heap
  /// lock inherited held, the parent fenced from mutating the shared
  /// file), this:
  ///
  ///   1. creates a fresh memfd and replays the file population — each
  ///      physical span's *data extents* are copied at their original
  ///      file offsets, read through the parent-inherited mapping;
  ///      punched holes stay holes, so committedPages() and
  ///      kernelFilePages() stay truthful in the child;
  ///   2. swings the whole reservation onto the new file with one
  ///      identity mmap(MAP_FIXED | MAP_SHARED) (atomic; no unmapped
  ///      window);
  ///   3. replays every meshed alias onto the new fd;
  ///   4. closes the inherited fd.
  ///
  /// Every failure path reports via write(2) and aborts without
  /// allocating (fatalErrorForkSafe); a failed memfd_create aborts
  /// before the arena is touched, so it never half-initializes.
  void reinitializeAfterFork(ForkSpanSource &Spans);

private:
  char *Base = nullptr;
  size_t ArenaBytes = 0;
  int Fd = -1;
  std::atomic<size_t> Committed{0};
};

} // namespace mesh

#endif // MESH_ARENA_MEMFDARENA_H
