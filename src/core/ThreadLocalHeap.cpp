//===- ThreadLocalHeap.cpp - Per-thread allocation fast path ----------------===//

#include "core/ThreadLocalHeap.h"

#include <cassert>

namespace mesh {

ThreadLocalHeap::ThreadLocalHeap(GlobalHeap *GlobalHeapPtr, uint64_t Seed)
    : Global(GlobalHeapPtr), Random(Seed) {
  const bool Randomized = Global->options().Randomized;
  for (auto &V : Vectors)
    V.init(&Random, Randomized);
}

ThreadLocalHeap::~ThreadLocalHeap() { releaseAll(); }

void ThreadLocalHeap::handBack(MiniHeap *MH) {
  --HeldCount;
  MH->setAttachedOwner(nullptr);
  Global->releaseMiniHeap(MH);
}

void ThreadLocalHeap::releaseAll() {
  LastFreed = nullptr;
  for (int Class = 0; Class < kNumSizeClasses; ++Class) {
    HeldSpans &H = Held[Class];
    if (Vectors[Class].isAttached()) {
      H.Attached = nullptr;
      handBack(Vectors[Class].detach());
    }
    if (H.Spare != nullptr) {
      MiniHeap *Spare = H.Spare;
      H.Spare = nullptr;
      handBack(Spare);
    }
  }
}

bool ThreadLocalHeap::refill(int SizeClass) {
  ShuffleVector &V = Vectors[SizeClass];
  HeldSpans &H = Held[SizeClass];
  // The spent span stays attached and owner-tagged as the new spare:
  // frees of its objects keep completing locally, and the next refill
  // may swap it back in. Exhausted means every cached offset was handed
  // out, so the detach returns no bits.
  MiniHeap *Next = H.Spare;
  H.Spare = V.isAttached() ? V.detach() : nullptr;
  H.Attached = nullptr;
  // The old spare is ours, so other threads can only clear its bits: a
  // spare seen with a free slot still has one when attach claims it.
  if (Next != nullptr && Next->isFull()) {
    handBack(Next);
    Next = nullptr;
  }
  if (Next == nullptr) {
    // Both shard-lock round trips (the release above and this refill)
    // happen only when the two spans this class may hold are both full.
    Next = Global->allocMiniHeapForClass(SizeClass);
    if (Next == nullptr)
      return false; // Arena exhausted/commit refused: caller sets ENOMEM.
    Next->setAttachedOwner(this);
    ++HeldCount;
  }
  const uint32_t Pulled = V.attach(Next, Global->arenaBase());
  assert(Pulled > 0 && "attached a full span");
  (void)Pulled;
  // Publish the fast-path mirror last, once the vector is consistent.
  H.Attached = Next;
  return true;
}

void *ThreadLocalHeap::malloc(size_t Bytes) {
  int SizeClass;
  if (!sizeClassForSize(Bytes, &SizeClass))
    return Global->largeAlloc(Bytes);

  ShuffleVector &V = Vectors[SizeClass];
  if (V.isExhausted() && !refill(SizeClass))
    return nullptr;
  return V.malloc();
}

void ThreadLocalHeap::free(void *Ptr) {
  if (Ptr == nullptr)
    return;
  // Hottest path: repeated frees into the span that served the last
  // one — pure thread-local state, no atomics at all.
  if (LastFreed != nullptr && LastFreed->contains(Ptr)) {
    LastFreed->free(Ptr);
    return;
  }
  // O(1) dispatch: one page-table read resolves the owning MiniHeap,
  // then the is-it-mine check compares that pointer against this
  // thread's held spans (the dense mirror of each span's attachedOwner
  // tag). The identity accessor is the epoch-free variant: pointer
  // equality never dereferences MH, so a MiniHeap concurrently retired
  // by a mesh pass cannot be touched — the remote path below
  // re-resolves under the epoch.
  if (MiniHeap *MH =
          HeldCount > 0 ? Global->miniheapIdentityFor(Ptr) : nullptr) {
    for (int Class = 0; Class < kNumSizeClasses; ++Class) {
      const HeldSpans &H = Held[Class];
      if (H.Attached == MH) {
        ShuffleVector &V = Vectors[Class];
        // A mirror hit means MH is attached to us, so dereferencing it
        // is safe — the tag and the mirror must agree.
        assert(MH->attachedOwner() == this &&
               "Held mirror out of sync with the owner tag");
        // Validates the span range: rejects frees into meshed-in alias
        // spans (those go global) and the stale page-table read whose
        // MiniHeap address was recycled into a new attachment of ours.
        if (V.contains(Ptr)) {
          V.free(Ptr);
          LastFreed = &V;
          return;
        }
        break;
      }
      if (H.Spare == MH) {
        // The spare is attached and ours: no mesh pass, drain or other
        // thread can retire it, so it is dereferenced without an epoch
        // section, and clearing its bit needs no pending-stash push —
        // the next swap claims the slot. A pointer outside its spans
        // (a stale aliased read), an interior pointer or a bit already
        // clear (a double free) goes global for diagnosis.
        assert(MH->attachedOwner() == this &&
               "Held mirror out of sync with the owner tag");
        uint32_t Off = 0;
        if (MH->offsetOfAligned(Ptr, Global->arenaBase(), &Off) &&
            MH->bitmap().unset(Off))
          return;
        break;
      }
    }
  }
  Global->free(Ptr);
}

} // namespace mesh
