//===- MemfdArena.cpp - File-backed virtual memory arena -----------------===//

#include "arena/MemfdArena.h"

#include "support/Log.h"
#include "support/Sys.h"

#include <cassert>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

namespace mesh {

namespace {

// Everything in this file may run inside the atfork child handler or
// during preload bring-up (we *are* malloc), so failure reporting is
// restricted to fatalErrorForkSafe: write(2) + abort, no vsnprintf, no
// allocation. The one exception is fitFileSizeLimit's warning, which
// runs at bring-up only (never in the fork child) and formats nothing
// but integers, so its vsnprintf does not allocate.

/// The reservation is cut in whole spans of the largest size class.
constexpr size_t kArenaCutStep = kMaxSizeClassedObject * kMinObjectsPerSpan;

/// \p Bytes, or the largest whole-span size within the soft
/// RLIMIT_FSIZE when \p Bytes does not fit: the kernel checks the
/// memfd's ftruncate length against that limit and answers with
/// SIGXFSZ, which would kill the process before the heap exists. No-op
/// when the reservation fits.
size_t fitFileSizeLimit(size_t Bytes) {
  struct rlimit Limit;
  if (getrlimit(RLIMIT_FSIZE, &Limit) != 0 ||
      Limit.rlim_cur == RLIM_INFINITY || Limit.rlim_cur >= Bytes)
    return Bytes;
  const size_t Cut = Limit.rlim_cur / kArenaCutStep * kArenaCutStep;
  if (Cut == 0)
    fatalErrorForkSafe("arena: RLIMIT_FSIZE is below one span", EFBIG);
  static std::atomic<bool> Warned{false};
  if (!Warned.exchange(true, std::memory_order_relaxed))
    logWarning("arena reservation cut from %zu to %zu MiB to fit "
               "RLIMIT_FSIZE",
               Bytes >> 20, Cut >> 20);
  return Cut;
}

/// pwrite the whole range or die. Retries short writes and EINTR;
/// everything else is unrecoverable mid-reinitialization.
void pwriteFully(int Fd, const char *Src, size_t Len, off_t Off) {
  while (Len > 0) {
    const ssize_t N = pwrite(Fd, Src, Len, Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      fatalErrorForkSafe("fork child: pwrite to the fresh arena memfd failed",
                         errno);
    }
    Src += N;
    Off += static_cast<off_t>(N);
    Len -= static_cast<size_t>(N);
  }
}

struct ForkReplayCtx {
  int OldFd;
  int NewFd;
  char *Base;
};

/// Pass-1 visitor: copy one physical span's data extents into the new
/// file. Alias entries are skipped — a physical span appears exactly
/// once as an identity entry, which is what keeps the copy
/// once-per-distinct-physical-span. The *source* bytes are read
/// through the parent-inherited MAP_SHARED mapping (identity-mapped by
/// construction for a physical span); the hole geometry comes from
/// lseek(SEEK_DATA/SEEK_HOLE) on the inherited fd, so pages the parent
/// never materialized stay holes in the child's file too.
void copyPhysicalSpanExtents(void *CtxP, size_t VirtPageOff,
                             size_t PhysPageOff, size_t Pages) {
  if (VirtPageOff != PhysPageOff)
    return;
  auto *Ctx = static_cast<ForkReplayCtx *>(CtxP);
  off_t Cur = static_cast<off_t>(pagesToBytes(PhysPageOff));
  const off_t End = Cur + static_cast<off_t>(pagesToBytes(Pages));
  while (Cur < End) {
    off_t Data = lseek(Ctx->OldFd, Cur, SEEK_DATA);
    if (Data < 0) {
      if (errno == ENXIO)
        break; // No data at or past Cur: the rest of the span is hole.
      // SEEK_DATA unsupported (ancient kernel): degrade to copying the
      // remainder verbatim — correct, merely commits hole pages.
      Data = Cur;
    }
    if (Data >= End)
      break;
    off_t Hole = lseek(Ctx->OldFd, Data, SEEK_HOLE);
    if (Hole < 0 || Hole > End)
      Hole = End;
    pwriteFully(Ctx->NewFd, Ctx->Base + Data,
                static_cast<size_t>(Hole - Data), Data);
    Cur = Hole;
  }
}

/// Pass-3 visitor: re-establish one meshed alias on the new fd.
void remapAliasSpan(void *CtxP, size_t VirtPageOff, size_t PhysPageOff,
                    size_t Pages) {
  if (VirtPageOff == PhysPageOff)
    return;
  auto *Ctx = static_cast<ForkReplayCtx *>(CtxP);
  void *Res = sys::mmapPtr(Ctx->Base + pagesToBytes(VirtPageOff),
                           pagesToBytes(Pages), PROT_READ | PROT_WRITE,
                           MAP_SHARED | MAP_FIXED, Ctx->NewFd,
                           static_cast<off_t>(pagesToBytes(PhysPageOff)));
  if (Res == MAP_FAILED)
    fatalErrorForkSafe("fork child: alias replay mmap failed", errno);
}

} // namespace

MemfdArena::MemfdArena(size_t Bytes) : ArenaBytes(fitFileSizeLimit(Bytes)) {
  assert(Bytes % kPageSize == 0 && "arena size must be page aligned");
  // Bring-up failures stay fatal: with no arena there is no heap to
  // degrade onto, and the wrappers have already absorbed transients.
  Fd = sys::memfdCreate("mesh-arena", MFD_CLOEXEC);
  if (Fd < 0)
    fatalErrorForkSafe("memfd_create failed", errno);
  if (sys::ftruncateFd(Fd, static_cast<off_t>(ArenaBytes)) != 0)
    fatalErrorForkSafe("arena ftruncate failed", errno);
  void *Mem = sys::mmapPtr(nullptr, ArenaBytes, PROT_READ | PROT_WRITE,
                           MAP_SHARED, Fd, 0);
  if (Mem == MAP_FAILED)
    fatalErrorForkSafe("arena mmap failed", errno);
  Base = static_cast<char *>(Mem);
}

MemfdArena::~MemfdArena() {
  if (Base != nullptr)
    (void)sys::munmapPtr(Base, ArenaBytes);
  if (Fd >= 0)
    close(Fd);
}

bool MemfdArena::commit([[maybe_unused]] size_t PageOff, size_t Pages) {
  assert(PageOff + Pages <= arenaPages() && "commit beyond arena");
  if (!sys::commitGate())
    return false;
  Committed.fetch_add(Pages, std::memory_order_relaxed);
  return true;
}

bool MemfdArena::release(size_t PageOff, size_t Pages) {
  assert(PageOff + Pages <= arenaPages() && "release beyond arena");
  if (sys::fallocateFd(Fd, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                       static_cast<off_t>(pagesToBytes(PageOff)),
                       static_cast<off_t>(pagesToBytes(Pages))) != 0)
    return false;
  Committed.fetch_sub(Pages, std::memory_order_relaxed);
  return true;
}

bool MemfdArena::alias(size_t VictimPageOff, size_t KeeperPageOff,
                       size_t Pages) {
  assert(KeeperPageOff != VictimPageOff && "cannot mesh a span with itself");
  // Atomically swing the victim's virtual pages onto the keeper's file
  // offset. mmap over an existing mapping replaces it without a window
  // where the address range is unmapped, which is what makes concurrent
  // reads safe (paper Section 4.5.2: "the atomic semantics of mmap").
  void *Target = ptrForPage(VictimPageOff);
  void *Res = sys::mmapPtr(Target, pagesToBytes(Pages),
                           PROT_READ | PROT_WRITE, MAP_SHARED | MAP_FIXED, Fd,
                           static_cast<off_t>(pagesToBytes(KeeperPageOff)));
  return Res != MAP_FAILED;
}

bool MemfdArena::resetMapping(size_t PageOff, size_t Pages) {
  void *Target = ptrForPage(PageOff);
  void *Res = sys::mmapPtr(Target, pagesToBytes(Pages),
                           PROT_READ | PROT_WRITE, MAP_SHARED | MAP_FIXED, Fd,
                           static_cast<off_t>(pagesToBytes(PageOff)));
  return Res != MAP_FAILED;
}

bool MemfdArena::protect(size_t PageOff, size_t Pages, bool ReadOnly) {
  const int Prot = ReadOnly ? PROT_READ : (PROT_READ | PROT_WRITE);
  return sys::mprotectPtr(ptrForPage(PageOff), pagesToBytes(Pages), Prot) == 0;
}

void MemfdArena::dropResident(size_t PageOff, size_t Pages) {
  // On a MAP_SHARED file mapping MADV_DONTNEED only drops the PTEs —
  // contents survive in the file and refault on next touch — so this
  // is safe even if the span is still carrying data. Best-effort by
  // design: if it also fails, the pages simply stay resident.
  (void)sys::madvisePtr(ptrForPage(PageOff), pagesToBytes(Pages),
                        MADV_DONTNEED);
}

size_t MemfdArena::kernelFilePages() const {
  struct stat St;
  if (fstat(Fd, &St) != 0)
    fatalErrorForkSafe("fstat on arena fd failed", errno);
  // st_blocks counts 512-byte units.
  return static_cast<size_t>(St.st_blocks) * 512 / kPageSize;
}

void MemfdArena::reinitializeAfterFork(ForkSpanSource &Spans) {
  // Ordering note: nothing below mutates the arena until the fresh
  // file exists and is fully populated, so a failure anywhere in pass
  // 1 (reported via write(2) + abort, never allocation) leaves the
  // inherited mapping exactly as fork delivered it — usable for
  // fork-then-exec, never half-initialized.
  // These failures abort even in degraded mode: a child that cannot
  // rebuild its private file still shares physical pages with the
  // parent, and "degrading" here would mean silently corrupting both
  // processes. Transients were already absorbed by the wrappers, so a
  // failure reaching this point is persistent (see DESIGN.md "Failure
  // policy", fork-child exception).
  const int NewFd = sys::memfdCreate("mesh-arena", MFD_CLOEXEC);
  if (NewFd < 0)
    fatalErrorForkSafe("fork child: memfd_create for the fresh arena failed",
                       errno);
  if (sys::ftruncateFd(NewFd, static_cast<off_t>(ArenaBytes)) != 0)
    fatalErrorForkSafe("fork child: ftruncate on the fresh arena failed",
                       errno);

  ForkReplayCtx Ctx{Fd, NewFd, Base};

  // Pass 1: replay the file population, once per distinct physical
  // span, holes preserved (see copyPhysicalSpanExtents).
  Spans.forEachVirtualSpan(copyPhysicalSpanExtents, &Ctx);

  // Pass 2: swing the entire reservation onto the new file with the
  // identity mapping. This covers every non-span region too (clean and
  // dirty span bins, the un-carved frontier): after this, no virtual
  // address in the arena can reach the parent's file.
  void *Res = sys::mmapPtr(Base, ArenaBytes, PROT_READ | PROT_WRITE,
                           MAP_SHARED | MAP_FIXED, NewFd, 0);
  if (Res == MAP_FAILED)
    fatalErrorForkSafe("fork child: arena identity remap failed", errno);

  // Pass 3: replay meshed aliases over the identity base.
  Spans.forEachVirtualSpan(remapAliasSpan, &Ctx);

  // The inherited fd's last role was as the pass-1 copy source; drop
  // it so a long-lived forked child (prefork worker) does not pin the
  // parent's physical pages — and does not leak one fd per generation.
  if (close(Fd) != 0)
    fatalErrorForkSafe("fork child: closing the inherited arena fd failed",
                       errno);
  Fd = NewFd;
  // Committed is inherited unchanged on purpose: the heap layer
  // flushed its dirty bins pre-fork (they are not replayed here), so
  // at this point the counter covers exactly the live spans the copy
  // replayed.
}

} // namespace mesh
