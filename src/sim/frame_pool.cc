// The size-class pool behind every sim::Task frame (sim/task.h).
//
// A free block is a singly linked list node: its first word points at
// the next free block of the same class. Under AddressSanitizer the
// whole block is poisoned while it sits in the list (the link word is
// unpoisoned only for the instant it is read), and a live frame's slack
// past its requested size stays poisoned, so a resumed dangling handle
// or an overrun of the frame reads poisoned memory. Outside ASan the
// poison macros compile to nothing.
#include <array>
#include <new>

#include "sim/task.h"

#if defined(__SANITIZE_ADDRESS__)
#define HMR_FRAME_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HMR_FRAME_POOL_ASAN 1
#endif
#endif

#ifdef HMR_FRAME_POOL_ASAN
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace hmr::sim::detail {
namespace {

constexpr std::size_t kClasses = kMaxPooledFrame / kFrameGranule;
static_assert(kMaxPooledFrame % kFrameGranule == 0);

struct FreeBlock {
  FreeBlock* next;
};

struct SizeClass {
  FreeBlock* head = nullptr;
  std::size_t count = 0;
};

// Trivially destructible on purpose: a frame destroyed during static
// destruction (an engine owned by a static) still finds a live pool.
std::array<SizeClass, kClasses> pool;

// Class index of a frame of `size` bytes (1 <= size <= kMaxPooledFrame;
// a coroutine frame holds at least its resume and destroy pointers).
std::size_t class_of(std::size_t size) {
  return (size - 1) / kFrameGranule;
}

std::size_t block_bytes(std::size_t cls) { return (cls + 1) * kFrameGranule; }

// Hands the retained blocks back to the global allocator at exit: the
// leak checker does not follow the links through poisoned memory, so it
// would report them. Every class is then left full, so a frame freed
// later (one an engine owned by a longer-lived static holds) goes
// straight back as well.
struct ReturnBlocksAtExit {
  ~ReturnBlocksAtExit() {
    for (std::size_t cls = 0; cls < kClasses; ++cls) {
      SizeClass& sc = pool[cls];
      while (FreeBlock* free = sc.head) {
        ASAN_UNPOISON_MEMORY_REGION(free, block_bytes(cls));
        sc.head = free->next;
        ::operator delete(free, block_bytes(cls));
      }
      sc.count = kFramesPerClass;
    }
  }
} return_blocks_at_exit;

}  // namespace

void* allocate_frame(std::size_t size) {
  if (size > kMaxPooledFrame) return ::operator new(size);
  const std::size_t cls = class_of(size);
  SizeClass& sc = pool[cls];
  const std::size_t block = block_bytes(cls);
  if (FreeBlock* free = sc.head) {
    ASAN_UNPOISON_MEMORY_REGION(free, sizeof(FreeBlock));
    sc.head = free->next;
    --sc.count;
    ASAN_UNPOISON_MEMORY_REGION(free, size);
    return free;
  }
  void* fresh = ::operator new(block);
  ASAN_POISON_MEMORY_REGION(static_cast<char*>(fresh) + size, block - size);
  return fresh;
}

void release_frame(void* frame, std::size_t size) noexcept {
  if (size > kMaxPooledFrame) {
    ::operator delete(frame, size);
    return;
  }
  const std::size_t cls = class_of(size);
  SizeClass& sc = pool[cls];
  const std::size_t block = block_bytes(cls);
  if (sc.count >= kFramesPerClass) {
    ASAN_UNPOISON_MEMORY_REGION(frame, block);
    ::operator delete(frame, block);
    return;
  }
  auto* free = static_cast<FreeBlock*>(frame);
  ASAN_UNPOISON_MEMORY_REGION(free, sizeof(FreeBlock));
  free->next = sc.head;
  sc.head = free;
  ++sc.count;
  ASAN_POISON_MEMORY_REGION(frame, block);
}

std::size_t retained_frames(std::size_t size) noexcept {
  if (size == 0 || size > kMaxPooledFrame) return 0;
  return pool[class_of(size)].count;
}

}  // namespace hmr::sim::detail
