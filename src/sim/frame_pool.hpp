// Size-class free lists for coroutine frames.
//
// Every Task awaited at a layer boundary allocates a frame, and most of them
// die a few simulated microseconds later, so the op path would otherwise make
// one heap allocation per layer crossing. Frames up to kMaxBytes are rounded
// up to kClassBytes classes and recycled LIFO through a link word written
// into the free block; larger frames go straight to ::operator new. Blocks
// are kept for reuse and never handed back to the heap, so the pool holds
// each class's peak number of live frames.
//
// Process-wide and unsynchronized: the simulator is single-threaded
// (task.hpp), and nothing in the repository starts a thread.
//
// AddressSanitizer does not see memory reused inside a pool, so a block on a
// free list is poisoned whole, link word included (it overlays the frame's
// resume pointer): touching a destroyed frame reports use-after-poison. The
// block is unpoisoned when it is handed out again. Both macros are no-ops in
// builds without ASan.
#pragma once

#include <array>
#include <cstddef>
#include <new>

#include <sanitizer/asan_interface.h>

namespace c4h::sim::detail {

class FramePool {
 public:
  static constexpr std::size_t kClassBytes = 64;
  static constexpr std::size_t kMaxBytes = 4096;

#if defined(__SANITIZE_ADDRESS__)
  // LeakSanitizer ignores pointers stored in poisoned memory, so it would
  // report every free block past a list's head as leaked. Its check runs
  // after static destructors: expose the link words so it can follow the
  // lists. A frame that was never released is still reported.
  ~FramePool() {
    for (Block* b : free_) {
      while (b != nullptr) {
        ASAN_UNPOISON_MEMORY_REGION(b, sizeof(Block));
        b = b->next;
      }
    }
  }
#endif

  void* allocate(std::size_t n) {
    if (n > kMaxBytes) return ::operator new(n);
    Block*& head = free_[class_of(n)];
    if (head == nullptr) return ::operator new(block_bytes(n));
    Block* b = head;
    ASAN_UNPOISON_MEMORY_REGION(b, block_bytes(n));
    head = b->next;
    return b;
  }

  void release(void* p, std::size_t n) noexcept {
    if (n > kMaxBytes) {
      ::operator delete(p, n);
      return;
    }
    Block*& head = free_[class_of(n)];
    head = ::new (p) Block{head};
    ASAN_POISON_MEMORY_REGION(p, block_bytes(n));
  }

 private:
  struct Block {
    Block* next;
  };

  // Class of an n-byte frame (0 < n <= kMaxBytes), and the size of its blocks.
  static constexpr std::size_t class_of(std::size_t n) { return (n - 1) / kClassBytes; }
  static constexpr std::size_t block_bytes(std::size_t n) {
    return (class_of(n) + 1) * kClassBytes;
  }

  std::array<Block*, kMaxBytes / kClassBytes> free_{};
};

/// The one pool every Task frame comes from.
inline FramePool frame_pool;

}  // namespace c4h::sim::detail
