// Slab/free-list event storage for the discrete-event engine.
//
// Every scheduled event used to cost a heap-allocated std::function plus an
// unordered_map insert/find/erase round-trip; at 10k-node scale the engine
// itself became the hot path (DESIGN.md §13). The arena replaces both:
//
//  * A callback is one shape: a trivially copyable callable of at most two
//    words (EventCallback), stored inline in its slot next to the one
//    function that invokes it. Every event the simulator schedules fits: a
//    coroutine handle, `this`, or `this` plus an index. A slot is 32 bytes,
//    and copying one (growing the slot table, firing an event) is a plain
//    byte copy: nothing to destroy, relocate or free.
//  * EventIds are {slot index, generation} pairs. Cancel is O(1): bump the
//    slot's generation and recycle it through the free list — no map erase,
//    and a stale id can never touch a recycled slot because its generation
//    no longer matches.
//  * The time-ordered heap holds plain 24-byte entries. Cancelled events
//    leave tombstones that are skipped on pop; when tombstones outnumber
//    live entries the heap is compacted in O(live), so cancel-heavy runs
//    (timeouts that rarely fire, a flow event replaced on every re-solve)
//    keep bounded memory.
//
// Determinism contract: entries are ordered by (timestamp, sequence) where
// the sequence number increments once per schedule() call — equal-timestamp
// events run in exact schedule order (FIFO), byte-for-byte the same order
// the previous map-based engine produced.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/units.hpp"

namespace c4h::sim {

inline constexpr std::size_t kEventCallbackBytes = 2 * sizeof(void*);

/// The one shape a scheduled event takes: a callable that is trivially
/// copyable and at most two words, so it is stored inline and copied as
/// bytes. Capture a coroutine handle, `this`, or `this` plus an index;
/// anything larger belongs in the object `this` points at.
template <typename F>
concept EventCallback = std::is_trivially_copyable_v<std::remove_cvref_t<F>> &&
                        sizeof(std::remove_cvref_t<F>) <= kEventCallbackBytes &&
                        alignof(std::remove_cvref_t<F>) <= alignof(void*);

class EventArena {
 public:
  /// A stored callback: the callable's bytes and the function that invokes
  /// them. Trivially copyable like the callable it holds.
  class Callback {
   public:
    Callback() = default;
    template <EventCallback F>
    explicit Callback(F&& fn) : invoke_(&invoke<std::remove_cvref_t<F>>) {
      ::new (static_cast<void*>(buf_)) std::remove_cvref_t<F>(std::forward<F>(fn));
    }

    void operator()() { invoke_(buf_); }

   private:
    template <typename Fn>
    static void invoke(void* p) {
      (*std::launder(static_cast<Fn*>(p)))();
    }

    alignas(void*) unsigned char buf_[kEventCallbackBytes]{};
    void (*invoke_)(void*) = nullptr;
  };

  EventArena() = default;
  EventArena(const EventArena&) = delete;
  EventArena& operator=(const EventArena&) = delete;

  /// Opaque handle: 0 is "never scheduled"; otherwise (generation << 32) |
  /// (slot + 1). A generation survives at most one scheduled lifetime, so a
  /// stale handle stays stale even after its slot is recycled (the
  /// generation would have to wrap the full 32-bit space between schedule
  /// and cancel to collide — billions of reuses of one slot).
  using Handle = std::uint64_t;

  Handle schedule(TimePoint at, Callback fn) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    s.fn = fn;
    ++live_;
    heap_.push_back(Entry{at, ++next_seq_, slot, s.gen});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return make_handle(slot, s.gen);
  }

  /// O(1); safe on fired, cancelled, and default handles.
  void cancel(Handle h) {
    if (!pending(h)) return;
    release_slot(static_cast<std::uint32_t>((h & 0xffffffffu) - 1));
    ++tombstones_;
    maybe_compact();
  }

  /// A slot is live exactly while its generation matches the one handed out
  /// when it was scheduled: firing and cancelling both bump it.
  bool pending(Handle h) const {
    if (h == 0) return false;
    const std::uint32_t slot = static_cast<std::uint32_t>(h & 0xffffffffu) - 1;
    return slot < slots_.size() && slots_[slot].gen == static_cast<std::uint32_t>(h >> 32);
  }

  std::size_t live_count() const { return live_; }
  /// Heap entries including tombstones — tests assert compaction keeps this
  /// within a constant factor of live_count().
  std::size_t heap_size() const { return heap_.size(); }

  /// Timestamp of the earliest live event; false when none remain.
  /// Prunes tombstoned heads as a side effect.
  bool peek(TimePoint& at) {
    while (!heap_.empty()) {
      const Entry& top = heap_.front();
      if (live(top)) {
        at = top.at;
        return true;
      }
      pop_top();
      if (tombstones_ > 0) --tombstones_;
    }
    return false;
  }

  /// Copies the earliest live callback into `out` (caller-side storage, so
  /// a callback that grows the slot table while running cannot invalidate
  /// itself), frees its slot, and returns its timestamp.
  /// Pre: peek() returned true.
  TimePoint take_earliest(Callback& out) {
    const Entry top = heap_.front();
    pop_top();
    out = slots_[top.slot].fn;
    release_slot(top.slot);
    return top.at;
  }

 private:
  struct Slot {
    Callback fn;
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNone;
  };

  struct Entry {
    TimePoint at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  // Min-heap via std::push_heap's max-heap machinery: "later" sorts first.
  // A stateless functor, not a function pointer, so the heap algorithms
  // inline the comparison instead of calling out on every sift step.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  static constexpr std::uint32_t kNone = UINT32_MAX;

  static Handle make_handle(std::uint32_t slot, std::uint32_t gen) {
    return (std::uint64_t{gen} << 32) | (slot + 1);
  }

  bool live(const Entry& e) const { return slots_[e.slot].gen == e.gen; }

  std::uint32_t acquire_slot() {
    if (free_head_ != kNone) {
      const std::uint32_t i = free_head_;
      free_head_ = slots_[i].next_free;
      return i;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void release_slot(std::uint32_t index) {
    Slot& s = slots_[index];
    ++s.gen;
    s.next_free = free_head_;
    free_head_ = index;
    --live_;
  }

  void pop_top() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }

  void maybe_compact() {
    // Rebuild once tombstones dominate: O(live) amortized against the
    // cancels that created them, and it bounds heap memory at ~2× the live
    // event count no matter how cancel-heavy the run is.
    if (tombstones_ < 64 || tombstones_ < heap_.size() / 2) return;
    std::erase_if(heap_, [this](const Entry& e) { return !live(e); });
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    tombstones_ = 0;
  }

  std::vector<Slot> slots_;
  std::vector<Entry> heap_;
  std::uint32_t free_head_ = kNone;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::size_t tombstones_ = 0;
};

}  // namespace c4h::sim
