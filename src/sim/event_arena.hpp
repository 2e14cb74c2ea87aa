// Slab/free-list event storage for the discrete-event engine.
//
// Every scheduled event used to cost a heap-allocated std::function plus an
// unordered_map insert/find/erase round-trip; at 10k-node scale the engine
// itself became the hot path (DESIGN.md §13). The arena replaces both:
//
//  * Callbacks live inline in a fixed-size small buffer inside the slot
//    (kInlineBytes covers every capture the simulator schedules: a coroutine
//    handle, `this`, `this` + a flow id). Larger callables fall back to one
//    heap allocation, type-erased behind the same ops table.
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

class EventArena {
 public:
  /// Inline capture budget. The engine's own callbacks are ≤ 16 bytes; the
  /// headroom lets user lambdas with a few captured pointers stay inline.
  static constexpr std::size_t kInlineBytes = 48;

  EventArena() = default;
  EventArena(const EventArena&) = delete;
  EventArena& operator=(const EventArena&) = delete;

  ~EventArena() { clear(); }

  /// Opaque handle: 0 is "never scheduled"; otherwise (generation << 32) |
  /// (slot + 1). A generation survives at most one scheduled lifetime, so a
  /// stale handle stays stale even after its slot is recycled (the
  /// generation would have to wrap the full 32-bit space between schedule
  /// and cancel to collide — billions of reuses of one slot).
  using Handle = std::uint64_t;

  template <typename F>
  Handle schedule(TimePoint at, F&& fn) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    emplace_callback(s, std::forward<F>(fn));
    ++live_;
    heap_.push_back(Entry{at, ++next_seq_, slot, s.gen});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return make_handle(slot, s.gen);
  }

  /// O(1); safe on fired, cancelled, and default handles.
  void cancel(Handle h) {
    Slot* s = live_slot(h);
    if (s == nullptr) return;
    release_slot(*s, static_cast<std::uint32_t>((h & 0xffffffffu) - 1));
    ++tombstones_;
    maybe_compact();
  }

  bool pending(Handle h) const { return live_slot(h) != nullptr; }

  std::size_t live_count() const { return live_; }
  /// Heap entries including tombstones — tests assert compaction keeps this
  /// within a constant factor of live_count().
  std::size_t heap_size() const { return heap_.size(); }

  /// Timestamp of the earliest live event; false when none remain.
  /// Prunes tombstoned heads as a side effect.
  bool peek(TimePoint& at) {
    while (!heap_.empty()) {
      const Entry& top = heap_.front();
      if (slots_[top.slot].gen == top.gen && slots_[top.slot].ops != nullptr) {
        at = top.at;
        return true;
      }
      pop_top();
      if (tombstones_ > 0) --tombstones_;
    }
    return false;
  }

  /// Moves the earliest live callback into `out` (caller-provided stack
  /// storage, so a callback that grows the arena while running cannot
  /// invalidate itself), frees its slot, and returns its timestamp.
  /// Pre: peek() returned true.
  class FiredCallback;
  TimePoint take_earliest(FiredCallback& out);

  /// Destroys every pending callback (teardown only).
  void clear() {
    for (Slot& s : slots_) {
      if (s.ops != nullptr) {
        s.ops->destroy(target(s));
        s.ops = nullptr;
      }
    }
    heap_.clear();
    free_head_ = kNone;
    live_ = 0;
    tombstones_ = 0;
    // Slots stay allocated; gens survive so stale handles remain stale.
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      ++slots_[i].gen;
      slots_[i].next_free = free_head_;
      free_head_ = i;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*) noexcept;
    // Move-constructs *from into to, then destroys *from.
    void (*relocate)(void* from, void* to) noexcept;
    bool heap;  // buf holds a pointer to the callable, not the callable
  };

  struct Slot {
    alignas(std::max_align_t) unsigned char buf[kInlineBytes];
    const Ops* ops = nullptr;  // nullptr → slot free
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNone;

    Slot() = default;
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;
    // Growing slots_ reallocates the vector; inline callables are only
    // required to be nothrow move-constructible, not trivially relocatable,
    // so the byte-wise default move would break self-referential captures.
    // Route the move through the ops table's relocate instead.
    Slot(Slot&& o) noexcept : ops(o.ops), gen(o.gen), next_free(o.next_free) {
      if (ops != nullptr) {
        if (ops->heap) {
          *reinterpret_cast<void**>(buf) = *reinterpret_cast<void**>(o.buf);
        } else {
          ops->relocate(o.buf, buf);
        }
      }
      o.ops = nullptr;
    }
    Slot& operator=(Slot&&) = delete;
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

  template <typename F>
  struct OpsFor {
    using Fn = std::decay_t<F>;
    static constexpr bool fits =
        sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<Fn>;

    static void invoke(void* p) { (*static_cast<Fn*>(p))(); }
    static void destroy_inline(void* p) noexcept { static_cast<Fn*>(p)->~Fn(); }
    static void destroy_heap(void* p) noexcept { delete static_cast<Fn*>(p); }
    static void relocate_inline(void* from, void* to) noexcept {
      ::new (to) Fn(std::move(*static_cast<Fn*>(from)));
      static_cast<Fn*>(from)->~Fn();
    }
    static constexpr Ops inline_ops{&invoke, &destroy_inline, &relocate_inline, false};
    static constexpr Ops heap_ops{&invoke, &destroy_heap, nullptr, true};
  };

  static Handle make_handle(std::uint32_t slot, std::uint32_t gen) {
    return (std::uint64_t{gen} << 32) | (slot + 1);
  }

  void* target(Slot& s) const {
    void* p = const_cast<unsigned char*>(s.buf);
    return s.ops->heap ? *static_cast<void**>(p) : p;
  }

  Slot* live_slot(Handle h) {
    return const_cast<Slot*>(std::as_const(*this).live_slot_impl(h));
  }
  const Slot* live_slot(Handle h) const { return live_slot_impl(h); }
  const Slot* live_slot_impl(Handle h) const {
    if (h == 0) return nullptr;
    const std::uint32_t slot = static_cast<std::uint32_t>(h & 0xffffffffu) - 1;
    const auto gen = static_cast<std::uint32_t>(h >> 32);
    if (slot >= slots_.size()) return nullptr;
    const Slot& s = slots_[slot];
    return (s.gen == gen && s.ops != nullptr) ? &s : nullptr;
  }

  std::uint32_t acquire_slot() {
    if (free_head_ != kNone) {
      const std::uint32_t i = free_head_;
      free_head_ = slots_[i].next_free;
      return i;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void release_slot(Slot& s, std::uint32_t index) {
    s.ops->destroy(target(s));
    s.ops = nullptr;
    ++s.gen;
    s.next_free = free_head_;
    free_head_ = index;
    --live_;
  }

  template <typename F>
  void emplace_callback(Slot& s, F&& fn) {
    using O = OpsFor<F>;
    using Fn = typename O::Fn;
    if constexpr (O::fits) {
      ::new (static_cast<void*>(s.buf)) Fn(std::forward<F>(fn));
      s.ops = &O::inline_ops;
    } else {
      *reinterpret_cast<void**>(s.buf) = new Fn(std::forward<F>(fn));
      s.ops = &O::heap_ops;
    }
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
    std::erase_if(heap_, [this](const Entry& e) {
      return slots_[e.slot].gen != e.gen || slots_[e.slot].ops == nullptr;
    });
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

/// Stack-side landing pad for a fired callback: take_earliest() relocates
/// the callable here before the slot is recycled, so running it is safe
/// even if it schedules new events (growing slots_) or cancels anything.
class EventArena::FiredCallback {
 public:
  FiredCallback() = default;
  FiredCallback(const FiredCallback&) = delete;
  FiredCallback& operator=(const FiredCallback&) = delete;
  ~FiredCallback() { reset(); }

  void operator()() { ops_->invoke(tgt()); }

 private:
  friend class EventArena;

  void* tgt() {
    void* p = buf_;
    return ops_->heap ? *static_cast<void**>(p) : p;
  }
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(tgt());
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

inline TimePoint EventArena::take_earliest(FiredCallback& out) {
  Entry top = heap_.front();
  pop_top();
  Slot& s = slots_[top.slot];
  out.reset();
  if (s.ops->heap) {
    *reinterpret_cast<void**>(out.buf_) = *reinterpret_cast<void**>(s.buf);
    out.ops_ = s.ops;
    // The callable now belongs to `out`; free the slot without destroying.
    s.ops = nullptr;
    ++s.gen;
    s.next_free = free_head_;
    free_head_ = top.slot;
    --live_;
  } else {
    s.ops->relocate(s.buf, out.buf_);
    out.ops_ = s.ops;
    s.ops = nullptr;
    ++s.gen;
    s.next_free = free_head_;
    free_head_ = top.slot;
    --live_;
  }
  return top.at;
}

}  // namespace c4h::sim
