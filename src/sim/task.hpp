// Coroutine task type for simulated processes.
//
// Task<T> is a lazy coroutine: created suspended, started when awaited (or
// when detached onto the Simulation via Simulation::spawn). Completion
// resumes the awaiting coroutine by symmetric transfer, so long co_await
// chains do not grow the machine stack.
//
// Single-threaded by design: the whole simulation runs on one thread, so no
// atomics or locks are needed (and determinism is guaranteed).
//
// Frames come from the size-class free lists of frame_pool.hpp through the
// promise's operator new / sized operator delete.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>

#include "src/sim/frame_pool.hpp"

namespace c4h::sim {

class Simulation;

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;
  // Set by Simulation::spawn: a detached task is linked into its owner's
  // list of live detached frames (in spawn order) until it completes.
  Simulation* owner = nullptr;
  PromiseBase* prev_detached = nullptr;
  PromiseBase* next_detached = nullptr;

  static void* operator new(std::size_t n) { return frame_pool.allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept { frame_pool.release(p, n); }

  bool detached() const { return owner != nullptr; }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept;
    void await_resume() noexcept {}
  };

  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() {
    if (detached()) {
      // A detached simulated process must not leak exceptions: let it
      // propagate out of the event loop so tests fail loudly.
      throw;
    }
    exception = std::current_exception();
  }
};

void deregister_detached(Simulation& sim, PromiseBase& p) noexcept;

template <typename Promise>
std::coroutine_handle<> PromiseBase::FinalAwaiter::await_suspend(
    std::coroutine_handle<Promise> h) noexcept {
  auto& p = h.promise();
  if (p.detached()) {
    deregister_detached(*p.owner, p);
    h.destroy();
    return std::noop_coroutine();
  }
  // Awaited task: transfer control back to the awaiter. A non-detached task
  // is always awaited before completion in this codebase.
  return p.continuation ? p.continuation : std::noop_coroutine();
}

// The promise's result slot: `value` and return_value for Task<T>,
// return_void for Task<void>.
template <typename T>
struct ValuePromise : PromiseBase {
  std::optional<T> value;
  void return_value(T v) { value = std::move(v); }
};

template <>
struct ValuePromise<void> : PromiseBase {
  void return_void() {}
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::ValuePromise<T> {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
  };

  Task(Task&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return h_ != nullptr; }

  auto operator co_await() & {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiting) {
        h.promise().continuation = awaiting;
        return h;  // start the child coroutine
      }
      T await_resume() {
        if (h.promise().exception) std::rethrow_exception(h.promise().exception);
        if constexpr (!std::is_void_v<T>) return std::move(*h.promise().value);
      }
    };
    assert(h_ != nullptr && "awaiting a moved-from Task");
    return Awaiter{h_};
  }
  auto operator co_await() && { return operator co_await(); }

 private:
  friend class Simulation;
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}

  std::coroutine_handle<promise_type> release() { return std::exchange(h_, nullptr); }

  void destroy() {
    if (h_ != nullptr) {
      h_.destroy();
      h_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> h_ = nullptr;
};

}  // namespace c4h::sim
