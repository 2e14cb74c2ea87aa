// Deterministic operation tracing — the spans behind Table I's per-phase
// cost attribution.
//
// Every VStore++ operation (store / fetch / process / fetch+process) opens a
// root span; the layers it crosses (KV, overlay, network, cloud, services)
// attach child spans for metadata round-trips, DHT hops, transfer segments
// and service execution. All timestamps come from the simulation clock and
// span ids are sequential per tracer, so for a given seed two runs produce
// byte-identical traces (the golden-trace suite asserts exactly this).
//
// Context is threaded explicitly: a layer API takes an `obs::Ctx` (tracer +
// parent span id) with a null default. A null context makes every recording
// call a no-op, so untraced hot paths pay only a pointer test — there is no
// ambient thread-local "current span", which would misattribute children
// when coroutines interleave at suspension points. `ScopedSpan` takes its
// name, attribute keys and values, and error notes as `std::string_view`
// and builds strings (and formats numbers) only when a tracer is attached,
// so an untraced span allocates nothing. The views are read before the call
// returns; a temporary such as `std::string("op.") + kind` is fine.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/units.hpp"
#include "src/sim/simulation.hpp"

namespace c4h::obs {

using SpanId = std::uint64_t;  // 0 = "no span"

enum class SpanStatus : std::uint8_t { ok, error };

/// One completed (or in-flight) span. Attributes keep insertion order so a
/// rendered trace is reproducible token-for-token.
struct Span {
  SpanId id = 0;
  SpanId parent = 0;  // 0 for roots
  std::string name;
  TimePoint start{};
  TimePoint end{};
  SpanStatus status = SpanStatus::ok;
  std::string note;  // error detail when status == error
  std::vector<std::pair<std::string, std::string>> attrs;
  bool finished = false;

  Duration duration() const { return end - start; }
};

/// In-memory trace sink + span factory. Owned by the deployment (HomeCloud);
/// disabled by default so the chaos/soak suites do not accumulate spans.
class Tracer {
 public:
  /// `seed` feeds the run id stamped on emitted traces; span ids themselves
  /// are sequential (creation order is already seed-determined).
  Tracer(sim::Simulation& sim, std::uint64_t seed);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Seed-derived identifier distinguishing runs in emitted artifacts.
  std::uint64_t run_id() const { return run_id_; }

  SpanId begin(std::string name, SpanId parent);
  void attr(SpanId id, std::string key, std::string value);
  void end(SpanId id, SpanStatus status, std::string note);

  // --- queries ------------------------------------------------------------
  const std::vector<Span>& spans() const { return spans_; }
  std::size_t size() const { return spans_.size(); }
  void clear() { spans_.clear(); }

  const Span* find(SpanId id) const;
  /// First span (creation order) with this name, or nullptr.
  const Span* find_by_name(const std::string& name) const;
  /// Direct children of `parent`, in creation order.
  std::vector<const Span*> children(SpanId parent) const;
  /// Root spans (parent == 0), in creation order.
  std::vector<const Span*> roots() const;
  /// Longest root-to-leaf child chain below `root` (a direct child = 1).
  int depth_below(SpanId root) const;
  /// Sum of durations of spans named `name` in the subtree rooted at `root`
  /// (root excluded). Nested same-name spans are all counted; the
  /// instrumentation never nests a name under itself.
  Duration sum_in_subtree(SpanId root, const std::string& name) const;
  /// Number of spans named `name` in the subtree rooted at `root`.
  int count_in_subtree(SpanId root, const std::string& name) const;

  /// Renders the subtree under `root` as an indented tree, one span per
  /// line: name, attributes, error note — and, with `with_timing`, the start
  /// offset and duration in nanoseconds. Deterministic for a given seed.
  std::string render(SpanId root, bool with_timing) const;
  /// Renders every root in creation order.
  std::string render_all(bool with_timing) const;

 private:
  void render_into(SpanId id, int indent, bool with_timing, std::string& out) const;

  sim::Simulation& sim_;
  std::uint64_t run_id_;
  bool enabled_ = false;
  std::vector<Span> spans_;  // id == index + 1
};

/// Trace context handed down the stack: where new child spans attach.
struct Ctx {
  Tracer* tracer = nullptr;
  SpanId parent = 0;

  bool on() const { return tracer != nullptr; }
};

/// RAII span: begins on construction (no-op for a null context), ends at
/// destruction unless ended explicitly. Safe inside coroutine frames — a
/// frame destroyed at simulation teardown closes its span then.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(Ctx ctx, std::string_view name) {
    if (ctx.on()) {
      tracer_ = ctx.tracer;
      id_ = tracer_->begin(std::string(name), ctx.parent);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&& o) noexcept { *this = std::move(o); }
  ScopedSpan& operator=(ScopedSpan&& o) noexcept {
    if (this != &o) {
      end();
      tracer_ = o.tracer_;
      id_ = o.id_;
      status_ = o.status_;
      note_ = std::move(o.note_);
      o.tracer_ = nullptr;
      o.id_ = 0;
    }
    return *this;
  }

  ~ScopedSpan() { end(); }

  /// Context for child spans of this one.
  Ctx ctx() const { return tracer_ != nullptr ? Ctx{tracer_, id_} : Ctx{}; }

  void attr(std::string_view key, std::string_view value) {
    if (tracer_ != nullptr) tracer_->attr(id_, std::string(key), std::string(value));
  }
  void attr(std::string_view key, std::uint64_t value) {
    if (tracer_ != nullptr) tracer_->attr(id_, std::string(key), std::to_string(value));
  }

  /// Marks the span failed; recorded when the span ends.
  void set_error(std::string_view note) {
    status_ = SpanStatus::error;
    if (tracer_ != nullptr) note_ = note;
  }

  void end() {
    if (tracer_ != nullptr) {
      tracer_->end(id_, status_, std::move(note_));
      tracer_ = nullptr;
      id_ = 0;
    }
  }

 private:
  Tracer* tracer_ = nullptr;
  SpanId id_ = 0;
  SpanStatus status_ = SpanStatus::ok;
  std::string note_;
};

}  // namespace c4h::obs
