#include "src/obs/trace.hpp"

#include <cstdio>

#include "src/common/rng.hpp"

namespace c4h::obs {

Tracer::Tracer(sim::Simulation& sim, std::uint64_t seed)
    : sim_(sim), run_id_(splitmix64(seed)) {}

SpanId Tracer::begin(std::string name, SpanId parent) {
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.name = std::move(name);
  s.start = sim_.now();
  s.end = s.start;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::attr(SpanId id, std::string key, std::string value) {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].attrs.emplace_back(std::move(key), std::move(value));
}

void Tracer::end(SpanId id, SpanStatus status, std::string note) {
  if (id == 0 || id > spans_.size()) return;
  Span& s = spans_[id - 1];
  if (s.finished) return;
  s.end = sim_.now();
  s.status = status;
  s.note = std::move(note);
  s.finished = true;
}

const Span* Tracer::find(SpanId id) const {
  if (id == 0 || id > spans_.size()) return nullptr;
  return &spans_[id - 1];
}

const Span* Tracer::find_by_name(const std::string& name) const {
  for (const Span& s : spans_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<const Span*> Tracer::children(SpanId parent) const {
  std::vector<const Span*> out;
  for (const Span& s : spans_) {
    if (s.parent == parent && s.id != parent) out.push_back(&s);
  }
  return out;
}

std::vector<const Span*> Tracer::roots() const { return children(0); }

int Tracer::depth_below(SpanId root) const {
  int deepest = 0;
  for (const Span* c : children(root)) {
    const int d = 1 + depth_below(c->id);
    if (d > deepest) deepest = d;
  }
  return deepest;
}

Duration Tracer::sum_in_subtree(SpanId root, const std::string& name) const {
  Duration total{};
  for (const Span* c : children(root)) {
    if (c->name == name) total += c->duration();
    total += sum_in_subtree(c->id, name);
  }
  return total;
}

int Tracer::count_in_subtree(SpanId root, const std::string& name) const {
  int n = 0;
  for (const Span* c : children(root)) {
    if (c->name == name) ++n;
    n += count_in_subtree(c->id, name);
  }
  return n;
}

void Tracer::render_into(SpanId id, int indent, bool with_timing, std::string& out) const {
  const Span* s = find(id);
  if (s == nullptr) return;
  out.append(static_cast<std::size_t>(indent) * 2, ' ');
  out += s->name;
  for (const auto& [k, v] : s->attrs) {
    out += ' ';
    out += k;
    out += '=';
    out += v;
  }
  if (s->status == SpanStatus::error) {
    out += " !error";
    if (!s->note.empty()) {
      out += '(';
      out += s->note;
      out += ')';
    }
  }
  if (with_timing) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " @%lld+%lldns",
                  static_cast<long long>(s->start.count()),
                  static_cast<long long>(s->duration().count()));
    out += buf;
  }
  out += '\n';
  for (const Span* c : children(id)) {
    render_into(c->id, indent + 1, with_timing, out);
  }
}

std::string Tracer::render_all(bool with_timing) const {
  std::string out;
  for (const Span* r : roots()) {
    render_into(r->id, 0, with_timing, out);
  }
  return out;
}

}  // namespace c4h::obs
