#include "src/common/key.hpp"

#include <array>
#include <functional>
#include <string>

namespace c4h {

namespace {

struct MemoSlot {
  std::string name;
  Key key;
  bool used = false;  // "" is a name too
};

std::array<MemoSlot, Key::kMemoSlots> memo;

}  // namespace

Key Key::from_name(std::string_view name) {
  MemoSlot& slot = memo[std::hash<std::string_view>{}(name) % kMemoSlots];
  if (slot.used && slot.name == name) return slot.key;
  const auto d = Sha1::hash(name);
  std::uint64_t v = 0;
  for (int i = 0; i < 5; ++i) v = (v << 8) | d[i];
  slot.name.assign(name);
  slot.key = Key{v};
  slot.used = true;
  return slot.key;
}

}  // namespace c4h
