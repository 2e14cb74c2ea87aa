// R5 cases for H1 (good): include guard and project namespace both present.
#pragma once

namespace c4h {
struct WellFormed {
  int x = 0;
};
}  // namespace c4h
