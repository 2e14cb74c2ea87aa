// R5 cases for H1 (bad): no #pragma once directive, and nothing declared in
// the c4h namespace.
struct Orphan {
  int x = 0;
};
