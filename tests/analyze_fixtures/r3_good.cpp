// R3 cases for D3 (good): a sorted-snapshot traversal, a commutative reduction
// straight over the table, and an annotated collect-then-sort loop.
namespace c4h {
struct CellTable {
  std::unordered_map<int, int> cells_;

  void emit_all(std::vector<int>& out) const {
    for (const int k : sorted_keys(cells_)) out.push_back(k);  // sanctioned remedy
  }

  int checksum() const {
    int s = 0;
    for (auto it = cells_.begin(); it != cells_.end(); ++it) s += it->second;
    return s;
  }

  std::vector<int> values() const {
    std::vector<int> vs;
    // c4h-analyze: allow(D3) — collect only; sorted on the next line.
    for (const auto& [k, v] : cells_) vs.push_back(v);
    std::sort(vs.begin(), vs.end());
    return vs;
  }
};
}  // namespace c4h
