// R3 cases for D3 (bad): traversing a hash table directly, in range-for and
// iterator form, with bodies whose output follows the traversal order.
namespace c4h {
struct CellTable {
  std::unordered_map<int, int> cells_;

  void emit_all(std::vector<int>& out) {
    // Both loops append in hash order.
    for (const auto& [k, v] : cells_) {  // D3: range-for over hash table
      out.push_back(k);
    }
    for (auto it = cells_.begin(); it != cells_.end(); ++it) {  // D3: iterator
      out.push_back(it->second);
    }
  }
};
}  // namespace c4h
