// Red-black tree: invariant checks and differential testing against
// std::map under randomized insert/erase workloads.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/common/rbtree.hpp"
#include "src/common/rng.hpp"

namespace c4h {
namespace {

TEST(RbTree, EmptyTree) {
  RbTree<int, int> t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.find(1), nullptr);
  EXPECT_EQ(t.min(), nullptr);
  EXPECT_EQ(t.max(), nullptr);
  EXPECT_GE(t.validate(), 0);
}

TEST(RbTree, InsertFindErase) {
  RbTree<int, std::string> t;
  EXPECT_TRUE(t.insert(5, "five").second);
  EXPECT_TRUE(t.insert(3, "three").second);
  EXPECT_TRUE(t.insert(8, "eight").second);
  EXPECT_FALSE(t.insert(5, "FIVE").second);  // assign
  EXPECT_EQ(t.size(), 3u);
  ASSERT_NE(t.find(5), nullptr);
  EXPECT_EQ(t.find(5)->value, "FIVE");
  EXPECT_TRUE(t.erase(3));
  EXPECT_FALSE(t.erase(3));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_GE(t.validate(), 0);
}

TEST(RbTree, OrderedIteration) {
  RbTree<int, int> t;
  for (int k : {7, 1, 9, 3, 5, 8, 2, 6, 4}) t.insert(k, k * 10);
  std::vector<int> keys;
  t.for_each([&](int k, int) { keys.push_back(k); });
  const std::vector<int> want{1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(keys, want);
  EXPECT_EQ(t.min()->key, 1);
  EXPECT_EQ(t.max()->key, 9);
}

TEST(RbTree, NextPrevTraversal) {
  RbTree<int, int> t;
  for (int k = 0; k < 20; k += 2) t.insert(k, k);
  auto* n = t.min();
  int expect = 0;
  while (n != nullptr) {
    EXPECT_EQ(n->key, expect);
    expect += 2;
    n = RbTree<int, int>::next(n);
  }
  n = t.max();
  expect = 18;
  while (n != nullptr) {
    EXPECT_EQ(n->key, expect);
    expect -= 2;
    n = RbTree<int, int>::prev(n);
  }
}

TEST(RbTree, LowerBound) {
  RbTree<int, int> t;
  for (int k : {10, 20, 30, 40}) t.insert(k, k);
  EXPECT_EQ(t.lower_bound(5)->key, 10);
  EXPECT_EQ(t.lower_bound(10)->key, 10);
  EXPECT_EQ(t.lower_bound(11)->key, 20);
  EXPECT_EQ(t.lower_bound(40)->key, 40);
  EXPECT_EQ(t.lower_bound(41), nullptr);
}

TEST(RbTree, AscendingInsertStaysBalanced) {
  RbTree<int, int> t;
  for (int k = 0; k < 4096; ++k) {
    t.insert(k, k);
    if (k % 256 == 0) {
      EXPECT_GE(t.validate(), 0) << "at " << k;
    }
  }
  // Black height of a balanced tree with 4096 nodes is small.
  const int bh = t.validate();
  EXPECT_GE(bh, 1);
  EXPECT_LE(bh, 13);
}

TEST(RbTree, MoveSemantics) {
  RbTree<int, int> a;
  a.insert(1, 10);
  a.insert(2, 20);
  RbTree<int, int> b = std::move(a);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.find(2)->value, 20);
}

class RbTreeRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RbTreeRandomTest, DifferentialAgainstStdMap) {
  Rng rng{GetParam()};
  RbTree<std::uint64_t, std::uint64_t> t;
  std::map<std::uint64_t, std::uint64_t> ref;
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t key = rng.below(500);  // force collisions & reuse
    if (rng.chance(0.6)) {
      const std::uint64_t val = rng.next();
      const bool inserted = t.insert(key, val).second;
      EXPECT_EQ(inserted, !ref.contains(key));
      ref[key] = val;
    } else {
      EXPECT_EQ(t.erase(key), ref.erase(key) > 0);
    }
    if (step % 500 == 0) {
      ASSERT_GE(t.validate(), 0) << "red-black invariant broken at step " << step;
    }
  }
  ASSERT_GE(t.validate(), 0);
  ASSERT_EQ(t.size(), ref.size());
  auto it = ref.begin();
  bool all_match = true;
  t.for_each([&](std::uint64_t k, std::uint64_t v) {
    if (it == ref.end() || it->first != k || it->second != v) all_match = false;
    if (it != ref.end()) ++it;
  });
  EXPECT_TRUE(all_match);
  EXPECT_EQ(it, ref.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RbTreeRandomTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace c4h
