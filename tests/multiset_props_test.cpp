// Algebraic property tests of the multiset operations over randomized
// inputs: the HΣ machinery leans on subset/intersection laws, so they are
// pinned here rather than assumed.
#include <gtest/gtest.h>

#include "common/multiset.h"
#include "common/rng.h"
#include "common/types.h"

namespace hds {
namespace {

Multiset<Id> random_multiset(Rng& rng, std::size_t max_size, Id max_id) {
  Multiset<Id> m;
  const auto k = static_cast<std::size_t>(rng.uniform(0, static_cast<Value>(max_size)));
  for (std::size_t i = 0; i < k; ++i) {
    m.insert(static_cast<Id>(rng.uniform(1, static_cast<Value>(max_id))));
  }
  return m;
}

struct MultisetProps : ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultisetProps, UnionMaxLaws) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    auto a = random_multiset(rng, 8, 5);
    auto b = random_multiset(rng, 8, 5);
    auto c = random_multiset(rng, 8, 5);
    // Commutative, associative, idempotent; both operands are subsets.
    EXPECT_EQ(a.union_max(b), b.union_max(a));
    EXPECT_EQ(a.union_max(b).union_max(c), a.union_max(b.union_max(c)));
    EXPECT_EQ(a.union_max(a), a);
    EXPECT_TRUE(a.is_subset_of(a.union_max(b)));
    EXPECT_TRUE(b.is_subset_of(a.union_max(b)));
  }
}

TEST_P(MultisetProps, IntersectionLaws) {
  Rng rng(GetParam() + 1);
  for (int trial = 0; trial < 200; ++trial) {
    auto a = random_multiset(rng, 8, 5);
    auto b = random_multiset(rng, 8, 5);
    EXPECT_EQ(a.intersection(b), b.intersection(a));
    EXPECT_TRUE(a.intersection(b).is_subset_of(a));
    EXPECT_TRUE(a.intersection(b).is_subset_of(b));
    // Absorption: a ∩ (a ∪ b) == a.
    EXPECT_EQ(a.intersection(a.union_max(b)), a);
    // intersects() agrees with non-emptiness of intersection().
    EXPECT_EQ(a.intersects(b), !a.intersection(b).empty());
  }
}

TEST_P(MultisetProps, SumAndSizeLaws) {
  Rng rng(GetParam() + 2);
  for (int trial = 0; trial < 200; ++trial) {
    auto a = random_multiset(rng, 8, 5);
    auto b = random_multiset(rng, 8, 5);
    EXPECT_EQ(a.sum(b).size(), a.size() + b.size());
    EXPECT_EQ(a.sum(b), b.sum(a));
    // |union| + |intersection| == |a| + |b| (inclusion-exclusion for max/min).
    EXPECT_EQ(a.union_max(b).size() + a.intersection(b).size(), a.size() + b.size());
  }
}

TEST_P(MultisetProps, SubsetIsAPartialOrder) {
  Rng rng(GetParam() + 3);
  for (int trial = 0; trial < 200; ++trial) {
    auto a = random_multiset(rng, 6, 4);
    auto b = random_multiset(rng, 6, 4);
    auto c = random_multiset(rng, 6, 4);
    // Antisymmetry.
    if (a.is_subset_of(b) && b.is_subset_of(a)) {
      EXPECT_EQ(a, b);
    }
    // Transitivity.
    if (a.is_subset_of(b) && b.is_subset_of(c)) {
      EXPECT_TRUE(a.is_subset_of(c));
    }
  }
}

TEST_P(MultisetProps, ToVectorRoundTrips) {
  Rng rng(GetParam() + 4);
  for (int trial = 0; trial < 100; ++trial) {
    auto a = random_multiset(rng, 10, 6);
    auto v = a.to_vector();
    Multiset<Id> back(v.begin(), v.end());
    EXPECT_EQ(back, a);
    EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  }
}

// ---------------------------------------------------------------------------
// Flat backend vs the std::map reference: every operation of the default
// sorted-flat-vector store must agree with MapStore, observer by observer,
// over a mirrored random workload.

// Runs identical mutations against both backends and compares every scalar
// and structural observer.
template <typename A, typename B>
void expect_equivalent(const A& flat, const B& ref) {
  ASSERT_EQ(flat.size(), ref.size());
  ASSERT_EQ(flat.empty(), ref.empty());
  ASSERT_EQ(flat.distinct_size(), ref.distinct_size());
  ASSERT_EQ(flat.to_vector(), ref.to_vector());
  ASSERT_EQ(flat.to_string(), ref.to_string());
  for (Id v = 0; v <= 8; ++v) {
    ASSERT_EQ(flat.multiplicity(v), ref.multiplicity(v)) << "value " << v;
    ASSERT_EQ(flat.contains(v), ref.contains(v)) << "value " << v;
  }
  if (!flat.empty()) {
    ASSERT_EQ(flat.min(), ref.min());
  }
  // counts(): different container types, identical (value, count) sequence.
  std::vector<std::pair<Id, std::size_t>> fc(flat.counts().begin(), flat.counts().end());
  std::vector<std::pair<Id, std::size_t>> rc(ref.counts().begin(), ref.counts().end());
  ASSERT_EQ(fc, rc);
}

TEST_P(MultisetProps, FlatBackendMatchesMapReference) {
  Rng rng(GetParam() + 5);
  for (int trial = 0; trial < 60; ++trial) {
    Multiset<Id> fa;
    Multiset<Id> fb;
    MapMultiset<Id> ra;
    MapMultiset<Id> rb;
    for (int op = 0; op < 40; ++op) {
      const bool on_a = rng.chance(0.5);
      Multiset<Id>& f = on_a ? fa : fb;
      MapMultiset<Id>& r = on_a ? ra : rb;
      const auto pick = rng.uniform(0, 9);
      if (pick <= 4) {
        const Id v = static_cast<Id>(rng.uniform(1, 6));
        const auto c = static_cast<std::size_t>(rng.uniform(1, 3));
        f.insert(v, c);
        r.insert(v, c);
      } else if (pick <= 7) {
        const Id v = static_cast<Id>(rng.uniform(1, 6));
        if (f.contains(v)) {
          f.erase_one(v);
          r.erase_one(v);
        } else {
          EXPECT_THROW(f.erase_one(v), std::out_of_range);
          EXPECT_THROW(r.erase_one(v), std::out_of_range);
        }
      } else if (pick == 8 && rng.chance(0.2)) {
        f.clear();
        r.clear();
      } else {
        const Id v = static_cast<Id>(rng.uniform(1, 6));
        f = Multiset<Id>::with_copies(v, 2).sum(f);
        r = MapMultiset<Id>::with_copies(v, 2).sum(r);
      }
      expect_equivalent(fa, ra);
      expect_equivalent(fb, rb);
      // Binary algebra, mirrored pair against mirrored pair.
      expect_equivalent(fa.union_max(fb), ra.union_max(rb));
      expect_equivalent(fa.sum(fb), ra.sum(rb));
      expect_equivalent(fa.intersection(fb), ra.intersection(rb));
      ASSERT_EQ(fa.is_subset_of(fb), ra.is_subset_of(rb));
      ASSERT_EQ(fb.is_subset_of(fa), rb.is_subset_of(ra));
      ASSERT_EQ(fa.intersects(fb), ra.intersects(rb));
      ASSERT_EQ(fa == fb, ra == rb);
      // Total order: the flat <=> must rank pairs exactly like the map's
      // container comparison (Fig. 7 keys maps by multiset).
      ASSERT_EQ(fa < fb, ra < rb);
      ASSERT_EQ(fa > fb, ra > rb);
      ASSERT_EQ((fa <=> fb) == 0, (ra <=> rb) == 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultisetProps, ::testing::Values<std::uint64_t>(11, 22, 33));

}  // namespace
}  // namespace hds
