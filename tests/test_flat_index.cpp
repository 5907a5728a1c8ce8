// Randomized differential tests of FlatIndex at both key widths, and of the
// FlatMap built on it, against std::unordered_map: insert, find,
// backward-shift erase, growth, slot reuse and reference stability.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

#include "epc/flat_index.h"

namespace scale::epc {
namespace {

/// Table-wide invariants: the entry set equals the reference map, the
/// capacity is a power of two, and the load stays at or under 7/8.
template <class Index, class Key>
void expect_same(const Index& index,
                 const std::unordered_map<Key, std::uint32_t>& ref) {
  ASSERT_EQ(index.size(), ref.size());
  ASSERT_EQ(index.empty(), ref.empty());
  if (index.capacity() != 0) {
    EXPECT_TRUE(std::has_single_bit(index.capacity()));
    EXPECT_LE(index.size() * 8, index.capacity() * 7);
  }
  std::size_t seen = 0;
  index.for_each_entry([&](Key key, std::uint32_t slot) {
    ++seen;
    const auto it = ref.find(key);
    ASSERT_NE(it, ref.end()) << "stray key " << key;
    EXPECT_EQ(slot, it->second);
  });
  EXPECT_EQ(seen, ref.size());
}

/// Drives one index and the reference map through the same seeded op mix:
/// a growth phase (insert-heavy, crosses many capacity doublings), a churn
/// phase (erases keep shifting probe runs back), and a drain to empty.
/// Keys come from a window about twice the live population, so finds and
/// erases hit present and absent keys alike and probe runs stay long.
template <class Index, class Key>
void run_differential(std::uint64_t seed, Key base, Key window,
                      std::size_t target) {
  Index index;
  std::unordered_map<Key, std::uint32_t> ref;
  Rng rng(seed);
  std::uint32_t next_value = 0;
  const auto draw = [&]() {
    return static_cast<Key>(base + rng.next_below(window));
  };
  const auto op_insert = [&](Key key) {
    if (ref.contains(key)) {
      EXPECT_EQ(index.find(key), ref.at(key));
      return;
    }
    const std::uint32_t value = next_value++;
    index.insert(key, value);
    ref.emplace(key, value);
  };
  const auto op_erase = [&](Key key) {
    ASSERT_EQ(index.erase(key), ref.erase(key) == 1) << "key " << key;
  };
  const auto op_find = [&](Key key) {
    const auto it = ref.find(key);
    const std::uint32_t want = it == ref.end() ? Index::kNone : it->second;
    ASSERT_EQ(index.find(key), want) << "key " << key;
    EXPECT_EQ(index.contains(key), it != ref.end());
  };

  std::size_t last_cap = 0;
  while (ref.size() < target) {
    const std::uint64_t op = rng.next_below(100);
    if (op < 70) op_insert(draw());
    else if (op < 85) op_erase(draw());
    else op_find(draw());
    if (index.capacity() != last_cap) {  // every growth re-places all keys
      last_cap = index.capacity();
      expect_same(index, ref);
    }
  }
  expect_same(index, ref);

  for (std::size_t step = 0; step < 4 * target; ++step) {
    const std::uint64_t op = rng.next_below(100);
    if (op < 35) op_insert(draw());
    else if (op < 70) op_erase(draw());
    else op_find(draw());
    if (step % (target / 4) == 0) expect_same(index, ref);
  }
  expect_same(index, ref);

  const std::size_t cap = index.capacity();
  std::vector<Key> keys;
  for (const auto& [key, value] : ref) keys.push_back(key);
  for (const Key key : keys) {
    op_erase(key);
    op_erase(key);  // second erase of the same key: absent
  }
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.capacity(), cap);  // tables never shrink
  for (int i = 0; i < 64; ++i) op_find(draw());
  expect_same(index, ref);
}

TEST(FlatIndex, DifferentialU64Keys) {
  run_differential<FlatIndex, std::uint64_t>(0xF1A7ull, 1ull << 40, 80000,
                                             40000);
}

TEST(FlatIndex, DifferentialU64WideKeys) {
  // IMSI-like 15-digit keys near the top of a wide range.
  run_differential<FlatIndex, std::uint64_t>(0xF1A8ull, 100'000'000'000'000ull,
                                             60000, 30000);
}

TEST(FlatIndex, DifferentialU32Keys) {
  run_differential<FlatIndex32, std::uint32_t>(0xF1A9ull, 1u, 80000u, 40000);
}

TEST(FlatIndex, DifferentialU32KeysAtTopOfRange) {
  // Teid::make(owner, seq) puts the owner id in the top byte.
  run_differential<FlatIndex32, std::uint32_t>(0xF1AAull, 0xFF000000u,
                                               60000u, 30000);
}

// The 32-bit table hashes the zero-extended key, so for one insert/erase
// history its layout — every entry's position — is the 64-bit table's.
TEST(FlatIndex, U32LayoutMatchesU64Layout) {
  FlatIndex wide;
  FlatIndex32 narrow;
  std::unordered_map<std::uint32_t, std::uint32_t> ref;
  Rng rng(0xF1ABull);
  for (std::uint32_t step = 0; step < 60000; ++step) {
    const auto key = static_cast<std::uint32_t>(1 + rng.next_below(20000));
    if (ref.contains(key)) {
      ASSERT_EQ(wide.erase(key), narrow.erase(key));
      ref.erase(key);
    } else {
      wide.insert(key, step);
      narrow.insert(key, step);
      ref.emplace(key, step);
    }
  }
  ASSERT_EQ(wide.capacity(), narrow.capacity());
  std::vector<std::pair<std::uint64_t, std::uint32_t>> wide_order;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> narrow_order;
  wide.for_each_entry([&](std::uint64_t k, std::uint32_t v) {
    wide_order.emplace_back(k, v);
  });
  narrow.for_each_entry([&](std::uint32_t k, std::uint32_t v) {
    narrow_order.emplace_back(k, v);
  });
  EXPECT_EQ(wide_order, narrow_order);
  EXPECT_EQ(narrow.size(), ref.size());
  EXPECT_EQ(narrow.memory_bytes() * 2, wide.memory_bytes());  // 8 vs 16 B
}

TEST(FlatIndex, EmptySentinelValueRejected) {
  FlatIndex32 index;
  EXPECT_THROW(index.insert(7, FlatIndex32::kNone), scale::CheckError);
  EXPECT_FALSE(index.erase(7));
  EXPECT_EQ(index.find(7), FlatIndex32::kNone);
}

// ----------------------------------------------------------------- FlatMap

/// A value wider than a pointer, so a torn or stale slot shows.
struct Payload {
  std::uint64_t a = 0;
  std::uint32_t b = 0;
  bool operator==(const Payload&) const = default;
};

/// Drives a FlatMap and std::unordered_map through the same seeded mix of
/// assign (fresh and overwrite), erase and find. Every live value's address
/// is recorded when it is inserted and must stay put across every later
/// growth; a periodic for_each must visit each live key exactly once.
template <class Key>
void run_map_differential(std::uint64_t seed, Key base, Key window,
                          std::size_t steps) {
  FlatMap<Key, Payload> map;
  std::unordered_map<Key, Payload> ref;
  std::unordered_map<Key, const Payload*> addr;
  Rng rng(seed);
  const auto draw = [&]() {
    return static_cast<Key>(base + rng.next_below(window));
  };
  const auto check_all = [&]() {
    ASSERT_EQ(map.size(), ref.size());
    ASSERT_EQ(map.empty(), ref.empty());
    std::size_t seen = 0;
    map.for_each([&](Key key, Payload& value) {
      ++seen;
      const auto it = ref.find(key);
      ASSERT_NE(it, ref.end()) << "stray key " << key;
      EXPECT_EQ(value, it->second) << "key " << key;
      EXPECT_EQ(&value, addr.at(key)) << "value moved, key " << key;
    });
    EXPECT_EQ(seen, ref.size());
  };

  for (std::size_t step = 0; step < steps; ++step) {
    const Key key = draw();
    const std::uint64_t op = rng.next_below(100);
    // Grow for the first half, then churn at a steady size.
    const std::uint64_t assign_share = step < steps / 2 ? 70 : 40;
    if (op < assign_share) {
      const Payload value{rng.next_u64(), static_cast<std::uint32_t>(step)};
      const bool fresh = !ref.contains(key);
      Payload& slot = map[key];
      if (fresh) {
        EXPECT_EQ(slot, Payload{}) << "reused slot not reset, key " << key;
        addr[key] = &slot;
      } else {
        EXPECT_EQ(&slot, addr.at(key)) << "overwrite moved, key " << key;
      }
      slot = value;
      ref[key] = value;
    } else if (op < 80) {
      ASSERT_EQ(map.erase(key), ref.erase(key) == 1) << "key " << key;
      addr.erase(key);
    } else {
      const Payload* got = map.find(key);
      const auto it = ref.find(key);
      ASSERT_EQ(got != nullptr, it != ref.end()) << "key " << key;
      EXPECT_EQ(map.contains(key), it != ref.end());
      if (got != nullptr) EXPECT_EQ(*got, it->second);
    }
    if (step % (steps / 16) == 0) check_all();
  }
  check_all();
}

TEST(FlatMap, DifferentialU64Keys) {
  run_map_differential<std::uint64_t>(0xF1B0ull, 1ull << 40, 20000, 120000);
}

TEST(FlatMap, DifferentialU32Keys) {
  run_map_differential<std::uint32_t>(0xF1B1ull, 1u, 20000u, 120000);
}

TEST(FlatMap, ErasedSlotIsReusedAndReset) {
  FlatMap<std::uint32_t, Payload> map;
  for (std::uint32_t k = 1; k <= 100; ++k) map[k] = Payload{k, k};
  const Payload* freed = map.find(37);
  ASSERT_NE(freed, nullptr);
  EXPECT_TRUE(map.erase(37));
  EXPECT_FALSE(map.erase(37));
  EXPECT_EQ(map.find(37), nullptr);
  // The next insertion takes the freed slot instead of growing the store,
  // and hands it out value-initialized.
  Payload& reused = map[1000];
  EXPECT_EQ(&reused, freed);
  EXPECT_EQ(reused, Payload{});
  EXPECT_EQ(map.size(), 100u);
  EXPECT_EQ(map.find(36)->a, 36u);
  EXPECT_EQ(map.find(38)->a, 38u);
}

TEST(FlatMap, ReferencesSurviveGrowth) {
  FlatMap<std::uint64_t, Payload> map;
  Payload& first = map[7];
  first.a = 0xAB;
  std::vector<Payload*> held{&first};
  for (std::uint64_t k = 8; k < 5000; ++k) {
    Payload& v = map[k];
    v.a = k;
    held.push_back(&v);
  }
  EXPECT_EQ(map.find(7), &first);
  EXPECT_EQ(first.a, 0xABu);
  for (std::uint64_t k = 8; k < 5000; ++k) {
    ASSERT_EQ(map.find(k), held[k - 7]) << "key " << k;
    ASSERT_EQ(held[k - 7]->a, k);
  }
}

}  // namespace
}  // namespace scale::epc
