#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

#include "epc/ue_context.h"

namespace scale::epc {
namespace {

proto::UeContextRecord rec_for(std::uint32_t tmsi, proto::Imsi imsi,
                               std::uint32_t bytes = 2048) {
  proto::UeContextRecord rec;
  rec.guti = proto::Guti{1, 1, 1, tmsi};
  rec.imsi = imsi;
  rec.state_bytes = bytes;
  return rec;
}

TEST(ContextStore, InsertFindErase) {
  UeContextStore store;
  auto& ctx = store.insert(rec_for(100, 1), ContextRole::kMaster);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.find(ctx.key()), &ctx);
  EXPECT_TRUE(store.contains(ctx.key()));
  store.erase(ctx.key());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.find(proto::Guti{1, 1, 1, 100}.key()), nullptr);
}

TEST(ContextStore, DuplicateInsertRejected) {
  UeContextStore store;
  store.insert(rec_for(100, 1), ContextRole::kMaster);
  EXPECT_THROW(store.insert(rec_for(100, 2), ContextRole::kMaster),
               scale::CheckError);
}

TEST(ContextStore, EraseUnknownRejected) {
  UeContextStore store;
  EXPECT_THROW(store.erase(42), scale::CheckError);
}

TEST(ContextStore, SecondaryIndices) {
  UeContextStore store;
  auto rec = rec_for(100, 777);
  rec.mme_teid = proto::Teid::make(2, 5);
  rec.mme_ue_id = proto::MmeUeId::make(2, 9);
  auto& ctx = store.insert(rec, ContextRole::kMaster);

  EXPECT_EQ(store.find_by_imsi(777), &ctx);
  EXPECT_EQ(store.find_by_teid(proto::Teid::make(2, 5)), &ctx);
  EXPECT_EQ(store.find_by_mme_ue_id(proto::MmeUeId::make(2, 9)), &ctx);
  EXPECT_EQ(store.find_by_imsi(1), nullptr);

  // Re-index after the MME assigns new identifiers.
  ctx.rec.mme_teid = proto::Teid::make(3, 6);
  store.index_teid(ctx);
  EXPECT_EQ(store.find_by_teid(proto::Teid::make(3, 6)), &ctx);

  store.erase(ctx.key());
  EXPECT_EQ(store.find_by_imsi(777), nullptr);
  EXPECT_EQ(store.find_by_teid(proto::Teid::make(3, 6)), nullptr);
}

TEST(ContextStore, MemoryAccountingByRole) {
  UeContextStore store;
  store.insert(rec_for(1, 1, 1000), ContextRole::kMaster);
  store.insert(rec_for(2, 2, 2000), ContextRole::kReplica);
  store.insert(rec_for(3, 3, 4000), ContextRole::kExternal);

  EXPECT_EQ(store.total_bytes(), 7000u);
  EXPECT_EQ(store.bytes(ContextRole::kMaster), 1000u);
  EXPECT_EQ(store.bytes(ContextRole::kReplica), 2000u);
  EXPECT_EQ(store.bytes(ContextRole::kExternal), 4000u);
  EXPECT_EQ(store.count(ContextRole::kMaster), 1u);

  store.erase(proto::Guti{1, 1, 1, 2}.key());
  EXPECT_EQ(store.total_bytes(), 5000u);
  EXPECT_EQ(store.bytes(ContextRole::kReplica), 0u);
}

TEST(ContextStore, SetRoleMovesAccounting) {
  UeContextStore store;
  auto& ctx = store.insert(rec_for(1, 1, 1000), ContextRole::kMaster);
  store.set_role(ctx, ContextRole::kReplica);
  EXPECT_EQ(ctx.role, ContextRole::kReplica);
  EXPECT_EQ(store.bytes(ContextRole::kMaster), 0u);
  EXPECT_EQ(store.bytes(ContextRole::kReplica), 1000u);
  EXPECT_EQ(store.count(ContextRole::kReplica), 1u);
  // No-op role change keeps accounting intact.
  store.set_role(ctx, ContextRole::kReplica);
  EXPECT_EQ(store.bytes(ContextRole::kReplica), 1000u);
}

TEST(ContextStore, RekeyPreservesContextUnderNewGuti) {
  UeContextStore store;
  auto& ctx = store.insert(rec_for(100, 42), ContextRole::kMaster);
  const std::uint64_t old_key = ctx.key();
  const proto::Guti fresh{1, 1, 9, 555};
  auto& moved = store.rekey(old_key, fresh);
  EXPECT_EQ(&moved, &ctx);
  EXPECT_EQ(moved.rec.guti, fresh);
  EXPECT_EQ(store.find(old_key), nullptr);
  EXPECT_EQ(store.find(fresh.key()), &moved);
  // IMSI index still resolves.
  EXPECT_EQ(store.find_by_imsi(42), &moved);
}

TEST(ContextStore, RekeyCollisionRejected) {
  UeContextStore store;
  store.insert(rec_for(1, 1), ContextRole::kMaster);
  auto& b = store.insert(rec_for(2, 2), ContextRole::kMaster);
  EXPECT_THROW(store.rekey(b.key(), proto::Guti{1, 1, 1, 1}),
               scale::CheckError);
}

TEST(ContextStore, ForEachAndKeysIf) {
  UeContextStore store;
  for (std::uint32_t i = 1; i <= 10; ++i)
    store.insert(rec_for(i, i), i % 2 ? ContextRole::kMaster
                                      : ContextRole::kReplica);
  std::size_t visited = 0;
  store.for_each([&](UeContext&) { ++visited; });
  EXPECT_EQ(visited, 10u);
  const auto masters = store.keys_if(
      [](const UeContext& c) { return c.role == ContextRole::kMaster; });
  EXPECT_EQ(masters.size(), 5u);
}

// Slab chunks are raw storage: a slot is constructed — and so becomes
// resident — only when first handed out, so footprint_bytes() follows the
// slots in use rather than whole 8192-slot chunks.
TEST(ContextStore, FreshChunkTailsAreNeverConstructed) {
  constexpr std::uint32_t kChunkSlots = 8192;
  constexpr std::size_t kChunkBytes = kChunkSlots * sizeof(UeContext);
  UeContextStore store;
  EXPECT_EQ(store.footprint_bytes(), 0u);

  // One context: one record, its column cells and two 64-entry index
  // tables — not the 852 KB chunk it was carved from.
  UeContext& first = store.insert(rec_for(1, 1), ContextRole::kMaster);
  const std::size_t one = store.footprint_bytes();
  EXPECT_GE(one, sizeof(UeContext));
  EXPECT_LT(one, kChunkBytes / 64);

  // Erased slots are recycled LIFO: the same record comes back and no new
  // slot is built, so the footprint stays put.
  const UeContext* recycled = &first;
  store.erase(first.key());
  const std::size_t after_erase = store.footprint_bytes();
  for (std::uint32_t i = 2; i < 100; ++i) {
    UeContext& ctx = store.insert(rec_for(i, i), ContextRole::kMaster);
    EXPECT_EQ(&ctx, recycled);
    store.erase(ctx.key());
    EXPECT_EQ(store.footprint_bytes(), after_erase);
  }

  // Fill the first chunk exactly, then open the second one.
  for (std::uint32_t i = 0; i < kChunkSlots; ++i)
    store.insert(rec_for(1000 + i, 1000 + i), ContextRole::kMaster);
  const std::size_t full = store.footprint_bytes();
  store.insert(rec_for(100000, 100000), ContextRole::kMaster);
  const std::size_t opened = store.footprint_bytes();
  // The new chunk adds one record; the rest of the step is the columns'
  // capacity doubling (37 B per slot at most), never a whole chunk.
  EXPECT_GE(opened - full, sizeof(UeContext));
  EXPECT_LT(opened - full, kChunkBytes / 2);
  // Within the chunk, each handed-out slot costs exactly one record: the
  // columns and index tables have room for these ten.
  for (std::uint32_t i = 1; i <= 10; ++i)
    store.insert(rec_for(100000 + i, 100000 + i), ContextRole::kMaster);
  EXPECT_EQ(store.footprint_bytes(), opened + 10 * sizeof(UeContext));
  store.audit();
}

// --- Randomized churn at MillionUE scale (DESIGN.md §12) -------------------
//
// Grows the store past 100 K live contexts through a weighted mix of
// insert / erase / rekey / set_role / TEID-reassignment ops, mirrored in
// plain reference containers. Checks, periodically and at the end:
//   * index consistency — every mirrored key resolves through find() and the
//     secondary indices to the pointer captured at insert time (the slab's
//     stable-reference contract across ~15 chunk growths);
//   * byte accounting — per-role counts and bytes equal the mirror's sums;
//   * audit() — the store's own O(n) invariant sweep;
//   * a pinned digest over the sorted live (key, role, bytes) tuples, so the
//     surviving population and for_each's sorted order are held bit-for-bit.

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

TEST(ContextStoreChurn, HundredThousandContextsStayConsistent) {
  struct Mirror {
    const UeContext* ptr;  ///< address returned by insert(); must never move
    proto::Imsi imsi;
    std::uint32_t bytes;
    ContextRole role;
    std::uint32_t teid_raw;  ///< 0 = none indexed
  };
  UeContextStore store;
  std::unordered_map<std::uint64_t, Mirror> mirror;
  std::vector<std::uint64_t> keys;  // dense set for uniform random picks
  std::unordered_map<std::uint64_t, std::size_t> pos;

  Rng rng(0x5CA1Eull);
  std::uint32_t next_tmsi = 1;  // mme_code 1 namespace; rekeys move to code 2
  std::uint32_t next_rekey_tmsi = 1;
  std::uint32_t next_teid_seq = 1;
  std::uint32_t next_ue_seq = 1;
  proto::Imsi next_imsi = 1;

  std::array<std::uint64_t, 3> want_bytes{};
  std::array<std::size_t, 3> want_count{};
  const auto role_of = [](std::uint64_t r) {
    return static_cast<ContextRole>(r);
  };

  const auto track = [&](std::uint64_t key, Mirror m) {
    mirror.emplace(key, m);
    pos.emplace(key, keys.size());
    keys.push_back(key);
    want_bytes[static_cast<std::size_t>(m.role)] += m.bytes;
    ++want_count[static_cast<std::size_t>(m.role)];
  };
  const auto untrack = [&](std::uint64_t key) {
    const Mirror m = mirror.at(key);
    want_bytes[static_cast<std::size_t>(m.role)] -= m.bytes;
    --want_count[static_cast<std::size_t>(m.role)];
    mirror.erase(key);
    const std::size_t i = pos.at(key);
    pos.erase(key);
    keys[i] = keys.back();
    keys.pop_back();
    if (i < keys.size()) pos[keys[i]] = i;
  };
  const auto pick = [&]() { return keys[rng.next_below(keys.size())]; };

  const auto do_insert = [&]() {
    proto::UeContextRecord rec;
    rec.guti = proto::Guti{1, 1, 1, next_tmsi++};
    rec.imsi = next_imsi++;
    rec.state_bytes =
        static_cast<std::uint32_t>(rng.uniform_int(512, 4096));
    const ContextRole role = role_of(rng.next_below(3));
    std::uint32_t teid_raw = 0;
    if (rng.chance(0.5)) {
      rec.mme_teid = proto::Teid::make(3, next_teid_seq++);
      rec.mme_ue_id = proto::MmeUeId::make(3, next_ue_seq++);
      teid_raw = rec.mme_teid.raw;
    }
    const UeContext& ctx = store.insert(rec, role);
    track(ctx.key(), {&ctx, rec.imsi, rec.state_bytes, role, teid_raw});
  };

  const auto check_live = [&](std::uint64_t key) {
    const Mirror& m = mirror.at(key);
    UeContext* ctx = store.find(key);
    ASSERT_EQ(ctx, m.ptr) << "pointer moved or lookup failed, key=" << key;
    EXPECT_EQ(ctx->role, m.role);
    EXPECT_EQ(ctx->rec.state_bytes, m.bytes);
    EXPECT_EQ(store.find_by_imsi(m.imsi), ctx);
    if (m.teid_raw != 0)
      EXPECT_EQ(store.find_by_teid(proto::Teid{m.teid_raw}), ctx);
  };

  const auto checkpoint = [&]() {
    ASSERT_EQ(store.size(), mirror.size());
    for (std::size_t r = 0; r < 3; ++r) {
      EXPECT_EQ(store.count(role_of(r)), want_count[r]);
      EXPECT_EQ(store.bytes(role_of(r)), want_bytes[r]);
    }
    EXPECT_EQ(store.total_bytes(),
              want_bytes[0] + want_bytes[1] + want_bytes[2]);
    // Spot-check 64 random live contexts (full sweep happens at the end).
    for (int i = 0; i < 64 && !keys.empty(); ++i) check_live(pick());
    store.audit();
  };

  // Phase 1 — growth: insert-heavy mix until 120 K live contexts.
  while (keys.size() < 120000) {
    if (rng.next_below(100) < 85 || keys.empty()) {
      do_insert();
    } else {
      const std::uint64_t key = pick();
      store.erase(key);
      untrack(key);
    }
    if (!keys.empty() && keys.size() % 30000 == 0) checkpoint();
  }
  checkpoint();

  // Phase 2 — steady churn: 150 K weighted ops over the full API.
  for (std::uint32_t step = 0; step < 150000; ++step) {
    const std::uint64_t op = rng.next_below(100);
    if (op < 25) {
      do_insert();
    } else if (op < 50) {
      const std::uint64_t key = pick();
      store.erase(key);
      untrack(key);
    } else if (op < 60) {
      // Rekey into the mme_code-2 namespace (fresh-GUTI adoption path).
      const std::uint64_t old_key = pick();
      Mirror m = mirror.at(old_key);
      const proto::Guti fresh{1, 1, 2, next_rekey_tmsi++};
      UeContext& moved = store.rekey(old_key, fresh);
      ASSERT_EQ(&moved, m.ptr);
      untrack(old_key);
      track(fresh.key(), m);
    } else if (op < 75) {
      const std::uint64_t key = pick();
      Mirror& m = mirror.at(key);
      const ContextRole to = role_of(rng.next_below(3));
      store.set_role(*store.find(key), to);
      want_bytes[static_cast<std::size_t>(m.role)] -= m.bytes;
      --want_count[static_cast<std::size_t>(m.role)];
      m.role = to;
      want_bytes[static_cast<std::size_t>(to)] += m.bytes;
      ++want_count[static_cast<std::size_t>(to)];
    } else if (op < 85) {
      // Mid-procedure TEID reassignment: the shadow column must unindex the
      // old key exactly, whether or not one was indexed before.
      const std::uint64_t key = pick();
      Mirror& m = mirror.at(key);
      UeContext* ctx = store.find(key);
      ctx->rec.mme_teid = proto::Teid::make(4, next_teid_seq++);
      store.index_teid(*ctx);
      m.teid_raw = ctx->rec.mme_teid.raw;
    } else {
      check_live(pick());
    }
    if (step % 30000 == 29999) checkpoint();
  }
  checkpoint();

  // Full sweep: every surviving context, all four lookup paths.
  for (const std::uint64_t key : keys) check_live(key);

  // Digest of the sorted live population via for_each (ascending GUTI key).
  std::uint64_t digest = 0;
  std::uint64_t prev_key = 0;
  bool first = true;
  store.for_each([&](UeContext& ctx) {
    if (!first) EXPECT_LT(prev_key, ctx.key());
    first = false;
    prev_key = ctx.key();
    digest = mix64(digest ^ mix64(ctx.key()) ^
                   mix64(static_cast<std::uint64_t>(ctx.role)) ^
                   mix64(ctx.rec.state_bytes));
  });
  // Pinned: the churn trajectory is deterministic (seeded xoshiro, no
  // layout-order dependence), so this digest is identical on every platform.
  EXPECT_EQ(digest, 0x345E8A55364068CBull);

  // Drain completely; accounting must return to zero.
  while (!keys.empty()) {
    const std::uint64_t key = keys.back();
    store.erase(key);
    untrack(key);
  }
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.total_bytes(), 0u);
  store.audit();
}

}  // namespace
}  // namespace scale::epc
