#include "epc/ue_context.h"

#include <memory>
#include <utility>

namespace scale::epc {

std::uint32_t UeContextStore::alloc_slot() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(live_.size());
  if ((slot & (kChunkSize - 1)) == 0)
    chunks_.emplace_back(std::allocator<UeContext>().allocate(kChunkSize));
  std::construct_at(slot_ptr(slot));
  live_.push_back(0);
  epoch_hits_.push_back(0);
  timer_.push_back(0);
  return slot;
}

UeContext& UeContextStore::insert(proto::UeContextRecord rec,
                                  ContextRole role) {
  const std::uint64_t key = rec.guti.key();
  SCALE_CHECK_MSG(!by_key_.contains(key),
                  "duplicate context " + rec.guti.str());
  const std::uint32_t slot = alloc_slot();
  UeContext& ctx = *slot_ptr(slot);
  ctx.rec = std::move(rec);
  ctx.role = role;
  ctx.replica_dirty = false;
  ctx.serving_mmp = 0;
  ctx.slot_ = slot;
  live_[slot] = 1;
  epoch_hits_[slot] = 0;
  timer_[slot] = 0;
  by_key_.insert(key, slot);
  reindex(ctx);
  total_bytes_ += ctx.rec.state_bytes;
  role_bytes_[role_index(role)] += ctx.rec.state_bytes;
  role_count_[role_index(role)] += 1;
  ++size_;
  return ctx;
}

UeContext* UeContextStore::find_by_imsi(proto::Imsi imsi) {
  const std::uint32_t slot = by_imsi_.find(imsi);
  return slot == FlatIndex::kNone ? nullptr : slot_ptr(slot);
}

UeContext* UeContextStore::find_by_teid(proto::Teid mme_teid) {
  const std::uint32_t slot = by_teid_.find(mme_teid.raw);
  return slot == FlatIndex::kNone ? nullptr : slot_ptr(slot);
}

UeContext* UeContextStore::find_by_mme_ue_id(proto::MmeUeId id) {
  const std::uint32_t slot = by_ue_id_.find(id.raw);
  return slot == FlatIndex::kNone ? nullptr : slot_ptr(slot);
}

void UeContextStore::sync_imsi(UeContext& ctx) {
  const std::uint32_t slot = ctx.slot_;
  const std::uint64_t want = ctx.rec.imsi;
  const std::uint64_t have = ctx.indexed_imsi_;
  if (have == want) return;
  if (have != 0) by_imsi_.erase(have);
  if (want != 0) {
    const std::uint32_t hit = by_imsi_.find(want);
    if (hit != FlatIndex::kNone && hit != slot) {
      // A device re-attaching under a fresh GUTI supersedes the older
      // context's IMSI claim (the adopt() duplicate-IMSI guard purges the
      // loser once the procedure settles). Steal the entry and un-shadow
      // the previous owner so its erase stays exact.
      slot_ptr(hit)->indexed_imsi_ = 0;
      by_imsi_.erase(want);
    }
    by_imsi_.insert(want, slot);
  }
  ctx.indexed_imsi_ = want;
}

// TEID/UE-id reassignment keeps a one-deep alias: procedures hand the MME a
// fresh identifier while messages referencing the one just replaced may
// still be in flight (an S-GW response crossing a Service Request, a path
// switch racing a re-setup). The replaced id stays routable until the NEXT
// reassignment retires it — bounded (one alias per context, unlike the old
// unordered_map store, which leaked every superseded id forever) and exact
// (erase removes the alias with the context).
void UeContextStore::sync_teid(UeContext& ctx) {
  const std::uint32_t slot = ctx.slot_;
  const std::uint32_t want = ctx.rec.mme_teid.valid() ? ctx.rec.mme_teid.raw : 0;
  const std::uint32_t have = ctx.indexed_teid_;
  if (have == want) return;
  if (ctx.prev_teid_ != 0 && ctx.prev_teid_ != want) {
    by_teid_.erase(ctx.prev_teid_);
    ctx.prev_teid_ = 0;
  }
  if (want != 0 && want == ctx.prev_teid_) {
    ctx.prev_teid_ = 0;  // reassigned back: promote, entry already present
  } else if (want != 0) {
    const std::uint32_t hit = by_teid_.find(want);
    SCALE_CHECK_MSG(hit == FlatIndex::kNone,
                    "TEID index collision with a live context");
    by_teid_.insert(want, slot);
  }
  ctx.prev_teid_ = have;
  ctx.indexed_teid_ = want;
}

void UeContextStore::sync_ue_id(UeContext& ctx) {
  const std::uint32_t slot = ctx.slot_;
  const std::uint32_t want = ctx.rec.mme_ue_id.raw;
  const std::uint32_t have = ctx.indexed_ue_id_;
  if (have == want) return;
  if (ctx.prev_ue_id_ != 0 && ctx.prev_ue_id_ != want) {
    by_ue_id_.erase(ctx.prev_ue_id_);
    ctx.prev_ue_id_ = 0;
  }
  if (want != 0 && want == ctx.prev_ue_id_) {
    ctx.prev_ue_id_ = 0;
  } else if (want != 0) {
    const std::uint32_t hit = by_ue_id_.find(want);
    SCALE_CHECK_MSG(hit == FlatIndex::kNone,
                    "MME-UE-id index collision with a live context");
    by_ue_id_.insert(want, slot);
  }
  ctx.prev_ue_id_ = have;
  ctx.indexed_ue_id_ = want;
}

void UeContextStore::set_role(UeContext& ctx, ContextRole role) {
  if (ctx.role == role) return;
  role_bytes_[role_index(ctx.role)] -= ctx.rec.state_bytes;
  role_count_[role_index(ctx.role)] -= 1;
  ctx.role = role;
  role_bytes_[role_index(role)] += ctx.rec.state_bytes;
  role_count_[role_index(role)] += 1;
}

UeContext& UeContextStore::rekey(std::uint64_t old_key,
                                 const proto::Guti& new_guti) {
  const std::uint32_t slot = by_key_.find(old_key);
  SCALE_CHECK_MSG(slot != FlatIndex::kNone, "rekey of unknown context");
  SCALE_CHECK_MSG(!by_key_.contains(new_guti.key()), "rekey target collision");
  by_key_.erase(old_key);
  UeContext& ctx = *slot_ptr(slot);
  ctx.rec.guti = new_guti;
  by_key_.insert(new_guti.key(), slot);
  return ctx;
}

void UeContextStore::erase(std::uint64_t guti_key) {
  const std::uint32_t slot = by_key_.find(guti_key);
  SCALE_CHECK_MSG(slot != FlatIndex::kNone, "erase of unknown context");
  UeContext& ctx = *slot_ptr(slot);
  // Exact unindex through the shadow fields: no "is this entry really
  // ours?" pointer guessing, and re-assigned identifiers cannot strand
  // stale entries.
  if (ctx.indexed_imsi_ != 0) by_imsi_.erase(ctx.indexed_imsi_);
  if (ctx.indexed_teid_ != 0) by_teid_.erase(ctx.indexed_teid_);
  if (ctx.indexed_ue_id_ != 0) by_ue_id_.erase(ctx.indexed_ue_id_);
  if (ctx.prev_teid_ != 0) by_teid_.erase(ctx.prev_teid_);
  if (ctx.prev_ue_id_ != 0) by_ue_id_.erase(ctx.prev_ue_id_);
  ctx.indexed_imsi_ = 0;
  ctx.indexed_teid_ = 0;
  ctx.indexed_ue_id_ = 0;
  ctx.prev_teid_ = 0;
  ctx.prev_ue_id_ = 0;
  total_bytes_ -= ctx.rec.state_bytes;
  role_bytes_[role_index(ctx.role)] -= ctx.rec.state_bytes;
  role_count_[role_index(ctx.role)] -= 1;
  by_key_.erase(guti_key);
  ctx.rec = proto::UeContextRecord{};
  ctx.replica_dirty = false;
  ctx.serving_mmp = 0;
  ctx.slot_ = 0xFFFFFFFFu;
  live_[slot] = 0;
  timer_[slot] = 0;
  free_.push_back(slot);
  --size_;
}

std::size_t UeContextStore::footprint_bytes() const {
  std::size_t bytes = live_.size() * sizeof(UeContext);
  bytes += live_.capacity() * sizeof(std::uint8_t);
  bytes += epoch_hits_.capacity() * sizeof(std::uint32_t);
  bytes += timer_.capacity() * sizeof(sim::EventId);
  bytes += free_.capacity() * sizeof(std::uint32_t);
  bytes += by_key_.memory_bytes() + by_imsi_.memory_bytes() +
           by_teid_.memory_bytes() + by_ue_id_.memory_bytes();
  return bytes;
}

void UeContextStore::audit() const {
  SCALE_CHECK(by_key_.size() == size_);
  SCALE_CHECK(free_.size() == live_.size() - size_);
  std::size_t live_seen = 0;
  std::uint64_t tb = 0;
  std::array<std::uint64_t, 3> rb{};
  std::array<std::size_t, 3> rc{};
  for (std::uint32_t s = 0; s < live_.size(); ++s) {
    const UeContext& ctx = *slot_ptr(s);
    if (!live_[s]) {
      SCALE_CHECK_MSG(ctx.slot_ == 0xFFFFFFFFu, "dead slot left addressed");
      SCALE_CHECK_MSG(ctx.indexed_imsi_ == 0 && ctx.indexed_teid_ == 0 &&
                          ctx.indexed_ue_id_ == 0 && ctx.prev_teid_ == 0 &&
                          ctx.prev_ue_id_ == 0,
                      "dead slot still indexed");
      continue;
    }
    ++live_seen;
    SCALE_CHECK_MSG(ctx.slot_ == s, "slot back-reference mismatch");
    SCALE_CHECK_MSG(by_key_.find(ctx.key()) == s, "GUTI index misses context");
    if (ctx.indexed_imsi_ != 0)
      SCALE_CHECK_MSG(by_imsi_.find(ctx.indexed_imsi_) == s,
                      "IMSI shadow/index mismatch");
    if (ctx.indexed_teid_ != 0)
      SCALE_CHECK_MSG(by_teid_.find(ctx.indexed_teid_) == s,
                      "TEID shadow/index mismatch");
    if (ctx.indexed_ue_id_ != 0)
      SCALE_CHECK_MSG(by_ue_id_.find(ctx.indexed_ue_id_) == s,
                      "UE-id shadow/index mismatch");
    if (ctx.prev_teid_ != 0)
      SCALE_CHECK_MSG(by_teid_.find(ctx.prev_teid_) == s,
                      "TEID alias/index mismatch");
    if (ctx.prev_ue_id_ != 0)
      SCALE_CHECK_MSG(by_ue_id_.find(ctx.prev_ue_id_) == s,
                      "UE-id alias/index mismatch");
    tb += ctx.rec.state_bytes;
    rb[role_index(ctx.role)] += ctx.rec.state_bytes;
    rc[role_index(ctx.role)] += 1;
  }
  SCALE_CHECK_MSG(live_seen == size_, "live-slot count drifted");
  SCALE_CHECK_MSG(tb == total_bytes_, "total byte accounting drifted");
  SCALE_CHECK_MSG(rb == role_bytes_, "per-role byte accounting drifted");
  SCALE_CHECK_MSG(rc == role_count_, "per-role count accounting drifted");
  // Every index entry must round-trip to a live context that claims it.
  // lint: order-independent — each entry is checked on its own.
  by_key_.for_each_entry([&](std::uint64_t key, std::uint32_t slot) {
    SCALE_CHECK_MSG(slot < live_.size() && live_[slot],
                    "GUTI index entry points at a dead slot");
    SCALE_CHECK_MSG(slot_ptr(slot)->key() == key, "GUTI index key mismatch");
  });
  // lint: order-independent — each entry is checked on its own.
  by_imsi_.for_each_entry([&](std::uint64_t key, std::uint32_t slot) {
    SCALE_CHECK_MSG(slot < live_.size() && live_[slot],
                    "IMSI index entry points at a dead slot");
    SCALE_CHECK_MSG(slot_ptr(slot)->indexed_imsi_ == key,
                    "IMSI index not shadowed");
  });
  // lint: order-independent — each entry is checked on its own.
  by_teid_.for_each_entry([&](std::uint64_t key, std::uint32_t slot) {
    SCALE_CHECK_MSG(slot < live_.size() && live_[slot],
                    "TEID index entry points at a dead slot");
    const UeContext& ctx = *slot_ptr(slot);
    SCALE_CHECK_MSG(ctx.indexed_teid_ == key || ctx.prev_teid_ == key,
                    "TEID index not shadowed");
  });
  // lint: order-independent — each entry is checked on its own.
  by_ue_id_.for_each_entry([&](std::uint64_t key, std::uint32_t slot) {
    SCALE_CHECK_MSG(slot < live_.size() && live_[slot],
                    "UE-id index entry points at a dead slot");
    const UeContext& ctx = *slot_ptr(slot);
    SCALE_CHECK_MSG(ctx.indexed_ue_id_ == key || ctx.prev_ue_id_ == key,
                    "UE-id index not shadowed");
  });
}

}  // namespace scale::epc
