// InlineAction — the engine's type-erased event callback, built so that the
// common case allocates nothing.
//
// std::function cost the old engine one heap allocation per scheduled event:
// its inline buffer (16 bytes on libstdc++) is too small for the tree's
// typical captures (`[this, to, seq]`, `[this, from, to, pdu_ref]`, ...).
// InlineAction raises the inline budget to 40 bytes — sized by measuring the
// captures on the hot paths (see DESIGN.md §8) — and drops everything
// std::function carries that the engine never uses: copyability, target
// introspection, empty-call exceptions.
//
// Storage contract:
//   * A callable F lives inline iff sizeof(F) <= kInlineBytes,
//     alignof(F) <= alignof(std::max_align_t), and F is nothrow-move
//     constructible (moves must not throw: slots relocate when the event
//     pool grows). `InlineAction::fits_inline<F>` exposes the predicate so
//     hot call sites can static_assert their captures never regress into
//     the fallback path.
//   * Oversized callables fall back to a per-thread free list of fixed
//     256-byte blocks (rare captures bigger than that get an exact-size
//     allocation, unpooled). Correct either way, just not allocation-free.
//
// Move-only; a moved-from InlineAction is empty. Invoking an empty action is
// a checked error, not std::bad_function_call.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace scale::sim {

namespace detail {

/// Fallback block size: generous enough that every realistic capture pools.
inline constexpr std::size_t kActionBlockBytes = 256;
inline constexpr std::size_t kMaxIdleActionBlocks = 1024;

/// Per-thread free list of kActionBlockBytes blocks (the engine is
/// single-threaded; thread_local keeps any future parallel engines safe).
/// Parked blocks are real heap allocations: the destructor returns them at
/// thread exit so the cache is not a leak report under the ASan tier-1 leg.
struct ActionBlockCache {
  std::vector<void*> blocks;
  ~ActionBlockCache() {
    for (void* p : blocks)
      std::allocator<std::byte>{}.deallocate(static_cast<std::byte*>(p),
                                             kActionBlockBytes);
  }
};

inline std::vector<void*>& action_block_freelist() {
  // lint: shard-local — thread_local: each thread recycles its own action
  // blocks; no cross-thread free-list traffic.
  static thread_local ActionBlockCache cache;
  return cache.blocks;
}

inline void* acquire_action_block(std::size_t bytes) {
  if (bytes <= kActionBlockBytes) {
    auto& cache = action_block_freelist();
    if (!cache.empty()) {
      void* p = cache.back();
      cache.pop_back();
      return p;
    }
    return std::allocator<std::byte>{}.allocate(kActionBlockBytes);
  }
  return std::allocator<std::byte>{}.allocate(bytes);
}

inline void release_action_block(void* p, std::size_t bytes) noexcept {
  if (bytes <= kActionBlockBytes) {
    auto& cache = action_block_freelist();
    if (cache.size() < kMaxIdleActionBlocks) {
      cache.push_back(p);
      return;
    }
    std::allocator<std::byte>{}.deallocate(static_cast<std::byte*>(p),
                                           kActionBlockBytes);
    return;
  }
  std::allocator<std::byte>{}.deallocate(static_cast<std::byte*>(p), bytes);
}

}  // namespace detail

class InlineAction {
 public:
  /// 40 inline bytes + the vtable pointer = a 48-byte InlineAction, which
  /// keeps the engine's event Slot at exactly one 64-byte cacheline. The
  /// hot captures measured across the tree top out at 32 bytes
  /// ([this, from, to, PduRef] on the fabric deliver path; std::function
  /// itself is 32), so 40 leaves headroom without spilling the Slot.
  static constexpr std::size_t kInlineBytes = 40;

  /// True when F rides the inline buffer (no allocation). Hot call sites
  /// static_assert this so a fattened capture shows up at compile time.
  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= kInlineBytes &&
      alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  InlineAction() = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineAction> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineAction(F&& fn) {  // NOLINT(google-explicit-constructor)
    emplace<F>(std::forward<F>(fn));
  }

  /// Destroy the current callable (if any) and construct `fn` in place —
  /// lets the engine build the action directly inside its event slot
  /// instead of constructing a temporary and moving it in.
  template <typename F, typename D = std::decay_t<F>>
  void emplace(F&& fn) {
    static_assert(std::is_invocable_r_v<void, D&>);
    static_assert(alignof(D) <= alignof(std::max_align_t),
                  "over-aligned callables are not supported");
    reset();
    if constexpr (fits_inline<D>) {
      std::construct_at(reinterpret_cast<D*>(storage_),
                        std::forward<F>(fn));
      vt_ = &InlineOps<D>::vt;
    } else {
      void* block = detail::acquire_action_block(sizeof(D));
      std::construct_at(static_cast<D*>(block), std::forward<F>(fn));
      std::memcpy(storage_, &block, sizeof(block));
      vt_ = &HeapOps<D>::vt;
    }
  }

  InlineAction(InlineAction&& o) noexcept : vt_(o.vt_) {
    if (vt_ != nullptr) {
      relocate_from(o);
      o.vt_ = nullptr;
    }
  }

  InlineAction& operator=(InlineAction&& o) noexcept {
    if (this != &o) {
      reset();
      vt_ = o.vt_;
      if (vt_ != nullptr) {
        relocate_from(o);
        o.vt_ = nullptr;
      }
    }
    return *this;
  }

  InlineAction(const InlineAction&) = delete;
  InlineAction& operator=(const InlineAction&) = delete;

  ~InlineAction() { reset(); }

  /// Destroy the held callable (no-op when empty).
  void reset() noexcept {
    if (vt_ != nullptr) {
      if (vt_->destroy != nullptr) vt_->destroy(storage_);
      vt_ = nullptr;
    }
  }

  explicit operator bool() const { return vt_ != nullptr; }

  void operator()() {
    SCALE_CHECK_MSG(vt_ != nullptr, "invoking empty InlineAction");
    vt_->invoke(storage_);
  }

 private:
  struct VTable {
    void (*invoke)(std::byte* s);
    /// Move-construct into dst's raw storage, destroy src. nullptr means
    /// "trivially relocatable": the caller memcpys the whole inline buffer
    /// without an indirect call — the hot path, since most captures are
    /// trivially copyable (this/pointer/integer packs).
    void (*relocate)(std::byte* src, std::byte* dst) noexcept;
    /// nullptr means trivially destructible: nothing to run on reset().
    void (*destroy)(std::byte* s) noexcept;
  };

  void relocate_from(InlineAction& o) noexcept {
    if (vt_->relocate != nullptr)
      vt_->relocate(o.storage_, storage_);
    else
      std::memcpy(storage_, o.storage_, kInlineBytes);
  }

  template <typename F>
  struct InlineOps {
    static F* self(std::byte* s) {
      return std::launder(reinterpret_cast<F*>(s));
    }
    static void invoke(std::byte* s) { (*self(s))(); }
    static void relocate(std::byte* src, std::byte* dst) noexcept {
      F* p = self(src);
      std::construct_at(reinterpret_cast<F*>(dst), std::move(*p));
      std::destroy_at(p);
    }
    static void destroy(std::byte* s) noexcept { std::destroy_at(self(s)); }
    static constexpr VTable vt{
        &invoke,
        std::is_trivially_copyable_v<F> ? nullptr : &relocate,
        std::is_trivially_destructible_v<F> ? nullptr : &destroy};
  };

  template <typename F>
  struct HeapOps {
    static F* self(std::byte* s) {
      void* p = nullptr;
      std::memcpy(&p, s, sizeof(p));
      return static_cast<F*>(p);
    }
    static void invoke(std::byte* s) { (*self(s))(); }
    static void destroy(std::byte* s) noexcept {
      F* p = self(s);
      std::destroy_at(p);
      detail::release_action_block(p, sizeof(F));
    }
    // relocate == nullptr: moving the owning pointer is a plain memcpy.
    static constexpr VTable vt{&invoke, nullptr, &destroy};
  };

  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
  const VTable* vt_ = nullptr;
};

static_assert(sizeof(InlineAction) == 48,
              "InlineAction grew — the engine Slot depends on this size");

}  // namespace scale::sim
