// InlineAction — the engine's type-erased event callback. It never
// allocates: every callable lives in a 40-byte inline buffer.
//
// std::function cost the old engine one heap allocation per scheduled event:
// its inline buffer (16 bytes on libstdc++) is too small for the tree's
// typical captures (`[this, to, seq]`, `[this, from, to, pdu_ref]`, ...).
// InlineAction raises the inline budget to 40 bytes — sized by measuring the
// captures on the hot paths (see DESIGN.md §8) — and drops everything
// std::function carries that the engine never uses: copyability, target
// introspection, empty-call exceptions.
//
// Storage contract: a callable F is accepted iff sizeof(F) <= kInlineBytes,
// alignof(F) <= alignof(std::max_align_t), and F is nothrow-move
// constructible (moves must not throw: slots relocate when the event pool
// grows). Anything else is a compile error (`fits_inline<F>`), not a slower
// path: a capture that carries a message holds its PDU as a 16-byte
// proto::PduRef, or a small handle into its owner's table, never the
// message by value (DESIGN.md §8, "One box per PDU").
//
// Move-only; a moved-from InlineAction is empty. Invoking an empty action is
// a checked error, not std::bad_function_call.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/check.h"

namespace scale::sim {

class InlineAction {
 public:
  /// 40 inline bytes + the vtable pointer = a 48-byte InlineAction, which
  /// keeps the engine's event Slot at exactly one 64-byte cacheline. The
  /// largest captures in the tree are CpuModel completions: the model's
  /// `this` plus a callback of up to 32 bytes such as a front end's
  /// [this, from, code, PduRef].
  static constexpr std::size_t kInlineBytes = 40;

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
    static_assert(fits_inline<D>,
                  "capture exceeds InlineAction's 40-byte budget: hold a "
                  "message as a proto::PduRef or a handle, not by value");
    reset();
    std::construct_at(reinterpret_cast<D*>(storage_), std::forward<F>(fn));
    vt_ = &Ops<D>::vt;
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
  /// True when F fits the inline buffer — the only storage there is.
  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= kInlineBytes &&
      alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

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
  struct Ops {
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

  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
  const VTable* vt_ = nullptr;
};

static_assert(sizeof(InlineAction) == 48,
              "InlineAction grew — the engine Slot depends on this size");

}  // namespace scale::sim
