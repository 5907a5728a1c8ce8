// Free-list recycling for PduBox heap blocks and encoded PDU byte buffers.
//
// Every message is boxed once, by the code that creates it, behind a
// shared_ptr (proto::box, pdu.h). Unpooled, that box is a heap allocation
// per simulated message — at the million-procedure scales of Figs. 7-11 the
// allocator dominates the profile. Nothing in the simulator encodes to
// bytes (wire accounting uses wire_size), so only the first pool below is
// on its hot path:
//
//   * BoxAlloc<T>: a fixed-size block free list plugged into
//     std::allocate_shared, so proto::box() reuses one combined
//     control-block+PduBox allocation instead of hitting the heap twice.
//   * BufferPool: capacity-preserving std::vector<uint8_t> free list for
//     the code that does encode — WholeRun's codec replay, perf_core's
//     codec phases and the codec tests. A recycled buffer keeps its
//     high-water capacity, so steady-state encode never reallocates
//     (acquire() additionally pre-reserves the caller's upper-bound hint,
//     kPduReserveBytes for top-level PDUs).
//
// Both pools are thread_local: the simulator is single-threaded, and a
// program running independent worlds on separate threads gives each thread
// its own free lists, lock-free. Recycling is LIFO; nothing observable
// depends on block identity, so determinism is unaffected (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace scale::proto {

/// Capacity hint covering every fixed-layout top-level PDU (the largest, a
/// StateTransfer carrying a full UeContextRecord, encodes to ~83 bytes; see
/// tests/test_buffer_pool.cpp which pins this bound against the codecs).
/// Variable-length PDUs (RingUpdate, nested envelopes) may exceed it; the
/// recycled buffer then keeps the larger capacity for its next user.
inline constexpr std::size_t kPduReserveBytes = 192;

class BufferPool {
 public:
  /// RAII lease on a pooled buffer: dereferences to the vector, returns the
  /// storage (capacity intact) to the pool on destruction. Detachable via
  /// take() when the bytes must outlive the lease.
  class Handle {
   public:
    Handle() = default;
    Handle(BufferPool* pool, std::vector<std::uint8_t> buf)
        : pool_(pool), buf_(std::move(buf)) {}
    Handle(Handle&& o) noexcept
        : pool_(std::exchange(o.pool_, nullptr)), buf_(std::move(o.buf_)) {}
    Handle& operator=(Handle&& o) noexcept {
      if (this != &o) {
        give_back();
        pool_ = std::exchange(o.pool_, nullptr);
        buf_ = std::move(o.buf_);
      }
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() { give_back(); }

    std::vector<std::uint8_t>& operator*() { return buf_; }
    const std::vector<std::uint8_t>& operator*() const { return buf_; }
    std::vector<std::uint8_t>* operator->() { return &buf_; }
    const std::vector<std::uint8_t>* operator->() const { return &buf_; }

    /// Detach the bytes from the pool (the buffer will not be recycled).
    std::vector<std::uint8_t> take() {
      pool_ = nullptr;
      return std::move(buf_);
    }

   private:
    void give_back() {
      if (pool_ != nullptr) pool_->release(std::move(buf_));
      pool_ = nullptr;
    }

    BufferPool* pool_ = nullptr;
    std::vector<std::uint8_t> buf_;
  };

  explicit BufferPool(std::size_t max_idle = 64) : max_idle_(max_idle) {}
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// An empty buffer with capacity >= reserve_hint. Reuses the most
  /// recently released buffer when one is idle (LIFO keeps caches warm).
  Handle acquire(std::size_t reserve_hint) {
    std::vector<std::uint8_t> buf;
    if (!idle_.empty()) {
      buf = std::move(idle_.back());
      idle_.pop_back();
      buf.clear();
      ++reuses_;
    } else {
      ++misses_;
    }
    if (buf.capacity() < reserve_hint) buf.reserve(reserve_hint);
    return Handle(this, std::move(buf));
  }

  /// Return storage to the pool; beyond max_idle the buffer is freed (a
  /// bound, not a leak, under transient fan-out bursts).
  void release(std::vector<std::uint8_t>&& buf) {
    if (idle_.size() < max_idle_ && buf.capacity() > 0)
      idle_.push_back(std::move(buf));
  }

  std::size_t idle_count() const { return idle_.size(); }
  std::uint64_t reuses() const { return reuses_; }
  std::uint64_t misses() const { return misses_; }

  /// The per-thread pool encode_pdu_pooled() leases from.
  static BufferPool& local() {
    // lint: shard-local — thread_local: each thread gets its own pool, so
    // buffers never cross threads.
    static thread_local BufferPool pool;
    return pool;
  }

 private:
  std::vector<std::vector<std::uint8_t>> idle_;
  std::size_t max_idle_;
  std::uint64_t reuses_ = 0;
  std::uint64_t misses_ = 0;
};

using PooledBuffer = BufferPool::Handle;

/// Allocator handed to std::allocate_shared by proto::box(): single-object
/// allocations come from (and return to) a per-thread free list, so the
/// steady-state cost of boxing a Pdu is a pop + placement-construct.
template <typename T>
struct BoxAlloc {
  using value_type = T;

  BoxAlloc() = default;
  template <typename U>
  BoxAlloc(const BoxAlloc<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  T* allocate(std::size_t n) {
    if (n == 1) {
      auto& cache = freelist();
      if (!cache.empty()) {
        void* p = cache.back();
        cache.pop_back();
        return static_cast<T*>(p);
      }
    }
    return std::allocator<T>{}.allocate(n);
  }

  void deallocate(T* p, std::size_t n) {
    if (n == 1) {
      auto& cache = freelist();
      if (cache.size() < kMaxIdleBlocks) {
        cache.push_back(p);
        return;
      }
    }
    std::allocator<T>{}.deallocate(p, n);
  }

  template <typename U>
  bool operator==(const BoxAlloc<U>&) const noexcept {
    return true;
  }

 private:
  static constexpr std::size_t kMaxIdleBlocks = 4096;

  /// Per-type, per-thread fixed-block cache (blocks of exactly sizeof(T)).
  /// Parked blocks are real heap allocations, so the destructor returns
  /// them at thread exit — otherwise every cached block is a leak report
  /// under the ASan tier-1 leg.
  struct BlockCache {
    std::vector<void*> blocks;
    ~BlockCache() {
      for (void* p : blocks)
        std::allocator<T>{}.deallocate(static_cast<T*>(p), 1);
    }
  };

  static std::vector<void*>& freelist() {
    // lint: shard-local — thread_local: per-worker free list; a block
    // parked by one thread is never handed to another.
    static thread_local BlockCache cache;
    return cache.blocks;
  }
};

}  // namespace scale::proto
