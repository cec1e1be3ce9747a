// Fixed-size freelist pool for hot-path records.
//
// The sim allocates one event node per scheduled callback and one in-flight
// record per request attempt; at bench scale that is millions of identical
// small allocations. FixedPool hands them out from chunked slabs with a
// LIFO freelist: acquire/release are a pointer swap, reuse order is
// deterministic (last released, first reacquired), and slabs grow
// geometrically when the pool is exhausted. Not thread-safe — each
// simulation cell owns its pools, matching the one-sim-per-thread design
// of the parallel runner.
//
// Double release is detected eagerly and throws (the sanitizer job and
// tests/util/pool_test.cpp both lean on this). Released slots stay owned
// by the pool until it dies, so a stale pointer still reads valid memory
// (the event queue relies on this to reject stale cancel handles).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

namespace prord::util {

template <typename T>
class FixedPool {
 public:
  explicit FixedPool(std::size_t first_chunk_capacity = 256)
      : first_chunk_capacity_(first_chunk_capacity ? first_chunk_capacity
                                                   : 1) {}

  FixedPool(const FixedPool&) = delete;
  FixedPool& operator=(const FixedPool&) = delete;

  ~FixedPool() {
    // Destroy stragglers so a pool abandoned mid-run (exception unwind)
    // doesn't leak the objects' own resources.
    for (auto& chunk : chunks_) {
      for (std::size_t i = 0; i < chunk.count; ++i) {
        Slot& s = chunk.slots[i];
        if (s.live) reinterpret_cast<T*>(s.storage)->~T();
      }
    }
  }

  template <typename... Args>
  T* acquire(Args&&... args) {
    if (!free_head_) grow();
    Slot* slot = free_head_;
    free_head_ = slot->next_free;
    T* obj = ::new (static_cast<void*>(slot->storage)) T(
        std::forward<Args>(args)...);
    slot->live = true;
    ++in_use_;
    ++total_acquires_;
    if (in_use_ > high_water_) high_water_ = in_use_;
    return obj;
  }

  void release(T* obj) {
    if (!obj) return;
    Slot* slot = slot_of(obj);
    if (!slot->live)
      throw std::logic_error("FixedPool::release: double free");
    obj->~T();
    slot->live = false;
    --in_use_;
    slot->next_free = free_head_;
    free_head_ = slot;
  }

  std::size_t in_use() const noexcept { return in_use_; }
  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t chunk_count() const noexcept { return chunks_.size(); }
  std::size_t high_water() const noexcept { return high_water_; }
  std::uint64_t total_acquires() const noexcept { return total_acquires_; }

 private:
  struct Slot {
    alignas(T) unsigned char storage[sizeof(T)];
    Slot* next_free = nullptr;
    bool live = false;
  };

  struct Chunk {
    std::unique_ptr<Slot[]> slots;
    std::size_t count = 0;
  };

  static Slot* slot_of(T* obj) noexcept {
    // storage is the first member of the standard-layout Slot, so the
    // object pointer doubles as the slot pointer.
    return reinterpret_cast<Slot*>(reinterpret_cast<unsigned char*>(obj) -
                                   offsetof(Slot, storage));
  }

  void grow() {
    // Geometric growth: each new slab matches the current total capacity,
    // so N live objects cost O(log N) slab allocations overall.
    const std::size_t count =
        capacity_ ? capacity_ : first_chunk_capacity_;
    Chunk chunk;
    chunk.slots = std::make_unique<Slot[]>(count);
    chunk.count = count;
    // Thread slots onto the freelist in reverse so a fresh pool hands
    // them out in ascending address order — deterministic and
    // prefetch-friendly.
    for (std::size_t i = count; i-- > 0;) {
      chunk.slots[i].next_free = free_head_;
      free_head_ = &chunk.slots[i];
    }
    capacity_ += count;
    chunks_.push_back(std::move(chunk));
  }

  std::vector<Chunk> chunks_;
  Slot* free_head_ = nullptr;
  std::size_t first_chunk_capacity_;
  std::size_t capacity_ = 0;
  std::size_t in_use_ = 0;
  std::size_t high_water_ = 0;
  std::uint64_t total_acquires_ = 0;
};

}  // namespace prord::util
