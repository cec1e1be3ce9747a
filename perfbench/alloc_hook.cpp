#include "alloc_hook.h"

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

struct Slot {
  std::atomic<int> tid{0};
  std::atomic<std::uint64_t> count{0};
};

// Threads of one run: the client, a few server generations (set-up is
// repeated), the simulator. Later threads share the overflow slot.
constexpr std::size_t kSlots = 1024;
Slot g_slots[kSlots];
Slot g_overflow;
std::atomic<std::size_t> g_used{0};
thread_local Slot* t_slot = nullptr;

void count_one() {
  Slot* slot = t_slot;
  if (slot == nullptr) {
    const std::size_t idx = g_used.fetch_add(1, std::memory_order_relaxed);
    slot = idx < kSlots ? &g_slots[idx] : &g_overflow;
    if (slot != &g_overflow)
      slot->tid.store(static_cast<int>(::syscall(SYS_gettid)),
                      std::memory_order_release);
    t_slot = slot;
  }
  slot->count.fetch_add(1, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t n) {
  count_one();
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  count_one();
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) & ~(a - 1))) return p;
  throw std::bad_alloc{};
}

}  // namespace

std::vector<ThreadAllocs> alloc_snapshot() {
  std::vector<ThreadAllocs> out;
  const std::size_t used =
      std::min(g_used.load(std::memory_order_acquire), kSlots);
  out.reserve(used);
  // A slot claimed but not yet tagged reads tid 0 and matches no role.
  for (std::size_t i = 0; i < used; ++i)
    out.push_back({g_slots[i].tid.load(std::memory_order_acquire),
                   g_slots[i].count.load(std::memory_order_relaxed)});
  return out;
}

std::uint64_t allocs_between(const std::vector<ThreadAllocs>& before,
                             const std::vector<ThreadAllocs>& after,
                             const std::vector<int>& tids) {
  std::uint64_t total = 0;
  // Slots are append-only, so index i of `before` is index i of `after`.
  for (std::size_t i = 0; i < after.size(); ++i) {
    if (std::find(tids.begin(), tids.end(), after[i].tid) == tids.end())
      continue;
    const bool seen = i < before.size() && before[i].tid == after[i].tid;
    total += after[i].count - (seen ? before[i].count : 0);
  }
  return total;
}

}  // namespace perfbench

void* operator new(std::size_t n) { return perfbench::counted_alloc(n); }
void* operator new[](std::size_t n) { return perfbench::counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return perfbench::counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return perfbench::counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
