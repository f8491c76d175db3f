// Counting replacement of the global allocation functions. Every replaced
// operator new has its matching delete (plain, sized, array, aligned and
// nothrow forms), so the binary builds clean under -Wmismatched-new-delete.
//
// Each thread counts into its own cache-line-padded slot, so a sharded run
// pays no cross-core contention for the count; alloc_count() sums the slots.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <new>

#include "bench.h"

namespace {

constexpr std::size_t kSlots = 64;

struct alignas(64) Slot {
  std::atomic<std::uint64_t> n{0};
};

Slot g_slots[kSlots];
std::atomic<std::size_t> g_next_slot{0};

inline void count_one() {
  thread_local const std::size_t slot =
      g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;
  g_slots[slot].n.fetch_add(1, std::memory_order_relaxed);
}

void* alloc_or_throw(std::size_t size) {
  count_one();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* alloc_nothrow(std::size_t size) noexcept {
  count_one();
  return std::malloc(size == 0 ? 1 : size);
}

void* aligned_or_throw(std::size_t size, std::align_val_t al) {
  count_one();
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

void* aligned_nothrow(std::size_t size, std::align_val_t al) noexcept {
  count_one();
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  return std::aligned_alloc(a, rounded);
}

}  // namespace

namespace pb {

std::uint64_t alloc_count() {
  std::uint64_t total = 0;
  for (const Slot& s : g_slots) total += s.n.load(std::memory_order_relaxed);
  return total;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace pb

void* operator new(std::size_t size) { return alloc_or_throw(size); }
void* operator new[](std::size_t size) { return alloc_or_throw(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return alloc_nothrow(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return alloc_nothrow(size);
}
void* operator new(std::size_t size, std::align_val_t al) { return aligned_or_throw(size, al); }
void* operator new[](std::size_t size, std::align_val_t al) { return aligned_or_throw(size, al); }
void* operator new(std::size_t size, std::align_val_t al, const std::nothrow_t&) noexcept {
  return aligned_nothrow(size, al);
}
void* operator new[](std::size_t size, std::align_val_t al, const std::nothrow_t&) noexcept {
  return aligned_nothrow(size, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
