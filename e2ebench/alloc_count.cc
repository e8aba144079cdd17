// Replacement global allocation functions that feed AllocCounter.
#include <cstdlib>
#include <new>

#include "alloc_count.h"

namespace {

using phantom::e2ebench::AllocCounter;

void* allocate(std::size_t n) {
  if (AllocCounter::on) ++AllocCounter::count;
  return std::malloc(n == 0 ? 1 : n);
}

void* allocate_or_throw(std::size_t n) {
  void* p = allocate(n);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* allocate_aligned(std::size_t n, std::align_val_t al) {
  if (AllocCounter::on) ++AllocCounter::count;
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (n == 0 ? a : (n + a - 1) / a * a);
  return std::aligned_alloc(a, rounded);
}

void* allocate_aligned_or_throw(std::size_t n, std::align_val_t al) {
  void* p = allocate_aligned(n, al);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return allocate_or_throw(n); }
void* operator new[](std::size_t n) { return allocate_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return allocate_aligned_or_throw(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return allocate_aligned_or_throw(n, al);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return allocate_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return allocate_aligned(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
