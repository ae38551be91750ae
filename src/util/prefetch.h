// Software prefetch for loops whose next steps read addresses known ahead.
//
// The admission pass visits queries in an order unrelated to memory
// layout, so each step's reads (a query's record, its demand slots, its
// candidate rows) miss the caches, and the loop waits on them one at a
// time.  A loop that knows which query comes D steps later can ask for
// those lines now.  The hints compile to nothing where the compiler has no
// prefetch builtin, and never change a result.  Callers pass only
// addresses inside their arrays, so a hint never names memory the loop
// does not own; single elements are taken as &v[i], which
// _GLIBCXX_ASSERTIONS builds bounds-check.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#if defined(__has_builtin)
#if __has_builtin(__builtin_prefetch)
#define EDGEREP_HAS_PREFETCH 1
#endif
#endif

namespace edgerep {

/// Bytes per cache line, the stride of multi-line hints.
inline constexpr std::size_t kCacheLine = 64;

/// Hint that the line holding `p` will be read soon.
inline void prefetch(const void* p) noexcept {
#ifdef EDGEREP_HAS_PREFETCH
  __builtin_prefetch(p, 0, 3);
#else
  (void)p;
#endif
}

/// Hint that the line holding `p` will be written soon.
inline void prefetch_write(const void* p) noexcept {
#ifdef EDGEREP_HAS_PREFETCH
  __builtin_prefetch(p, 1, 3);
#else
  (void)p;
#endif
}

/// Hint the lines that [first, first + n) touches, at most `max_lines` of
/// them from the front, for reading (or, with kWrite, for writing).  Each
/// hinted address lies inside the range.
template <bool kWrite = false, class T>
void prefetch_lines(const T* first, std::size_t n,
                    std::size_t max_lines) noexcept {
  const auto begin = reinterpret_cast<std::uintptr_t>(first);
  const std::uintptr_t end = begin + n * sizeof(T);
  std::uintptr_t line = begin & ~std::uintptr_t{kCacheLine - 1};
  for (std::size_t k = 0; line < end && k < max_lines;
       line += kCacheLine, ++k) {
    const auto* p = reinterpret_cast<const void*>(std::max(line, begin));
    if constexpr (kWrite) {
      prefetch_write(p);
    } else {
      prefetch(p);
    }
  }
}

/// Hint the one or two lines an object spans.
template <class T>
void prefetch_object(const T& obj) noexcept {
  prefetch_lines(&obj, 1, 2);
}

}  // namespace edgerep
