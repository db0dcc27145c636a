#include "alloc_count.hpp"

#include <cstdlib>
#include <new>

// These functions are the replacement pair: every operator new below
// gets its memory from malloc, so free is the matching release.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

std::uint64_t g_allocs = 0;

void* counted_alloc(std::size_t size) {
    ++g_allocs;
    return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
    ++g_allocs;
    void* p = nullptr;
    const std::size_t a = static_cast<std::size_t>(align) < sizeof(void*)
                              ? sizeof(void*)
                              : static_cast<std::size_t>(align);
    return posix_memalign(&p, a, size == 0 ? 1 : size) == 0 ? p : nullptr;
}

}  // namespace

void* operator new(std::size_t size) {
    if (void* p = counted_alloc(size)) {
        return p;
    }
    throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
    if (void* p = counted_alloc(size)) {
        return p;
    }
    throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    return counted_alloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    return counted_alloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
    if (void* p = counted_aligned_alloc(size, align)) {
        return p;
    }
    throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
    if (void* p = counted_aligned_alloc(size, align)) {
        return p;
    }
    throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
    return counted_aligned_alloc(size, align);
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
    return counted_aligned_alloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}

namespace perfbench {

std::uint64_t alloc_count() { return g_allocs; }

bool alloc_self_check() {
    // Direct calls of the allocation functions cannot be elided the way
    // paired new/delete expressions can, so the expected count is exact.
    constexpr std::uint64_t plain = 48;
    constexpr std::uint64_t arrays = 16;
    const std::uint64_t before = alloc_count();
    for (std::uint64_t i = 0; i < plain; ++i) {
        ::operator delete(::operator new(16 + i));
    }
    for (std::uint64_t i = 0; i < arrays; ++i) {
        ::operator delete[](::operator new[](64 + i));
    }
    ::operator delete(::operator new(64, std::align_val_t{64}),
                      std::align_val_t{64});
    return alloc_count() - before == plain + arrays + 1;
}

}  // namespace perfbench
