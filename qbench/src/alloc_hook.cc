#include "alloc_hook.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<uint64_t> g_heap_allocs{0};

void *
countedAlloc(std::size_t size, std::size_t align)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = nullptr;
    if (align <= alignof(std::max_align_t))
        p = std::malloc(size ? size : 1);
    else if (posix_memalign(&p, align, size ? size : 1) != 0)
        p = nullptr;
    return p;
}

} // namespace

uint64_t
qbench::heapAllocs()
{
    return g_heap_allocs.load(std::memory_order_relaxed);
}

// Allocation goes through malloc, so deallocation goes through free:
// a pairing GCC's heuristic cannot see once the operators inline.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void *
operator new(std::size_t size)
{
    if (void *p = countedAlloc(size, 0))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    if (void *p = countedAlloc(size, static_cast<std::size_t>(align)))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return operator new(size, align);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size, 0);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size, 0);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
