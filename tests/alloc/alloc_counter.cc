/**
 * @file
 * Counting replacements of the global allocation functions.  They are
 * linked into the tests/alloc binary only; every other binary keeps
 * the standard library's.  The aligned and nothrow forms are left to
 * the library: libstdc++ builds the nothrow forms on the scalar ones,
 * and nothing in the simulator over-aligns.
 */

#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

std::uint64_t
hmcsim::testing::allocationCount()
{
    return g_allocations.load(std::memory_order_relaxed);
}

void *
operator new(std::size_t n)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
