/**
 * @file
 * Heap-allocation counter for the tests/alloc binary.  alloc_counter.cc
 * replaces the global operator new/delete of this executable only, so
 * a test can count how many times a region of code allocates.
 */

#ifndef HMCSIM_TESTS_ALLOC_ALLOC_COUNTER_H_
#define HMCSIM_TESTS_ALLOC_ALLOC_COUNTER_H_

#include <cstdint>

namespace hmcsim::testing {

/** Calls to the global operator new (scalar or array) so far. */
std::uint64_t allocationCount();

/** Counts the allocations made between construction and count(). */
class AllocationScope
{
  public:
    AllocationScope() : start_(allocationCount()) {}

    std::uint64_t count() const { return allocationCount() - start_; }

  private:
    std::uint64_t start_;
};

}  // namespace hmcsim::testing

#endif  // HMCSIM_TESTS_ALLOC_ALLOC_COUNTER_H_
