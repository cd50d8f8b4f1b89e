/**
 * @file
 * Global operator new/delete replacement counting heap allocations
 * of the benchmark process (one relaxed atomic increment per call,
 * in traced and untraced runs alike).
 */

#ifndef QBENCH_ALLOC_HOOK_H
#define QBENCH_ALLOC_HOOK_H

#include <cstdint>

namespace qbench {

/** @return cumulative operator-new calls of this process. */
uint64_t heapAllocs();

} // namespace qbench

#endif // QBENCH_ALLOC_HOOK_H
