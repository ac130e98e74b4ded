#ifndef DISCSEC_PERFBENCH_ALLOC_COUNT_H_
#define DISCSEC_PERFBENCH_ALLOC_COUNT_H_

#include <cstddef>

namespace perfbench {

/// Number of global operator new calls so far. The traced binary links
/// alloc_count.cc, which replaces operator new with a counting one; the
/// untraced binary links alloc_stock.cc, which keeps the stock allocator
/// and always returns 0, so the end-to-end timings pay no counting cost.
size_t AllocCount();

}  // namespace perfbench

#endif  // DISCSEC_PERFBENCH_ALLOC_COUNT_H_
