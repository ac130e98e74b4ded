// The untraced binary keeps the stock allocator; see alloc_count.h.

#include "alloc_count.h"

size_t perfbench::AllocCount() { return 0; }
