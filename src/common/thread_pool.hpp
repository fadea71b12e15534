// Veil runs every stage on the calling thread and has no worker pool.
// perfbench/main.cpp still pins the pool it once had to one stream with
// set_global_threads(1), so that call stays, as a no-op, until perfbench
// drops it.
#pragma once

#include <cstddef>

namespace veil::common {

struct ThreadPool {
  static void set_global_threads(std::size_t) {}
};

}  // namespace veil::common
