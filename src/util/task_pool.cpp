#include "util/task_pool.hpp"

#include <thread>
#include <vector>

namespace bsched::util {

void task_pool::run(std::size_t threads, const std::function<void()>& body) {
  std::vector<std::jthread> pool;  // joins on destruction, throw included
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(body);
}

}  // namespace bsched::util
