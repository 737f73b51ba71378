// Starts the process-wide thread pool and exits almost at once. Each
// worker names its trace track on its way into the task loop, so the exit
// lands while some workers are running and others are still starting;
// the per-process stagger (under half a millisecond) moves that point
// around across the runs test_teardown launches.
#include <unistd.h>

#include <chrono>
#include <thread>

#include "util/thread_pool.hpp"

int main() {
  egemm::util::global_pool();
  std::this_thread::sleep_for(std::chrono::microseconds(getpid() % 500));
  return 0;
}
