// The one worker pool behind every parallel loop: the sweep engine
// (exp/engine.cpp), the online replay (exp/online.cpp) and the mux server
// (serve/router.cpp).
//
// Each caller hands run_workers() one worker that drains a shared queue —
// an atomic index over its work items — and returns when the queue is
// empty.  Which worker ran an item never reaches the output, so how many
// workers ran is free to vary.  That is what makes a refused thread
// harmless: a host out of threads or address space (a process limit,
// `ulimit -v`) makes std::thread throw, and the workers already running
// finish the queue — or the calling thread does, when none started.
#pragma once

#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace dpcp {

/// Runs `worker` on up to `n` threads and returns once every run of it
/// has returned; n <= 1 runs it inline on the calling thread.  Threads
/// the host refuses are not started, and the calling thread runs
/// `worker` itself if none started.  The first exception a worker throws
/// is rethrown here, after every thread has been joined.
template <typename Worker>
void run_workers(std::size_t n, const Worker& worker) {
  if (n <= 1) {
    worker();
    return;
  }
  std::mutex failure_mu;
  std::exception_ptr failure;  // guarded by failure_mu
  const auto guarded = [&] {
    try {
      worker();
    } catch (...) {
      std::lock_guard<std::mutex> lock(failure_mu);
      if (!failure) failure = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(n);
  try {
    while (pool.size() < n) pool.emplace_back(guarded);
  } catch (...) {
    // Refused (std::system_error, or bad_alloc for the thread's state):
    // the workers already running drain the queue.
  }
  if (pool.empty()) guarded();
  for (std::thread& t : pool) t.join();
  if (failure) std::rethrow_exception(failure);
}

}  // namespace dpcp
