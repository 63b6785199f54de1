// Deterministic fan-out across worker threads.
//
// Parallelism in this project happens across *independent* jobs — Monte-Carlo
// RNG blocks, chaos campaigns — never inside one simulation. The pattern is
// always the same: job i's result must depend on i alone (the caller derives
// any randomness from a (seed, i) stream), results are collected indexed by i,
// and any reduction happens sequentially afterwards. That makes every
// consumer's output bit-identical for 1 or 16 threads, which is the guarantee
// the estimator tests and the chaos replay workflow rely on.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace drs::util {

/// Resolves a thread-count request: 0 means hardware_concurrency, and the
/// answer never exceeds the number of jobs (no idle spawn).
inline unsigned resolve_threads(unsigned requested, std::uint64_t jobs) {
  unsigned threads = requested;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  if (jobs < threads) threads = static_cast<unsigned>(jobs ? jobs : 1);
  return threads;
}

/// Evaluates fn(i) for every i in [0, count) on up to `threads` workers
/// (0 = hardware_concurrency) and returns the results indexed by i. Jobs are
/// handed out through an atomic counter, so scheduling is work-stealing but
/// the output vector is identical for any thread count as long as fn is a
/// pure function of its index.
///
/// A throwing job reaches the caller: once any job throws, no further jobs
/// are handed out, and after the join the exception of the lowest index
/// that threw is rethrown. Every index below a thrower was already handed
/// out when it threw and runs to completion, so that is the same exception
/// at any thread count (the one a sequential loop would raise first).
template <typename Fn>
auto run_indexed_jobs(std::uint64_t count, unsigned threads, Fn&& fn)
    -> std::vector<decltype(fn(std::uint64_t{0}))> {
  using Result = decltype(fn(std::uint64_t{0}));
  std::vector<Result> results(count);
  if (count == 0) return results;
  threads = resolve_threads(threads, count);
  if (threads <= 1) {
    for (std::uint64_t i = 0; i < count; ++i) results[i] = fn(i);
    return results;
  }
  std::atomic<std::uint64_t> next{0};
  std::atomic<bool> failed{false};
  // Written only when a job throws, under the mutex.
  std::mutex error_mutex;
  std::uint64_t error_index = count;
  std::exception_ptr error;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      while (!failed.load()) {
        const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) break;
        try {
          results[i] = fn(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (i < error_index) {
            error_index = i;
            error = std::current_exception();
          }
          failed.store(true);
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  if (error) std::rethrow_exception(error);
  return results;
}

}  // namespace drs::util
