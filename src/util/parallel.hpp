// Deterministic fixed-size thread pool — the library's only threading
// primitive.
//
// Everything that fans out in this repo (the MPC simulator's per-machine
// map phase, the chunked batch kernels in geometry/kernels.hpp) runs
// through `kc::ThreadPool`, under one contract: **outputs are bit-identical
// to the sequential run, for every thread count, on every run.**  The rule
// that makes this hold is *determinism by ordered reduction*:
//
//  * work is split into chunks whose boundaries are a pure function of
//    (n, grain, num_threads) — never of scheduling;
//  * chunks write only disjoint state while running concurrently;
//  * anything that combines per-chunk results (a max, a sum, a merge) is
//    reduced on the calling thread in ascending chunk order after all
//    chunks finish.
//
// With that discipline the pool is free to execute chunks in any order on
// any thread.  `num_threads == 1` spawns no threads at all and runs every
// chunk inline on the caller — the bit-identical sequential fallback the
// tests pin against.
//
// Nesting: a `parallel_for` issued from inside a pool task runs inline on
// that task's thread (same chunk ids and ranges, sequential).  This makes
// it safe for parallel MPC machines to call library code that itself takes
// a pool — the inner fan-out degrades to sequential instead of
// deadlocking on the shared queue.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace kc {

class ThreadPool {
 public:
  /// `num_threads <= 0` resolves to `hardware_concurrency` (at least 1).
  /// The pool owns `num_threads - 1` worker threads; the caller of
  /// `parallel_for` participates as the remaining executor, so
  /// `num_threads == 1` is a pure inline (sequential) pool with no threads
  /// and no locking.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int num_threads() const noexcept { return num_threads_; }

  /// Number of chunks `parallel_for` will split [0, n) into for this grain:
  /// ceil(n / grain), capped at 4 chunks per thread (enough slack for
  /// uneven chunk costs without drowning in scheduling overhead).  Pure
  /// function of (n, grain, num_threads()) — callers sizing per-chunk
  /// partial-result arrays rely on this.
  [[nodiscard]] std::size_t chunk_count(std::size_t n,
                                        std::size_t grain) const noexcept;

  using RangeFn = std::function<void(std::size_t begin, std::size_t end)>;
  using ChunkFn =
      std::function<void(std::size_t chunk, std::size_t begin, std::size_t end)>;

  /// Runs `fn(begin, end)` over a deterministic chunking of [0, n) with at
  /// least `grain` indices per chunk (except possibly the last).  Blocks
  /// until every chunk finished.  If any chunk throws, the exception from
  /// the lowest-numbered failing chunk is rethrown after all chunks
  /// completed (the pool stays usable).
  void parallel_for(std::size_t n, std::size_t grain, const RangeFn& fn);

  /// Like `parallel_for` but also hands `fn` the chunk index, for callers
  /// that accumulate per-chunk partial results and reduce them in chunk
  /// order.  Chunk `c` always covers the same range for a given
  /// (n, grain, num_threads()).
  void parallel_for_chunks(std::size_t n, std::size_t grain, const ChunkFn& fn);

 private:
  void worker_loop();

  int num_threads_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: queue non-empty or stop
  std::condition_variable done_cv_;  ///< callers: their job completed
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

}  // namespace kc
