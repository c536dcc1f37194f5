#include "util/parallel.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "util/check.hpp"

namespace kc {

namespace {

// Set while a thread is executing a pool task (worker threads permanently,
// the caller only while it helps drain the queue).  A parallel_for issued
// from such a thread runs inline — see the nesting note in the header.
thread_local bool tl_in_pool_task = false;

// Oversubscription factor: more chunks than threads lets uneven chunk
// costs (e.g. MPC machines with adversarial partitions) rebalance.
constexpr std::size_t kChunksPerThread = 4;

// Chunk c of a balanced split of [0, n) into `chunks` pieces (the first
// n % chunks pieces are one element longer).
std::pair<std::size_t, std::size_t> chunk_range(std::size_t n,
                                                std::size_t chunks,
                                                std::size_t c) noexcept {
  const std::size_t per = n / chunks;
  const std::size_t rem = n % chunks;
  const std::size_t begin = c * per + std::min(c, rem);
  return {begin, begin + per + (c < rem ? 1 : 0)};
}

/// Values <= 0 mean "use the hardware" (`hardware_concurrency`, at least 1).
int resolve_num_threads(int num_threads) noexcept {
  if (num_threads > 0) return num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(resolve_num_threads(num_threads)) {
  const int workers = num_threads_ - 1;  // the caller is the last executor
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

std::size_t ThreadPool::chunk_count(std::size_t n,
                                    std::size_t grain) const noexcept {
  if (n == 0) return 0;
  grain = std::max<std::size_t>(grain, 1);
  const std::size_t by_grain = (n + grain - 1) / grain;
  const std::size_t cap =
      static_cast<std::size_t>(num_threads_) * kChunksPerThread;
  return std::clamp<std::size_t>(by_grain, 1, cap);
}

void ThreadPool::worker_loop() {
  tl_in_pool_task = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n, std::size_t grain,
                              const RangeFn& fn) {
  parallel_for_chunks(
      n, grain,
      [&fn](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
        fn(begin, end);
      });
}

void ThreadPool::parallel_for_chunks(std::size_t n, std::size_t grain,
                                     const ChunkFn& fn) {
  if (n == 0) return;
  const std::size_t chunks = chunk_count(n, grain);

  // Inline path: sequential pool, nested call from a pool task, or a
  // single chunk.  Same chunk ids and ranges, ascending order.
  if (workers_.empty() || tl_in_pool_task || chunks == 1) {
    for (std::size_t c = 0; c < chunks; ++c) {
      const auto [begin, end] = chunk_range(n, chunks, c);
      fn(c, begin, end);
    }
    return;
  }

  struct Job {
    std::size_t done = 0;  // guarded by the pool mutex
    std::vector<std::exception_ptr> errors;
  };
  Job job;
  job.errors.resize(chunks);

  {
    const std::lock_guard<std::mutex> lock(mu_);
    KC_EXPECTS(!stop_);
    for (std::size_t c = 0; c < chunks; ++c) {
      queue_.emplace_back([this, &job, &fn, n, chunks, c] {
        try {
          const auto [begin, end] = chunk_range(n, chunks, c);
          fn(c, begin, end);
        } catch (...) {
          job.errors[c] = std::current_exception();
        }
        {
          const std::lock_guard<std::mutex> inner(mu_);
          ++job.done;
          if (job.done == chunks) done_cv_.notify_all();
        }
      });
    }
  }
  work_cv_.notify_all();

  // The caller participates: drain tasks (ours or a concurrent caller's)
  // until this job's chunks all completed.
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (job.done == chunks) break;
      if (queue_.empty()) {
        done_cv_.wait(lock, [&] { return job.done == chunks; });
        break;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    tl_in_pool_task = true;
    task();
    tl_in_pool_task = false;
  }

  for (std::size_t c = 0; c < chunks; ++c)
    if (job.errors[c]) std::rethrow_exception(job.errors[c]);
}

}  // namespace kc
