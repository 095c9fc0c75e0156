#include "util/threading.hpp"

namespace madpipe::par {

std::size_t default_workers() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

// One parallel region. Lives on the submitter's stack: the submitter does not
// return from run() until `complete`, and no worker touches the job after the
// final block retires (see invariants in run()/worker_loop()).
struct ThreadPool::Job {
  void (*fn)(void*, std::size_t) = nullptr;
  void* ctx = nullptr;
  std::size_t total = 0;
  std::atomic<std::size_t> next{0};  ///< claim cursor; >= total means drained
  std::size_t done = 0;              ///< retired blocks (guarded by pool mutex)
  std::exception_ptr error;          ///< first failure (guarded by pool mutex)
  bool complete = false;             ///< guarded by pool mutex
  std::condition_variable done_cv;   ///< signaled once complete flips
};

ThreadPool::ThreadPool(std::size_t threads) {
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

ThreadPool& ThreadPool::shared() {
  // Floor of 3 parked workers so explicitly requested parallelism (tests,
  // speculative probes) exercises real concurrency even on single-core
  // hosts; idle workers park on the condvar, so the floor costs nothing at
  // rest.
  static ThreadPool pool(std::max<std::size_t>(default_workers(), 4) - 1);
  return pool;
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (stop_) return;
    Job* job = queue_.front();
    const std::size_t block = job->next.fetch_add(1, std::memory_order_relaxed);
    if (block >= job->total) {
      // Drained: retire the queue entry so later jobs become visible. The
      // pointer stays valid here because `complete` (and thus destruction)
      // requires all claimed blocks to retire first, and claiming happens
      // only under this mutex or by the job's own submitter.
      if (!queue_.empty() && queue_.front() == job) queue_.pop_front();
      continue;
    }
    lock.unlock();
    std::exception_ptr err;
    try {
      job->fn(job->ctx, block);
    } catch (...) {
      err = std::current_exception();
    }
    lock.lock();
    if (err && !job->error) job->error = err;
    if (++job->done == job->total) {
      job->complete = true;
      job->done_cv.notify_all();
    }
  }
}

void ThreadPool::run(std::size_t blocks, void (*fn)(void*, std::size_t),
                     void* ctx) {
  if (blocks == 0) return;
  Job job;
  job.fn = fn;
  job.ctx = ctx;
  job.total = blocks;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(&job);
  }
  work_cv_.notify_all();

  // Participate: the submitter claims blocks alongside the workers, which
  // guarantees forward progress even when every pool worker is occupied
  // (nested regions) or the pool has zero workers.
  for (;;) {
    const std::size_t block = job.next.fetch_add(1, std::memory_order_relaxed);
    if (block >= job.total) break;
    std::exception_ptr err;
    try {
      fn(ctx, block);
    } catch (...) {
      err = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (err && !job.error) job.error = err;
    if (++job.done == job.total) job.complete = true;
  }

  std::unique_lock<std::mutex> lock(mutex_);
  job.done_cv.wait(lock, [&job] { return job.complete; });
  // The job may still sit in the queue if no thread hit the drained branch
  // (e.g. zero-worker pool); remove it before the stack frame dies.
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (*it == &job) {
      queue_.erase(it);
      break;
    }
  }
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace madpipe::par
