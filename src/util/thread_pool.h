// Fixed-size thread pool with a shared task queue plus a `parallel_for`
// helper.  The benchmark harness uses it to run independent experiment
// repetitions (one per topology seed) concurrently; determinism is preserved
// because each repetition derives its own RNG substream from (seed, index)
// and results are written to per-index slots.
//
// Data-parallel calls nest: a `parallel_for` / `parallel_for_blocked` made on
// a pool worker (say, a repetition's Instance::finalize filling its delay
// table) runs its body inline on that worker.  Queuing it instead would
// deadlock once every worker waits on tasks queued behind its own.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace edgerep {

namespace detail {
/// Observability hooks, out-of-line so this header does not pull in the
/// metrics registry (all no-ops while metrics are disabled).
/// Records the shared task-queue depth into `edgerep_pool_queue_depth`.
void note_queue_depth(std::size_t depth) noexcept;
/// Counts a parallel_for / parallel_for_blocked dispatch of `n` items.
void note_parallel_for(std::size_t n) noexcept;
/// True on a thread-pool worker thread (any pool's).
bool on_pool_worker() noexcept;
}  // namespace detail

/// Work-item count above which data-parallel helpers fan out onto the
/// global pool; below it the dispatch overhead outweighs the work.  Shared
/// by the shortest-path row fill (DelayTable, RouteTable, DelayMatrix) and
/// hop_diameter, so the serial/parallel cutover is tuned in exactly one
/// place.
inline constexpr std::size_t kParallelForThreshold = 64;

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (or 1 if that reports 0).
  explicit ThreadPool(std::size_t threads = 0);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task; the returned future rethrows task exceptions.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after stop");
      queue_.emplace([task] { (*task)(); });
      detail::note_queue_depth(queue_.size());
    }
    cv_.notify_one();
    return fut;
  }

  /// Run body(i) for i in [0, n) across the pool and wait for completion.
  /// Workers claim contiguous index blocks off a shared atomic cursor
  /// (dynamic blocked chunking), so small per-index bodies pay one atomic
  /// bump per block instead of one per index.  Exceptions from any
  /// iteration are rethrown (the first one observed).  Called on a pool
  /// worker, it runs every index inline on that worker.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Blocked-range variant: run body(begin, end) over contiguous chunks of
  /// [0, n) claimed off the shared cursor, waiting for completion.  The
  /// callable is a template parameter, so tight inner loops see a directly
  /// inlinable body — no per-index (or even per-block) std::function
  /// dispatch, which the erased `parallel_for` pays.  Exception semantics
  /// match parallel_for: the first exception observed is rethrown after all
  /// workers drain.
  template <typename F>
  void parallel_for_blocked(std::size_t n, F&& body) {
    if (n == 0) return;
    detail::note_parallel_for(n);
    if (n == 1 || size() == 1 || detail::on_pool_worker()) {
      body(std::size_t{0}, n);
      return;
    }
    std::atomic<std::size_t> next{0};
    std::exception_ptr error;
    std::mutex error_mutex;
    const std::size_t shards = std::min(size(), n);
    // ~8 blocks per worker keeps the tail balanced while amortizing the
    // shared-cursor bump over a whole block of indices.
    const std::size_t block = std::max<std::size_t>(1, n / (shards * 8));
    std::vector<std::future<void>> futs;
    futs.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      futs.push_back(submit([&] {
        for (;;) {
          const std::size_t begin = next.fetch_add(block);
          if (begin >= n) return;
          const std::size_t end = std::min(n, begin + block);
          try {
            body(begin, end);
          } catch (...) {
            const std::lock_guard<std::mutex> lock(error_mutex);
            if (!error) error = std::current_exception();
          }
        }
      }));
    }
    for (auto& f : futs) f.get();
    if (error) std::rethrow_exception(error);
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Process-wide shared pool (lazily constructed) for harness convenience.
ThreadPool& global_pool();

}  // namespace edgerep
