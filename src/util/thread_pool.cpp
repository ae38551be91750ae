#include "util/thread_pool.h"

#include "obs/metrics.h"

namespace edgerep {

namespace {
thread_local bool t_pool_worker = false;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  // Workers bump registry counters until they are joined.  Building the
  // registry first makes it outlive every pool, the static global_pool()
  // included (statics are destroyed in reverse order of construction).
  (void)obs::metrics();
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

namespace detail {

void note_queue_depth(std::size_t depth) noexcept {
  if (!obs::metrics_enabled()) return;
  static obs::Gauge& depth_gauge = obs::metrics().gauge(
      "edgerep_pool_queue_depth", "tasks waiting in the shared pool queue");
  depth_gauge.set(static_cast<double>(depth));
}

void note_parallel_for(std::size_t n) noexcept {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& calls = obs::metrics().counter(
      "edgerep_pool_parallel_for_total", "parallel_for invocations");
  static obs::Counter& items = obs::metrics().counter(
      "edgerep_pool_parallel_for_items_total",
      "work items dispatched through parallel_for");
  calls.inc();
  items.inc(n);
}

bool on_pool_worker() noexcept { return t_pool_worker; }

}  // namespace detail

void ThreadPool::worker_loop() {
  t_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop();
      detail::note_queue_depth(queue_.size());
    }
    task();
    if (obs::metrics_enabled()) {
      static obs::Counter& executed = obs::metrics().counter(
          "edgerep_pool_tasks_executed_total",
          "tasks executed by the shared pool workers");
      executed.inc();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  // Thin adapter over the blocked-range template; the erased call is paid
  // once per index inside the block loop, block claiming is shared.
  parallel_for_blocked(n, [&body](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) body(i);
  });
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace edgerep
