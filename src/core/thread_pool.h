// The one parallel runtime: a fixed-size fork/join pool. The kernels fan
// their row loops out on the process-wide kernel_pool(); the one other pool
// is the optional one a FunctionalTokenBackend is built with, which shards
// the lanes of each prefill wave. A parallel_for issued from inside
// any pool's shard runs its whole range inline on the calling thread, so
// the two levels never oversubscribe the cores: lane shards run their
// kernels serially, a lone caller fans kernel rows out.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace orinsim {

class ThreadPool {
 public:
  // Workers beyond this are not started: a call's seats and claims are bits
  // of one 64-bit word, bit 0 being the caller.
  static constexpr std::size_t kMaxWorkers = 63;

  // min(threads, kMaxWorkers) workers beside the calling thread; 0 runs
  // every call inline.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  // Upper bound on the shard index parallel_for passes to fn: the workers
  // plus the calling thread.
  std::size_t shard_count() const noexcept { return workers_.size() + 1; }

  // Run fn(i), or fn(shard, i), for i in [begin, end) and wait. Exceptions
  // thrown by fn are rethrown (first one wins) after all indices complete.
  //
  // shard is in [0, shard_count()), with at most one index running per
  // shard at a time, so callers can index per-shard scratch with it. Shard 0
  // is always the calling thread and shard w always worker w.
  //
  // Affinity: in a call with at most shard_count() indices, shard k takes
  // index begin + k first, then any index still unclaimed. Index k of such
  // a call therefore runs on the same thread from one call to the next
  // unless its owner is late, so a kernel that splits the same rows the
  // same way each step keeps each range's weights in one core's cache.
  //
  // The whole range runs inline as shard 0 when the call comes from inside a
  // shard of any pool, or while another thread's call holds this pool.
  // Workers that have not joined by the time the caller drains the range are
  // not waited for.
  template <class Fn>
  void parallel_for(std::size_t begin, std::size_t end, Fn&& fn) {
    run(begin, end, &invoke<std::remove_cvref_t<Fn>>, std::addressof(fn));
  }

  // Split [0, rows) into at most shard_count() contiguous ranges and run
  // fn(r0, r1) on each. Below min_rows, or inside a shard, it is one
  // fn(0, rows) on the calling thread. Kernels whose rows are independent
  // give bit-identical results for any split.
  template <class Fn>
  void parallel_rows(std::size_t rows, std::size_t min_rows, Fn&& fn) {
    if (rows == 0) return;
    const std::size_t ranges =
        rows < min_rows || in_shard() ? 1 : std::min(shard_count(), rows);
    if (ranges == 1) {
      fn(std::size_t{0}, rows);
      return;
    }
    parallel_for(0, ranges,
                 [&](std::size_t k) { fn(k * rows / ranges, (k + 1) * rows / ranges); });
  }

 private:
  // Whether the calling thread is running a shard of some pool.
  static bool in_shard() noexcept;

  using Body = void (*)(const void* fn, std::size_t shard, std::size_t i);
  struct Job;

  template <class F>
  static void invoke(const void* fn, std::size_t shard, std::size_t i) {
    const F& f = *static_cast<const F*>(fn);
    if constexpr (std::is_invocable_v<const F&, std::size_t, std::size_t>) {
      f(shard, i);
    } else {
      f(i);
    }
  }

  void run(std::size_t begin, std::size_t end, Body body, const void* fn);
  void worker_loop(std::size_t shard);

  std::vector<std::thread> workers_;
  // Fork/join state. A call publishes its Job, sets the seat bits of
  // workers 1..helpers and bumps generation_; workers spin briefly on
  // generation_, then park on park_cv_. Worker w takes seat bit w before it
  // touches the Job, and the caller clears the seats nobody took once it
  // has drained the range itself. generation_ has a cache line of its own:
  // idle workers spin reading it, and the writes to the fields below would
  // otherwise take the line from every spinner (an empty 3-way call cost
  // about 1.3 µs with them sharing a line, 0.7 µs apart).
  alignas(64) std::atomic<std::uint64_t> generation_{0};
  alignas(64) std::atomic<bool> busy_{false};
  std::atomic<std::uint64_t> seats_{0};
  std::atomic<std::size_t> finished_{0};
  std::atomic<bool> stop_{false};
  Job* job_ = nullptr;
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  std::atomic<std::size_t> parked_{0};
};

// Total kernel threads for an OMP_NUM_THREADS value: a positive integer, or
// hardware concurrency (at least 1) when the value is null, empty or invalid.
std::size_t kernel_thread_count(const char* value);

// The process-wide pool the kernels fan their rows out on:
// kernel_thread_count(getenv("OMP_NUM_THREADS")) threads in total, the
// caller plus that many minus one workers, started on first use.
ThreadPool& kernel_pool();

}  // namespace orinsim
