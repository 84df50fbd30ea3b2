#include "core/thread_pool.h"

#include <bit>
#include <chrono>
#include <cstdlib>
#include <exception>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace orinsim {

namespace {

// How long an idle worker spins before it parks. It covers the gaps between
// the parallel regions of one forward step (tens of microseconds), so a step
// pays one wake-up at most; a process idle for longer burns no cores.
constexpr auto kSpinFor = std::chrono::microseconds(100);

thread_local bool t_in_shard = false;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#endif
}

}  // namespace

struct ThreadPool::Job {
  Body body;
  const void* fn;
  std::size_t begin;
  std::size_t end;
  // An affinity call: bit k of claimed is set once index begin + k is
  // taken. Otherwise next hands the indices out in order.
  bool affinity;
  std::atomic<std::uint64_t> claimed{0};
  std::atomic<std::size_t> next;
  std::atomic<bool> failed{false};
  std::exception_ptr error{};

  void call(std::size_t shard, std::size_t i) {
    try {
      body(fn, shard, i);
    } catch (...) {
      if (!failed.exchange(true)) error = std::current_exception();
    }
  }

  // Runs indices until none is left unclaimed: in an affinity call the
  // shard's own index first, then the others in order; otherwise whatever
  // the shared counter hands out. Runs with the in-shard flag set, so
  // parallel_for calls made by the body run inline.
  void run_shard(std::size_t shard) {
    const bool outer = t_in_shard;
    t_in_shard = true;
    if (affinity) {
      const std::size_t count = end - begin;
      auto claim = [&](std::size_t k) {
        const std::uint64_t bit = std::uint64_t{1} << k;
        if ((claimed.load(std::memory_order_relaxed) & bit) == 0 &&
            (claimed.fetch_or(bit, std::memory_order_relaxed) & bit) == 0) {
          call(shard, begin + k);
        }
      };
      if (shard < count) claim(shard);
      for (std::size_t k = 0; k < count; ++k) claim(k);
    } else {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= end) break;
        call(shard, i);
      }
    }
    t_in_shard = outer;
  }
};

bool ThreadPool::in_shard() noexcept { return t_in_shard; }

ThreadPool::ThreadPool(std::size_t threads) {
  threads = std::min(threads, kMaxWorkers);
  workers_.reserve(threads);
  for (std::size_t w = 1; w <= threads; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true);
  generation_.fetch_add(1);
  {
    std::lock_guard<std::mutex> lock(park_mutex_);
    park_cv_.notify_all();
  }
  for (auto& w : workers_) w.join();
}

void ThreadPool::run(std::size_t begin, std::size_t end, Body body, const void* fn) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  Job job{body, fn, begin, end, count <= shard_count(), 0, begin};
  const std::size_t helpers = std::min(workers_.size(), count - 1);
  if (helpers == 0 || t_in_shard || busy_.exchange(true, std::memory_order_acquire)) {
    job.run_shard(0);
  } else {
    job_ = &job;
    finished_.store(0, std::memory_order_relaxed);
    seats_.store(((std::uint64_t{1} << helpers) - 1) << 1, std::memory_order_release);
    // Pairs with the parked_ increment in worker_loop: either a parking
    // worker sees the new generation or this sees it parking.
    generation_.fetch_add(1);
    if (parked_.load() > 0) {
      std::lock_guard<std::mutex> lock(park_mutex_);
      park_cv_.notify_all();
    }
    job.run_shard(0);
    // Close the seats nobody took; wait only for the helpers that joined.
    const std::size_t joined =
        helpers - static_cast<std::size_t>(
                      std::popcount(seats_.exchange(0, std::memory_order_acq_rel)));
    for (unsigned spins = 0; finished_.load(std::memory_order_acquire) != joined; ++spins) {
      if (spins < 4096) {
        cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
    busy_.store(false, std::memory_order_release);
  }
  if (job.error) std::rethrow_exception(job.error);
}

void ThreadPool::worker_loop(std::size_t shard) {
  // The generation at construction: a worker that starts late still sees
  // every bump made since, the destructor's included.
  std::uint64_t seen = 0;
  for (;;) {
    const auto deadline = std::chrono::steady_clock::now() + kSpinFor;
    std::uint64_t gen = generation_.load(std::memory_order_acquire);
    for (unsigned spins = 1; gen == seen; ++spins) {
      if (spins % 64 != 0 || std::chrono::steady_clock::now() < deadline) {
        cpu_relax();
      } else {
        std::unique_lock<std::mutex> lock(park_mutex_);
        parked_.fetch_add(1);
        park_cv_.wait(lock, [&] { return generation_.load() != seen; });
        parked_.fetch_sub(1);
      }
      gen = generation_.load(std::memory_order_acquire);
    }
    seen = gen;
    if (stop_.load(std::memory_order_acquire)) return;
    // A call wants this worker only if it set its seat bit. Taking the seat
    // orders this read of job_ after the caller's store of it.
    const std::uint64_t seat = std::uint64_t{1} << shard;
    if ((seats_.fetch_and(~seat, std::memory_order_acq_rel) & seat) == 0) continue;
    job_->run_shard(shard);
    finished_.fetch_add(1, std::memory_order_release);
  }
}

std::size_t kernel_thread_count(const char* value) {
  if (value != nullptr && *value != '\0') {
    char* tail = nullptr;
    const long n = std::strtol(value, &tail, 10);
    if (*tail == '\0' && n > 0) return static_cast<std::size_t>(n);
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool& kernel_pool() {
  static ThreadPool pool(kernel_thread_count(std::getenv("OMP_NUM_THREADS")) - 1);
  return pool;
}

}  // namespace orinsim
