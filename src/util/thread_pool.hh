/**
 * @file
 * Fixed-size work-stealing thread pool used to parallelise suite
 * sweeps: every (trace, policy) simulation leg is an independent job.
 *
 * Design:
 *  - one std::jthread per worker, stopped cooperatively via
 *    std::stop_token when the pool is destroyed;
 *  - one double-ended queue per worker: the owning worker pushes and
 *    pops at the back (LIFO, keeps the working set hot and bounds
 *    memory when jobs spawn jobs), thieves steal from the front (FIFO,
 *    oldest work first);
 *  - submissions from non-worker threads are distributed round-robin
 *    across the worker queues; submissions from inside a worker go to
 *    that worker's own queue;
 *  - submit() returns a std::future; an exception thrown by the job is
 *    captured and rethrown from future::get() in the caller.
 *
 * The queues are mutex-protected rather than lock-free: jobs here are
 * whole trace simulations (milliseconds to seconds), so queue overhead
 * is noise and the simple implementation is easy to reason about under
 * ThreadSanitizer.
 */

#ifndef GHRP_UTIL_THREAD_POOL_HH
#define GHRP_UTIL_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ghrp::util
{

class ThreadPool
{
  public:
    /**
     * @param num_threads worker count; 0 means hardwareJobs().
     */
    explicit ThreadPool(unsigned num_threads = 0);

    /** Stops the workers after the queues drain of started work. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    unsigned size() const { return static_cast<unsigned>(workers.size()); }

    /**
     * Schedule @p fn to run on a worker. The returned future yields
     * fn's result; if fn throws, future::get() rethrows the exception
     * in the waiting thread.
     */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        // std::function requires copyable callables, so the move-only
        // packaged_task rides in a shared_ptr.
        auto task =
            std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
        std::future<R> future = task->get_future();
        enqueue([task]() { (*task)(); });
        return future;
    }

    /** std::thread::hardware_concurrency(), clamped to at least 1. */
    static unsigned hardwareJobs();

  private:
    using Job = std::function<void()>;

    struct Worker
    {
        std::mutex mutex;
        std::deque<Job> jobs;
    };

    void enqueue(Job job);
    void workerLoop(std::stop_token stop, unsigned index);
    bool tryPopOwn(unsigned index, Job &job);
    bool trySteal(unsigned thief, Job &job);

    std::vector<std::unique_ptr<Worker>> workers;
    std::atomic<std::size_t> queued{0};   ///< jobs enqueued, not yet popped
    std::atomic<std::size_t> submitCursor{0};
    std::mutex idleMutex;
    std::condition_variable_any idleCv;
    std::vector<std::jthread> threads;  ///< last member: joins first
};

} // namespace ghrp::util

#endif // GHRP_UTIL_THREAD_POOL_HH
