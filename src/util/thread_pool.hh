/**
 * @file
 * Fixed-size thread pool used to parallelise suite sweeps: every
 * (trace, policy) simulation leg is an independent job.
 *
 * Design:
 *  - one std::jthread per worker, stopped cooperatively via
 *    std::stop_token when the pool is destroyed;
 *  - one FIFO queue that every worker pops, so jobs start in
 *    submission order (a caller that submits its longest jobs first
 *    gets them started first);
 *  - submit() returns a std::future; an exception thrown by the job is
 *    captured and rethrown from future::get() in the caller.
 *
 * The queue is mutex-protected rather than lock-free: jobs here are
 * whole trace simulations (milliseconds to seconds), so queue overhead
 * is noise and the simple implementation is easy to reason about under
 * ThreadSanitizer. A job must not wait on a job it submits: with every
 * worker so waiting, nothing would run the children.
 */

#ifndef GHRP_UTIL_THREAD_POOL_HH
#define GHRP_UTIL_THREAD_POOL_HH

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

    /** Stops the workers once the queue has drained. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    unsigned size() const { return static_cast<unsigned>(threads.size()); }

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

    void enqueue(Job job);
    void workerLoop(std::stop_token stop);

    std::mutex mutex;
    std::condition_variable_any cv;
    std::deque<Job> jobs;               ///< queued, in submission order
    std::vector<std::jthread> threads;  ///< last member: joins first
};

} // namespace ghrp::util

#endif // GHRP_UTIL_THREAD_POOL_HH
