#include "util/thread_pool.hh"

namespace ghrp::util
{

unsigned
ThreadPool::hardwareJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

ThreadPool::ThreadPool(unsigned num_threads)
{
    const unsigned n = num_threads ? num_threads : hardwareJobs();
    threads.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        threads.emplace_back(
            [this](std::stop_token stop) { workerLoop(stop); });
}

ThreadPool::~ThreadPool()
{
    for (std::jthread &t : threads)
        t.request_stop();
    cv.notify_all();
    // ~jthread joins each worker; workers drain remaining queued jobs
    // before exiting so pending futures do not break their promises.
}

void
ThreadPool::enqueue(Job job)
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        jobs.push_back(std::move(job));
    }
    cv.notify_one();
}

void
ThreadPool::workerLoop(std::stop_token stop)
{
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(mutex);
            // Returns false only when stop is requested and nothing is
            // queued.
            if (!cv.wait(lock, stop, [this] { return !jobs.empty(); }))
                return;
            job = std::move(jobs.front());
            jobs.pop_front();
        }
        job();
    }
}

} // namespace ghrp::util
