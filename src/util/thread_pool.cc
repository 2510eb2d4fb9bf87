#include "util/thread_pool.hh"

namespace ghrp::util
{

namespace
{

/** Set while a thread is executing a worker loop of some pool, so
 *  submit() from inside a job lands on the submitting worker's own
 *  queue (LIFO: child jobs run before further stolen work, which keeps
 *  the number of in-flight parent jobs — and their memory — bounded). */
thread_local ThreadPool *tl_pool = nullptr;
thread_local unsigned tl_worker = 0;

} // anonymous namespace

unsigned
ThreadPool::hardwareJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

ThreadPool::ThreadPool(unsigned num_threads)
{
    const unsigned n = num_threads ? num_threads : hardwareJobs();
    workers.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers.push_back(std::make_unique<Worker>());
    threads.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        threads.emplace_back(
            [this, i](std::stop_token stop) { workerLoop(stop, i); });
}

ThreadPool::~ThreadPool()
{
    for (std::jthread &t : threads)
        t.request_stop();
    idleCv.notify_all();
    // ~jthread joins each worker; workers drain remaining queued jobs
    // before exiting so pending futures do not break their promises.
}

void
ThreadPool::enqueue(std::function<void()> job)
{
    Worker *target;
    if (tl_pool == this) {
        target = workers[tl_worker].get();
    } else {
        const std::size_t slot =
            submitCursor.fetch_add(1, std::memory_order_relaxed);
        target = workers[slot % workers.size()].get();
    }
    {
        std::lock_guard<std::mutex> lock(target->mutex);
        target->jobs.push_back(std::move(job));
    }
    queued.fetch_add(1, std::memory_order_release);
    idleCv.notify_one();
}

bool
ThreadPool::tryPopOwn(unsigned index, Job &job)
{
    Worker &w = *workers[index];
    std::lock_guard<std::mutex> lock(w.mutex);
    if (w.jobs.empty())
        return false;
    job = std::move(w.jobs.back());
    w.jobs.pop_back();
    return true;
}

bool
ThreadPool::trySteal(unsigned thief, Job &job)
{
    const unsigned n = static_cast<unsigned>(workers.size());
    for (unsigned k = 1; k < n; ++k) {
        Worker &victim = *workers[(thief + k) % n];
        std::lock_guard<std::mutex> lock(victim.mutex);
        if (victim.jobs.empty())
            continue;
        job = std::move(victim.jobs.front());
        victim.jobs.pop_front();
        return true;
    }
    return false;
}

void
ThreadPool::workerLoop(std::stop_token stop, unsigned index)
{
    tl_pool = this;
    tl_worker = index;
    Job job;
    for (;;) {
        if (tryPopOwn(index, job) || trySteal(index, job)) {
            queued.fetch_sub(1, std::memory_order_relaxed);
            job();
            job = nullptr;  // release captures before waiting
            continue;
        }
        std::unique_lock<std::mutex> lock(idleMutex);
        const bool work = idleCv.wait(lock, stop, [this] {
            return queued.load(std::memory_order_acquire) > 0;
        });
        if (!work)  // stop requested and nothing queued
            break;
    }
    tl_pool = nullptr;
}

} // namespace ghrp::util
