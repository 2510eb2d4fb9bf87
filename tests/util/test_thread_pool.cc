/** @file Unit tests for util::ThreadPool: start order and futures. */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.hh"

namespace
{

using namespace ghrp;

/**
 * Jobs that record their start and then block until the test releases
 * them, so the test controls how many workers are free at each step.
 */
class GatedJobs
{
  public:
    explicit GatedJobs(std::size_t n) : released(n, false) {}

    /** The body of job @p id. */
    void
    run(std::size_t id)
    {
        std::unique_lock<std::mutex> lock(mutex);
        started.push_back(id);
        cv.notify_all();
        cv.wait(lock, [&] { return released[id]; });
    }

    void
    release(std::size_t id)
    {
        std::lock_guard<std::mutex> lock(mutex);
        released[id] = true;
        cv.notify_all();
    }

    void
    releaseAll()
    {
        std::lock_guard<std::mutex> lock(mutex);
        std::fill(released.begin(), released.end(), true);
        cv.notify_all();
    }

    /** Wait until @p n jobs have started; the ids started so far. */
    std::vector<std::size_t>
    awaitStarted(std::size_t n)
    {
        std::unique_lock<std::mutex> lock(mutex);
        const bool ok = cv.wait_for(lock, std::chrono::seconds(30),
                                    [&] { return started.size() >= n; });
        EXPECT_TRUE(ok) << "only " << started.size() << " of " << n
                        << " jobs started";
        return started;
    }

  private:
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<std::size_t> started;
    std::vector<bool> released;
};

class PoolWorkers : public ::testing::TestWithParam<unsigned>
{
};

// runParallel submits its longest traces first and relies on the pool
// to start them first: with w workers busy, each freed worker must take
// the oldest queued job, so the started jobs are always a prefix of the
// submission order.
TEST_P(PoolWorkers, SubmissionOrderIsStartOrder)
{
    const unsigned workers = GetParam();
    constexpr std::size_t kJobs = 12;
    GatedJobs gate(kJobs);
    std::vector<std::future<void>> futures;
    {
        util::ThreadPool pool(workers);
        // Destroyed before the pool: a failed assertion must not leave
        // the pool joining blocked jobs.
        struct ReleaseAll
        {
            GatedJobs &gate;
            ~ReleaseAll() { gate.releaseAll(); }
        } unblock{gate};
        ASSERT_EQ(pool.size(), workers);
        for (std::size_t i = 0; i < kJobs; ++i)
            futures.push_back(pool.submit([&gate, i] { gate.run(i); }));

        for (std::size_t done = 0; done <= kJobs; ++done) {
            const std::size_t expect = std::min(done + workers, kJobs);
            std::vector<std::size_t> started = gate.awaitStarted(expect);
            ASSERT_EQ(started.size(), expect);
            // The first `workers` jobs start concurrently, in any order;
            // after that one worker frees up at a time.
            std::sort(started.begin(),
                      started.begin() + std::min<std::size_t>(workers,
                                                              expect));
            for (std::size_t k = 0; k < expect; ++k)
                ASSERT_EQ(started[k], k) << "start " << k;
            if (done < kJobs)
                gate.release(done);
        }
    }
    for (std::future<void> &f : futures)
        EXPECT_NO_THROW(f.get());
}

INSTANTIATE_TEST_SUITE_P(ThreadPool, PoolWorkers, ::testing::Values(1u, 4u));

TEST(ThreadPool, FutureCarriesResultAndException)
{
    util::ThreadPool pool(2);
    std::future<int> value = pool.submit([] { return 42; });
    std::future<int> error =
        pool.submit([]() -> int { throw std::runtime_error("boom"); });
    EXPECT_EQ(value.get(), 42);
    EXPECT_THROW(error.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorRunsEveryQueuedJob)
{
    std::mutex mutex;
    std::vector<int> ran;
    std::vector<std::future<void>> futures;
    {
        util::ThreadPool pool(1);
        for (int i = 0; i < 50; ++i)
            futures.push_back(pool.submit([&, i] {
                std::lock_guard<std::mutex> lock(mutex);
                ran.push_back(i);
            }));
    }
    ASSERT_EQ(ran.size(), 50u);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(ran[i], i);
    for (std::future<void> &f : futures)
        EXPECT_NO_THROW(f.get());
}

} // namespace
