#include "exec/parallel.hh"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "obs/progress.hh"
#include "obs/trace.hh"

namespace rmp::exec
{

namespace
{

unsigned
hardwareThreads()
{
    static const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    return hw;
}

/**
 * One parallelFor call's shared state. Pool threads hold it by
 * shared_ptr: a helper task dequeued after the call returned finds no
 * index left and touches only this, never fn or the caller's frame.
 */
struct Call
{
    const size_t n;
    /** Valid while an index is unfinished: the caller waits for all. */
    const std::function<void(size_t)> &fn;
    obs::ProgressSink *const sink;
    std::atomic<size_t> next{0};

    std::mutex mu;
    std::condition_variable cv;
    size_t finished = 0;      ///< indices run; guarded by mu
    std::exception_ptr error; ///< first exception thrown; guarded by mu

    /** Claim and run indices until none is left; returns how many ran. */
    size_t
    runIndices()
    {
        std::optional<obs::ScopedProgressSink> scoped;
        size_t ran = 0;
        for (size_t i = next++; i < n; i = next++) {
            if (!scoped)
                scoped.emplace(sink);
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mu);
                if (!error)
                    error = std::current_exception();
            }
            ran++;
        }
        return ran;
    }
};

/** The worker threads; see parallel.hh for their life cycle. */
class Pool
{
  public:
    static Pool &
    global()
    {
        // Immortal, like the trace state: a thread may still be in a
        // fan-out while static destructors run.
        static Pool *p = new Pool;
        return *p;
    }

    /** Queue @p helpers tasks for @p c (at most one per pool thread),
     *  starting the threads on the first fan-out. */
    void
    submit(const std::shared_ptr<Call> &c, size_t helpers)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (forking_)
                return; // the caller runs every index itself
            if (threads_.empty())
                for (unsigned i = 0; i + 1 < hardwareThreads(); i++)
                    threads_.emplace_back([this] { loop(); });
            helpers = std::min(helpers, threads_.size());
            for (size_t k = 0; k < helpers; k++)
                tasks_.push_back(c);
        }
        cv_.notify_all();
    }

  private:
    Pool() { pthread_atfork(prepareFork, afterFork, afterFork); }

    void
    loop()
    {
        for (;;) {
            std::shared_ptr<Call> c;
            {
                std::unique_lock<std::mutex> lock(mu_);
                cv_.wait(lock, [this] { return forking_ || !tasks_.empty(); });
                if (forking_)
                    return;
                c = std::move(tasks_.front());
                tasks_.pop_front();
            }
            if (size_t ran = c->runIndices()) {
                std::lock_guard<std::mutex> lock(c->mu);
                c->finished += ran;
                if (c->finished == c->n)
                    c->cv.notify_all();
            }
        }
    }

    /**
     * Before fork(): join every pool thread (after the task it is
     * running), drop the queued tasks and hold the queue's lock across
     * the fork. Both sides resume with no pool thread and a free lock
     * and restart the threads on their next fan-out, so a child never
     * waits on a parent's thread or runs a task of a call it cannot
     * finish, and may start threads under TSan, which kills a child
     * that starts one after a multithreaded fork.
     */
    static void
    prepareFork()
    {
        Pool &p = global();
        std::vector<std::thread> ts;
        {
            std::lock_guard<std::mutex> lock(p.mu_);
            p.forking_ = true;
            ts.swap(p.threads_);
        }
        p.cv_.notify_all();
        for (std::thread &t : ts)
            t.join();
        p.mu_.lock();
        p.tasks_.clear();
        p.forking_ = false;
    }

    static void afterFork() { global().mu_.unlock(); }

    std::mutex mu_;
    std::condition_variable cv_;
    /** Helper tasks, one entry per thread a call may borrow. */
    std::deque<std::shared_ptr<Call>> tasks_;
    /** Set while a fork joins the threads. */
    bool forking_ = false;
    std::vector<std::thread> threads_;
};

} // anonymous namespace

unsigned
fanOutWidth(unsigned width)
{
    return width ? std::min(width, hardwareThreads()) : hardwareThreads();
}

void
parallelFor(size_t n, unsigned width, const std::function<void(size_t)> &fn)
{
    obs::Span span("parallel-for", "exec");
    span.arg("n", n);
    const size_t threads = std::min<size_t>(fanOutWidth(width), n);
    if (threads <= 1) {
        for (size_t i = 0; i < n; i++)
            fn(i);
        return;
    }
    auto call = std::make_shared<Call>(n, fn, obs::threadProgressSink());
    Pool::global().submit(call, threads - 1);
    size_t ran = call->runIndices();
    std::unique_lock<std::mutex> lock(call->mu);
    call->finished += ran;
    call->cv.wait(lock, [&] { return call->finished == n; });
    if (call->error)
        std::rethrow_exception(call->error);
}

} // namespace rmp::exec
