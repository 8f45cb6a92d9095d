/**
 * @file
 * Process-global admission control for parallel work.
 *
 * One EnginePool sizes itself for a machine; N concurrent pools — the
 * multi-worker daemon runs one per (DUV, config) key — would
 * oversubscribe it N-fold. The AdmissionGate is a weighted semaphore
 * over a fixed core budget: before a pool dispatches a parallelFor
 * batch (simulation) to its workers it acquires a weight equal to the
 * parallelism it is about to use, blocking while the budget is
 * exhausted. Admission is pure scheduling — it decides *when* a batch's
 * workers run, never what they compute, and cover queries never pass
 * through it — so verdicts and renders stay byte-identical at any
 * capacity.
 *
 * Weights are clamped to the capacity (a single pool wider than the
 * whole budget admits alone rather than deadlocking) and to >= 1.
 */

#ifndef EXEC_ADMISSION_HH
#define EXEC_ADMISSION_HH

#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace rmp::exec
{

class AdmissionGate
{
  public:
    /** @p capacity 0 = std::thread::hardware_concurrency(). */
    explicit AdmissionGate(unsigned capacity = 0);

    AdmissionGate(const AdmissionGate &) = delete;
    AdmissionGate &operator=(const AdmissionGate &) = delete;

    /**
     * Block until @p weight slots (clamped to [1, capacity]) are free,
     * then take them. Returns the weight actually granted — pass it
     * back to release() verbatim.
     */
    unsigned acquire(unsigned weight);

    /** Return @p granted slots taken by a matching acquire(). */
    void release(unsigned granted);

    /** Resize the budget (takes effect as holders release). */
    void setCapacity(unsigned capacity);

    unsigned capacity() const;

    struct Stats
    {
        uint64_t acquisitions = 0;
        uint64_t waitNs = 0; ///< total time spent blocked in acquire()
        unsigned inflight = 0;
        unsigned capacity = 0;
    };
    Stats stats() const;

    /** The process-wide gate every EnginePool admits through. */
    static AdmissionGate &global();

  private:
    mutable std::mutex mu_;
    std::condition_variable cv_;
    unsigned capacity_;
    unsigned inUse_ = 0;
    uint64_t acquisitions_ = 0;
    uint64_t waitNs_ = 0;
};

/** RAII acquire/release of the global gate. */
class AdmissionTicket
{
  public:
    explicit AdmissionTicket(unsigned weight)
        : granted_(AdmissionGate::global().acquire(weight))
    {
    }
    ~AdmissionTicket() { AdmissionGate::global().release(granted_); }
    AdmissionTicket(const AdmissionTicket &) = delete;
    AdmissionTicket &operator=(const AdmissionTicket &) = delete;

    unsigned granted() const { return granted_; }

  private:
    unsigned granted_;
};

} // namespace rmp::exec

#endif // EXEC_ADMISSION_HH
