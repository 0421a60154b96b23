#include "threadpool/thread_pool.hpp"

#include "alpaka/core/fault.hpp"
#include "alpaka/core/trace.hpp"

#include <algorithm>
#include <cstdio>

namespace threadpool
{
    namespace
    {
        thread_local std::size_t t_workerIndex = ThreadPool::npos;
        //! True while the calling thread participates in a parallelFor
        //! (worker or helping submitter) — guards against re-entrancy.
        thread_local bool t_insideLoop = false;
        //! Slot this thread last published into — the affinity hint. Each
        //! StreamCpuAsync submits from its dedicated queue worker, so
        //! per-thread affinity is per-stream affinity: a stream that keeps
        //! submitting re-acquires "its" slot with one try-lock and skips
        //! the ticket fetch_add + scan entirely, and its jobs stay on the
        //! slot its preferred workers (scanOffset) already watch.
        thread_local std::size_t t_lastSlot = ThreadPool::npos;

        struct LoopScope
        {
            LoopScope()
            {
                t_insideLoop = true;
            }
            ~LoopScope()
            {
                t_insideLoop = false;
            }
        };
    } // namespace

    ThreadPool::ThreadPool(std::size_t workers)
    {
        auto count = workers;
        if(count == 0)
        {
            count = std::thread::hardware_concurrency();
            if(count == 0)
                count = 1;
        }
        spinBudget_ = detail::machineSpinBudget();
        workers_.reserve(count);
        for(std::size_t w = 0; w < count; ++w)
            workers_.emplace_back([this, w] { workerLoop(w); });
    }

    ThreadPool::~ThreadPool()
    {
        shutdown_.store(true, std::memory_order_seq_cst);
        publishWord_.publish();
    }

    auto ThreadPool::currentWorkerIndex() noexcept -> std::size_t
    {
        return t_workerIndex;
    }

    auto ThreadPool::lastSlotHint() noexcept -> std::size_t
    {
        return t_lastSlot;
    }

    auto ThreadPool::global() -> ThreadPool&
    {
        static ThreadPool pool;
        return pool;
    }

    auto ThreadPool::acquireSlot(std::unique_lock<std::mutex>& lock) -> std::size_t
    {
        // Affinity hint first: the slot this thread published into last
        // time. One uncontended try-lock instead of ticket fetch_add +
        // scan; under many streams each stream sticks to "its" slot and
        // the submitters stop migrating over the ring.
        if(t_lastSlot != npos)
        {
            std::unique_lock<std::mutex> tryLock(slots_[t_lastSlot].submitMutex, std::try_to_lock);
            if(tryLock.owns_lock())
            {
                lock = std::move(tryLock);
                return t_lastSlot;
            }
        }
        // Try-lock scan starting at a round-robin ticket, so up to
        // slotCount concurrent submitters land on distinct slots without
        // blocking; only submitter number slotCount+1 queues behind one of
        // them (on its ticket slot, keeping the fallback fair).
        auto const start = submitCursor_.fetch_add(1, std::memory_order_relaxed);
        for(std::size_t i = 0; i < slotCount; ++i)
        {
            auto const index = (start + i) % slotCount;
            std::unique_lock<std::mutex> tryLock(slots_[index].submitMutex, std::try_to_lock);
            if(tryLock.owns_lock())
            {
                t_lastSlot = index;
                lock = std::move(tryLock);
                return index;
            }
        }
        auto const index = start % slotCount;
        lock = std::unique_lock<std::mutex>(slots_[index].submitMutex);
        t_lastSlot = index;
        return index;
    }

    void ThreadPool::runJob(std::size_t count, std::size_t grain, void const* ctx, ChunkFn run)
    {
        if(t_workerIndex != npos || t_insideLoop)
            throw UsageError("threadpool::ThreadPool::parallelFor: re-entrant call");
        LoopScope const scope;

        std::unique_lock<std::mutex> slotLock;
        auto& slot = slots_[acquireSlot(slotLock)];
        // Invariant under the slot mutex: the slot's generation is even
        // (closed) and no worker is registered on it — the previous holder
        // closed it and drained its active count before unlocking.
        // Publication therefore races with nobody: workers refuse to join
        // even generations, and a late worker that saw the previous odd
        // generation re-validates after registering and backs out (see
        // workerLoop).
        slot.ctx = ctx;
        slot.run = run;
        slot.count = count;
        slot.grain = grain;
        slot.remaining.store(count, std::memory_order_relaxed);
        slot.next.store(0, std::memory_order_relaxed);
        // Open the slot (even -> odd), then advertise the publish on the
        // global park word — the shared notify-eliding protocol
        // (detail::PublishWord).
        slot.generation.fetch_add(1, std::memory_order_seq_cst);
        publishWord_.publish();
        jobs_.fetch_add(1, std::memory_order_relaxed);
        ALPAKA_TRACE_INSTANT("threadpool.publish", count);

        // The submitting thread helps: on a single-core machine the pool
        // worker and the submitter share the CPU anyway, and helping keeps
        // the latency of tiny loops low. It also bounds every job's
        // completion independently of the workers — a job never waits on
        // chunks of another submitter's job.
        drainSlot(slot);
        detail::awaitZero(slot.remaining, spinBudget_);
        // Close the slot (odd -> even), then wait until every registered
        // worker left the claim loop. A worker that validated against the
        // odd generation is visible in active by the time the close bump
        // lands (seq_cst Dekker pair on active/generation), so after this
        // wait the slot is quiescent and may be republished by the next
        // holder of the slot mutex.
        slot.generation.fetch_add(1, std::memory_order_seq_cst);
        detail::awaitZero(slot.active, spinBudget_);

        slot.errors.rethrowIfSetAndClear();
    }

    void ThreadPool::drainSlot(JobSlot& slot)
    {
        // Fault site (delay rules): stalls a participant — pool worker or
        // helping submitter — after it registered on the slot but before it
        // claims chunks, the window the quiescence protocol must survive.
        ALPAKA_FAULT_POINT("threadpool.worker_stall");
        auto const count = slot.count;
        auto const grain = slot.grain;
        // Completed indices are subtracted from remaining once per
        // participant, not per chunk — the waiter only cares about zero,
        // and batching keeps the claim loop to one atomic per chunk.
        std::size_t done = 0;
        for(;;)
        {
            auto const begin = slot.next.fetch_add(grain, std::memory_order_relaxed);
            if(begin >= count)
                break;
            auto const end = std::min(begin + grain, count);
            slot.run(slot.ctx, begin, end, slot.errors);
            done += end - begin;
        }
        if(done != 0 && slot.remaining.fetch_sub(done, std::memory_order_acq_rel) == done)
            slot.remaining.notify_all();
    }

    void ThreadPool::workerLoop(std::size_t workerIndex)
    {
        t_workerIndex = workerIndex;
#if defined(ALPAKA_REPRO_TRACE)
        char traceName[32];
        std::snprintf(traceName, sizeof(traceName), "pool.worker.%zu", workerIndex);
        ALPAKA_TRACE_THREAD_NAME(traceName);
#endif
        // Last drained generation per slot: a worker re-joins a slot only
        // for a generation it has not drained yet (re-joining a drained one
        // would merely burn a fetch_add, but the scan must make progress).
        std::array<std::uint64_t, slotCount> seen{};
        // Distinct scan origins spread the workers over the open slots, so
        // concurrent jobs get disjoint helpers first and stealing overlap
        // only once a worker's preferred slots drained.
        auto const scanOffset = workerIndex % slotCount;
        int spins = spinBudget_;
        for(;;)
        {
            // Fast-path exit check; acquire is enough here (litmus sweep,
            // DESIGN.md §8): this load is advisory — the check that
            // guarantees no worker parks past a published shutdown is the
            // post-snapshot one right before park() below.
            if(shutdown_.load(std::memory_order_acquire))
                return;
            auto const seq = publishWord_.snapshot();
            // Scan for an open generation not yet drained: the worker's own
            // current job first (scanOffset sticks until its slot closes),
            // then any other submitter's open slot — the steal path.
            bool drained = false;
            for(std::size_t i = 0; i < slotCount; ++i)
            {
                auto& slot = slots_[(scanOffset + i) % slotCount];
                auto const gen = slot.generation.load(std::memory_order_seq_cst);
                if(!detail::isOpen(gen) || gen == seen[(scanOffset + i) % slotCount])
                    continue;
                // Register, then re-validate: claims may only happen while
                // the observed generation is still current. If the job
                // closed in between, back out — the transient active blip
                // merely delays the submitter's quiescence wait.
                slot.active.fetch_add(1, std::memory_order_seq_cst);
                if(slot.generation.load(std::memory_order_seq_cst) == gen)
                {
                    seen[(scanOffset + i) % slotCount] = gen;
                    // i > 0 means the worker moved past its preferred
                    // slot to drain another submitter's job — the steal
                    // path (counters(), DESIGN.md §10.4).
                    if(i != 0)
                        steals_.fetch_add(1, std::memory_order_relaxed);
                    drainSlot(slot);
                    drained = true;
                }
                if(slot.active.fetch_sub(1, std::memory_order_acq_rel) == 1)
                    slot.active.notify_all();
                if(drained)
                    break;
            }
            if(drained)
            {
                spins = spinBudget_;
                continue;
            }
            // Nothing claimable anywhere: spin, then park on the publish
            // word. A publish between the snapshot above and the wait entry
            // is caught by the futex value check inside park().
            if(spins-- > 0)
            {
                detail::cpuRelax();
                continue;
            }
            // Shutdown re-check AFTER the snapshot, immediately before
            // parking (litmus: threadpool/*_park_publish — the forbidden
            // state is "parked past a published shutdown"). The top-of-
            // loop check alone is refutable: the destructor's store+bump
            // can land between it and the snapshot, leaving seq already
            // bumped — the worker would park on the post-shutdown value
            // with no notify ever coming. Reading the bumped seq
            // synchronizes with the destructor's publish() (seq_cst
            // RMW), so this load is guaranteed to see the store and exit;
            // a pre-bump seq instead makes park()'s CAS, its futex value
            // check or the notify catch the wake.
            if(shutdown_.load(std::memory_order_acquire))
                return;
            // Fault site (delay rules): widens the snapshot→park window; a
            // publish landing inside the delay must still be caught by the
            // futex value check in park(), never slept through.
            ALPAKA_FAULT_POINT("threadpool.park_delay");
            // Counted, not traced: parks fire at stall-workload frequency,
            // and a per-park trace event measurably taxed stall-bound
            // scenarios (~25% on alloc_churn's 1-core run). The counter
            // carries the idle signal; timelines get it from the gaps
            // between serve/graph spans.
            parks_.fetch_add(1, std::memory_order_relaxed);
            publishWord_.park(seq);
            spins = spinBudget_;
        }
    }
} // namespace threadpool
