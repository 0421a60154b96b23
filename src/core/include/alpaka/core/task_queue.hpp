/// \file Generic in-order asynchronous task queue backing StreamCpuAsync.
///
/// Lock-free MPSC design (DESIGN.md §8.7): producers enqueue through a
/// Vyukov intrusive MPSC list (one exchange on the head plus one release
/// store to link — no mutex, no per-enqueue syscall while the worker is
/// busy), the single worker thread consumes nodes and recycles them
/// through a bounded MPMC ring, so the steady state allocates nothing.
///
/// The delicate part is the shared gpusim::DrainState: fences built by
/// mempool::Pool::freeDeferred poll {drained, seq} without any lock, and
/// a stale drained==true is UNSAFE (a pooled block would be reused while
/// a queued task still writes it — DESIGN.md §5.3). The publication
/// protocol below therefore guarantees that drained==true is never
/// observable by a thread whose enqueue has completed until that task
/// ran:
///
///  * enqueue counts the task in a packed {epoch, pending} state word
///    (seq_cst) BEFORE clearing the drained flag and linking the node;
///  * the worker, after running the last counted task but BEFORE that
///    task stops counting, publishes the drain under a tiny leaf mutex:
///    set publishing, re-read the state word, and store drained=true
///    only if the finished task is still the only one counted (litmus:
///    taskqueue/{x86,arm64}_drain_flag — the seq_cst Dekker pair between
///    the producer's count/flag-check and the worker's publishing-mark/
///    state-re-read). Publishing before the decrement means wait(),
///    which returns once pending reads zero, also sees the drain its
///    last task caused;
///  * a producer that observes publishing or drained (seq_cst, after its
///    count) joins the same leaf mutex and clears the flag — so any
///    optimistically stored true is provably valid at the instant it is
///    stored, not just eventually corrected.
///
/// The leaf mutex is uncontended and touched only on idle<->busy
/// transitions; the task path itself (enqueue, pop, run) is lock-free.
#pragma once

#include "alpaka/core/mpmc_ring.hpp"

#include "gpusim/types.hpp"
#include "threadpool/spin.hpp"

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

namespace alpaka::core
{
    //! Single-worker FIFO executing tasks in enqueue order. Errors are
    //! sticky: after the first failing task subsequent tasks are skipped
    //! (except markers) and the error re-surfaces on wait().
    class TaskQueue
    {
    public:
        TaskQueue()
        {
            head_.store(&stub_, std::memory_order_relaxed);
            tail_ = &stub_;
            worker_ = std::thread([this] { loop(); });
        }

        ~TaskQueue()
        {
            // Drain first: a stream dies only after its work ran.
            awaitDrained();
            stop_.store(true, std::memory_order_release);
            // Wake the parked worker without claiming a task: parkWord_
            // is the worker's private park word, so publishing it perturbs
            // no drain-protocol state.
            parkWord_.publish();
            worker_.join();
            // Free the spine (every closure already ran and was moved
            // out, so nodes hold no resources) and the recycle ring.
            Node* node = tail_;
            while(node != nullptr)
            {
                Node* const next = node->next.load(std::memory_order_relaxed);
                if(node != &stub_)
                    delete node;
                node = next;
            }
            Node* cached = nullptr;
            while(nodeCache_.pop(cached))
                delete cached;
        }

        TaskQueue(TaskQueue const&) = delete;
        auto operator=(TaskQueue const&) -> TaskQueue& = delete;

        //! Enqueues a task. \p always makes it run even on a broken queue
        //! (event markers must complete or waiters would hang).
        void enqueue(std::function<void()> task, bool always = false)
        {
            Node* node = nullptr;
            if(!nodeCache_.pop(node))
                node = new Node;
            node->fn = std::move(task);
            node->always = always;
            node->next.store(nullptr, std::memory_order_relaxed);

            // Count before linking (and before the flag check): from here
            // on, any validated drain publication sees pending > 0 and
            // withholds drained=true until this task ran.
            state_.fetch_add(pendingOne | epochOne, std::memory_order_seq_cst);
            // Dekker with the worker's drain publication (litmus:
            // taskqueue/*_drain_flag): read publishing_ FIRST — a cleared
            // publishing_ means any in-flight publication finished, so
            // the subsequent drained read sees its outcome.
            if(publishing_.load(std::memory_order_seq_cst)
               || drainState_->drained.load(std::memory_order_seq_cst))
            {
                std::scoped_lock lock(drainMutex_);
                drainState_->drained.store(false, std::memory_order_seq_cst);
            }

            // Link (litmus: taskqueue/*_mpsc_link): the release store of
            // prev->next publishes fn/always to the worker's acquire load.
            Node* const prev = head_.exchange(node, std::memory_order_acq_rel);
            prev->next.store(node, std::memory_order_release);

            parkWord_.publish(); // syscall only when the worker may be asleep
        }

        //! Blocks until the queue drained; rethrows the sticky error.
        void wait()
        {
            awaitDrained();
            if(hasError_.load(std::memory_order_acquire))
                std::rethrow_exception(error_);
        }

        [[nodiscard]] auto idle() const -> bool
        {
            return pendingOf(state_.load(std::memory_order_acquire)) == 0;
        }

        [[nodiscard]] auto lastError() const -> std::exception_ptr
        {
            if(!hasError_.load(std::memory_order_acquire))
                return nullptr;
            return error_;
        }

        //! Shared drained-state for non-blocking observers (see
        //! gpusim::DrainState); holding it does not hold the queue.
        [[nodiscard]] auto drainState() const -> std::shared_ptr<gpusim::DrainState const>
        {
            return drainState_;
        }

    private:
        struct Node
        {
            std::function<void()> fn;
            bool always = false;
            std::atomic<Node*> next{nullptr};
        };

        // Packed state word: bits 0..31 = pending task count (enqueued,
        // not yet finished), bits 32..63 = enqueue epoch (total enqueues,
        // modular). One fetch_add bumps both, so "pending == 0" and "no
        // enqueue happened since" are a single atomic snapshot — the
        // drain publication validates against the epoch.
        static constexpr std::uint64_t pendingOne = 1;
        static constexpr std::uint64_t epochOne = std::uint64_t{1} << 32;

        [[nodiscard]] static constexpr auto pendingOf(std::uint64_t state) noexcept -> std::uint32_t
        {
            return static_cast<std::uint32_t>(state & 0xffffffffu);
        }

        [[nodiscard]] static constexpr auto epochOf(std::uint64_t state) noexcept -> std::uint32_t
        {
            return static_cast<std::uint32_t>(state >> 32);
        }

        void awaitDrained() const
        {
            for(;;)
            {
                auto const s = state_.load(std::memory_order_acquire);
                if(pendingOf(s) == 0)
                    return;
                state_.wait(s, std::memory_order_acquire);
            }
        }

        //! Pops one task (Vyukov MPSC: consume the payload of tail->next,
        //! retire the old tail into the node cache). \returns false when
        //! no linked node is available — which the caller disambiguates
        //! via the pending count (mid-link vs genuinely empty).
        [[nodiscard]] auto tryPop(std::function<void()>& fn, bool& always) -> bool
        {
            Node* tail = tail_;
            Node* const next = tail->next.load(std::memory_order_acquire);
            if(next == nullptr)
                return false;
            fn = std::move(next->fn);
            next->fn = nullptr; // moved-from state of std::function is unspecified; pin it
            always = next->always;
            tail_ = next;
            if(tail != &stub_)
            {
                if(!nodeCache_.push(tail))
                    delete tail;
            }
            return true;
        }

        //! Publication of the drained flag (worker only, after the task
        //! that \p observed counts as the sole pending one has finished,
        //! before it stops counting). Under drainMutex_ so a true stored
        //! here is validated against the state word atomically w.r.t.
        //! every producer's clear.
        void publishDrained(std::uint64_t observed)
        {
            std::scoped_lock lock(drainMutex_);
            publishing_.store(true, std::memory_order_seq_cst);
            auto const s = state_.load(std::memory_order_seq_cst);
            if(pendingOf(s) == 1 && epochOf(s) == epochOf(observed))
            {
                // seq before drained: freeDeferred captures seq first, so
                // a drain landing between its two reads is never missed
                // (mempool/pool.cpp).
                drainState_->seq.fetch_add(1, std::memory_order_release);
                drainState_->drained.store(true, std::memory_order_seq_cst);
            }
            publishing_.store(false, std::memory_order_seq_cst);
        }

        void runOne(std::function<void()>& fn, bool always)
        {
            // Sticky error: skip the work. The closure is destroyed by
            // the caller's loop-local fn, outside every queue lock — a
            // closure may own the last reference to a pooled buffer whose
            // release re-enters pool locks (DESIGN.md §5.3).
            auto const skip = hasError_.load(std::memory_order_relaxed) && !always;
            if(fn && !skip)
            {
                try
                {
                    fn();
                }
                catch(...)
                {
                    if(!hasError_.load(std::memory_order_relaxed))
                    {
                        error_ = std::current_exception();
                        hasError_.store(true, std::memory_order_release);
                    }
                }
            }
            fn = nullptr; // destroy the closure BEFORE the task stops counting
            // The last counted task publishes the drain while it still
            // counts, so a wait() woken by the decrement below observes
            // drained=true (unless a later enqueue already cleared it).
            auto const s = state_.load(std::memory_order_seq_cst);
            if(pendingOf(s) == 1)
                publishDrained(s);
            state_.fetch_sub(pendingOne, std::memory_order_seq_cst);
            state_.notify_all(); // wait()-ers park on the state word
        }

        void loop()
        {
            std::function<void()> fn;
            bool always = false;
            for(;;)
            {
                // Park ticket BEFORE the emptiness check: an enqueue
                // publishing parkWord_ after this snapshot makes the park
                // return immediately (no lost wakeup).
                auto const ticket = parkWord_.snapshot();
                if(tryPop(fn, always))
                {
                    runOne(fn, always);
                    continue;
                }
                auto const s = state_.load(std::memory_order_seq_cst);
                if(pendingOf(s) != 0)
                {
                    // Counted but not yet linked: the producer is one
                    // store away — yield it the core instead of parking.
                    std::this_thread::yield();
                    continue;
                }
                if(stop_.load(std::memory_order_acquire))
                    return;
                parkWord_.park(ticket);
            }
        }

        alignas(64) std::atomic<std::uint64_t> state_{0};
        alignas(64) std::atomic<Node*> head_{nullptr}; //!< producers exchange
        threadpool::detail::PublishWord parkWord_; //!< worker park/wake word
        Node* tail_ = nullptr; //!< worker-only
        Node stub_;
        MpmcRing<Node*> nodeCache_{256};

        std::atomic<bool> stop_{false};
        std::atomic<bool> hasError_{false};
        std::exception_ptr error_{}; //!< written once, before hasError_ releases it

        std::mutex drainMutex_; //!< leaf lock of the drained-flag protocol
        std::atomic<bool> publishing_{false};
        std::shared_ptr<gpusim::DrainState> drainState_ = std::make_shared<gpusim::DrainState>();
        std::thread worker_;
    };
} // namespace alpaka::core
