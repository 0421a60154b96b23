/// \file Persistent worker pool substrate.
///
/// The paper names Intel Threading Building Blocks as a planned additional
/// back-end (Sec. 3.1: "will in the future be extended by e.g. Thread
/// Building Blocks"). This substrate provides the ingredient that back-end
/// needs — a persistent task pool with dynamic chunk scheduling — built
/// from scratch, and the AccCpuTaskBlocks accelerator maps the alpaka block
/// level onto it. Compared to AccCpuThreads (which spawns OS threads per
/// kernel launch), the pool amortizes thread creation across launches.
///
/// Scheduling engine (see DESIGN.md, "Zero-overhead launch engine"):
///
///  * Indices are claimed in proportional chunks via a single atomic
///    fetch_add per chunk (grain = max(1, count / (workers * 8))) — no
///    mutex on the claim path.
///  * Jobs are published into a fixed ring of generation-stamped slots:
///    concurrent submitters (the paper's streams model, Sec. 3.4.5, runs
///    independent in-order queues from independent host threads) each
///    acquire their own slot and publish without any shared mutex on the
///    fast path, so K concurrent streams overlap instead of getting 1/K of
///    the pool. Workers key off the slots' generation counters, never off a
///    callable's address, so two back-to-back jobs reusing the same
///    callable cannot be confused (the classic ABA hazard of
///    pointer-compared job slots).
///  * Workers drain the job they discover first, then steal chunks from any
///    other open slot (same atomic chunk claim, scanned by generation
///    parity), so a pool worker is never idle while any submitter has work.
///  * Workers spin briefly before parking in an atomic futex wait, so
///    back-to-back launches of tiny grids do not round-trip through the
///    kernel futex.
///  * parallelForTemplated() binds the caller's callable statically — the
///    per-chunk dispatch is one indirect call per *chunk*, not a
///    std::function invocation per *index*.
#pragma once

#include "threadpool/spin.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace threadpool
{
    //! Misuse of the pool API by the calling code (re-entrant submission
    //! from inside a running loop, nested team runs). Typed so callers and
    //! tests can tell a programming error apart from a failure inside the
    //! submitted work (DESIGN.md invariant 4: errors are typed exceptions).
    class UsageError : public std::logic_error
    {
    public:
        using std::logic_error::logic_error;
    };

    namespace detail
    {
        //! First-exception capture usable from any participant without a
        //! full mutex (single CAS-guarded slot).
        class FirstError
        {
        public:
            void captureCurrent() noexcept
            {
                bool expected = false;
                if(armed_.compare_exchange_strong(expected, true, std::memory_order_acq_rel))
                    error_ = std::current_exception();
            }

            //! Only valid after the job drained (no concurrent captures).
            void rethrowIfSetAndClear()
            {
                if(armed_.load(std::memory_order_acquire))
                {
                    auto error = std::exchange(error_, nullptr);
                    armed_.store(false, std::memory_order_release);
                    std::rethrow_exception(error);
                }
            }

        private:
            std::atomic<bool> armed_{false};
            std::exception_ptr error_{};
        };
    } // namespace detail

    //! Scheduler health counters (ThreadPool::counters()): how often
    //! workers gave up spinning and parked, how often a drained slot was
    //! another submitter's (the steal path), and jobs published. The
    //! park/steal ratio is the signal the adaptive-grain follow-on needs.
    struct PoolCounters
    {
        std::uint64_t parks = 0;
        std::uint64_t steals = 0;
        std::uint64_t jobs = 0;
    };

    class ThreadPool
    {
    public:
        //! Number of independent job slots: up to this many submitters
        //! publish concurrently without blocking each other; further
        //! submitters queue on a slot mutex. 8 covers the streams-per-device
        //! counts of the paper's evaluation with headroom, at a cost of
        //! 8 cache lines scanned per worker wakeup.
        static constexpr std::size_t slotCount = 8;

        //! \param workers number of worker threads (defaults to hardware
        //!        concurrency, at least one).
        explicit ThreadPool(std::size_t workers = 0);
        ~ThreadPool();

        ThreadPool(ThreadPool const&) = delete;
        auto operator=(ThreadPool const&) -> ThreadPool& = delete;

        //! Chunk dispatch signature: runs fn(i) for every i in [begin,
        //! end); captures per-index errors so a throwing index never skips
        //! its chunk siblings.
        using ChunkFn = void (*)(void const* ctx, std::size_t begin, std::size_t end, detail::FirstError& errors);

        //! Runs fn(index) for every index in [0, count), distributing the
        //! indices dynamically over the workers in proportional chunks.
        //! Blocks until all indices completed. Exceptions from fn are
        //! captured per index (every index still runs); the first one is
        //! re-thrown after the loop drained. Errors stay confined to the
        //! submitting job: concurrent jobs in other slots are unaffected.
        //!
        //! Re-entrant calls from within a worker are rejected (throws
        //! UsageError) — nested parallelism is the caller's responsibility,
        //! as in the paper's model where nesting is expressed through the
        //! hierarchy instead.
        void parallelFor(std::size_t count, std::function<void(std::size_t)> const& fn)
        {
            parallelForTemplated(count, fn);
        }

        //! Statically-bound variant of parallelFor: the callable type is
        //! known at the call site, so worker dispatch goes through one
        //! trampoline call per chunk instead of a std::function invocation
        //! per index. This is the fast path used by the kernel executors.
        template<typename TFn>
        void parallelForTemplated(std::size_t count, TFn const& fn)
        {
            if(count == 0)
                return;
            runJob(count, defaultGrain(count), &fn, &chunkTrampoline<TFn>);
        }

        //! A job descriptor resolved once and submitted many times: index
        //! count, chunk grain, bound callable and dispatch trampoline are
        //! all frozen at build time, so a steady-state submission performs
        //! no per-call setup at all. The referenced callable must outlive
        //! every run of the job (the descriptor stores its address, like
        //! parallelForTemplated does for the duration of one call).
        //! Built by prebuild(); submitted by runPrebuilt().
        class PrebuiltJob
        {
        public:
            PrebuiltJob() = default;

            [[nodiscard]] auto count() const noexcept -> std::size_t
            {
                return count_;
            }

        private:
            friend class ThreadPool;
            std::size_t count_ = 0;
            std::size_t grain_ = 1;
            void const* ctx_ = nullptr;
            ChunkFn run_ = nullptr;
        };

        //! Freezes \p fn over [0, count) into a reusable job descriptor.
        template<typename TFn>
        [[nodiscard]] auto prebuild(std::size_t count, TFn const& fn) const -> PrebuiltJob
        {
            PrebuiltJob job;
            job.count_ = count;
            job.grain_ = defaultGrain(count);
            job.ctx_ = &fn;
            job.run_ = &chunkTrampoline<TFn>;
            return job;
        }

        //! Submits a pre-built job; identical semantics to parallelFor.
        void runPrebuilt(PrebuiltJob const& job)
        {
            if(job.count_ == 0)
                return;
            runJob(job.count_, job.grain_, job.ctx_, job.run_);
        }

        [[nodiscard]] auto workerCount() const noexcept -> std::size_t
        {
            return workers_.size();
        }

        //! Index of the calling worker in [0, workerCount()), or npos when
        //! called from a non-worker thread. Used by executors to give each
        //! worker its own shared-memory arena.
        [[nodiscard]] static auto currentWorkerIndex() noexcept -> std::size_t;
        static constexpr std::size_t npos = static_cast<std::size_t>(-1);

        //! Slot the calling thread last published into, or npos. The
        //! affinity hint of the submit path: a thread that submits again
        //! (each stream submits from its one queue worker, so per thread ==
        //! per stream) re-tries this slot first and skips the ticket scan
        //! when it is still free. Exposed for tests.
        [[nodiscard]] static auto lastSlotHint() noexcept -> std::size_t;

        //! Lazily constructed process-wide pool.
        [[nodiscard]] static auto global() -> ThreadPool&;

        //! Coarse scheduler health counters, absorbed into the metrics
        //! registry (obs::collect, DESIGN.md §10.4). Relaxed snapshot —
        //! monotonic, not mutually coherent.
        [[nodiscard]] auto counters() const noexcept -> PoolCounters
        {
            PoolCounters c;
            c.parks = parks_.load(std::memory_order_relaxed);
            c.steals = steals_.load(std::memory_order_relaxed);
            c.jobs = jobs_.load(std::memory_order_relaxed);
            return c;
        }

    private:
        template<typename TFn>
        static void chunkTrampoline(void const* ctx, std::size_t begin, std::size_t end, detail::FirstError& errors)
        {
            auto const& fn = *static_cast<TFn const*>(ctx);
            for(std::size_t i = begin; i < end; ++i)
            {
                try
                {
                    fn(i);
                }
                catch(...)
                {
                    errors.captureCurrent();
                }
            }
        }

        //! Grain used when the caller did not pre-resolve one: 8 chunks per
        //! worker on average (DESIGN.md §3.1).
        [[nodiscard]] auto defaultGrain(std::size_t count) const noexcept -> std::size_t
        {
            return std::max<std::size_t>(1, count / (workers_.size() * 8));
        }

        void runJob(std::size_t count, std::size_t grain, void const* ctx, ChunkFn run);
        void workerLoop(std::size_t workerIndex);

        //! One generation-stamped job slot of the ring.
        //!
        //! Publication protocol (runJob, per slot): hold the slot's submit
        //! mutex, write the descriptor fields and reset the cursors while
        //! the slot is closed (even generation), then open it with a
        //! seq_cst generation bump. Participation protocol (workerLoop):
        //! load an odd generation, register in active, re-verify the
        //! generation — only then touch the slot. The submitter does not
        //! close before remaining == 0 (all work done) and does not release
        //! the slot mutex before active == 0 (no registered worker still
        //! inside the claim loop), so slot publication never races with a
        //! participant: a worker that missed the current generation can
        //! never claim, and a worker that observed it keeps the slot pinned
        //! until it leaves. This is what makes the plain (non-atomic)
        //! descriptor fields and the cursor reset safe — per slot, exactly
        //! the PR 1 single-slot argument (DESIGN.md §3.5).
        struct alignas(64) JobSlot
        {
            void const* ctx = nullptr;
            ChunkFn run = nullptr;
            std::size_t count = 0;
            std::size_t grain = 1;
            //! Odd = open (claimable), even = closed.
            alignas(64) std::atomic<std::uint64_t> generation{0};
            alignas(64) std::atomic<std::size_t> next{0};
            alignas(64) std::atomic<std::size_t> remaining{0};
            //! Registered participants currently inside drainSlot.
            alignas(64) std::atomic<std::size_t> active{0};
            detail::FirstError errors;
            //! Exclusivity of publication into this slot; never contended
            //! while fewer than slotCount submitters run concurrently.
            std::mutex submitMutex;
        };

        //! Claims and runs chunks of \p slot's job until its index space is
        //! exhausted. Callers must have registered as participants (active)
        //! for the slot's current generation — the submitter implicitly is
        //! one; workers register in workerLoop.
        void drainSlot(JobSlot& slot);

        //! Acquires and locks a publishable slot: the caller's affinity
        //! hint first, then a try-lock ticket scan, then a blocking lock
        //! on the ticket slot.
        auto acquireSlot(std::unique_lock<std::mutex>& lock) -> std::size_t;

        int spinBudget_ = detail::spinBeforePark;

        std::array<JobSlot, slotCount> slots_;
        //! Bumped once per publish; the workers' park word (shared
        //! spin-then-park protocol with syscall elision, see
        //! detail::PublishWord). Purely a wakeup hint — claim correctness
        //! rests on the per-slot protocol alone.
        detail::PublishWord publishWord_;
        //! Round-robin start for slot acquisition, spreading concurrent
        //! submitters over distinct slots.
        alignas(64) std::atomic<std::size_t> submitCursor_{0};
        std::atomic<bool> shutdown_{false};
        //! counters() sources — relaxed, bumped off the chunk-claim hot
        //! loop (per park / per drained foreign slot / per publish).
        alignas(64) std::atomic<std::uint64_t> parks_{0};
        std::atomic<std::uint64_t> steals_{0};
        std::atomic<std::uint64_t> jobs_{0};
        std::vector<std::jthread> workers_;
    };
} // namespace threadpool
