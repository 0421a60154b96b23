/// \file Spin-then-park primitives shared by the threadpool substrates.
///
/// ThreadPool (chunk scheduling) and TeamPool (barrier-coupled teams) use
/// the same waiting discipline: spin briefly on their own state, then park
/// on a PublishWord in a C++20 atomic (futex) wait. In-flight work units
/// are typically sub-microsecond, so the spin phase usually wins and the
/// syscall is skipped. The helpers live here so both pools — and every
/// other parking waiter in the tree — share one tested copy.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>

#if defined(__x86_64__) && defined(__GNUC__)
#    include <immintrin.h>
#endif
#if defined(__linux__)
#    include <sched.h>
#endif

namespace threadpool::detail
{
    inline void cpuRelax() noexcept
    {
#if defined(__x86_64__) && defined(__GNUC__)
        _mm_pause();
#else
        std::this_thread::yield();
#endif
    }

    //! Default spin iterations before parking in the futex.
    inline constexpr int spinBeforePark = 4096;

    //! CPUs the calling thread may run on: its affinity mask, which the
    //! threads it creates inherit (hardware_concurrency() where the mask
    //! cannot be read).
    [[nodiscard]] inline auto usableCpus() noexcept -> unsigned
    {
#if defined(__linux__)
        cpu_set_t set;
        CPU_ZERO(&set);
        if(sched_getaffinity(0, sizeof(set), &set) == 0)
            return static_cast<unsigned>(CPU_COUNT(&set));
#endif
        return std::thread::hardware_concurrency();
    }

    //! Spin budget of the threads a pool, team or service built on the
    //! calling thread starts: zero when that thread may use only one CPU,
    //! where spinning can never observe progress by another core and only
    //! steals the timeslice of the thread being waited for.
    [[nodiscard]] inline auto machineSpinBudget() noexcept -> int
    {
        return usableCpus() <= 1 ? 0 : spinBeforePark;
    }

    //! Odd generations mean "slot open", even mean "closed" (the parity
    //! protocol of the generation-stamped job slots).
    [[nodiscard]] constexpr auto isOpen(std::uint64_t generation) noexcept -> bool
    {
        return (generation & 1u) != 0;
    }

    //! Spin briefly, then park on the futex until \p counter reaches zero.
    inline void awaitZero(std::atomic<std::size_t>& counter, int spins)
    {
        for(;;)
        {
            auto const value = counter.load(std::memory_order_seq_cst);
            if(value == 0)
                return;
            if(spins-- > 0)
                cpuRelax();
            else
                counter.wait(value, std::memory_order_seq_cst);
        }
    }

    //! Park/wake word with syscall-elided wakeups — the one waiting
    //! discipline behind ThreadPool's job publication, TeamPool's runs,
    //! the graph replay engine's ready ring, serve::Service's shard
    //! workers and core::TaskQueue (DESIGN.md §3.1, §8.2).
    //!
    //! One 32-bit futex word: bit 0 means "a waiter may be asleep", the
    //! bits above it are the publish epoch. A waiter snapshots the word,
    //! re-checks its own readiness predicate, spins, and eventually parks
    //! via park(snapshot), which sets bit 0 with a CAS on the unchanged
    //! epoch and sleeps on that exact value. A publisher makes its state
    //! visible (release/seq_cst stores), then calls publish(), which bumps
    //! the epoch and pays the notify only if the old word had bit 0 set.
    //! Both RMWs hit the same word, so coherence alone orders them: either
    //! the waiter's CAS lands first and the bump reads the bit, or the
    //! bump lands first and the CAS (or the futex value check) fails —
    //! nobody sleeps through a publish (litmus: threadpool/*_park_word).
    //! The epoch wraps after 2^31 publishes; a waiter would have to stall
    //! between snapshot and CAS for a whole multiple of that many to be
    //! fooled.
    class PublishWord
    {
    public:
        //! Word value to pass to park(); always re-check the readiness
        //! predicate *after* taking the snapshot.
        [[nodiscard]] auto snapshot() const noexcept -> std::uint32_t
        {
            return word_.load(std::memory_order_seq_cst) & ~waiterBit;
        }

        //! Advertises newly published state; wakes the waiters only when
        //! one may be asleep.
        void publish() noexcept
        {
            if((word_.fetch_add(epochOne, std::memory_order_seq_cst) & waiterBit) == 0)
                return;
            // Clearing the bit changes the value every sleeper waits on,
            // so a waiter between its CAS and its futex entry cannot miss
            // this wake either; a waiter that re-parks after the clear
            // sets the bit again for the next publish.
            word_.fetch_and(~waiterBit, std::memory_order_seq_cst);
            word_.notify_all();
        }

        //! Blocks until the word moved past \p seen (or a spurious wake).
        void park(std::uint32_t seen) noexcept
        {
            auto expected = seen;
            if(!word_.compare_exchange_strong(expected, seen | waiterBit, std::memory_order_seq_cst)
               && expected != (seen | waiterBit))
                return; // already published past the snapshot
            word_.wait(seen | waiterBit, std::memory_order_seq_cst);
        }

    private:
        static constexpr std::uint32_t waiterBit = 1;
        static constexpr std::uint32_t epochOne = 2;

        alignas(64) std::atomic<std::uint32_t> word_{0};
    };
} // namespace threadpool::detail
