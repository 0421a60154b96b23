/// \file Persistent thread-team substrate for barrier-coupled back-ends.
///
/// AccCpuThreads maps every alpaka thread of a block onto its own OS thread
/// and synchronizes them with a std::barrier. Those threads must all exist
/// concurrently (a barrier participant blocks its OS thread), so the
/// chunk-scheduling ThreadPool cannot host them — its dynamic scheduling
/// gives no concurrency guarantee. The seed spawned a fresh std::jthread
/// team on *every* kernel launch; this pool keeps the team threads alive
/// across launches and hands out exactly teamSize of them per run, removing
/// the dominant per-launch cost of the AccCpuThreads back-end (thread
/// creation, ~tens of microseconds each).
///
/// Publication uses the same generation-parity spin-then-park protocol as
/// ThreadPool's job slots (see spin.hpp and DESIGN.md §3.5): members spin
/// briefly on the generation word before parking on the pool's
/// detail::PublishWord, and the submitter pays the wake syscall only when
/// a member may be asleep. Back-to-back AccCpuThreads launches therefore
/// stop futex-round-tripping per launch on multi-core machines. Member
/// selection is an atomic ticket: the first teamSize registrants of a
/// generation run the body, later ones back out.
///
/// Retention policy: the pool keeps at most retainCount() threads between
/// runs (oversized teams get their surplus spawned per run and trimmed
/// afterwards, i.e. seed behaviour) — a single huge launch must not pin
/// hundreds of OS threads for the process lifetime, and the bounded size
/// also bounds the notify_all wakeup fan-out per launch.
#pragma once

#include "threadpool/spin.hpp"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace threadpool
{
    class TeamPool
    {
    public:
        TeamPool();
        ~TeamPool();

        TeamPool(TeamPool const&) = delete;
        auto operator=(TeamPool const&) -> TeamPool& = delete;

        //! Runs body(t) for every t in [0, teamSize), each on its own
        //! persistent OS thread, all live concurrently (so body may use
        //! blocking barriers between the members). Blocks until every
        //! member returned. body must not throw — kernel-level errors are
        //! captured by the executors before they reach the pool.
        //!
        //! Concurrent runTeam calls from different threads serialize.
        //! Nested calls from inside a team body are rejected (throws
        //! UsageError): the members the inner run would need are the ones
        //! the outer run is blocking on.
        void runTeam(std::size_t teamSize, std::function<void(std::size_t)> const& body);

        //! Number of persistent threads currently alive (grows on demand,
        //! trimmed back to retainCount() after oversized runs).
        [[nodiscard]] auto threadCount() const -> std::size_t;

        //! Maximum number of threads kept alive between runs.
        [[nodiscard]] static auto retainCount() -> std::size_t;

        //! Lazily constructed process-wide pool.
        [[nodiscard]] static auto global() -> TeamPool&;

    private:
        void memberLoop(std::size_t memberIndex);

        std::mutex submitMutex_; //!< serializes whole runTeam calls
        mutable std::mutex threadsMutex_; //!< protects threads_ only

        //! Run descriptor: plain fields, written under submitMutex_ while
        //! the generation is closed, read by members only between
        //! registering in active_ and re-validating the generation — the
        //! same publication argument as ThreadPool's job slots.
        std::function<void(std::size_t)> const* body_ = nullptr;
        std::size_t teamSize_ = 0;

        //! Odd = run open (tickets claimable), even = closed.
        alignas(64) std::atomic<std::uint64_t> generation_{0};
        //! Member indices handed out this run; the first teamSize_ claimants
        //! execute the body.
        alignas(64) std::atomic<std::size_t> nextTicket_{0};
        //! Ticket holders still inside the body.
        alignas(64) std::atomic<std::size_t> running_{0};
        //! Members registered between generation validation and back-out.
        alignas(64) std::atomic<std::size_t> active_{0};
        //! Members park here; published after every run opening and after
        //! every exit-flag store (trim, shutdown).
        detail::PublishWord wakeWord_;
        //! Members with index >= keep_ exit their loop (trim protocol).
        std::atomic<std::size_t> keep_{static_cast<std::size_t>(-1)};
        std::atomic<bool> shutdown_{false};
        int spinBudget_;
        std::vector<std::jthread> threads_;
    };
} // namespace threadpool
