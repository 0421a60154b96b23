#include "threadpool/team_pool.hpp"

#include "threadpool/spin.hpp"
#include "threadpool/thread_pool.hpp" // UsageError

#include <algorithm>

namespace threadpool
{
    namespace
    {
        //! True while the calling thread executes a team body — nested
        //! runTeam from it would deadlock on the members the outer run
        //! already blocks on.
        thread_local bool t_insideTeam = false;
    } // namespace

    TeamPool::TeamPool() : spinBudget_(detail::machineSpinBudget())
    {
    }

    TeamPool::~TeamPool()
    {
        shutdown_.store(true, std::memory_order_seq_cst);
        wakeWord_.publish();
    }

    auto TeamPool::global() -> TeamPool&
    {
        static TeamPool pool;
        return pool;
    }

    auto TeamPool::retainCount() -> std::size_t
    {
        static std::size_t const cached = std::max<std::size_t>(8, 2 * std::thread::hardware_concurrency());
        return cached;
    }

    auto TeamPool::threadCount() const -> std::size_t
    {
        std::scoped_lock lock(threadsMutex_);
        return threads_.size();
    }

    void TeamPool::runTeam(std::size_t teamSize, std::function<void(std::size_t)> const& body)
    {
        if(teamSize == 0)
            return;
        if(t_insideTeam)
            throw UsageError("threadpool::TeamPool::runTeam: nested call from a team member");
        std::scoped_lock submitLock(submitMutex_);
        {
            std::scoped_lock lock(threadsMutex_);
            while(threads_.size() < teamSize)
            {
                auto const index = threads_.size();
                threads_.emplace_back([this, index] { memberLoop(index); });
            }
        }

        // Invariant under submitMutex_: generation is even (closed) and no
        // member is registered — the previous run closed and drained
        // active_ before returning. The descriptor writes below therefore
        // race with nobody (see memberLoop's register/re-validate).
        body_ = &body;
        teamSize_ = teamSize;
        nextTicket_.store(0, std::memory_order_relaxed);
        running_.store(teamSize, std::memory_order_relaxed);
        // Open the run (even -> odd), then wake the parked members — the
        // same notify elision as the ThreadPool publish path.
        generation_.fetch_add(1, std::memory_order_seq_cst);
        wakeWord_.publish();

        // All bodies done...
        detail::awaitZero(running_, spinBudget_);
        // ...then close (odd -> even) and wait for every registrant to back
        // out, after which the descriptor may be rewritten.
        generation_.fetch_add(1, std::memory_order_seq_cst);
        detail::awaitZero(active_, spinBudget_);
        body_ = nullptr;

        // Trim surplus members spawned for an oversized team: members with
        // index >= keep_ exit their loop. The surplus jthreads are moved
        // out under the lock (threadCount() stays consistent) and joined
        // without it.
        std::vector<std::jthread> surplus;
        {
            std::scoped_lock lock(threadsMutex_);
            if(threads_.size() > retainCount())
            {
                keep_.store(retainCount(), std::memory_order_seq_cst);
                while(threads_.size() > retainCount())
                {
                    surplus.push_back(std::move(threads_.back()));
                    threads_.pop_back();
                }
            }
        }
        if(!surplus.empty())
        {
            wakeWord_.publish();
            surplus.clear(); // joins the exiting members
            keep_.store(static_cast<std::size_t>(-1), std::memory_order_seq_cst);
        }
    }

    void TeamPool::memberLoop(std::size_t memberIndex)
    {
        std::uint64_t seen = 0;
        for(;;)
        {
            // Wait for an open run we have not joined yet: spin, then park.
            int spins = spinBudget_;
            std::uint64_t gen;
            for(;;)
            {
                auto const ticket = wakeWord_.snapshot();
                gen = generation_.load(std::memory_order_seq_cst);
                // Acquire is provably enough for both exit flags (litmus:
                // threadpool/*_park_publish, DESIGN.md §8.3-§8.4): they are
                // read AFTER the word snapshot, and the waking side stores
                // its flag BEFORE publishing the word (a seq_cst RMW). A
                // member whose snapshot read the publish therefore
                // synchronizes with it and must see the flag; a member
                // that read the old word parks on it and park()'s CAS,
                // futex value check or the publish's notify supplies the
                // wake.
                if(shutdown_.load(std::memory_order_acquire)
                   || memberIndex >= keep_.load(std::memory_order_acquire))
                    return;
                if(detail::isOpen(gen) && gen != seen)
                    break;
                if(spins-- > 0)
                    detail::cpuRelax();
                else
                    wakeWord_.park(ticket);
            }
            // Register, then re-validate: the descriptor (body_, teamSize_)
            // and the ticket counter may only be touched while the observed
            // generation is still current (a stale member would otherwise
            // claim a ticket of the *next* run — the ABA the parity
            // protocol exists to prevent).
            active_.fetch_add(1, std::memory_order_seq_cst);
            if(generation_.load(std::memory_order_seq_cst) != gen)
            {
                if(active_.fetch_sub(1, std::memory_order_acq_rel) == 1)
                    active_.notify_all();
                continue;
            }
            seen = gen;
            auto const ticket = nextTicket_.fetch_add(1, std::memory_order_relaxed);
            if(ticket < teamSize_)
            {
                auto const* body = body_;
                t_insideTeam = true;
                (*body)(ticket);
                t_insideTeam = false;
                if(running_.fetch_sub(1, std::memory_order_acq_rel) == 1)
                    running_.notify_all();
            }
            if(active_.fetch_sub(1, std::memory_order_acq_rel) == 1)
                active_.notify_all();
        }
    }
} // namespace threadpool
