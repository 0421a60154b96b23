/// \file serve::Future — completion handle of a submitted request
/// (DESIGN.md §6.2).
///
/// A Future is the client's side of one request: poll it, block on it
/// (with or without deadline), or attach a continuation. Completion is
/// one-shot and carries an optional error; the service never delivers a
/// value through the future — results travel through the request payload
/// the client owns, so the hot completion path moves no data.
#pragma once

#include "serve/types.hpp"

#include "alpaka/core/error.hpp"
#include "alpaka/core/mpmc_ring.hpp"

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace alpaka::serve
{
    class Service;

    namespace detail
    {
        //! Block-recycling allocator for the per-request Future::State
        //! control block: retired blocks park in a lock-free ring and the
        //! next submission reuses one, so steady-state serving touches
        //! the heap for none of its futures (zero-allocation audit,
        //! DESIGN.md §8.9). One cache per block size (allocate_shared
        //! instantiates this for its combined state+refcount node); the
        //! ring is intentionally leaked at exit — blocks cached inside it
        //! stay reachable, so leak checkers stay quiet and a Future
        //! outliving main() can still retire its block safely.
        template<typename T>
        class RecyclingAllocator
        {
        public:
            using value_type = T;

            RecyclingAllocator() noexcept = default;

            template<typename U>
            explicit RecyclingAllocator(RecyclingAllocator<U> const&) noexcept
            {
            }

            [[nodiscard]] auto allocate(std::size_t n) -> T*
            {
                if(n == 1)
                {
                    void* block = nullptr;
                    if(cache().pop(block))
                        return static_cast<T*>(block);
                    stockSpares();
                }
                return static_cast<T*>(::operator new(n * sizeof(T)));
            }

            void deallocate(T* p, std::size_t n) noexcept
            {
                if(n == 1 && cache().push(static_cast<void*>(p)))
                    return;
                ::operator delete(p);
            }

            friend auto operator==(RecyclingAllocator const&, RecyclingAllocator const&) noexcept -> bool
            {
                return true;
            }

        private:
            //! A miss means every cached block is in use or still on its
            //! way back (a free whose push has claimed the ring's tail
            //! cell but not committed it — a pop cannot skip that cell).
            //! Stocking spares on each miss keeps the cache ahead of the
            //! number of live states, so a steady state that only
            //! revisits its warm-up peak never misses: otherwise a
            //! completion racing the next submission's allocation would
            //! make the zero-allocation audit depend on timing.
            static void stockSpares()
            {
                for(std::size_t i = 0; i < sparesPerMiss; ++i)
                {
                    void* spare = ::operator new(sizeof(T));
                    if(!cache().push(spare))
                    {
                        ::operator delete(spare);
                        return;
                    }
                }
            }

            static constexpr std::size_t sparesPerMiss = 16;

            static auto cache() -> core::MpmcRing<void*>&
            {
                static auto* const ring = new core::MpmcRing<void*>(4096);
                return *ring;
            }
        };
    } // namespace detail

    class Future
    {
    public:
        //! An empty future (valid() == false); submitting yields real ones.
        Future() = default;

        [[nodiscard]] auto valid() const noexcept -> bool
        {
            return state_ != nullptr;
        }

        //! Non-blocking: has the request completed (successfully or not)?
        [[nodiscard]] auto poll() const -> bool
        {
            auto& state = requireState();
            std::scoped_lock lock(state.mutex);
            return state.done;
        }

        //! Blocks until completion; rethrows the request's error, if any.
        void wait() const
        {
            auto& state = requireState();
            std::unique_lock lock(state.mutex);
            state.cv.wait(lock, [&] { return state.done; });
            if(state.error != nullptr)
                std::rethrow_exception(state.error);
        }

        //! Blocks up to \p timeout. \returns true when the request
        //! completed (rethrowing its error like wait()), false on timeout.
        auto waitFor(std::chrono::nanoseconds timeout) const -> bool
        {
            auto& state = requireState();
            std::unique_lock lock(state.mutex);
            if(!state.cv.wait_for(lock, timeout, [&] { return state.done; }))
                return false;
            if(state.error != nullptr)
                std::rethrow_exception(state.error);
            return true;
        }

        //! The request's error (nullptr when it succeeded or is still in
        //! flight). Never throws on a completed future — the inspecting
        //! twin of wait().
        [[nodiscard]] auto error() const -> std::exception_ptr
        {
            auto& state = requireState();
            std::scoped_lock lock(state.mutex);
            return state.error;
        }

        //! Attaches a continuation: runs with the request's error (or
        //! nullptr on success) when it completes — on the completing
        //! worker thread, or inline right now when already complete.
        //! Continuations must not block the worker for long and must not
        //! throw.
        //!
        //! Allocation contract: the FIRST continuation lands in an inline
        //! slot of the request's recycled state block, so one then() per
        //! request costs the heap nothing as long as the callable's
        //! capture fits std::function's small-object buffer (two
        //! pointers). Further continuations spill to a vector and may
        //! allocate. Callers that only need a completion signal pass a
        //! serve::Completion in the Request instead and skip the future
        //! altogether (the net front door does, DESIGN.md §9.2).
        void then(std::function<void(std::exception_ptr)> fn) const
        {
            auto& state = requireState();
            {
                std::unique_lock lock(state.mutex);
                if(!state.done)
                {
                    if(!state.hasFirst)
                    {
                        state.first = std::move(fn);
                        state.hasFirst = true;
                    }
                    else
                    {
                        state.continuations.push_back(std::move(fn));
                    }
                    return;
                }
            }
            fn(error());
        }

    private:
        friend class Service;
        friend struct FutureTestAccess;

        //! The future's side of a request is a Completion whose hook is
        //! complete(): the service resolves futures and caller-provided
        //! completions through the same call.
        struct State : Completion
        {
            State() noexcept : Completion(&resolveHook)
            {
            }

            //! An admitted state holds itself until it resolves, so the
            //! service's queues carry a plain Completion pointer and a
            //! client may drop its Future early.
            std::shared_ptr<State> self;
            std::mutex mutex;
            std::condition_variable cv;
            bool done = false;
            //! First-continuation inline slot (see then()).
            bool hasFirst = false;
            std::exception_ptr error;
            std::function<void(std::exception_ptr)> first;
            std::vector<std::function<void(std::exception_ptr)>> continuations;
        };

        //! State factory of the serving hot path: pooled through the
        //! recycling allocator, so per-request future creation allocates
        //! only until the cache warmed up.
        [[nodiscard]] static auto makeState() -> std::shared_ptr<State>
        {
            return std::allocate_shared<State>(detail::RecyclingAllocator<State>{});
        }

        //! Using an empty future is misuse, reported typed — never a null
        //! dereference (\throws UsageError).
        [[nodiscard]] auto requireState() const -> State&
        {
            if(state_ == nullptr)
                throw UsageError("serve::Future: operation on an empty (default-constructed) future");
            return *state_;
        }

        //! One-shot completion, reached through the state's Completion
        //! hook. Exactly-once rests on the service's claim protocol (the
        //! InFlightBatch claim, queue ownership under its mutex —
        //! invariant 16); the done check under the lock is the futures'
        //! backstop, making a second attempt by a holder of the state a
        //! no-op. Runs the continuations outside the lock (they may touch
        //! the future). \returns true when this call resolved the future.
        //! The state's self-reference goes last, after the continuations
        //! ran.
        static auto complete(State& state, std::exception_ptr error) -> bool
        {
            std::shared_ptr<State> self;
            std::function<void(std::exception_ptr)> first;
            std::vector<std::function<void(std::exception_ptr)>> continuations;
            {
                std::scoped_lock lock(state.mutex);
                if(state.done)
                    return false;
                state.done = true;
                state.error = error;
                first = std::exchange(state.first, {});
                continuations = std::exchange(state.continuations, {});
                self = std::move(state.self);
            }
            state.cv.notify_all();
            if(first != nullptr)
                first(error);
            for(auto const& fn : continuations)
                fn(error);
            return true;
        }

        static void resolveHook(Completion& completion, std::exception_ptr error) noexcept
        {
            complete(static_cast<State&>(completion), std::move(error));
        }

        explicit Future(std::shared_ptr<State> state) noexcept : state_(std::move(state))
        {
        }

        std::shared_ptr<State> state_;
    };

    //! Test-only backdoor: drives a future's completion without a running
    //! service, so the race tests (then-vs-complete, cancel-vs-complete,
    //! double resolution) can pin the exact interleavings the resilience
    //! layer makes reachable. Not part of the public API.
    struct FutureTestAccess
    {
        std::shared_ptr<Future::State> state = std::make_shared<Future::State>();

        [[nodiscard]] auto future() const -> Future
        {
            return Future(state);
        }
        //! \returns true when this call resolved the future (one-shot).
        auto complete(std::exception_ptr error) const -> bool
        {
            return Future::complete(*state, error);
        }
    };
} // namespace alpaka::serve
