/// \file Request/template/introspection types of the kernel-service
/// runtime (DESIGN.md §6).
///
/// The ROADMAP north star — serving heavy traffic from many concurrent
/// clients — needs a vocabulary the layers below deliberately do not
/// have: a *request* (one unit of client work against a registered
/// template), a *tenant* (the fairness domain requests are accounted
/// to), a *template* (work whose structure is registered once and
/// lowered ahead of time), and typed *admission* failures (the
/// backpressure surface of the bounded queue). This header defines that
/// vocabulary; serve/service.hpp composes it with the launch engine,
/// task graphs and the memory pool.
#pragma once

#include "mempool/pool.hpp"

#include "serve/latency.hpp"

#include "alpaka/core/error.hpp"
#include "alpaka/dev.hpp"

#include "graph/graph.hpp"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace alpaka::serve
{
    //! Admission rejected by the service's bounded queue: the global or
    //! per-tenant capacity is exhausted (backpressure, invariant 13) or a
    //! blocking submit ran out of deadline. A retryable condition — typed
    //! apart from UsageError, which marks non-retryable API misuse.
    class AdmissionError : public std::runtime_error
    {
    public:
        using std::runtime_error::runtime_error;
    };

    //! \name typed request-failure taxonomy (DESIGN.md §7.1)
    //!
    //! Every admitted request's future resolves exactly once (invariant
    //! 16) — when it cannot resolve with the template's own outcome, it
    //! resolves with one of these, so a client can always tell "my work
    //! failed" (KernelExecutionError et al., invariant 15) from "the
    //! service shed or lost my work" and react accordingly (retry, back
    //! off, give up).
    //! @{

    //! The request's CancelToken was cancelled before the work ran.
    class CancelledError : public Error
    {
    public:
        using Error::Error;
    };

    //! The request's deadline expired before the work ran.
    class DeadlineError : public Error
    {
    public:
        using Error::Error;
    };

    //! The worker executing the request was declared lost by the
    //! supervisor (stalled past ServiceOptions::stallTimeout) or died
    //! across shutdown; whether the work ran is unknowable.
    class WorkerLostError : public Error
    {
    public:
        using Error::Error;
    };

    //! Shed under overload: the queue crossed ServiceOptions::
    //! shedWatermark and this request had the most-expired/oldest
    //! deadline (deadline-less requests are never shed).
    class OverloadError : public Error
    {
    public:
        using Error::Error;
    };
    //! @}

    //! The request named a template id the service never registered:
    //! refused at admission (the wire answers BadRequest).
    class UnknownTemplateError : public UsageError
    {
    public:
        using UsageError::UsageError;
    };

    //! Cooperative cancellation handle: the client keeps a copy, attaches
    //! a copy to a Request, and may cancel() at any time. The service
    //! checks at dispatch time — before any kernel work — and sheds a
    //! cancelled request with CancelledError. A default-constructed token
    //! is empty: it can never be cancelled and costs the hot path nothing
    //! (not even an atomic load).
    class CancelToken
    {
    public:
        CancelToken() = default;

        //! A real (cancellable) token.
        [[nodiscard]] static auto make() -> CancelToken
        {
            CancelToken t;
            t.state_ = std::make_shared<std::atomic<bool>>(false);
            return t;
        }

        //! Requests cancellation; idempotent, thread safe, never blocks.
        //! Work already dispatched to a worker is NOT interrupted — the
        //! future then resolves with the work's own outcome (invariant 16
        //! forbids resolving twice, so cancel-after-dispatch is a no-op).
        void cancel() const noexcept
        {
            if(state_ != nullptr)
                state_->store(true, std::memory_order_release);
        }

        [[nodiscard]] auto cancelled() const noexcept -> bool
        {
            return state_ != nullptr && state_->load(std::memory_order_acquire);
        }

        //! False for the empty (never-cancellable) token.
        [[nodiscard]] auto valid() const noexcept -> bool
        {
            return state_ != nullptr;
        }

    private:
        std::shared_ptr<std::atomic<bool>> state_;
    };

    //! Handle of a registered request template.
    using TemplateId = std::uint32_t;

    //! The request payload as a zero-copy view: a span the service hands
    //! through to the template body untouched. This is the wire-to-worker
    //! contract (DESIGN.md §9.2): the net front door decodes a frame and
    //! points the view straight into the connection's receive slot, the
    //! kernel reads and writes those bytes in place, and the response
    //! frame is encoded from the same slot — no payload copy anywhere on
    //! the serving path. The caller keeps the bytes alive until the
    //! request's future resolves.
    //!
    //! The implicit void* constructor preserves every pre-PR8 call site:
    //! a bare pointer is a borrowed view of unknown (0) size, exactly the
    //! old contract where payload size was the template's private
    //! business.
    class PayloadView
    {
    public:
        PayloadView() = default;

        //! Borrowed span over caller-owned bytes (zero-copy).
        PayloadView(void* data, std::size_t size) noexcept : data_(data), size_(size)
        {
        }

        //! A bare pointer of unknown size (the pre-view call sites).
        PayloadView(void* data) noexcept : data_(data) // NOLINT(google-explicit-constructor)
        {
        }

        [[nodiscard]] auto data() const noexcept -> void*
        {
            return data_;
        }
        [[nodiscard]] auto size() const noexcept -> std::size_t
        {
            return size_;
        }

    private:
        void* data_ = nullptr;
        std::size_t size_ = 0;
    };

    //! Intrusive, non-owning completion target of one request (DESIGN.md
    //! §6.2): the service calls complete() exactly once with the request's
    //! error (nullptr on success), after the request's stats settled, on
    //! whichever thread resolved it — a worker, the supervisor, shutdown,
    //! or the submitter itself for a request already expired or cancelled
    //! at admission. A request refused by submit() never fires its
    //! completion; a posted request (Service::post, Posted) fires it for
    //! its refusal too. The caller embeds the Completion in state it owns
    //! (the net front door's request slot, Future's state) and keeps it
    //! alive until it fired; the hooks must not throw and must not block
    //! the resolving thread for long.
    //!
    //! A WorkerLostError fires while the lost worker may still be running
    //! the request's kernel over its payload. A caller that reuses payload
    //! memory passes a release hook: the service calls it once that worker
    //! has let go of the payload (it finished and lost the batch claim).
    //! A worker that never returns never releases.
    class Completion
    {
    public:
        using Hook = void (*)(Completion&, std::exception_ptr) noexcept;
        using ReleaseHook = void (*)(Completion&) noexcept;

        explicit Completion(Hook hook, ReleaseHook release = nullptr) noexcept : hook_(hook), release_(release)
        {
        }
        //! The service holds the address: not copyable.
        Completion(Completion const&) = delete;
        auto operator=(Completion const&) -> Completion& = delete;

        void complete(std::exception_ptr error) noexcept
        {
            hook_(*this, std::move(error));
        }

        //! True when the caller wants release() after a WorkerLostError.
        [[nodiscard]] auto tracksRelease() const noexcept -> bool
        {
            return release_ != nullptr;
        }

        void release() noexcept
        {
            release_(*this);
        }

    private:
        Hook hook_;
        ReleaseHook release_;
    };

    //! One unit of client work against a registered template — the full
    //! submission surface. The plain submit(tmpl, tenant, payload)
    //! overloads construct the degenerate form (no deadline, empty
    //! token), which behaves exactly as before the resilience layer.
    struct Request
    {
        TemplateId tmpl = 0;
        //! Fairness/accounting domain; created on first use.
        std::string_view tenant;
        PayloadView payload;
        //! Absolute completion deadline: a request still queued past it
        //! is shed with DeadlineError at dispatch time; under overload,
        //! requests closest to (or past) their deadline are shed first.
        std::optional<std::chrono::steady_clock::time_point> deadline;
        CancelToken cancel;
        //! Trace correlation id (DESIGN.md §10): 0 = untraced. The net
        //! front door sets the wire reqId here, so the request's spans —
        //! frame decode on the poll thread, queue wait and execution on
        //! the serve workers, the completion hook — share one
        //! async-span id in the exported timeline. Untraced builds carry
        //! the field (it is plumbing, not trace code) but never read it.
        std::uint64_t traceId = 0;
        //! Where the outcome goes: nullptr (default) resolves through the
        //! serve::Future the submit returns; otherwise the service fires
        //! this Completion instead and returns no future.
        Completion* completion = nullptr;
    };

    //! One request handed to Service::post (DESIGN.md §6.2): its own
    //! Completion, which describes the request to the worker that admits
    //! it. The caller stores only what differs per request and builds the
    //! rest there (the net front door keeps template, reqId, deadline and
    //! payload length in its slot, and the tenant once per connection).
    //! describe() runs once, on the admitting worker, before either hook
    //! fires; it fills a default Request (the service sets its
    //! completion to this object) and must not throw. A posted request
    //! is a node of the service's intrusive posted list: the link below
    //! is the service's from post() until the admitting worker read it,
    //! so the list owns no memory of its own.
    class Posted : public Completion
    {
    public:
        using Describe = void (*)(Posted&, Request&) noexcept;

        Posted(Hook hook, ReleaseHook release, Describe describe) noexcept
            : Completion(hook, release)
            , describe_(describe)
        {
        }

        void describe(Request& request) noexcept
        {
            describe_(*this, request);
        }

    private:
        friend class Service;

        Describe describe_;
        Posted* next_ = nullptr;
    };

    //! What Service::shutdown(timeout) observed (the bounded-drain
    //! satellite): a clean report means every worker exited and joined
    //! within the timeout and no request was abandoned.
    struct ShutdownReport
    {
        bool clean = true;
        //! Worker threads that exited and were joined in time.
        std::size_t workersJoined = 0;
        //! Fleet slot indices of workers unresponsive within the timeout
        //! (their in-flight requests resolve with WorkerLostError; their
        //! threads are joined — unbounded — by the destructor).
        std::vector<std::size_t> stuckWorkers;
        //! Queued (never-dispatched) requests failed with CancelledError
        //! because no live worker remained to serve them.
        std::size_t abandonedQueued = 0;
        //! In-flight requests failed with WorkerLostError.
        std::size_t orphanedInFlight = 0;
    };

    //! One request of a dispatched batch, as the template's execution
    //! body sees it: the client's payload plus the request-scoped scratch
    //! block the service allocated from the worker device's memory pool
    //! (nullptr when the template declares scratchBytes == 0).
    struct RequestItem
    {
        void* payload = nullptr;
        //! Byte size of the payload view; 0 when the request was
        //! submitted as a bare pointer (the pre-view call sites).
        std::size_t payloadSize = 0;
        void* scratch = nullptr;
    };

    //! The coalesced batch a template execution runs over: 1 request when
    //! the service is idle, up to TemplateDesc::maxBatch under load.
    class BatchView
    {
    public:
        BatchView() = default;
        BatchView(RequestItem const* items, std::size_t count, std::size_t scratchBytes) noexcept
            : items_(items)
            , count_(count)
            , scratchBytes_(scratchBytes)
        {
        }

        [[nodiscard]] auto size() const noexcept -> std::size_t
        {
            return count_;
        }
        [[nodiscard]] auto operator[](std::size_t i) const noexcept -> RequestItem const&
        {
            return items_[i];
        }
        [[nodiscard]] auto scratchBytes() const noexcept -> std::size_t
        {
            return scratchBytes_;
        }

    private:
        RequestItem const* items_ = nullptr;
        std::size_t count_ = 0;
        std::size_t scratchBytes_ = 0;
    };

    class Service;

    //! Per-worker context a graph template's builder receives, once per
    //! worker stream at registration. The builder returns the Graph that
    //! is instantiated into that worker's graph::Exec; its node bodies
    //! reach the batch of the current replay through batch() — a stable
    //! cell the worker binds before every replay and clears after, both
    //! ordered with the replay on the worker's stream (invariant 15).
    class GraphContext
    {
    public:
        [[nodiscard]] auto workerIndex() const noexcept -> std::size_t
        {
            return workerIndex_;
        }
        //! True on a simulated-GPU worker (simDev() is valid), false on a
        //! CPU worker (cpuDev() is valid).
        [[nodiscard]] auto onSim() const noexcept -> bool
        {
            return sim_;
        }
        [[nodiscard]] auto cpuDev() const -> dev::DevCpu
        {
            if(sim_)
                throw UsageError("serve::GraphContext::cpuDev() on a simulated-GPU worker");
            return cpuDev_;
        }
        [[nodiscard]] auto simDev() const -> dev::DevCudaSim
        {
            if(!sim_)
                throw UsageError("serve::GraphContext::simDev() on a CPU worker");
            return *simDev_;
        }
        //! Stable double-indirection to the replay's batch: dereference
        //! once inside a node body to get the BatchView bound to the
        //! replay currently executing on this worker.
        [[nodiscard]] auto batch() const noexcept -> BatchView const* const*
        {
            return cell_;
        }

    private:
        friend class Service;
        GraphContext(
            std::size_t workerIndex,
            dev::DevCpu cpuDev,
            std::optional<dev::DevCudaSim> simDev,
            BatchView const* const* cell) noexcept
            : workerIndex_(workerIndex)
            , sim_(simDev.has_value())
            , cpuDev_(cpuDev)
            , simDev_(simDev)
            , cell_(cell)
        {
        }

        std::size_t workerIndex_;
        bool sim_;
        dev::DevCpu cpuDev_;
        std::optional<dev::DevCudaSim> simDev_;
        BatchView const* const* cell_;
    };

    //! A request template, registered once and lowered ahead of any
    //! traffic. Exactly one of {body, graph} must be set:
    //!
    //!  * body — single-kernel flavour: runs once per request of a batch,
    //!    parallelized over the batch through ONE pre-built ThreadPool
    //!    job per dispatch (threadpool::ThreadPool::PrebuiltJob, frozen
    //!    over [0, maxBatch) at registration). An exception thrown by
    //!    body fails only that request's future (invariant 15).
    //!  * graph — multi-node flavour: the builder is invoked once per
    //!    worker stream at registration and the returned Graph is
    //!    pre-instantiated into a graph::Exec; each dispatch is one
    //!    replay, whatever the batch size. An exception poisons the
    //!    replay (DESIGN.md §4.3) and fails every future of the batch.
    struct TemplateDesc
    {
        std::string name;
        //! Request-scoped scratch allocated per request from the worker
        //! device's mempool::Pool (allocAsync at dispatch, freeAsync after
        //! completion); 0 = none.
        std::size_t scratchBytes = 0;
        //! Largest batch one dispatch may coalesce; 1 disables batching
        //! for this template.
        std::size_t maxBatch = 1;
        std::function<void(RequestItem const&)> body;
        std::function<graph::Graph(GraphContext&)> graph;
    };

    //! \name introspection snapshot types (Service::stats())
    //! @{
    struct TenantStats
    {
        std::string tenant;
        std::size_t queued = 0; //!< admitted, not yet dispatched
        std::uint64_t admitted = 0;
        std::uint64_t completed = 0;
    };

    struct DevicePoolStats
    {
        std::string device;
        mempool::PoolStats pool;
    };

    struct ServiceStats
    {
        std::size_t queued = 0; //!< admitted, not yet dispatched
        std::size_t inFlight = 0; //!< dispatched, future not yet completed
        std::uint64_t admitted = 0;
        std::uint64_t rejected = 0;
        std::uint64_t completed = 0;
        std::uint64_t failed = 0; //!< completed with an error
        std::uint64_t batches = 0; //!< dispatches (>= 1 request each)
        //! \name resilience counters (DESIGN.md §7)
        //! @{
        std::uint64_t shedExpired = 0; //!< shed with DeadlineError
        std::uint64_t shedCancelled = 0; //!< shed with CancelledError
        std::uint64_t shedOverload = 0; //!< shed with OverloadError
        std::uint64_t workersLost = 0; //!< supervisor declared a worker lost
        std::uint64_t workerRestarts = 0; //!< replacement workers installed
        //! @}
        double requestsPerSecond = 0.0; //!< completed / lifetime
        LatencySnapshot latency;
        //! The raw histogram behind `latency` — the mergeable form the
        //! obs::Registry sums across shards (quantiles do not merge,
        //! buckets do; DESIGN.md §9.3).
        LatencyCounts latencyCounts;
        //! Admission→dispatch wait per request — the queue-pressure
        //! signal the autoscaling follow-on feeds on (DESIGN.md §10.4);
        //! recorded unconditionally (a metric, not a trace event).
        LatencySnapshot queueWait;
        LatencyCounts queueWaitCounts;
        //! The operator-declared queue-wait SLO budget
        //! (ServiceOptions::queueWaitBudget); 0 = unset.
        std::uint64_t queueWaitBudgetUs = 0;
        std::vector<TenantStats> tenants;
        //! One entry per distinct device of the worker fleet, via the
        //! coherent mempool::Pool::stats() snapshot.
        std::vector<DevicePoolStats> devicePools;
    };
    //! @}
} // namespace alpaka::serve
