/// \file serve::Service — the kernel-as-a-service runtime (DESIGN.md §6).
///
/// Everything below this layer prices ONE client's work: the launch
/// engine makes a kernel launch nearly free (§3), graphs replay a frozen
/// pipeline for one pool job (§4), the memory pool recycles scratch
/// without serializing a stream (§5). A service has MANY clients, and
/// composing the layers under sustained concurrent load is its own
/// problem: admission must be bounded (a million users cannot all be "in
/// the queue"), dispatch must be fair across tenants (one chatty client
/// must not starve the rest), and per-request submission cost must be
/// amortized when traffic bursts (batching). serve::Service is that
/// composition:
///
///  * A fleet of worker streams spread over devices (DevCpu and any
///    number of DevCudaSim entries). Each worker owns its streams and
///    dispatches from its own thread, so the fleet's pool submissions
///    land in distinct ThreadPool job-ring slots (per-thread slot
///    affinity, §3.7) and overlap exactly like the paper's streams.
///  * Request templates, registered once and lowered ahead of traffic:
///    single-kernel templates freeze a threadpool PrebuiltJob over the
///    batch index space; graph templates pre-instantiate one graph::Exec
///    per worker (the builder sees each worker's device). Dispatch cost
///    is then independent of template complexity — the §4 replay story
///    carried to the serving layer.
///  * Bounded admission with per-tenant accounting, straight into the
///    tenant queues under the scheduling mutex: submit() fails fast
///    with AdmissionError when the global or per-tenant bound is hit,
///    submitFor() blocks up to a deadline for space (backpressure,
///    invariant 13). post() links requests into a list the workers take
///    instead, with one CAS; the workers admit them through the same
///    bounds and report every outcome, refusals included, to the
///    request's Completion (the wire path: admission leaves the poll
///    thread, and the lock it takes is its own worker's).
///  * Per-tenant fair scheduling: workers pick the next non-empty tenant
///    round-robin; one pick drains at most one template's maxBatch from
///    that tenant before the cursor moves on (invariant 14).
///  * Adaptive batching: a dispatch coalesces the run of same-template
///    requests at the head of the picked tenant's queue, capped by the
///    template's maxBatch. Batch size therefore tracks instantaneous
///    queue depth — 1 when idle (no artificial delay is ever added to a
///    lone request), growing toward maxBatch exactly when submission
///    cost matters, which is what amortizes it (§6.3).
///  * Request-scoped memory: scratchBytes per request come from the
///    worker device's mempool::Pool via allocAsync/freeAsync — steady
///    state serves every request from recycled blocks (§5).
///  * Completion via serve::Future (poll/wait/waitFor/then) or a
///    caller-owned serve::Completion (the wire path); a failing
///    request fails only its own future (invariant 15).
///  * Introspection: Service::stats() — queue depths per tenant,
///    in-flight count, throughput, a p50/p99 latency histogram snapshot
///    and the coherent per-device pool stats.
///  * Resilience (DESIGN.md §7): per-request deadlines and CancelTokens
///    shed doomed work at dispatch time (DeadlineError/CancelledError,
///    before any kernel runs); a supervisor thread heartbeat-monitors
///    the fleet, declares a stalled worker lost, fails its in-flight
///    requests with WorkerLostError and installs a replacement worker on
///    the same slot (fresh streams, re-lowered templates) so the fleet
///    degrades instead of wedging; a queue high-watermark sheds the
///    most-expired/oldest-deadline requests first (OverloadError) so
///    backpressure never becomes unbounded latency; shutdown(timeout)
///    drains with a bounded wait and reports stuck workers instead of
///    hanging. All of it is opt-in: with the default options (no
///    supervision, no watermark) and the plain submit overloads the
///    service behaves exactly as it did before the resilience layer.
#pragma once

#include "serve/future.hpp"
#include "serve/types.hpp"

#include "mempool/stream_ops.hpp"

#include "alpaka/stream.hpp"

#include "graph/exec.hpp"

#include "threadpool/spin.hpp"
#include "threadpool/thread_pool.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace alpaka::serve
{
    struct ServiceOptions
    {
        //! CPU worker streams (>= 1 worker total across both kinds).
        std::size_t cpuWorkers = 2;
        //! One simulated-GPU worker stream per entry; repeat a device for
        //! several workers on it.
        std::vector<dev::DevCudaSim> simDevs;
        //! Global admission bound: queued (admitted, undispatched)
        //! requests never exceed this (invariant 13).
        std::size_t queueCapacity = 1024;
        //! Per-tenant admission bound; 0 means queueCapacity.
        std::size_t tenantCapacity = 0;
        //! Bound on distinct tenants (their accounting records persist
        //! for the service lifetime); a submit naming a tenant beyond the
        //! bound is rejected with AdmissionError. 0 = unbounded.
        std::size_t maxTenants = 0;
        //! Execution substrate; nullptr = ThreadPool::global().
        threadpool::ThreadPool* pool = nullptr;
        //! A worker busy on one dispatch for longer than this is declared
        //! lost by the supervisor: its in-flight futures resolve with
        //! WorkerLostError and a replacement worker takes over the slot.
        //! The supervisor polls every stallTimeout / 4 (floor 1 ms).
        //! 0 (default) disables supervision — no supervisor thread runs,
        //! and a worker may legitimately block forever (exactly the
        //! pre-resilience behaviour).
        std::chrono::nanoseconds stallTimeout{0};
        //! Overload shedding: whenever the queued count exceeds this
        //! watermark, deadline-bearing requests are shed most-expired/
        //! oldest-deadline first (OverloadError) until the queue is back
        //! at the watermark. Requests without a deadline are never shed.
        //! 0 (default) disables shedding.
        std::size_t shedWatermark = 0;
        //! Advisory SLO: the queue-wait budget this service is operated
        //! against. Purely declarative — admission and shedding never
        //! read it — but it travels out through ServiceStats so the
        //! health model (obs::HealthModel, DESIGN.md §11.2) compares the
        //! windowed queue-wait p99 to the budget the OPERATOR set
        //! instead of a one-size-fits-all default. 0 = unset.
        std::chrono::microseconds queueWaitBudget{0};
    };

    class Service
    {
    public:
        using Options = ServiceOptions;

        explicit Service(Options options = {});
        //! Stops admission, finishes every already-admitted request (all
        //! futures complete), then joins the fleet.
        ~Service();

        Service(Service const&) = delete;
        auto operator=(Service const&) -> Service& = delete;

        //! Registers \p desc (see TemplateDesc for the two flavours) and
        //! lowers it for every worker: kernel templates are frozen into
        //! per-worker PrebuiltJobs, graph builders run once per worker and
        //! the Graphs are instantiated into per-worker graph::Exec
        //! objects. Callable any time, including while serving. \throws
        //! UsageError for an ill-formed descriptor (neither or both
        //! flavours set, maxBatch == 0).
        auto registerTemplate(TemplateDesc desc) -> TemplateId;

        //! Admits one request of \p tmpl for \p tenant (created on first
        //! use). Never waits for space: \throws AdmissionError when the
        //! global or tenant queue bound is reached or the service is
        //! shutting down.
        //! \throws UsageError for an unknown template id.
        auto submit(TemplateId tmpl, std::string_view tenant, void* payload) -> Future;

        //! Admits \p request — the full surface: deadline, CancelToken and
        //! Completion ride along (see Request). A request already expired
        //! or cancelled at submission is not queued; its future comes back
        //! pre-resolved with the typed error (its Completion fires inline).
        //! A request with a Completion returns an empty future.
        auto submit(Request const& request) -> Future;

        //! Blocking submit: waits up to \p timeout for queue space, then
        //! admits. \throws AdmissionError when the deadline expires first.
        auto submitFor(TemplateId tmpl, std::string_view tenant, void* payload, std::chrono::nanoseconds timeout)
            -> Future;

        //! Blocking submit of the full Request surface.
        auto submitFor(Request const& request, std::chrono::nanoseconds timeout) -> Future;

        //! Completion-only hand-off (DESIGN.md §6.2): links \p requests
        //! into this service's posted list with one CAS, for a worker,
        //! which has each describe itself and admits them exactly as
        //! submit() would (same bounds, tenant queues and shedding) at
        //! the top of its loop; a tenant's posted requests queue in post
        //! order, and a refusal ends its run (the rest of that tenant's
        //! run in the same pass is refused too), so no request overtakes
        //! an earlier one. Takes every request, never
        //! blocks and never spins: the list is bounded by the callers'
        //! Posted objects, not by a buffer of its own. Every request
        //! resolves exactly once through its completion, whatever
        //! happens: its own outcome once admitted; AdmissionError when a
        //! bound or the queue is full or the service is shutting down (a
        //! post after shutdown is refused on the caller's thread);
        //! UnknownTemplateError; DeadlineError or CancelledError (at
        //! admission or before dispatch); OverloadError; WorkerLostError.
        //! A posted Posted, and what its describe() reads, stays valid
        //! and unchanged until its completion fired: the list holds its
        //! address and its link.
        void post(std::span<Posted* const> requests);

        //! Blocks until no request is posted, queued, in flight, or
        //! resolving.
        void drain();

        //! Bounded shutdown (the drain-tolerates-a-dead-worker
        //! satellite): stops admission, then waits up to \p timeout for
        //! the fleet to finish the already-admitted work and exit. A
        //! worker unresponsive past the deadline is reported stuck and
        //! its in-flight requests resolve with WorkerLostError; if no
        //! live worker remains, still-queued requests resolve with
        //! CancelledError — every future resolves either way (invariant
        //! 16). Idempotent; the destructor calls it and then joins the
        //! remaining threads (a literally-infinite stall blocks the
        //! destructor — the report, not the join, is what is bounded:
        //! detaching would let a late worker touch freed service state).
        auto shutdown(std::chrono::nanoseconds timeout = std::chrono::seconds(5)) -> ShutdownReport;

        //! Coherent introspection snapshot (per-device pool stats come
        //! from mempool::Pool::stats(), the single-lock variant). Stats
        //! settle before a future resolves: once a caller's future has
        //! resolved, its request is counted in completed (and failed),
        //! and no longer in inFlight.
        [[nodiscard]] auto stats() const -> ServiceStats;

        [[nodiscard]] auto workerCount() const noexcept -> std::size_t
        {
            return workers_.size();
        }

    private:
        //! One request's outcome of an admission span (admit()).
        //! \p error == nullptr means the request was admitted (\p admitted
        //! is set) — or resolved on the spot with CancelledError or
        //! DeadlineError because it was already cancelled or expired. An
        //! admitted request resolves exactly once: through \p future, or,
        //! for a request carrying a Completion, through that (\p future
        //! stays empty). Otherwise \p error says why it was refused:
        //! AdmissionError when a queue bound was full or the service is
        //! stopping, UnknownTemplateError for an unknown template.
        struct Admission
        {
            Future future;
            std::exception_ptr error;
            bool admitted = false;

            //! Inside admit(): neither admitted nor refused yet.
            [[nodiscard]] auto waiting() const noexcept -> bool
            {
                return !admitted && error == nullptr;
            }
        };

        struct TemplateState;

        struct TenantState;

        static constexpr auto noDeadline = std::chrono::steady_clock::time_point::max();

        //! One admitted, not-yet-dispatched request.
        struct Pending
        {
            TemplateState* tmpl = nullptr;
            TenantState* tenant = nullptr;
            PayloadView payload;
            //! Fired exactly once (resolve()): the request's own
            //! Completion, or its self-owning Future::State.
            Completion* completion = nullptr;
            //! The request's Completion when it asked to hear when a lost
            //! worker lets go of the payload (Completion::release); never
            //! cleared, so the losing worker can still reach it after the
            //! winner's resolve() cleared completion.
            Completion* release = nullptr;
            std::chrono::steady_clock::time_point admitted;
            //! Shed with DeadlineError once passed; noDeadline = never.
            std::chrono::steady_clock::time_point deadline = noDeadline;
            //! Shed with CancelledError once cancelled (empty = never).
            CancelToken cancel;
            //! Request::traceId, carried so dispatch/completion close
            //! the async spans admission opened (DESIGN.md §10).
            std::uint64_t traceId = 0;
        };

        //! Fixed-capacity FIFO of one tenant's admitted requests, backed
        //! by a ring over a vector reserved once at tenant creation (the
        //! per-tenant admission bound). Unlike std::deque — whose chunk
        //! map churns a heap allocation every few dozen rotations —
        //! steady-state queueing through this ring never touches the
        //! heap (zero-allocation audit, DESIGN.md §8.9). Cells are built
        //! on first use and the ring restarts at cell 0 whenever it
        //! empties, so a tenant's queue touches only as many cells as it
        //! was ever deep, not its whole bound. Worker-side only: every
        //! access is under mutex_.
        class PendingFifo
        {
        public:
            explicit PendingFifo(std::size_t capacity) : capacity_(capacity)
            {
                buf_.reserve(capacity);
            }

            [[nodiscard]] auto size() const noexcept -> std::size_t
            {
                return tail_ - head_;
            }
            [[nodiscard]] auto empty() const noexcept -> bool
            {
                return head_ == tail_;
            }
            [[nodiscard]] auto front() noexcept -> Pending&
            {
                return at(0);
            }
            //! Element \p i positions behind the front.
            [[nodiscard]] auto at(std::size_t i) noexcept -> Pending&
            {
                return buf_[(head_ + i) % capacity_];
            }
            //! Capacity is enforced by admit()'s tenant bound check; a
            //! push never overflows. The ring reaches its cells in order,
            //! so a cell not built yet is the next one past the built ones
            //! (no reallocation: reserved).
            void pushBack(Pending&& p)
            {
                auto const cell = tail_ % capacity_;
                if(cell == buf_.size())
                    buf_.push_back(std::move(p));
                else
                    buf_[cell] = std::move(p);
                ++tail_;
            }
            void popFront()
            {
                front() = Pending{}; // drop the token ref now
                if(++head_ == tail_)
                    head_ = tail_ = 0;
            }
            //! Removes the element at logical index \p i by shifting the
            //! tail down — O(size), used only by overload shedding, which
            //! is already the exceptional path.
            auto takeAt(std::size_t i) -> Pending
            {
                Pending out = std::move(at(i));
                for(auto j = i; j + 1 < size(); ++j)
                    at(j) = std::move(at(j + 1));
                at(size() - 1) = Pending{};
                if(--tail_ == head_)
                    head_ = tail_ = 0;
                return out;
            }

        private:
            std::size_t capacity_;
            std::vector<Pending> buf_;
            std::size_t head_ = 0;
            std::size_t tail_ = 0;
        };

        struct TenantState
        {
            explicit TenantState(std::size_t queueCap) : queue(queueCap)
            {
            }

            std::string name;
            //! Its size is the tenant's depth (the per-tenant bound).
            PendingFifo queue;
            std::uint64_t admitted = 0; //!< under mutex_
            std::uint64_t completed = 0; //!< under mutex_
            //! Intrusive round-robin rotation hooks (under mutex_): a
            //! linked rotation beats a std::deque of pointers, whose
            //! chunk churn would allocate in the steady state.
            TenantState* nextActive = nullptr;
            bool inRotation = false;
        };

        //! One dispatch: a same-template run popped from one tenant.
        struct Batch
        {
            TemplateState* tmpl = nullptr;
            std::vector<Pending> requests;
        };

        //! A dispatched batch while a worker executes it. The claimed
        //! flag is the exactly-once handshake between the executing
        //! worker and the supervisor: whoever exchanges it to true owns
        //! resolving the futures and the in-flight accounting; the loser
        //! walks away (invariant 16). The supervisor claims when it
        //! declares the worker lost; a worker that later finishes anyway
        //! (it was stalled, not dead) loses the claim, discards its
        //! results and exits.
        struct InFlightBatch
        {
            Batch batch;
            std::atomic<bool> claimed{false};
        };

        //! A worker's heartbeat, shared (shared_ptr) between the worker
        //! thread, the supervisor and shutdown so it outlives any of
        //! them. busySinceNs is the steady-clock start of the dispatch
        //! currently executing (0 = idle): the supervisor declares the
        //! worker lost when now - busySinceNs exceeds stallTimeout.
        struct Beat
        {
            std::atomic<std::int64_t> busySinceNs{0};
            //! Set by the supervisor (or shutdown); the worker thread
            //! exits at the next check instead of serving on a slot that
            //! has been handed to its replacement.
            std::atomic<bool> lost{false};
            //! Set by the worker thread as its very last action; bounded
            //! joins poll this (std::thread has no timed join).
            std::atomic<bool> exited{false};
        };

        struct Worker
        {
            std::size_t index = 0;
            dev::DevCpu cpuDev{};
            std::optional<dev::DevCudaSim> simDev;
            //! Replay driver + CPU scratch timeline; the worker thread IS
            //! this stream's execution (synchronous stream), so template
            //! errors surface in the worker and never poison a queue.
            std::optional<stream::StreamCpuSync> driver;
            //! Scratch timeline of simulated-GPU workers.
            std::optional<stream::StreamCudaSimSync> simStream;
            mempool::Pool* pool = nullptr;
            //! Reused batch-item buffer of this worker's dispatches — the
            //! dispatch hot path performs no allocation of its own.
            std::vector<RequestItem> items;
            //! Reused per-request outcome buffer of execute().
            std::vector<std::exception_ptr> outcomes;
            //! One postedChunk of the list an admitPosted() pass took, as
            //! their Posted described them, and their outcomes (sized
            //! once, at construction, to postedChunk).
            std::vector<Request> posted;
            std::vector<Admission> postedOutcomes;
            std::shared_ptr<Beat> beat = std::make_shared<Beat>();
            //! The dispatch currently executing (set at pop, cleared at
            //! completion, both under mutex_); the supervisor reads it to
            //! claim a lost worker's work.
            std::shared_ptr<InFlightBatch> inFlight;
            //! Pool of this worker's InFlightBatch control blocks: an
            //! entry with use_count() == 1 (nobody else — supervisor or
            //! shutdown — still holds it) is recycled for the next
            //! dispatch, so the steady state allocates no batch state.
            std::vector<std::shared_ptr<InFlightBatch>> batchCache;
            std::thread thread;
        };

        //! Immutable description of one fleet slot (built once in the
        //! constructor): which devices and pool a worker on this slot
        //! uses. Template lowering and worker (re)construction read this
        //! instead of workers_, which restarts mutate under mutex_.
        struct SlotInfo
        {
            dev::DevCpu cpuDev{};
            std::optional<dev::DevCudaSim> simDev;
            mempool::Pool* pool = nullptr;
        };

        struct PerWorker;

        //! Stable per-(template, worker) callable of the kernel flavour's
        //! pre-built job: runs the body for its batch index, captures the
        //! request's error without ever throwing into the pool job.
        struct KernelRun
        {
            TemplateState const* tmpl = nullptr;
            PerWorker* per = nullptr;
            void operator()(std::size_t index) const;
        };

        //! Per-(template, worker-incarnation) lowered state (stable
        //! address, owned by TemplateState::incarnations for the template's
        //! lifetime): a slot's current incarnation hangs in
        //! TemplateState::perWorker; an executing worker pins its own
        //! pointer for the duration of a dispatch, and a replacement
        //! installing a fresh incarnation never frees the one a zombie (a
        //! stalled-but-alive predecessor) still executes against.
        struct PerWorker
        {
            //! The batch bound to the dispatch currently executing on
            //! this worker; written and cleared by the worker thread
            //! around the pool-job/replay, which orders the accesses of
            //! pool workers (invariant 15).
            BatchView const* cell = nullptr;
            KernelRun run{};
            std::vector<std::exception_ptr> itemErrors;
            threadpool::ThreadPool::PrebuiltJob job{};
            std::unique_ptr<graph::Exec> exec;
        };

        struct TemplateState
        {
            TemplateId id = 0;
            TemplateDesc desc;
            bool isGraph = false;
            //! The CURRENT lowered incarnation per fleet slot; a plain
            //! atomic pointer so a worker restart swaps in a re-lowered
            //! incarnation (fresh streams need fresh graph::Execs) while
            //! dispatches load lock-free. std::atomic<std::shared_ptr>
            //! would also work but its libstdc++ lock-bit protocol is
            //! opaque to TSan (and slower than a bare pointer load).
            std::vector<std::atomic<PerWorker*>> perWorker;
            //! Owns every incarnation this template ever lowered, current
            //! and superseded alike (appended under registryMutex_, never
            //! removed): a zombie worker may still be executing against a
            //! superseded incarnation, so none can be freed before the
            //! TemplateState itself dies with the service. Restarts are
            //! rare; the retired tail stays tiny.
            std::vector<std::unique_ptr<PerWorker>> incarnations;
        };

        //! Requests removed from the queues whose completions still await
        //! their typed error — resolved outside mutex_ (a completion may
        //! re-enter the service).
        struct Shed
        {
            Pending request;
            std::exception_ptr error;
        };

        //! Fires \p request's completion with \p error — the one
        //! resolution call of every site that holds a queued or
        //! dispatched request (worker, supervisor, shutdown, shed;
        //! preResolve fires a request's completion before it has a
        //! Pending). Called outside mutex_, after the request's stats
        //! settled; clears the pointer, so a request resolves once.
        static void resolve(Pending& request, std::exception_ptr error) noexcept;
        //! The one admission path: submit/submitFor (a span of one) and
        //! admitPosted land here. One clock read, one mutex_ section and
        //! one worker wake for the whole span; under the lock each
        //! request is checked against the global and tenant bounds and
        //! pushed into its tenant's queue, looking a run of same-tenant
        //! requests' tenant up once. \p out[i] receives request i's
        //! outcome. A tenant's requests queue in span order, and a
        //! refusal ends its run: the rest of the run is refused too.
        //! Every failure is a request's error (nothing throws but a
        //! too-short \p out, a UsageError); a span whose requests are all
        //! admitted allocates nothing. With \p spaceDeadline, requests
        //! refused for space wait on spaceCv_ up to the deadline and
        //! retry. Completions and refusals fire after mutex_ is released.
        void admit(
            std::span<Request const> requests,
            std::span<Admission> out,
            std::chrono::steady_clock::time_point const* spaceDeadline);
        //! Span of one: \returns the future or rethrows the refusal.
        auto admitOne(Request const& request, std::chrono::steady_clock::time_point const* spaceDeadline) -> Future;
        //! Refuses unknown templates and resolves requests already
        //! cancelled or expired at \p now (stats settle first).
        void preResolve(
            std::span<Request const> requests,
            std::span<Admission> out,
            std::chrono::steady_clock::time_point now);
        //! Takes the whole posted list with one CAS, reverses it into
        //! post order and admits it through admit(), postedChunk requests
        //! at a time; a refusal fires the request's completion. One
        //! worker at a time (admittingPosted_), so posted requests queue
        //! in post order.
        void admitPosted(Worker& worker);
        //! Reverses the newest-first posted list \p newestFirst in place;
        //! \returns its head in post order.
        [[nodiscard]] static auto inPostOrder(Posted* newestFirst) noexcept -> Posted*;
        //! Fires every request of the (newest-first) posted list \p head
        //! with AdmissionError \p why, in post order; each counts as
        //! rejected before its completion fires.
        void refusePosted(Posted* head, char const* why);
        //! Lock-free template lookup; nullptr for an unknown id.
        [[nodiscard]] auto templateFind(TemplateId id) -> TemplateState*;
        //! The tenant named \p name, created on first use. \throws
        //! AdmissionError past maxTenants. Caller holds mutex_.
        [[nodiscard]] auto tenantLocked(std::string_view name) -> TenantState*;
        [[nodiscard]] auto tenantCapacity() const noexcept -> std::size_t
        {
            return options_.tenantCapacity == 0 ? options_.queueCapacity : options_.tenantCapacity;
        }
        //! \name intrusive active-tenant rotation (caller holds mutex_)
        //! @{
        void activePush(TenantState* t) noexcept;
        [[nodiscard]] auto activePop() noexcept -> TenantState*;
        void activeErase(TenantState* t) noexcept;
        //! @}
        //! A recycled (or, before the cache warmed up, fresh) in-flight
        //! control block from \p worker's pool, claimed flag reset and
        //! batch cleared.
        [[nodiscard]] auto acquireBatch(Worker& worker) -> std::shared_ptr<InFlightBatch>;
        //! Pops the next batch into \p out (whose request buffer is
        //! reused across dispatches); doomed (expired/cancelled) head
        //! requests go to \p shed instead of the batch (dispatch-time
        //! shedding — they never reach kernel work). \returns false when
        //! no batch formed.
        [[nodiscard]] auto popBatchLocked(Batch& out, std::vector<Shed>& shed) -> bool;
        //! Moves overload victims (queued > watermark) into \p shed,
        //! most-expired/oldest-deadline first. Caller holds mutex_.
        void shedOverloadLocked(std::vector<Shed>& shed);
        //! Settles the shed requests' stats, then completes their
        //! futures (outside mutex_), then drops resolving_ (raised
        //! while popping them).
        void resolveShed(std::vector<Shed>& shed);
        //! Settles a dispatched batch's stats before its futures
        //! resolve: \p requests leave in-flight for resolving and count
        //! as completed, \p failures of them as failed. Caller holds
        //! mutex_; finishResolving() follows the resolution.
        void settleInFlightLocked(std::vector<Pending> const& requests, std::size_t failures);
        //! drain()'s predicate: nothing posted or being admitted from the
        //! posted list, and queued == in-flight == resolving == 0. Caller
        //! holds mutex_.
        [[nodiscard]] auto idleLocked() const -> bool;
        //! Drops resolving_ by \p count once those futures have
        //! resolved (their stats settled before) and wakes drain() if
        //! the service went idle. Takes mutex_.
        void finishResolving(std::size_t count);
        void workerLoop(Worker& worker);
        //! Lowers \p tmpl for slot \p slot (kernel job freeze or graph
        //! build + instantiate). Caller holds registryMutex_.
        //! The returned incarnation is owned by tmpl.incarnations.
        [[nodiscard]] auto lowerForSlot(TemplateState& tmpl, std::size_t slot) -> PerWorker*;
        //! Builds a (not yet started) worker for \p slot from slotInfo_.
        [[nodiscard]] auto makeWorker(std::size_t slot) const -> std::unique_ptr<Worker>;
        void supervisorLoop();
        //! One supervision sweep: detect stalled workers, fail their
        //! in-flight work typed, restart their slots.
        void superviseOnce();
        //! Runs \p batch on \p worker, filling worker.outcomes with the
        //! per-request results; completes NO futures (the claim winner
        //! does, in workerLoop or the supervisor).
        void execute(Worker& worker, Batch& batch);
        [[nodiscard]] auto allocScratch(Worker& worker, std::size_t bytes) -> void*;
        void freeScratch(Worker& worker, void* ptr);

        Options options_;
        threadpool::ThreadPool* pool_;
        std::chrono::steady_clock::time_point born_ = std::chrono::steady_clock::now();

        //! Registry: append-only under registryMutex_; TemplateState
        //! addresses are stable, so dispatch never needs this lock.
        mutable std::mutex registryMutex_;
        std::vector<std::unique_ptr<TemplateState>> templates_;
        //! Lock-free template lookup: registerTemplate publishes the
        //! state pointer here (release) and submit loads it (acquire) —
        //! the submit hot path never touches registryMutex_. Ids past the
        //! index capacity fall back to the locked lookup.
        static constexpr std::size_t templateIndexCapacity = 1024;
        std::vector<std::atomic<TemplateState*>> templateIndex_
            = std::vector<std::atomic<TemplateState*>>(templateIndexCapacity);

        //! Set once, by shutdown() under mutex_; admit() reads it under
        //! the same lock, so an admission either queued before the store
        //! (and shutdown's sweep sees it) or refuses. Atomic only for the
        //! worker's lock-free park check.
        std::atomic<bool> stop_{false};
        //! post()'s intrusive list (litmus: serve/*_posted_list): newest
        //! first through Posted::next_. post() links its span locally and
        //! pushes it with one CAS (release); a worker's admitPosted()
        //! takes the whole list with one CAS to nullptr (acquire).
        //! shutdown() swaps in the closed mark (a Posted no caller owns):
        //! a post that finds it refuses inline.
        alignas(64) std::atomic<Posted*> postedHead_{nullptr};
        //! Held by the one worker in admitPosted() (and by shutdown while
        //! it refuses what its swap took): raised before the take, dropped
        //! (release) once what it took is admitted, so a reader that saw
        //! the list empty and then this clear sees what those requests
        //! queued (litmus: serve/*_posted_idle).
        std::atomic<bool> admittingPosted_{false};
        //! Requests one admitPosted() admission span covers at most.
        static constexpr std::size_t postedChunk = 64;
        //! Admitted, undispatched requests (the tenant queues' total),
        //! checked against the global bound and written only under
        //! mutex_. Atomic only for the lock-free readers: the worker's
        //! park check and idleLocked's read order.
        alignas(64) std::atomic<std::size_t> queued_{0};
        std::atomic<std::uint64_t> admitted_{0};
        std::atomic<std::uint64_t> rejected_{0};
        //! Worker wake word: admit() publishes after its mutex_ section
        //! (a woken worker finds the lock free), post() after its push;
        //! workers snapshot-check-spin-park.
        threadpool::detail::PublishWord workWord_;
        //! Checks of workWord_ an idle worker makes before it parks
        //! (zero on one hardware thread, like ThreadPool's).
        int const spinBudget_ = threadpool::detail::machineSpinBudget();

        //! Scheduling state under one mutex (short critical sections:
        //! admission's bound checks and queue pushes, queue moves and
        //! counter updates — execution never holds it). On the wire path
        //! the admitting thread is the shard's own worker, so the lock is
        //! uncontended there.
        mutable std::mutex mutex_;
        std::condition_variable spaceCv_; //!< blocking submitters: space freed
        std::condition_variable idleCv_; //!< drain(): everything completed
        //! Heterogeneous lookup: a string_view finds its tenant without
        //! building a std::string.
        struct NameHash
        {
            using is_transparent = void;
            auto operator()(std::string_view name) const noexcept -> std::size_t
            {
                return std::hash<std::string_view>{}(name);
            }
        };
        std::unordered_map<std::string, std::unique_ptr<TenantState>, NameHash, std::equal_to<>> tenants_;
        std::vector<TenantState*> tenantOrder_; //!< creation order (stats)
        //! Tenants with a non-empty queue, in round-robin rotation
        //! (intrusive list through TenantState::nextActive): a tenant
        //! enters at the back on its 0→1 queue transition, the scheduler
        //! pops the front and re-appends it while non-empty. Dispatch
        //! therefore never scans idle tenants — O(1) per pick however
        //! many tenants exist.
        TenantState* activeHead_ = nullptr;
        TenantState* activeTail_ = nullptr;
        std::size_t inFlight_ = 0;
        //! Requests whose stats have settled but whose futures are still
        //! being resolved outside the lock; drain() waits for zero so a
        //! returned drain() always means every future has resolved.
        std::size_t resolving_ = 0;
        std::uint64_t completed_ = 0;
        std::uint64_t failed_ = 0;
        std::uint64_t batches_ = 0;
        std::uint64_t shedExpired_ = 0;
        std::uint64_t shedCancelled_ = 0;
        std::uint64_t shedOverload_ = 0;
        std::uint64_t workersLost_ = 0;
        std::uint64_t workerRestarts_ = 0;
        bool shutdownRan_ = false;

        LatencyHistogram latency_;
        //! Admission→dispatch wait (one record per request at batch
        //! pop, timed off the pop's existing clock read — the hot path
        //! gains two relaxed atomics and no clock call).
        LatencyHistogram queueWait_;
        //! Fixed-size fleet: a restart replaces workers_[i] in place
        //! (under mutex_) and retires the predecessor to zombies_, whose
        //! thread may still be unwinding a stall — its Worker must stay
        //! alive (stable address) until the destructor joins it.
        std::vector<std::unique_ptr<Worker>> workers_;
        std::vector<std::unique_ptr<Worker>> zombies_;
        std::vector<SlotInfo> slotInfo_;
        std::condition_variable superviseCv_; //!< supervisor: stop/poke
        std::thread supervisor_;
    };
} // namespace alpaka::serve
