#include "serve/service.hpp"

#include "alpaka/core/fault.hpp"
#include "alpaka/core/trace.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <functional>
#include <utility>

namespace alpaka::serve
{
    namespace
    {
        //! Steady-clock now as int64 ns — the heartbeat wire format.
        auto nowNs() noexcept -> std::int64_t
        {
            return std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now().time_since_epoch())
                .count();
        }

        void neverFires(Completion& /*completion*/, std::exception_ptr /*error*/) noexcept
        {
        }

        void describesNothing(Posted& /*posted*/, Request& /*request*/) noexcept
        {
        }

        //! The posted list's closed mark: shutdown swaps its address into
        //! the list head. No caller owns it, so no post can link it, and
        //! nobody ever fires or describes it.
        Posted closedMark{&neverFires, nullptr, &describesNothing};
    } // namespace

    // ------------------------------------------------------------------
    // construction / shutdown

    Service::Service(Options options) : options_(std::move(options))
    {
        pool_ = options_.pool != nullptr ? options_.pool : &threadpool::ThreadPool::global();
        if(options_.queueCapacity == 0)
            throw UsageError("serve::Service: queueCapacity must be >= 1");
        auto const workerCount = options_.cpuWorkers + options_.simDevs.size();
        if(workerCount == 0)
            throw UsageError("serve::Service: the fleet needs at least one worker stream");

        slotInfo_.reserve(workerCount);
        for(std::size_t w = 0; w < options_.cpuWorkers; ++w)
        {
            SlotInfo info;
            info.pool = &mempool::Pool::forDev(info.cpuDev);
            slotInfo_.push_back(info);
        }
        for(auto const& dev : options_.simDevs)
        {
            SlotInfo info;
            info.simDev = dev;
            info.pool = &mempool::Pool::forDev(dev);
            slotInfo_.push_back(info);
        }

        workers_.reserve(workerCount);
        for(std::size_t w = 0; w < workerCount; ++w)
            workers_.push_back(makeWorker(w));
        // Start the threads only after the fleet vector is complete (a
        // worker never touches another worker, but keeps things simple).
        for(auto& worker : workers_)
            worker->thread = std::thread([this, w = worker.get()] { workerLoop(*w); });
        if(options_.stallTimeout.count() > 0)
            supervisor_ = std::thread([this] { supervisorLoop(); });
    }

    auto Service::makeWorker(std::size_t slot) const -> std::unique_ptr<Worker>
    {
        auto const& info = slotInfo_[slot];
        auto worker = std::make_unique<Worker>();
        worker->index = slot;
        worker->cpuDev = info.cpuDev;
        worker->simDev = info.simDev;
        worker->driver.emplace(worker->cpuDev);
        if(info.simDev.has_value())
            worker->simStream.emplace(*info.simDev);
        worker->pool = info.pool;
        worker->posted.reserve(postedChunk);
        worker->postedOutcomes.resize(postedChunk);
        return worker;
    }

    Service::~Service()
    {
        if(!shutdownRan_)
        {
            // The destructor keeps the pre-resilience contract: every
            // admitted request finishes, however long it takes. Tests of
            // the bounded path call shutdown() themselves with a real
            // timeout and read the report.
            shutdown(std::chrono::hours(24));
        }
        for(auto& worker : workers_)
            if(worker != nullptr && worker->thread.joinable())
                worker->thread.join();
        for(auto& zombie : zombies_)
            if(zombie->thread.joinable())
                zombie->thread.join();
    }

    auto Service::shutdown(std::chrono::nanoseconds timeout) -> ShutdownReport
    {
        ShutdownReport report;
        auto const deadline = std::chrono::steady_clock::now() + timeout;
        {
            // Under mutex_: admit() and the cv waiters (spaceCv_,
            // superviseCv_) read stop_ under it, so an admission either
            // queued before this store, where the workers and the sweep
            // below find it, or refuses.
            std::scoped_lock lock(mutex_);
            stop_.store(true);
        }
        workWord_.publish();
        spaceCv_.notify_all();
        superviseCv_.notify_all();
        // Close the posted list (litmus: serve/*_posted_list): from the
        // swap on, a post refuses inline; what the swap took was never
        // admitted, and is refused as a post after stop is. Holding
        // admittingPosted_ keeps drain() and the worker exit check
        // waiting until those refusals fired (a worker's admission pass
        // is bounded, so this wait is too).
        while(admittingPosted_.exchange(true, std::memory_order_acquire))
            std::this_thread::yield();
        auto* const leftover = postedHead_.exchange(&closedMark, std::memory_order_acq_rel);
        refusePosted(leftover == &closedMark ? nullptr : leftover, "serve::Service: posted request refused at shutdown");
        admittingPosted_.store(false, std::memory_order_release);
        // The supervisor exits promptly on stop_; joining it first means
        // no restart mutates workers_ while we walk the fleet below.
        if(supervisor_.joinable())
            supervisor_.join();

        auto const waitExit = [&](Worker& worker) -> bool
        {
            while(!worker.beat->exited.load(std::memory_order_acquire))
            {
                if(std::chrono::steady_clock::now() >= deadline)
                    return false;
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
            return true;
        };

        for(auto& worker : workers_)
        {
            if(worker == nullptr || !worker->thread.joinable())
                continue;
            if(waitExit(*worker))
            {
                worker->thread.join();
                ++report.workersJoined;
                continue;
            }
            // Unresponsive within the bound: report it, stop it from ever
            // serving again, and resolve its in-flight futures typed so no
            // client blocks on a wedged worker (the thread itself is the
            // destructor's problem — detaching would risk a use after
            // free; see the header contract).
            report.clean = false;
            report.stuckWorkers.push_back(worker->index);
            worker->beat->lost.store(true, std::memory_order_release);
            std::shared_ptr<InFlightBatch> work;
            {
                std::scoped_lock lock(mutex_);
                work = worker->inFlight;
            }
            if(work != nullptr && !work->claimed.exchange(true, std::memory_order_acq_rel))
            {
                auto& requests = work->batch.requests;
                {
                    std::scoped_lock lock(mutex_);
                    settleInFlightLocked(requests, requests.size());
                }
                for(auto& request : requests)
                    resolve(
                        request,
                        std::make_exception_ptr(WorkerLostError(
                            "serve::Service: worker " + std::to_string(worker->index)
                            + " unresponsive at shutdown; request outcome unknown")));
                finishResolving(requests.size());
                report.orphanedInFlight += requests.size();
            }
        }
        for(auto& zombie : zombies_)
        {
            if(!zombie->thread.joinable())
                continue;
            if(waitExit(*zombie))
            {
                zombie->thread.join();
                ++report.workersJoined;
            }
            else
            {
                report.clean = false;
                report.stuckWorkers.push_back(zombie->index);
            }
        }

        // Whatever is still queued now has nobody left to serve it: every
        // joinable worker exited (and drained while it could) or is stuck
        // with its lost flag set. Resolve the leftovers so invariant 16
        // holds across shutdown too.
        std::vector<Pending> abandoned;
        {
            std::scoped_lock lock(mutex_);
            for(auto* t : tenantOrder_)
            {
                while(!t->queue.empty())
                {
                    abandoned.push_back(std::move(t->queue.front()));
                    t->queue.popFront();
                }
                t->nextActive = nullptr;
                t->inRotation = false;
            }
            activeHead_ = nullptr;
            activeTail_ = nullptr;
            queued_.store(0, std::memory_order_relaxed);
            resolving_ += abandoned.size();
            completed_ += abandoned.size();
            failed_ += abandoned.size();
            for(auto const& pending : abandoned)
                ++pending.tenant->completed;
        }
        for(auto& pending : abandoned)
            resolve(
                pending,
                std::make_exception_ptr(
                    CancelledError("serve::Service: request abandoned at shutdown (no live worker remained)")));
        if(!abandoned.empty())
        {
            report.clean = false;
            report.abandonedQueued = abandoned.size();
            finishResolving(abandoned.size());
        }
        idleCv_.notify_all();
        {
            std::scoped_lock lock(mutex_);
            shutdownRan_ = true;
        }
        return report;
    }

    // ------------------------------------------------------------------
    // registration

    auto Service::lowerForSlot(TemplateState& tmpl, std::size_t slot) -> PerWorker*
    {
        auto const& info = slotInfo_[slot];
        auto per = std::make_unique<PerWorker>();
        if(tmpl.isGraph)
        {
            GraphContext ctx(slot, info.cpuDev, info.simDev, &per->cell);
            auto const graph = tmpl.desc.graph(ctx);
            per->exec = std::make_unique<graph::Exec>(graph, *pool_);
        }
        else
        {
            per->run = KernelRun{&tmpl, per.get()};
            per->itemErrors.resize(tmpl.desc.maxBatch);
            per->job = pool_->prebuild(tmpl.desc.maxBatch, per->run);
        }
        tmpl.incarnations.push_back(std::move(per));
        return tmpl.incarnations.back().get();
    }

    auto Service::registerTemplate(TemplateDesc desc) -> TemplateId
    {
        auto const hasBody = desc.body != nullptr;
        auto const hasGraph = desc.graph != nullptr;
        if(hasBody == hasGraph)
            throw UsageError("serve::Service::registerTemplate: exactly one of {body, graph} must be set");
        if(desc.maxBatch == 0)
            throw UsageError("serve::Service::registerTemplate: maxBatch must be >= 1");

        auto state = std::make_unique<TemplateState>();
        state->desc = std::move(desc);
        state->isGraph = hasGraph;
        // Lowering runs under registryMutex_ so a concurrent worker
        // restart (which re-lowers every template for its slot, also
        // under registryMutex_) sees either no entry or a fully lowered
        // one — never a template half-lowered across slots.
        std::scoped_lock lock(registryMutex_);
        state->perWorker = std::vector<std::atomic<PerWorker*>>(slotInfo_.size());
        for(std::size_t slot = 0; slot < slotInfo_.size(); ++slot)
            state->perWorker[slot].store(lowerForSlot(*state, slot), std::memory_order_release);
        state->id = static_cast<TemplateId>(templates_.size());
        auto const id = state->id;
        auto* const raw = state.get();
        templates_.push_back(std::move(state));
        // Publish to the lock-free index last: an acquire load through
        // templateIndex_ sees a fully lowered template.
        if(id < templateIndexCapacity)
            templateIndex_[id].store(raw, std::memory_order_release);
        return id;
    }

    auto Service::templateFind(TemplateId id) -> TemplateState*
    {
        // Hot path: one acquire load, no lock (zero-allocation audit —
        // submit never touches registryMutex_ once the template exists).
        if(id < templateIndexCapacity)
        {
            auto* const state = templateIndex_[id].load(std::memory_order_acquire);
            if(state != nullptr)
                return state;
        }
        std::scoped_lock lock(registryMutex_);
        return id < templates_.size() ? templates_[id].get() : nullptr;
    }

    // ------------------------------------------------------------------
    // admission

    auto Service::tenantLocked(std::string_view name) -> TenantState*
    {
        auto const it = tenants_.find(name);
        if(it != tenants_.end())
            return it->second.get();
        // Tenant records persist for accounting; the bound keeps a
        // churned tenant namespace from growing the service without
        // limit (invariant 13 extended to the tenant table).
        if(options_.maxTenants != 0 && tenants_.size() >= options_.maxTenants)
        {
            rejected_.fetch_add(1, std::memory_order_relaxed);
            throw AdmissionError(
                "serve::Service: tenant bound reached (" + std::to_string(tenants_.size()) + "/"
                + std::to_string(options_.maxTenants) + "), tenant '" + std::string(name) + "' not admitted");
        }
        auto state = std::make_unique<TenantState>(std::min(tenantCapacity(), options_.queueCapacity));
        state->name = std::string(name);
        auto* const raw = state.get();
        tenants_.emplace(raw->name, std::move(state));
        tenantOrder_.push_back(raw);
        return raw;
    }

    void Service::preResolve(
        std::span<Request const> requests,
        std::span<Admission> out,
        std::chrono::steady_clock::time_point now)
    {
        // A doomed request is marked admitted AND gets its typed error
        // first; it resolves only after the shed counters settled.
        std::size_t cancelled = 0;
        std::size_t expired = 0;
        for(std::size_t i = 0; i < requests.size(); ++i)
        {
            auto const& r = requests[i];
            if(templateFind(r.tmpl) == nullptr)
            {
                out[i].error = std::make_exception_ptr(
                    UnknownTemplateError("serve::Service: unknown template id " + std::to_string(r.tmpl)));
                continue;
            }
            if(r.cancel.cancelled())
            {
                out[i].error = std::make_exception_ptr(
                    CancelledError("serve::Service: request cancelled before admission"));
                ++cancelled;
            }
            else if(r.deadline.has_value() && *r.deadline <= now)
            {
                out[i].error
                    = std::make_exception_ptr(DeadlineError("serve::Service: deadline expired before admission"));
                ++expired;
            }
            else
                continue;
            out[i].admitted = true;
            if(r.completion == nullptr)
                out[i].future = Future(Future::makeState());
        }
        if(cancelled + expired == 0)
            return;
        {
            // Counted like a dispatch-time shed (resolveShed): a resolved
            // request always reads as completed and failed.
            std::scoped_lock lock(mutex_);
            shedCancelled_ += cancelled;
            shedExpired_ += expired;
            completed_ += cancelled + expired;
            failed_ += cancelled + expired;
        }
        for(std::size_t i = 0; i < requests.size(); ++i)
        {
            if(!out[i].admitted || out[i].error == nullptr)
                continue;
            auto* const completion
                = requests[i].completion != nullptr ? requests[i].completion : out[i].future.state_.get();
            completion->complete(std::exchange(out[i].error, nullptr));
        }
    }

    void Service::admit(
        std::span<Request const> requests,
        std::span<Admission> out,
        std::chrono::steady_clock::time_point const* spaceDeadline)
    {
        if(out.size() < requests.size())
            throw UsageError("serve::Service::submit: fewer outcome slots than requests");
        out = out.first(requests.size());
        for(auto& a : out)
            a = Admission{};
        try
        {
            // Fault site: admission itself fails (e.g. the tenant table
            // allocation dies) — once per span, before the lock: the
            // error reaches every submitter, nothing is queued.
            ALPAKA_FAULT_POINT("serve.admit");
        }
        catch(...)
        {
            for(auto& a : out)
                a.error = std::current_exception();
            return;
        }
        auto now = std::chrono::steady_clock::now();
        preResolve(requests, out, now);
        if(std::none_of(out.begin(), out.end(), [](Admission const& a) { return a.waiting(); }))
            return;
        std::size_t pushed = 0;
        std::vector<Shed> shed;
        std::unique_lock lock(mutex_);
        std::string reason;
        // shutdown() stores stop_ under this lock: once it is set, nothing
        // queues any more.
        while(!stop_.load(std::memory_order_relaxed))
        {
            // Queue each waiting request that fits both bounds; full is
            // the tenant of the first that found no room.
            auto queued = queued_.load(std::memory_order_relaxed);
            TenantState* full = nullptr;
            TenantState* t = nullptr;
            bool runRefused = false;
            for(std::size_t i = 0; i < requests.size(); ++i)
            {
                if(!out[i].waiting())
                    continue;
                auto const& r = requests[i];
                std::shared_ptr<Future::State> future;
                try
                {
                    if(t == nullptr || r.tenant != t->name)
                    {
                        runRefused = false;
                        t = tenantLocked(r.tenant);
                    }
                    if(r.completion == nullptr)
                        future = Future::makeState();
                }
                catch(...)
                {
                    out[i].error = std::current_exception(); // tenant bound (AdmissionError) or allocation
                    t = nullptr;
                    continue;
                }
                runRefused = runRefused || queued >= options_.queueCapacity || t->queue.size() >= tenantCapacity();
                if(runRefused)
                {
                    full = full != nullptr ? full : t;
                    continue;
                }
                // Traced requests open their cross-thread timeline here
                // (DESIGN.md §10): "serve.request" runs to completion,
                // "serve.queued" to dispatch pop. Untraced requests
                // (traceId 0) record nothing.
                if(r.traceId != 0)
                {
                    ALPAKA_TRACE_ASYNC_BEGIN("serve.request", r.traceId);
                    ALPAKA_TRACE_ASYNC_BEGIN("serve.queued", r.traceId);
                }
                Completion* completion = r.completion;
                if(completion == nullptr)
                {
                    future->self = future; // released as the future resolves
                    completion = future.get();
                }
                auto* const release
                    = r.completion != nullptr && r.completion->tracksRelease() ? r.completion : nullptr;
                t->queue.pushBack(Pending{
                    templateFind(r.tmpl),
                    t,
                    r.payload,
                    completion,
                    release,
                    now,
                    r.deadline.value_or(noDeadline),
                    r.cancel,
                    r.traceId});
                if(!t->inRotation)
                    activePush(t); // 0 -> 1: tenant (re)enters the rotation
                ++t->admitted;
                ++queued;
                ++pushed;
                out[i].admitted = true;
                if(future != nullptr)
                    out[i].future = Future(std::move(future));
            }
            queued_.store(queued, std::memory_order_relaxed);
            if(full == nullptr)
                break;
            // Full. Fail fast (no deadline) or wait for space and retry
            // (the one blocking path).
            if(spaceDeadline == nullptr)
            {
                reason = "serve::Service: admission queue full (queued " + std::to_string(queued) + "/"
                         + std::to_string(options_.queueCapacity) + ", tenant '" + full->name + "' "
                         + std::to_string(full->queue.size()) + "/" + std::to_string(tenantCapacity()) + ")";
                break;
            }
            if(pushed != 0)
                workWord_.publish(); // what this span queued must not wait for the space below
            auto const space = [&]
            {
                return stop_.load(std::memory_order_relaxed)
                       || (queued_.load(std::memory_order_relaxed) < options_.queueCapacity
                           && full->queue.size() < tenantCapacity());
            };
            if(!spaceCv_.wait_until(lock, *spaceDeadline, space))
            {
                reason = "serve::Service: admission deadline expired before queue space freed";
                break;
            }
            now = std::chrono::steady_clock::now();
        }
        if(stop_.load(std::memory_order_relaxed))
            reason = "serve::Service: submit while shutting down";
        if(!reason.empty())
        {
            auto const error = std::make_exception_ptr(AdmissionError(reason));
            for(auto& a : out)
                if(a.waiting())
                {
                    a.error = error;
                    rejected_.fetch_add(1, std::memory_order_relaxed);
                }
        }
        // Overload: shed most-expired first. Slow path by design — it
        // allocates, but a service past its watermark is already failing
        // its latency promise.
        if(pushed != 0 && options_.shedWatermark != 0
           && queued_.load(std::memory_order_relaxed) > options_.shedWatermark)
            shedOverloadLocked(shed);
        admitted_.fetch_add(pushed, std::memory_order_relaxed);
        lock.unlock();
        if(pushed == 0)
            return;
        workWord_.publish(); // wake a parked worker (elided when none is)
        resolveShed(shed);
    }

    auto Service::admitOne(Request const& request, std::chrono::steady_clock::time_point const* spaceDeadline)
        -> Future
    {
        Admission outcome;
        admit({&request, 1}, {&outcome, 1}, spaceDeadline);
        if(outcome.error != nullptr)
            std::rethrow_exception(outcome.error);
        return std::move(outcome.future);
    }

    auto Service::submit(TemplateId tmpl, std::string_view tenant, void* payload) -> Future
    {
        return admitOne(Request{tmpl, tenant, payload, std::nullopt, {}}, nullptr);
    }

    auto Service::submit(Request const& request) -> Future
    {
        return admitOne(request, nullptr);
    }

    auto Service::submitFor(
        TemplateId tmpl,
        std::string_view tenant,
        void* payload,
        std::chrono::nanoseconds timeout) -> Future
    {
        auto const deadline = std::chrono::steady_clock::now() + timeout;
        return admitOne(Request{tmpl, tenant, payload, std::nullopt, {}}, &deadline);
    }

    auto Service::submitFor(Request const& request, std::chrono::nanoseconds timeout) -> Future
    {
        auto const deadline = std::chrono::steady_clock::now() + timeout;
        return admitOne(request, &deadline);
    }

    void Service::post(std::span<Posted* const> requests)
    {
        if(requests.empty())
            return;
        // Link the span locally, newest first, then push it whole with
        // one CAS (release: the links and what describe() reads travel
        // with it; litmus: serve/*_posted_list).
        for(auto i = requests.size() - 1; i > 0; --i)
            requests[i]->next_ = requests[i - 1];
        auto* head = postedHead_.load(std::memory_order_relaxed);
        do
        {
            if(head == &closedMark)
            {
                requests.front()->next_ = nullptr;
                refusePosted(requests.back(), "serve::Service: post while shutting down");
                return;
            }
            requests.front()->next_ = head;
        } while(!postedHead_.compare_exchange_weak(
            head,
            requests.back(),
            std::memory_order_release,
            std::memory_order_relaxed));
        // Only the push that made the list non-empty wakes: a later one
        // lands in a list whose taker is already on its way.
        if(head == nullptr)
            workWord_.publish(); // wake a parked worker (elided when none is)
    }

    void Service::admitPosted(Worker& worker)
    {
        auto* head = postedHead_.load(std::memory_order_relaxed);
        if(head == nullptr || head == &closedMark || admittingPosted_.exchange(true, std::memory_order_acquire))
            return;
        // Take the whole list (acquire: the posters' links and slots;
        // release: a reader that sees it empty sees admittingPosted_ up;
        // litmus: serve/*_posted_list, serve/*_posted_idle). The closed
        // mark stays where it is.
        while(head != nullptr && head != &closedMark
              && !postedHead_.compare_exchange_weak(
                  head,
                  nullptr,
                  std::memory_order_acq_rel,
                  std::memory_order_relaxed))
        {
        }
        auto* list = inPostOrder(head == &closedMark ? nullptr : head);
        auto& requests = worker.posted;
        while(list != nullptr)
        {
            // Every link of this chunk is read before its admission fires
            // a completion, which hands the Posted back to its caller.
            for(; list != nullptr && requests.size() < postedChunk; list = list->next_)
            {
                auto& request = requests.emplace_back();
                list->describe(request);
                request.completion = list;
            }
            auto const out = std::span(worker.postedOutcomes).first(requests.size());
            admit(requests, out, nullptr);
            // A posted request's refusal is its outcome: it goes to the
            // completion, after admit() counted it rejected.
            for(std::size_t i = 0; i < requests.size(); ++i)
                if(!out[i].admitted)
                    requests[i].completion->complete(std::exchange(out[i].error, nullptr));
            requests.clear();
        }
        // Release: whoever sees this drop sees what the list queued
        // (litmus: serve/*_posted_idle).
        admittingPosted_.store(false, std::memory_order_release);
    }

    auto Service::inPostOrder(Posted* newestFirst) noexcept -> Posted*
    {
        Posted* list = nullptr;
        while(newestFirst != nullptr)
            list = std::exchange(newestFirst, std::exchange(newestFirst->next_, list));
        return list;
    }

    void Service::refusePosted(Posted* head, char const* why)
    {
        if(head == nullptr)
            return;
        auto const error = std::make_exception_ptr(AdmissionError(why));
        // Each link is read before its completion hands the Posted back.
        for(auto* list = inPostOrder(head); list != nullptr;)
        {
            rejected_.fetch_add(1, std::memory_order_relaxed);
            std::exchange(list, list->next_)->complete(error);
        }
    }

    // ------------------------------------------------------------------
    // scheduling

    void Service::activePush(TenantState* t) noexcept
    {
        t->nextActive = nullptr;
        t->inRotation = true;
        if(activeTail_ != nullptr)
            activeTail_->nextActive = t;
        else
            activeHead_ = t;
        activeTail_ = t;
    }

    auto Service::activePop() noexcept -> TenantState*
    {
        auto* const t = activeHead_;
        if(t == nullptr)
            return nullptr;
        activeHead_ = t->nextActive;
        if(activeHead_ == nullptr)
            activeTail_ = nullptr;
        t->nextActive = nullptr;
        t->inRotation = false;
        return t;
    }

    void Service::activeErase(TenantState* t) noexcept
    {
        TenantState* prev = nullptr;
        for(auto* it = activeHead_; it != nullptr; prev = it, it = it->nextActive)
        {
            if(it != t)
                continue;
            if(prev != nullptr)
                prev->nextActive = t->nextActive;
            else
                activeHead_ = t->nextActive;
            if(activeTail_ == t)
                activeTail_ = prev;
            t->nextActive = nullptr;
            t->inRotation = false;
            return;
        }
    }

    auto Service::acquireBatch(Worker& worker) -> std::shared_ptr<InFlightBatch>
    {
        for(auto& slot : worker.batchCache)
        {
            // use_count() == 1 means this worker's cache holds the only
            // reference: no supervisor or shutdown claim is outstanding,
            // so the block (and its request buffer's capacity) recycles.
            if(slot.use_count() == 1)
            {
                slot->claimed.store(false, std::memory_order_relaxed);
                slot->batch.tmpl = nullptr;
                slot->batch.requests.clear();
                return slot;
            }
        }
        auto fresh = std::make_shared<InFlightBatch>();
        if(worker.batchCache.size() < 8)
            worker.batchCache.push_back(fresh);
        return fresh;
    }

    auto Service::popBatchLocked(Batch& out, std::vector<Shed>& shed) -> bool
    {
        // Fairness (invariant 14): the picked tenant goes to the back of
        // the rotation whatever we take from it, and one pick never
        // exceeds the head template's maxBatch.
        auto* const t = activePop();
        if(t == nullptr)
            return false;
        out.tmpl = nullptr;
        out.requests.clear();
        auto const now = std::chrono::steady_clock::now();
        while(!t->queue.empty())
        {
            auto& head = t->queue.front();
            // Dispatch-time shedding: a cancelled or expired request is
            // dropped here, before any kernel work, whatever template it
            // belongs to — doomed work never gates batch formation.
            auto const cancelled = head.cancel.cancelled();
            if(cancelled || head.deadline <= now)
            {
                Shed s;
                s.request = std::move(head);
                s.error = cancelled
                              ? std::make_exception_ptr(
                                    CancelledError("serve::Service: request cancelled before dispatch"))
                              : std::make_exception_ptr(
                                    DeadlineError("serve::Service: deadline expired before dispatch"));
                shed.push_back(std::move(s));
                t->queue.popFront();
                queued_.store(queued_.load(std::memory_order_relaxed) - 1, std::memory_order_relaxed);
                ++resolving_;
                continue;
            }
            if(out.tmpl == nullptr)
                out.tmpl = head.tmpl;
            else if(head.tmpl != out.tmpl || out.requests.size() >= out.tmpl->desc.maxBatch)
                break;
            out.requests.push_back(std::move(head));
            t->queue.popFront();
        }
        if(!t->queue.empty())
            activePush(t);
        if(out.requests.empty())
        {
            out.tmpl = nullptr; // everything at the head was doomed
            return false;
        }
        // Queue-wait accounting rides the loop's one clock read: two
        // relaxed atomics per request, no extra now() (DESIGN.md §10.4).
        // Traced requests also close the "serve.queued" span opened at
        // admission — the timeline's queue-wait segment.
        for(auto const& p : out.requests)
        {
            auto const waitedUs
                = std::chrono::duration_cast<std::chrono::microseconds>(now - p.admitted).count();
            queueWait_.record(std::uint64_t(std::max<std::int64_t>(waitedUs, 0)));
            if(p.traceId != 0)
                ALPAKA_TRACE_ASYNC_END("serve.queued", p.traceId);
        }
        return true;
    }

    void Service::shedOverloadLocked(std::vector<Shed>& shed)
    {
        // Fail-fast the requests that are least likely to make their
        // deadline anyway: most-expired/oldest-deadline first. Requests
        // without a deadline made no latency promise to break, so they
        // are never shed — they queue and backpressure as before.
        while(queued_.load(std::memory_order_relaxed) > options_.shedWatermark)
        {
            TenantState* victimTenant = nullptr;
            std::size_t victimIndex = 0;
            auto victimDeadline = noDeadline;
            for(auto* t = activeHead_; t != nullptr; t = t->nextActive)
            {
                for(std::size_t i = 0; i < t->queue.size(); ++i)
                {
                    auto const& pending = t->queue.at(i);
                    if(pending.deadline < victimDeadline)
                    {
                        victimTenant = t;
                        victimIndex = i;
                        victimDeadline = pending.deadline;
                    }
                }
            }
            if(victimTenant == nullptr)
                return; // nothing sheddable; the hard capacity bound still holds
            Shed s;
            s.request = victimTenant->queue.takeAt(victimIndex);
            s.error = std::make_exception_ptr(OverloadError(
                "serve::Service: shed under overload (queued past watermark "
                + std::to_string(options_.shedWatermark) + ")"));
            shed.push_back(std::move(s));
            queued_.store(queued_.load(std::memory_order_relaxed) - 1, std::memory_order_relaxed);
            ++resolving_;
            if(victimTenant->queue.empty())
                activeErase(victimTenant);
        }
    }

    void Service::resolveShed(std::vector<Shed>& shed)
    {
        if(shed.empty())
            return;
        // Stats settle first (resolving_ was raised at the pop, so
        // drain() keeps waiting); then the futures, outside the lock (a
        // completion may re-enter the service); then resolving_ drops
        // — so a resolved future always reads settled stats, and drain()
        // returning always means the futures have resolved.
        {
            std::scoped_lock lock(mutex_);
            for(auto const& s : shed)
            {
                ++completed_;
                ++failed_;
                ++s.request.tenant->completed;
                try
                {
                    std::rethrow_exception(s.error);
                }
                catch(DeadlineError const&)
                {
                    ++shedExpired_;
                }
                catch(CancelledError const&)
                {
                    ++shedCancelled_;
                }
                catch(...)
                {
                    ++shedOverload_;
                }
            }
        }
        for(auto& s : shed)
        {
            if(s.request.traceId != 0)
            {
                // A shed request's timeline still closes: both spans end
                // here (the queued span was never closed at dispatch —
                // shed requests bypass popBatchLocked's accounting).
                ALPAKA_TRACE_ASYNC_END("serve.queued", s.request.traceId);
                ALPAKA_TRACE_ASYNC_END("serve.request", s.request.traceId);
            }
            resolve(s.request, s.error);
        }
        finishResolving(shed.size());
        spaceCv_.notify_all();
        shed.clear();
    }

    void Service::workerLoop(Worker& worker)
    {
#if defined(ALPAKA_REPRO_TRACE)
        char traceName[32];
        std::snprintf(traceName, sizeof(traceName), "serve.worker.%zu", worker.index);
        ALPAKA_TRACE_THREAD_NAME(traceName);
#endif
        std::vector<Shed> shed;
        for(;;)
        {
            if(worker.beat->lost.load(std::memory_order_acquire))
                break; // slot handed to a replacement; this thread is done
            // Park ticket BEFORE the work checks: a submitter publishing
            // after this snapshot makes the park below return immediately
            // (no lost wakeup — the snapshot-check-park protocol of
            // PublishWord).
            auto const ticket = workWord_.snapshot();
            admitPosted(worker);
            auto work = acquireBatch(worker);
            bool exit = false;
            bool popped = false;
            bool idle = false;
            {
                std::unique_lock lock(mutex_);
                if(stop_.load(std::memory_order_seq_cst) && postedHead_.load(std::memory_order_seq_cst) == &closedMark
                   && !admittingPosted_.load(std::memory_order_seq_cst)
                   && queued_.load(std::memory_order_seq_cst) == 0)
                {
                    // Stopped (no admission can queue any more: admit()
                    // checks stop_ under this lock), the posted list
                    // closed, nobody admitting from it and nothing queued
                    // (read in that order: litmus: serve/*_posted_idle).
                    exit = true;
                }
                else if(queued_.load(std::memory_order_relaxed) > 0)
                {
                    popped = popBatchLocked(work->batch, shed);
                    if(popped)
                    {
                        auto const count = work->batch.requests.size();
                        queued_.store(queued_.load(std::memory_order_relaxed) - count, std::memory_order_relaxed);
                        inFlight_ += count;
                        ++batches_;
                        worker.inFlight = work;
                        // Heartbeat: busy from here until the accounting
                        // below; the supervisor measures this window.
                        worker.beat->busySinceNs.store(nowNs(), std::memory_order_release);
                    }
                }
                // The posted requests this pass refused may have been the
                // last thing drain() waited for.
                idle = !popped && idleLocked();
            }
            spaceCv_.notify_all();
            if(idle)
                idleCv_.notify_all();
            resolveShed(shed);
            if(exit)
                break;
            if(!popped)
            {
                work.reset(); // back to the cache untouched
                if(stop_.load(std::memory_order_seq_cst) || queued_.load(std::memory_order_seq_cst) > 0)
                {
                    // Racing work (or a draining shutdown): re-check
                    // rather than park.
                    std::this_thread::yield();
                    continue;
                }
                // Spin on the wake word before parking: under load the
                // next request arrives within microseconds, and a parked
                // worker costs its submitter a FUTEX_WAKE. The ticket is
                // still the pre-check snapshot, so a publish landing
                // after it makes the park return at once.
                int spins = spinBudget_;
                while(spins > 0 && workWord_.snapshot() == ticket)
                {
                    threadpool::detail::cpuRelax();
                    --spins;
                }
                if(spins == 0)
                    workWord_.park(ticket);
                continue;
            }

            execute(worker, work->batch);

            // The exactly-once handshake (invariant 16): whoever flips
            // claimed owns the futures and the accounting. Losing means
            // the supervisor declared this worker lost mid-batch and
            // already resolved everything with WorkerLostError — this
            // thread is a zombie; its results are discarded and it exits.
            if(work->claimed.exchange(true, std::memory_order_acq_rel))
            {
                // The payloads are the callers' again from here: tell the
                // completions that asked (Completion::release).
                for(auto const& request : work->batch.requests)
                    if(request.release != nullptr)
                        request.release->release();
                break;
            }

            // Stats settle before any future resolves: the batch moves
            // from in-flight to resolving in one mutex_ section, so a
            // client woken by its future reads its request as completed,
            // while drain() keeps waiting until every future has resolved.
            auto const& outcomes = worker.outcomes;
            auto& requests = work->batch.requests;
            std::size_t failures = 0;
            auto const now = std::chrono::steady_clock::now();
            for(std::size_t i = 0; i < requests.size(); ++i)
            {
                if(outcomes[i] != nullptr)
                    ++failures;
                latency_.record(static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::microseconds>(now - requests[i].admitted).count()));
            }
            {
                std::scoped_lock lock(mutex_);
                worker.inFlight.reset();
                worker.beat->busySinceNs.store(0, std::memory_order_relaxed);
                settleInFlightLocked(requests, failures);
            }
            for(std::size_t i = 0; i < requests.size(); ++i)
            {
                if(requests[i].traceId != 0)
                    ALPAKA_TRACE_ASYNC_END("serve.request", requests[i].traceId);
                // A future's state drops its self-reference as it resolves,
                // not at this worker's next pop: an idle worker keeping its
                // last batch's states alive would make how many are alive
                // at once (what the recycling allocator's cache must
                // cover) depend on how that batch happened to form.
                resolve(requests[i], outcomes[i]);
            }
            finishResolving(requests.size());
        }
        worker.beat->exited.store(true, std::memory_order_release);
    }

    // ------------------------------------------------------------------
    // supervision

    void Service::supervisorLoop()
    {
        auto const interval
            = std::max(options_.stallTimeout / 4, std::chrono::nanoseconds(std::chrono::milliseconds(1)));
        std::unique_lock lock(mutex_);
        while(!stop_.load(std::memory_order_acquire))
        {
            superviseCv_.wait_for(lock, interval, [&] { return stop_.load(std::memory_order_relaxed); });
            if(stop_.load(std::memory_order_relaxed))
                return;
            lock.unlock();
            superviseOnce();
            lock.lock();
        }
    }

    void Service::superviseOnce()
    {
        struct LostWorker
        {
            std::size_t slot = 0;
            std::shared_ptr<InFlightBatch> work;
        };
        std::vector<LostWorker> lost;
        auto const now = nowNs();
        {
            std::scoped_lock lock(mutex_);
            for(auto& worker : workers_)
            {
                if(worker == nullptr)
                    continue; // slot went dark (a restart failed); served by the rest
                auto const busySince = worker->beat->busySinceNs.load(std::memory_order_acquire);
                if(busySince == 0 || now - busySince < options_.stallTimeout.count())
                    continue;
                // Claim before declaring lost: if the worker finished in
                // the meantime (or is finishing right now), the exchange
                // loses and the worker stays — stalled is a verdict on
                // the batch, and the batch owner is whoever claims it.
                auto work = worker->inFlight;
                if(work == nullptr || work->claimed.exchange(true, std::memory_order_acq_rel))
                    continue;
                worker->beat->lost.store(true, std::memory_order_release);
                ++workersLost_;
                lost.push_back(LostWorker{worker->index, std::move(work)});
                // The zombie keeps its Worker (stable address — its thread
                // still runs inside it); the slot frees for a replacement.
                zombies_.push_back(std::move(worker));
            }
        }
        if(lost.empty())
            return;

        for(auto const& l : lost)
        {
            // Stats settle first, then the futures (outside every lock),
            // then resolving_ drops: drain() must not return between the
            // two, and a resolved future must read settled stats.
            {
                std::scoped_lock lock(mutex_);
                settleInFlightLocked(l.work->batch.requests, l.work->batch.requests.size());
            }
            for(auto& request : l.work->batch.requests)
                resolve(
                    request,
                    std::make_exception_ptr(WorkerLostError(
                        "serve::Service: worker " + std::to_string(l.slot)
                        + " stalled past stallTimeout; request outcome unknown")));

            // Re-lower every template for the slot: the replacement gets
            // fresh streams, so graph templates need fresh graph::Execs;
            // the zombie still holds shared_ptrs to its old incarnations.
            std::unique_ptr<Worker> fresh;
            try
            {
                fresh = makeWorker(l.slot);
                std::scoped_lock rlock(registryMutex_);
                for(auto& tmpl : templates_)
                    tmpl->perWorker[l.slot].store(lowerForSlot(*tmpl, l.slot), std::memory_order_release);
            }
            catch(...)
            {
                // Replacement construction failed: the slot stays dark and
                // the remaining workers carry the traffic — degraded, not
                // wedged.
                fresh.reset();
            }

            if(fresh != nullptr)
            {
                std::scoped_lock lock(mutex_);
                auto* const raw = fresh.get();
                workers_[l.slot] = std::move(fresh);
                ++workerRestarts_;
                raw->thread = std::thread([this, raw] { workerLoop(*raw); });
            }
            finishResolving(l.work->batch.requests.size());
            workWord_.publish();
        }
    }

    // ------------------------------------------------------------------
    // execution

    void Service::KernelRun::operator()(std::size_t index) const
    {
        auto const* const view = per->cell;
        if(view == nullptr || index >= view->size())
            return; // the frozen job spans maxBatch; this dispatch is smaller
        if(per->itemErrors[index] != nullptr)
            return; // failed by the serve.kernel_throw site (execute())
        try
        {
            tmpl->desc.body((*view)[index]);
        }
        catch(...)
        {
            // Confinement (invariant 15): the error belongs to THIS
            // request; it must neither fail the pool job nor the batch.
            per->itemErrors[index] = std::current_exception();
        }
    }

    auto Service::allocScratch(Worker& worker, std::size_t bytes) -> void*
    {
        if(worker.simDev.has_value())
            return worker.pool->allocAsync(*worker.simStream, bytes);
        return worker.pool->allocAsync(*worker.driver, bytes);
    }

    void Service::freeScratch(Worker& worker, void* ptr)
    {
        if(worker.simDev.has_value())
            worker.pool->freeAsync(*worker.simStream, ptr);
        else
            worker.pool->freeAsync(*worker.driver, ptr);
    }

    void Service::execute(Worker& worker, Batch& batch)
    {
        auto& tmpl = *batch.tmpl;
        auto const count = batch.requests.size();
        // Per-batch span (amortized over up to maxBatch requests); the
        // per-request "serve.exec" async spans below only fire for
        // traced requests, so the untraced hot path pays 2 events per
        // BATCH, not per request (overhead budget, DESIGN.md §10.5).
        ALPAKA_TRACE_SCOPE("serve.batch", count);
        for(auto const& r : batch.requests)
            if(r.traceId != 0)
                ALPAKA_TRACE_ASYNC_BEGIN("serve.exec", r.traceId);
        auto const scratchBytes = tmpl.desc.scratchBytes;
        auto& items = worker.items;
        items.assign(count, RequestItem{});
        worker.outcomes.assign(count, nullptr);
        std::exception_ptr batchError; // setup or replay failure: fails every request of the batch
        std::size_t allocated = 0;
        // The slot's CURRENT incarnation, pinned for this dispatch: a
        // concurrent restart swaps the slot to a fresh incarnation, but
        // this worker (then a zombie) keeps executing against its own —
        // which stays alive in TemplateState::incarnations either way.
        auto* const per = tmpl.perWorker[worker.index].load(std::memory_order_acquire);

        try
        {
            // Fault site: dispatch dies before any per-request work —
            // the whole batch must fail typed, futures resolving once.
            ALPAKA_FAULT_POINT("serve.dispatch");
            for(std::size_t i = 0; i < count; ++i)
            {
                // Fault site: batch assembly fails midway (scratch
                // exhaustion is the realistic cause — compose with
                // "mempool.upstream_oom" to force the real path).
                ALPAKA_FAULT_POINT("serve.batch_build");
                items[i].payload = batch.requests[i].payload.data();
                items[i].payloadSize = batch.requests[i].payload.size();
                if(scratchBytes > 0)
                {
                    ALPAKA_TRACE_SCOPE("serve.scratch_alloc", scratchBytes);
                    items[i].scratch = allocScratch(worker, scratchBytes);
                    ++allocated;
                }
            }
            BatchView const view(items.data(), count, scratchBytes);
            // Bind -> run -> unbind, all on this worker thread: the pool
            // job publication (or the inline replay) orders the bind
            // before every body, the drain orders the unbind after
            // (invariant 15).
            per->cell = &view;
            // Fault site (delay rules): the worker stalls with work in
            // flight — the window the supervisor exists to detect.
            ALPAKA_FAULT_POINT("serve.worker_stall");
            if(tmpl.isGraph)
            {
                try
                {
                    per->exec->replay(*worker.driver);
                }
                catch(...)
                {
                    batchError = std::current_exception();
                }
            }
            else
            {
                // Fault site: a kernel body that throws — must fail
                // exactly this request's future, nothing else (invariant
                // 15). Hit here in batch order, not inside the parallel
                // job, so a seed fails the same requests however the
                // pool interleaves.
                for(std::size_t i = 0; i < count; ++i)
                {
                    try
                    {
                        ALPAKA_FAULT_POINT("serve.kernel_throw");
                    }
                    catch(...)
                    {
                        per->itemErrors[i] = std::current_exception();
                    }
                }
                pool_->runPrebuilt(per->job);
            }
        }
        catch(...)
        {
            batchError = std::current_exception();
        }
        per->cell = nullptr;

        // Request-scoped blocks go back stream-ordered; on the fleet's
        // synchronous streams the free point has passed, so the blocks are
        // instantly reusable by any worker.
        for(std::size_t i = 0; i < allocated; ++i)
            freeScratch(worker, items[i].scratch);

        for(std::size_t i = 0; i < count; ++i)
        {
            // Kernel-flavour per-item errors are consumed (and the slot
            // reset for the next dispatch) right here — no copy.
            auto const itemError
                = tmpl.isGraph ? std::exception_ptr{} : std::exchange(per->itemErrors[i], nullptr);
            worker.outcomes[i] = batchError != nullptr ? batchError : itemError;
        }
        for(auto const& r : batch.requests)
            if(r.traceId != 0)
                ALPAKA_TRACE_ASYNC_END("serve.exec", r.traceId);
    }

    // ------------------------------------------------------------------
    // introspection

    void Service::resolve(Pending& request, std::exception_ptr error) noexcept
    {
        std::exchange(request.completion, nullptr)->complete(std::move(error));
    }

    void Service::settleInFlightLocked(std::vector<Pending> const& requests, std::size_t failures)
    {
        inFlight_ -= requests.size();
        resolving_ += requests.size();
        completed_ += requests.size();
        failed_ += failures;
        for(auto const& request : requests)
            ++request.tenant->completed;
    }

    auto Service::idleLocked() const -> bool
    {
        // The list head, then admittingPosted_, then queued_ (each
        // acquire): a list taken by a worker is either still being
        // admitted, or what it queued is visible below (litmus:
        // serve/*_posted_idle).
        auto const* const head = postedHead_.load(std::memory_order_acquire);
        return (head == nullptr || head == &closedMark) && !admittingPosted_.load(std::memory_order_acquire)
               && queued_.load(std::memory_order_relaxed) == 0 && inFlight_ == 0 && resolving_ == 0;
    }

    void Service::finishResolving(std::size_t count)
    {
        bool idle = false;
        {
            std::scoped_lock lock(mutex_);
            resolving_ -= count;
            idle = idleLocked();
        }
        if(idle)
            idleCv_.notify_all();
    }

    void Service::drain()
    {
        std::unique_lock lock(mutex_);
        idleCv_.wait(lock, [&] { return idleLocked(); });
    }

    auto Service::stats() const -> ServiceStats
    {
        ServiceStats s;
        {
            std::scoped_lock lock(mutex_);
            s.queued = queued_.load(std::memory_order_relaxed);
            s.inFlight = inFlight_;
            s.admitted = admitted_.load(std::memory_order_relaxed);
            s.rejected = rejected_.load(std::memory_order_relaxed);
            s.completed = completed_;
            s.failed = failed_;
            s.batches = batches_;
            s.shedExpired = shedExpired_;
            s.shedCancelled = shedCancelled_;
            s.shedOverload = shedOverload_;
            s.workersLost = workersLost_;
            s.workerRestarts = workerRestarts_;
            s.tenants.reserve(tenantOrder_.size());
            for(auto const* t : tenantOrder_)
                s.tenants.push_back(TenantStats{t->name, t->queue.size(), t->admitted, t->completed});
        }
        auto const elapsed
            = std::chrono::duration<double>(std::chrono::steady_clock::now() - born_).count();
        s.requestsPerSecond = elapsed > 0.0 ? static_cast<double>(s.completed) / elapsed : 0.0;
        s.latencyCounts = latency_.counts();
        s.latency = s.latencyCounts.snapshot();
        s.queueWaitCounts = queueWait_.counts();
        s.queueWait = s.queueWaitCounts.snapshot();
        s.queueWaitBudgetUs = static_cast<std::uint64_t>(options_.queueWaitBudget.count());

        // One entry per distinct pool of the fleet, via the coherent
        // single-lock snapshot. slotInfo_ is immutable, so this never
        // races a worker restart.
        std::vector<mempool::Pool*> seen;
        for(auto const& info : slotInfo_)
        {
            if(std::find(seen.begin(), seen.end(), info.pool) != seen.end())
                continue;
            seen.push_back(info.pool);
            auto const name = info.simDev.has_value() ? info.simDev->getName() : info.cpuDev.getName();
            s.devicePools.push_back(DevicePoolStats{name, info.pool->stats()});
        }
        return s;
    }
} // namespace alpaka::serve
