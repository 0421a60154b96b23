#include "graph/exec.hpp"

#include "alpaka/core/trace.hpp"

#include <algorithm>

namespace alpaka::graph
{
    void Exec::PopBody::operator()(std::size_t /*index*/) const
    {
        self->runTicket(*scratch);
    }

    Exec::Exec(Graph const& graph, threadpool::ThreadPool& pool) : pool_(&pool)
    {
        auto const& src = graph.nodes();
        auto const nodeCount = src.size();
        nodes_.resize(nodeCount);
        firstSub_.resize(nodeCount);

        // Chunk grain of range (kernel) nodes: the pool's own rule of 8
        // chunks per participant (DESIGN.md §3.1), counting the driver —
        // it always helps run its own replay — beside the workers. Small
        // lumps let every thread in the pool, other streams' drivers
        // included, take a share of each replay: a 256-block node on a
        // 1-worker pool becomes 16 subtasks of 16 blocks.
        // Never below minChunkGrain blocks per subtask: submission-bound
        // graphs (tiny grids) must not pay a ring push/pop per block, and
        // spreading an 8-block kernel over 16 workers buys nothing.
        auto const participants = pool.workerCount() + 1;
        constexpr std::size_t minChunkGrain = 8;

        std::vector<std::vector<NodeId>> successors(nodeCount);
        for(std::size_t i = 0; i < nodeCount; ++i)
        {
            auto const& from = src[i];
            auto& node = nodes_[i];
            node.body = from.body;
            node.range = from.range;
            node.always = from.always;
            if(from.prologue != nullptr)
                prologues_.push_back(from.prologue);
            // Event records (prologue-re-armed shared events) and graph
            // memory nodes (one reserved address for every replay,
            // invariant 12) are shared replay infrastructure: replays of
            // a graph carrying them must not overlap.
            if(from.prologue != nullptr || from.kind == NodeKind::Alloc || from.kind == NodeKind::Free)
                serializeReplays_ = true;

            // Dedupe dependencies: a duplicate edge must not count twice
            // against the indegree.
            auto deps = from.deps;
            std::sort(deps.begin(), deps.end());
            deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
            node.initialIndeg = static_cast<std::uint32_t>(deps.size());
            for(auto const dep : deps)
                successors[dep].push_back(static_cast<NodeId>(i));
            if(deps.empty())
                initialReady_.push_back(static_cast<NodeId>(i));

            // Subtask expansion: range nodes split into chunks, everything
            // else is one subtask.
            firstSub_[i] = static_cast<std::uint32_t>(subtasks_.size());
            if(from.range != nullptr && from.rangeCount > 0)
            {
                auto const grain = std::max(minChunkGrain, from.rangeCount / (participants * 8));
                std::uint32_t count = 0;
                for(std::size_t begin = 0; begin < from.rangeCount; begin += grain)
                {
                    subtasks_.push_back(
                        SubTask{static_cast<NodeId>(i), begin, std::min(begin + grain, from.rangeCount)});
                    ++count;
                }
                node.subCount = count;
            }
            else
            {
                subtasks_.push_back(SubTask{static_cast<NodeId>(i), 0, 0});
                node.subCount = 1;
            }
        }

        // Successor CSR.
        std::size_t edgeCount = 0;
        for(auto const& list : successors)
            edgeCount += list.size();
        succ_.reserve(edgeCount);
        for(std::size_t i = 0; i < nodeCount; ++i)
        {
            nodes_[i].succBegin = static_cast<std::uint32_t>(succ_.size());
            succ_.insert(succ_.end(), successors[i].begin(), successors[i].end());
            nodes_[i].succEnd = static_cast<std::uint32_t>(succ_.size());
        }
    }

    auto Exec::acquireScratch() -> std::unique_ptr<ReplayScratch>
    {
        {
            std::scoped_lock lock(scratchMutex_);
            if(!scratchPool_.empty())
            {
                auto scratch = std::move(scratchPool_.back());
                scratchPool_.pop_back();
                return scratch;
            }
        }
        // First use (or one more concurrent replay than ever before):
        // allocate a fresh working set. The pop body must hold a stable
        // pointer to its scratch, so wire it after construction.
        auto scratch = std::make_unique<ReplayScratch>();
        scratch->indeg = std::make_unique<Counter[]>(nodes_.size());
        scratch->pending = std::make_unique<Counter[]>(nodes_.size());
        scratch->ring = std::make_unique<std::atomic<std::uint32_t>[]>(subtasks_.size());
        scratch->popBody = PopBody{this, scratch.get()};
        scratch->job = pool_->prebuild(subtasks_.size(), scratch->popBody);
        return scratch;
    }

    void Exec::releaseScratch(std::unique_ptr<ReplayScratch> scratch)
    {
        std::scoped_lock lock(scratchMutex_);
        scratchPool_.push_back(std::move(scratch));
    }

    void Exec::run()
    {
        if(subtasks_.empty())
            return;
        // Concurrent replays each work on their own scratch; the frozen
        // DAG is shared read-only (invariant 10 applies per replay).
        // Graphs with shared replay infrastructure serialize instead —
        // see the header comment.
        std::unique_lock serial(serialMutex_, std::defer_lock);
        if(serializeReplays_)
            serial.lock();
        ALPAKA_TRACE_SCOPE("graph.replay", subtasks_.size());
        auto scratch = acquireScratch();

        for(auto const& prologue : prologues_)
            prologue();
        scratch->poisoned.store(false, std::memory_order_relaxed);
        for(std::size_t i = 0; i < nodes_.size(); ++i)
        {
            scratch->indeg[i].value.store(nodes_[i].initialIndeg, std::memory_order_relaxed);
            scratch->pending[i].value.store(nodes_[i].subCount, std::memory_order_relaxed);
        }
        for(std::size_t t = 0; t < subtasks_.size(); ++t)
            scratch->ring[t].store(0, std::memory_order_relaxed);
        scratch->popTicket.store(0, std::memory_order_relaxed);
        // No participant is in flight on THIS scratch yet (the pool hands
        // a scratch to one replay at a time), so the relaxed resets above
        // cannot race; the job publication below releases them.
        scratch->pushCursor.store(0, std::memory_order_relaxed);
        for(auto const node : initialReady_)
            pushNode(*scratch, node);

        pool_->runPrebuilt(scratch->job);
        try
        {
            scratch->errors.rethrowIfSetAndClear();
        }
        catch(...)
        {
            releaseScratch(std::move(scratch));
            throw;
        }
        releaseScratch(std::move(scratch));
    }

    void Exec::pushNode(ReplayScratch& scratch, NodeId node)
    {
        auto const first = firstSub_[node];
        auto const count = nodes_[node].subCount;
        for(std::uint32_t k = 0; k < count; ++k)
        {
            // Relaxed claim is sound (litmus: graph/*_ready_ring): RMW
            // atomicity alone makes every pos unique, and the consumer
            // never reads the cursor — the slot's release store below is
            // the only publication edge it synchronizes on.
            auto const pos = scratch.pushCursor.fetch_add(1, std::memory_order_relaxed);
            scratch.ring[pos].store(first + k + 1, std::memory_order_release);
        }
        // Advertise once per node — the shared notify-eliding protocol
        // (threadpool::detail::PublishWord) covers the release-stores
        // above.
        scratch.readyWord.publish();
    }

    void Exec::runTicket(ReplayScratch& scratch)
    {
        // Relaxed ticket claim, same argument as pushNode's cursor: RMW
        // atomicity gives each participant a distinct slot; the acquire
        // load of the slot below carries all the ordering (litmus:
        // graph/*_ready_ring — the ISA2 chain push→publish→consume).
        auto const ticket = scratch.popTicket.fetch_add(1, std::memory_order_relaxed);
        auto& slot = scratch.ring[ticket];
        std::uint32_t id = 0;
        int spins = spinBudget_;
        for(;;)
        {
            auto const seq = scratch.readyWord.snapshot();
            id = slot.load(std::memory_order_acquire);
            if(id != 0)
                break;
            // Not pushed yet: some predecessor subtask is still in flight
            // on another participant (the DAG guarantees a filled slot
            // otherwise — see DESIGN.md §4.3), so spin briefly, then park
            // on the ring's publish word.
            if(spins-- > 0)
                threadpool::detail::cpuRelax();
            else
            {
                scratch.readyWord.park(seq);
                spins = spinBudget_;
            }
        }

        auto const& sub = subtasks_[id - 1];
        auto const& node = nodes_[sub.node];
        if(!scratch.poisoned.load(std::memory_order_acquire) || node.always)
        {
            try
            {
                if(node.range != nullptr)
                    node.range(sub.begin, sub.end);
                else if(node.body != nullptr)
                    node.body();
            }
            catch(...)
            {
                scratch.errors.captureCurrent();
                scratch.poisoned.store(true, std::memory_order_release);
            }
        }
        // Bookkeeping runs even on a poisoned replay: every ticket must be
        // served or the pops would starve.
        if(scratch.pending[sub.node].value.fetch_sub(1, std::memory_order_acq_rel) == 1)
            completeNode(scratch, sub.node);
    }

    void Exec::completeNode(ReplayScratch& scratch, NodeId node)
    {
        auto const& done = nodes_[node];
        for(auto s = done.succBegin; s < done.succEnd; ++s)
        {
            auto const succ = succ_[s];
            if(scratch.indeg[succ].value.fetch_sub(1, std::memory_order_acq_rel) == 1)
                pushNode(scratch, succ);
        }
    }
} // namespace alpaka::graph
