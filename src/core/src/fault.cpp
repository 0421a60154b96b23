/// \file Fault-injection registry and seeded decision function (DESIGN.md §7.2).

#include "alpaka/core/fault.hpp"

#include "alpaka/core/hash.hpp"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <thread>

namespace alpaka::fault
{
    namespace detail
    {
        //! One armed (site, schedule, action). Owned jointly by the plan
        //! that installed it and any in-flight evaluate() that snapshotted
        //! it — a site hit races freely with plan destruction, so the
        //! registry hands out shared_ptrs and never frees under a hitter.
        struct Rule
        {
            std::string site;
            std::uint64_t seed;
            Trigger trigger;
            bool isDelay = false;
            std::chrono::nanoseconds delayFor{0};
            std::function<std::exception_ptr()> make;
            std::atomic<std::uint64_t> hits{0};
            std::atomic<std::uint64_t> fired{0};
        };

        namespace
        {
            struct Registry
            {
                std::mutex mutex;
                std::vector<std::shared_ptr<Rule>> rules; // installation order
            };

            auto registry() -> Registry&
            {
                static Registry r;
                return r;
            }
        } // namespace

        auto armedRules() noexcept -> std::atomic<int>&
        {
            static std::atomic<int> n{0};
            return n;
        }

        namespace
        {
            //! Process totals behind fault::totalHits/totalFires — the
            //! registry's fault-fire counters (DESIGN.md §10.4). Bumped
            //! only inside evaluate(), i.e. only while armed: the
            //! unarmed fast path stays one load.
            std::atomic<std::uint64_t> g_totalHits{0};
            std::atomic<std::uint64_t> g_totalFires{0};
        } // namespace

        void evaluate(char const* site)
        {
            g_totalHits.fetch_add(1, std::memory_order_relaxed);
            // Snapshot the matching rules, then act with the lock dropped:
            // a firing rule may sleep or throw, and a concurrent plan
            // destructor must never wait behind either.
            std::vector<std::shared_ptr<Rule>> matched;
            {
                auto& reg = registry();
                std::lock_guard<std::mutex> lock(reg.mutex);
                for(auto const& r : reg.rules)
                    if(r->site == site)
                        matched.push_back(r);
            }
            for(auto const& r : matched)
            {
                auto const hitIndex = r->hits.fetch_add(1, std::memory_order_relaxed) + 1;
                if(!Plan::decides(r->seed, r->site, r->trigger, hitIndex))
                    continue;
                // fetch_add first so concurrent hitters agree on who owns
                // each of the maxFires slots; overshoot simply doesn't act.
                if(r->fired.fetch_add(1, std::memory_order_relaxed) + 1 > r->trigger.maxFires)
                    continue;
                g_totalFires.fetch_add(1, std::memory_order_relaxed);
                if(r->isDelay)
                    std::this_thread::sleep_for(r->delayFor);
                else if(r->make)
                    std::rethrow_exception(r->make());
                else
                    throw InjectedFault("injected fault at site '" + r->site + "'");
            }
        }
    } // namespace detail

    auto totalHits() noexcept -> std::uint64_t
    {
        return detail::g_totalHits.load(std::memory_order_relaxed);
    }

    auto totalFires() noexcept -> std::uint64_t
    {
        return detail::g_totalFires.load(std::memory_order_relaxed);
    }

    auto Plan::envSeed() -> std::uint64_t
    {
        if(char const* const env = std::getenv("ALPAKA_STRESS_SEED"))
            return std::strtoull(env, nullptr, 0);
        return 0x5EDBA7C4ull;
    }

    Plan::Plan() : Plan(envSeed())
    {
    }

    Plan::Plan(std::uint64_t seed) : seed_(seed)
    {
    }

    Plan::~Plan()
    {
        auto& reg = detail::registry();
        std::lock_guard<std::mutex> lock(reg.mutex);
        for(auto const& mine : rules_)
            reg.rules.erase(std::remove(reg.rules.begin(), reg.rules.end(), mine), reg.rules.end());
        detail::armedRules().fetch_sub(static_cast<int>(rules_.size()), std::memory_order_release);
    }

    namespace
    {
        void install(std::shared_ptr<detail::Rule> rule, std::vector<std::shared_ptr<detail::Rule>>& mine)
        {
            auto& reg = detail::registry();
            {
                std::lock_guard<std::mutex> lock(reg.mutex);
                reg.rules.push_back(rule);
            }
            mine.push_back(std::move(rule));
            detail::armedRules().fetch_add(1, std::memory_order_release);
        }
    } // namespace

    auto Plan::fail(std::string_view site, Trigger trigger, std::function<std::exception_ptr()> make) -> Plan&
    {
        auto rule = std::make_shared<detail::Rule>();
        rule->site = std::string(site);
        rule->seed = seed_;
        rule->trigger = trigger;
        rule->make = std::move(make);
        install(std::move(rule), rules_);
        return *this;
    }

    auto Plan::delay(std::string_view site, std::chrono::nanoseconds duration, Trigger trigger) -> Plan&
    {
        auto rule = std::make_shared<detail::Rule>();
        rule->site = std::string(site);
        rule->seed = seed_;
        rule->trigger = trigger;
        rule->isDelay = true;
        rule->delayFor = duration;
        install(std::move(rule), rules_);
        return *this;
    }

    auto Plan::hits(std::string_view site) const -> std::uint64_t
    {
        std::uint64_t n = 0;
        for(auto const& r : rules_)
            if(r->site == site)
                n = std::max(n, r->hits.load(std::memory_order_relaxed));
        return n;
    }

    auto Plan::fires(std::string_view site) const -> std::uint64_t
    {
        std::uint64_t n = 0;
        for(auto const& r : rules_)
            if(r->site == site)
                n += std::min(r->fired.load(std::memory_order_relaxed), r->trigger.maxFires);
        return n;
    }

    auto Plan::decides(std::uint64_t seed, std::string_view site, Trigger const& trigger, std::uint64_t hitIndex)
        -> bool
    {
        if(hitIndex < trigger.nth)
            return false;
        if(trigger.period == 0)
        {
            if(hitIndex != trigger.nth)
                return false;
        }
        else if((hitIndex - trigger.nth) % trigger.period != 0)
            return false;
        if(trigger.probability >= 1.0)
            return true;
        if(trigger.probability <= 0.0)
            return false;
        // splitmix64 over the seed, the site's FNV-1a (stable across runs
        // and independent of other sites sharing the seed) and the hit.
        constexpr std::uint64_t golden = 0x9E3779B97F4A7C15ull;
        auto const x = core::mix64((seed ^ core::fnv1a(site) ^ (hitIndex * golden)) + golden);
        // 53 uniform mantissa bits in [0,1) against p — the standard
        // bit-exact uniform-double construction.
        return static_cast<double>(x >> 11) * 0x1.0p-53 < trigger.probability;
    }
} // namespace alpaka::fault
