#include "fleet.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace svb::load
{

namespace
{

/** The home node a function sticks to under Affinity routing:
 *  a SplitMix64-style avalanche so consecutive fn ids spread. */
unsigned
affinityHome(uint32_t fn, unsigned num_nodes)
{
    uint64_t h = uint64_t(fn) + 0x9E3779B97F4A7C15ull;
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    h ^= h >> 31;
    return unsigned(h % num_nodes);
}

void
validateClass(const NodeClass &k)
{
    svb_assert(!k.name.empty(), "FleetSpec class with an empty name");
    svb_assert(k.name.find_first_of(",|= \t") == std::string::npos,
               "FleetSpec class name '", k.name,
               "' contains a cache metacharacter or whitespace");
    svb_assert(k.speedFactor > 0.0, "node class '", k.name,
               "' needs a positive speed factor");
    svb_assert(k.costPerHour > 0.0, "node class '", k.name,
               "' needs a positive cost weight");
    svb_assert(k.watts > 0.0, "node class '", k.name,
               "' needs a positive power weight");
}

} // namespace

NodeClass
NodeClass::forIsa(const std::string &name_arg, IsaId isa)
{
    NodeClass k;
    k.name = name_arg;
    k.system = SystemConfig::paperConfig(isa);
    k.ownSystem = true;
    return k;
}

Fleet::Fleet(const FleetConfig &config, const PoolConfig &node_pool,
             unsigned num_fns)
    : cfg(config)
{
    if (!cfg.spec.empty()) {
        unsigned first = 0;
        for (const FleetGroup &g : cfg.spec.groups) {
            validateClass(g.klass);
            svb_assert(g.count >= 1, "FleetSpec group '", g.klass.name,
                       "' with zero nodes");
            groups.push_back({g.klass, first, g.count});
            first += g.count;
        }
        // Derive the scalar node count so downstream validation (and
        // the affinity hash) see the true fleet size.
        cfg.nodes = first;
    } else {
        // Legacy scalar adapter: one synthetic default-class group
        // spanning the fleet. Every group-ranged loop below then
        // degenerates to exactly the pre-class behaviour.
        svb_assert(cfg.nodes >= 1, "fleet needs at least one node");
        groups.push_back({NodeClass{}, 0, cfg.nodes});
    }
    for (const NodeFaultEvent &ev : cfg.nodeFaults) {
        svb_assert(ev.node < cfg.nodes, "node fault on unknown node ",
                   ev.node);
        svb_assert(ev.durationNs > 0, "node fault with zero duration");
    }

    nodes.reserve(cfg.nodes);
    scalers.reserve(groups.size());
    for (const Group &g : groups) {
        for (unsigned i = 0; i < g.count; ++i)
            nodes.emplace_back(node_pool);
        scalers.emplace_back(cfg.autoscaler, g.count);
    }
    fnInFlight.assign(std::max(1u, num_fns), 0);

    if (scalers.front().enabled()) {
        // Start each group at its autoscaler floor; the rest of the
        // fleet waits inactive until demand (or an evaluation)
        // activates it. A zero floor is scale-to-zero: the first
        // arrival pays the scale-up lag.
        for (unsigned g = 0; g < groups.size(); ++g) {
            for (unsigned i = 0; i < groups[g].count; ++i)
                nodes[groups[g].first + i].active = i < scalers[g].minNodes();
        }
    }
    maxActive = activeNodes();
}

unsigned
Fleet::activeNodes() const
{
    unsigned n = 0;
    for (const Node &node : nodes)
        n += node.active ? 1 : 0;
    return n;
}

unsigned
Fleet::groupOf(unsigned node) const
{
    svb_assert(node < nodes.size(), "unknown fleet node");
    for (unsigned g = 0; g < groups.size(); ++g) {
        if (node < groups[g].first + groups[g].count)
            return g;
    }
    svb_panic("node outside every fleet group");
}

const NodeClass &
Fleet::nodeClass(unsigned g) const
{
    svb_assert(g < groups.size(), "unknown fleet group");
    return groups[g].klass;
}

unsigned
Fleet::groupActiveNodes(unsigned g) const
{
    svb_assert(g < groups.size(), "unknown fleet group");
    unsigned n = 0;
    for (unsigned i = 0; i < groups[g].count; ++i)
        n += nodes[groups[g].first + i].active ? 1 : 0;
    return n;
}

unsigned
Fleet::groupInFlight(unsigned g) const
{
    unsigned n = 0;
    for (unsigned i = 0; i < groups[g].count; ++i)
        n += nodes[groups[g].first + i].inFlight;
    return n;
}

uint64_t
Fleet::fleetPowerMw() const
{
    double mw = 0.0;
    for (const Group &g : groups)
        mw += double(g.count) * g.klass.watts * 1000.0;
    return uint64_t(std::llround(mw));
}

uint64_t
Fleet::fleetCostMilli() const
{
    double milli = 0.0;
    for (const Group &g : groups)
        milli += double(g.count) * g.klass.costPerHour * 1000.0;
    return uint64_t(std::llround(milli));
}

const NodeStats &
Fleet::nodeStats(unsigned node) const
{
    svb_assert(node < nodes.size(), "unknown fleet node");
    return nodes[node].stats;
}

InstancePool &
Fleet::pool(unsigned node)
{
    svb_assert(node < nodes.size(), "unknown fleet node");
    return nodes[node].pool;
}

const InstancePool &
Fleet::pool(unsigned node) const
{
    svb_assert(node < nodes.size(), "unknown fleet node");
    return nodes[node].pool;
}

double
Fleet::speedFactor(unsigned node) const
{
    svb_assert(node < nodes.size(), "unknown fleet node");
    return groups[groupOf(node)].klass.speedFactor;
}

bool
Fleet::routable(unsigned node, uint64_t now_ns) const
{
    svb_assert(node < nodes.size(), "unknown fleet node");
    const Node &n = nodes[node];
    return n.active && n.readyAtNs <= now_ns && n.downUntilNs <= now_ns;
}

uint64_t
Fleet::backlogNs(unsigned node, uint64_t now_ns) const
{
    svb_assert(node < nodes.size(), "unknown fleet node");
    return nodes[node].pool.backlogNs(now_ns);
}

void
Fleet::advance(uint64_t now_ns)
{
    // All group scalers share one evaluation clock (identical config),
    // so scalers[0] paces the loop and each group is sized against its
    // own in-flight demand at every boundary.
    while (scalers.front().due(now_ns)) {
        const uint64_t t = scalers.front().nextEvalNs();
        for (unsigned g = 0; g < groups.size(); ++g)
            applyDesired(g, scalers[g].evaluate(groupInFlight(g)), t);
    }
}

void
Fleet::activateOne(unsigned g, uint64_t t_ns)
{
    for (unsigned i = 0; i < groups[g].count; ++i) {
        Node &n = nodes[groups[g].first + i];
        if (n.active)
            continue;
        n.active = true;
        n.readyAtNs = t_ns + cfg.autoscaler.scaleUpLagNs;
        // The idle-retire clock starts when the node becomes
        // routable, so a freshly scaled-up node is never torn down
        // before it had a chance to serve.
        n.lastBusyNs = n.readyAtNs;
        ++numActivations;
        maxActive = std::max(maxActive, activeNodes());
        return;
    }
    svb_panic("activateOne() with no inactive node in group");
}

void
Fleet::applyDesired(unsigned g, unsigned desired, uint64_t t_ns)
{
    unsigned active = groupActiveNodes(g);
    while (active < desired && active < groups[g].count) {
        activateOne(g, t_ns);
        ++active;
    }
    if (active <= desired || active <= scalers[g].minNodes())
        return;

    // Scale down: retire the group's most-idle eligible nodes.
    // Eligible means routable (past its own lag), empty (no in-flight
    // work, no busy slot) and idle at least scaleDownIdleNs. Ties
    // break on the node index, so the retire order is deterministic.
    while (active > desired && active > scalers[g].minNodes()) {
        int victim = -1;
        for (unsigned i = 0; i < groups[g].count; ++i) {
            const unsigned id = groups[g].first + i;
            const Node &n = nodes[id];
            if (!n.active || n.readyAtNs > t_ns || n.inFlight > 0 ||
                n.pool.busySlots(t_ns) > 0)
                continue;
            if (t_ns - n.lastBusyNs < cfg.autoscaler.scaleDownIdleNs)
                continue;
            if (victim < 0 ||
                n.lastBusyNs < nodes[unsigned(victim)].lastBusyNs)
                victim = int(id);
        }
        if (victim < 0)
            return; // nothing idle enough yet; try next evaluation
        Node &n = nodes[unsigned(victim)];
        n.active = false;
        // Scale-to-zero semantics: retiring the node tears its warm
        // instances down, so traffic landing here later is cold.
        n.pool.evictAll(t_ns);
        ++numDeactivations;
        --active;
    }
}

uint64_t
Fleet::ensureCapacity(uint64_t now_ns)
{
    // Earliest point an already-activated node becomes routable:
    // a pending scale-up completing or a fault window closing.
    uint64_t earliest = ~uint64_t(0);
    for (const Node &n : nodes) {
        if (!n.active)
            continue;
        earliest =
            std::min(earliest, std::max(n.readyAtNs, n.downUntilNs));
    }
    // Demand-driven scale-up: a request arrived and nothing can take
    // it — activate a node now (even between autoscaler evaluations)
    // when a group's scaler ceiling allows it. The first group with
    // headroom wins, which for a single group is the legacy rule.
    if (scalers.front().enabled()) {
        for (unsigned g = 0; g < groups.size(); ++g) {
            if (groupActiveNodes(g) >= scalers[g].maxNodes())
                continue;
            bool anyInactive = false;
            for (unsigned i = 0; i < groups[g].count; ++i)
                anyInactive =
                    anyInactive || !nodes[groups[g].first + i].active;
            if (!anyInactive)
                continue;
            activateOne(g, now_ns);
            earliest =
                std::min(earliest, now_ns + cfg.autoscaler.scaleUpLagNs);
            break;
        }
    }
    svb_assert(earliest != ~uint64_t(0),
               "fleet has no node that can ever become routable");
    return std::max(earliest, now_ns);
}

Fleet::Route
Fleet::route(uint32_t fn, uint64_t now_ns, Rng &rng,
             unsigned preferred_node)
{
    advance(now_ns);

    svb_assert(fn < fnInFlight.size(), "route() of unknown function");
    if (cfg.fnConcurrencyLimit > 0 &&
        fnInFlight[fn] >= cfg.fnConcurrencyLimit) {
        ++numThrottles;
        return {badNode, 0, true};
    }

    cands.clear();
    for (unsigned i = 0; i < nodes.size(); ++i) {
        if (routable(i, now_ns))
            cands.push_back(i);
    }
    if (cands.empty())
        return {badNode, ensureCapacity(now_ns), false};

    // A routable placement hint short-circuits the policy without
    // touching the routing substream (the caller's affinity decision
    // must not shift the draws of unrelated attempts). A hint that is
    // NOT routable falls back to the policy — counted so payload
    // affinity misses are observable, not silent.
    if (preferred_node < nodes.size()) {
        if (routable(preferred_node, now_ns)) {
            ++numPreferredHits;
            return {preferred_node, 0, false};
        }
        ++numPreferredMisses;
    }

    // One routable node: every policy picks it, and no randomness is
    // drawn — the single-node byte-identity contract.
    unsigned chosen = cands[0];
    if (cands.size() > 1) {
        auto leastLoaded = [&]() {
            unsigned best = cands[0];
            uint64_t bestLoad = backlogNs(best, now_ns);
            for (size_t k = 1; k < cands.size(); ++k) {
                const uint64_t load = backlogNs(cands[k], now_ns);
                if (load < bestLoad) {
                    best = cands[k];
                    bestLoad = load;
                }
            }
            return best;
        };
        // Weighted variants of the same argmin: scale each candidate's
        // backlog by a per-class weight so at equal load the cheapest
        // (or most power-efficient) class wins. +1 keeps an idle
        // expensive node distinguishable from an idle cheap one.
        // Strict < keeps the lowest node index on exact ties —
        // deterministic, and zero draws from the routing substream.
        auto weightedArgmin = [&](auto weight_of) {
            unsigned best = cands[0];
            double bestScore = weight_of(groups[groupOf(best)].klass) *
                               double(backlogNs(best, now_ns) + 1);
            for (size_t k = 1; k < cands.size(); ++k) {
                const unsigned c = cands[k];
                const double score =
                    weight_of(groups[groupOf(c)].klass) *
                    double(backlogNs(c, now_ns) + 1);
                if (score < bestScore) {
                    best = c;
                    bestScore = score;
                }
            }
            return best;
        };
        switch (cfg.routing) {
          case RoutingPolicy::LeastLoaded:
            chosen = leastLoaded();
            break;
          case RoutingPolicy::Random:
            chosen = cands[rng.nextBounded(cands.size())];
            break;
          case RoutingPolicy::PowerOfTwo: {
            const unsigned a = cands[rng.nextBounded(cands.size())];
            const unsigned b = cands[rng.nextBounded(cands.size())];
            const uint64_t la = backlogNs(a, now_ns);
            const uint64_t lb = backlogNs(b, now_ns);
            // Ties (including a == b) break on the node index.
            chosen = lb < la ? b : la < lb ? a : std::min(a, b);
            break;
          }
          case RoutingPolicy::Affinity: {
            const unsigned home = affinityHome(fn, cfg.nodes);
            chosen = badNode;
            for (const unsigned c : cands) {
                if (c == home) {
                    chosen = home;
                    break;
                }
            }
            if (chosen == badNode)
                chosen = leastLoaded();
            break;
          }
          case RoutingPolicy::CostWeighted:
            chosen = weightedArgmin(
                [](const NodeClass &k) { return k.costPerHour; });
            break;
          case RoutingPolicy::PowerWeighted:
            chosen = weightedArgmin(
                [](const NodeClass &k) { return k.watts; });
            break;
        }
    }
    return {chosen, 0, false};
}

void
Fleet::onAttemptStart(unsigned node, uint32_t fn, uint64_t start_ns,
                      uint64_t server_end_ns)
{
    svb_assert(node < nodes.size(), "unknown fleet node");
    svb_assert(fn < fnInFlight.size(), "attempt of unknown function");
    svb_assert(server_end_ns >= start_ns, "attempt ends before it starts");
    Node &n = nodes[node];
    ++n.stats.routed;
    n.stats.busyNs += server_end_ns - start_ns;
    n.lastBusyNs = std::max(n.lastBusyNs, server_end_ns);
    ++n.inFlight;
    ++fnInFlight[fn];
}

void
Fleet::onAttemptEnd(unsigned node, uint32_t fn)
{
    svb_assert(node < nodes.size(), "unknown fleet node");
    svb_assert(fn < fnInFlight.size(), "attempt of unknown function");
    Node &n = nodes[node];
    svb_assert(n.inFlight > 0 && fnInFlight[fn] > 0,
               "attempt end without a matching start");
    --n.inFlight;
    --fnInFlight[fn];
}

void
Fleet::applyNodeFault(const NodeFaultEvent &ev)
{
    svb_assert(ev.node < nodes.size(), "node fault on unknown node");
    Node &n = nodes[ev.node];
    n.downUntilNs = std::max(n.downUntilNs, ev.atNs + ev.durationNs);
    if (ev.kind == NodeFaultEvent::Kind::Crash) {
        ++n.stats.crashEvents;
        n.pool.crashAll(ev.atNs);
    }
}

void
Fleet::truncateBusy(unsigned node, uint64_t ns)
{
    svb_assert(node < nodes.size(), "unknown fleet node");
    Node &n = nodes[node];
    n.stats.busyNs -= std::min(n.stats.busyNs, ns);
}

} // namespace svb::load
