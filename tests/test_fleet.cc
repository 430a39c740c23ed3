/**
 * @file
 * The fleet layer's contracts:
 *  - the cluster scheduler's routing policies produce the documented
 *    placements on a hand-built 3-node fleet, and draw no randomness
 *    when only one node is routable;
 *  - the reactive autoscaler's desired-node arithmetic, scale-up lag
 *    and idle retirement behave as specified, and an engine-level
 *    burst actually scales a fleet out;
 *  - node crashes conserve invocations (succeeded + failed + sheds ==
 *    invocations) while converting in-flight attempts;
 *  - fleet sweeps are byte-identical (stdout summary fields, CSV rows
 *    and histogram fingerprints) at any SVBENCH_JOBS value, and a
 *    single-node fleet reproduces the pre-fleet engine exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/checkpoint_store.hh"
#include "load/load_runner.hh"
#include "load/names.hh"
#include "workloads/workloads.hh"

#include "test_support.hh"

using namespace svb;
using namespace svb::load;

namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

ClusterConfig
standaloneConfig(IsaId isa)
{
    ClusterConfig cfg;
    cfg.system = SystemConfig::paperConfig(isa);
    cfg.startDb = false;
    cfg.startMemcached = false;
    return cfg;
}

LoadScenario
fleetScenario(const std::string &name, unsigned nodes,
              RoutingPolicy policy)
{
    const FunctionSpec spec = specFor("fibonacci-go");
    LoadScenario s;
    s.name = name;
    s.cluster = standaloneConfig(IsaId::Riscv);
    s.mix = {{spec, &workloads::workloadImpl(spec.workload), 1.0}};
    s.arrival.kind = ArrivalKind::Poisson;
    s.arrival.ratePerSec = 4000.0;
    s.pool.policy = KeepAlivePolicy::FixedTtl;
    s.pool.maxInstances = 2;
    s.pool.keepAliveNs = 20'000'000;
    s.fleet.nodes = nodes;
    s.fleet.routing = policy;
    s.invocations = 400;
    s.seed = 91;
    return s;
}

/** A 3-node fleet with a hand-built backlog profile: node 0 busy the
 *  longest, node 2 idle. The PoolConfig gives each node 2 slots. */
Fleet
backloggedFleet(const FleetConfig &fc)
{
    PoolConfig pc;
    pc.policy = KeepAlivePolicy::FixedTtl;
    pc.maxInstances = 2;
    pc.keepAliveNs = 1'000'000'000;
    Fleet fleet(fc, pc, 4);
    // node 0: both slots busy until t=900/800; node 1: one slot busy
    // until t=300; node 2: idle.
    auto load = [&](unsigned node, uint32_t fn, uint64_t end) {
        auto pl = fleet.pool(node).acquire(fn, 0);
        fleet.onAttemptStart(node, fn, pl.startNs, end);
        fleet.pool(node).release(pl.slot, end);
        fleet.onAttemptEnd(node, fn);
    };
    load(0, 0, 900);
    load(0, 1, 800);
    load(1, 2, 300);
    return fleet;
}

} // namespace

// --------------------------------------------------------------------------
// Routing policy golden placements
// --------------------------------------------------------------------------

TEST(FleetRouting, LeastLoadedPicksTheSmallestBacklog)
{
    FleetConfig fc;
    fc.nodes = 3;
    fc.routing = RoutingPolicy::LeastLoaded;
    Fleet fleet = backloggedFleet(fc);
    Rng rng(7);
    // backlog at t=100: node0 = 800+700, node1 = 200, node2 = 0.
    EXPECT_EQ(fleet.backlogNs(0, 100), 1500u);
    EXPECT_EQ(fleet.backlogNs(1, 100), 200u);
    EXPECT_EQ(fleet.backlogNs(2, 100), 0u);
    const Fleet::Route rt = fleet.route(0, 100, rng);
    EXPECT_EQ(rt.node, 2u);
    EXPECT_FALSE(rt.throttled);
    // No randomness was drawn: the substream is untouched.
    EXPECT_EQ(rng.next(), Rng(7).next());
}

TEST(FleetRouting, LeastLoadedBreaksTiesOnTheLowerIndex)
{
    FleetConfig fc;
    fc.nodes = 3;
    fc.routing = RoutingPolicy::LeastLoaded;
    PoolConfig pc;
    pc.maxInstances = 2;
    Fleet fleet(fc, pc, 1);
    Rng rng(7);
    EXPECT_EQ(fleet.route(0, 0, rng).node, 0u);
}

TEST(FleetRouting, RandomAndP2cFollowTheRoutingSubstream)
{
    // Golden placements: the draw sequence is pinned by Rng(7), so
    // these document (and freeze) the exact candidate-indexing logic.
    FleetConfig fc;
    fc.nodes = 3;
    fc.routing = RoutingPolicy::Random;
    {
        Fleet fleet = backloggedFleet(fc);
        Rng rng(7);
        Rng ref(7);
        const Fleet::Route rt = fleet.route(0, 100, rng);
        EXPECT_EQ(rt.node, ref.nextBounded(3));
    }
    fc.routing = RoutingPolicy::PowerOfTwo;
    {
        Fleet fleet = backloggedFleet(fc);
        Rng rng(7);
        Rng ref(7);
        const unsigned a = unsigned(ref.nextBounded(3));
        const unsigned b = unsigned(ref.nextBounded(3));
        // backlogs at t=100: {1500, 200, 0} — keep the less loaded of
        // the two draws, ties to the lower index.
        const uint64_t loads[] = {1500, 200, 0};
        const unsigned expect = loads[b] < loads[a]
                                    ? b
                                    : loads[a] < loads[b] ? a
                                                          : std::min(a, b);
        const Fleet::Route rt = fleet.route(0, 100, rng);
        EXPECT_EQ(rt.node, expect);
    }
}

TEST(FleetRouting, AffinitySticksToTheHomeNodeAndFallsBack)
{
    FleetConfig fc;
    fc.nodes = 3;
    fc.routing = RoutingPolicy::Affinity;
    PoolConfig pc;
    pc.maxInstances = 2;

    // Each function sticks to one node regardless of backlog...
    std::vector<unsigned> home(4, ~0u);
    {
        Fleet fleet(fc, pc, 4);
        Rng rng(7);
        for (uint32_t fn = 0; fn < 4; ++fn) {
            home[fn] = fleet.route(fn, 0, rng).node;
            EXPECT_EQ(fleet.route(fn, 0, rng).node, home[fn]) << fn;
        }
        // ...and with 4 functions over 3 nodes at least two distinct
        // homes exist (the avalanche hash spreads consecutive ids).
        bool spread = false;
        for (uint32_t fn = 1; fn < 4; ++fn)
            spread = spread || home[fn] != home[0];
        EXPECT_TRUE(spread);
    }

    // When the home node is unroutable, affinity falls back to the
    // least-loaded routable node instead of stalling.
    {
        Fleet fleet(fc, pc, 4);
        Rng rng(7);
        fleet.applyNodeFault(
            {NodeFaultEvent::Kind::Partition, home[0], 0, 1'000});
        const Fleet::Route rt = fleet.route(0, 500, rng);
        EXPECT_NE(rt.node, home[0]);
        EXPECT_NE(rt.node, Fleet::badNode);
        // Past the partition window the home applies again.
        EXPECT_EQ(fleet.route(0, 2'000, rng).node, home[0]);
    }
}

TEST(FleetRouting, ConcurrencyLimitThrottles)
{
    FleetConfig fc;
    fc.nodes = 2;
    fc.fnConcurrencyLimit = 1;
    PoolConfig pc;
    pc.maxInstances = 2;
    Fleet fleet(fc, pc, 2);
    Rng rng(7);

    const Fleet::Route first = fleet.route(0, 0, rng);
    ASSERT_NE(first.node, Fleet::badNode);
    auto pl = fleet.pool(first.node).acquire(0, 0);
    fleet.onAttemptStart(first.node, 0, pl.startNs, 1'000);

    // Function 0 is at its limit; function 1 is not.
    EXPECT_TRUE(fleet.route(0, 10, rng).throttled);
    EXPECT_FALSE(fleet.route(1, 10, rng).throttled);
    EXPECT_EQ(fleet.throttles(), 1u);

    // The limit frees up when the in-flight attempt ends.
    fleet.pool(first.node).release(pl.slot, 1'000);
    fleet.onAttemptEnd(first.node, 0);
    EXPECT_FALSE(fleet.route(0, 2'000, rng).throttled);
}

// --------------------------------------------------------------------------
// Node classes: weighted routing, preferred hints, name round-trips
// --------------------------------------------------------------------------

TEST(FleetClasses, CostAndPowerWeightedPickByWeightAtEqualBacklog)
{
    // A pricey-but-efficient class ahead of a cheap-but-hungry one, so
    // the two weighted argmins pick OPPOSITE nodes — index order alone
    // can't explain either placement.
    NodeClass pricey;
    pricey.name = "pricey";
    pricey.costPerHour = 5.0;
    pricey.watts = 2.0;
    NodeClass cheap;
    cheap.name = "cheap";
    cheap.costPerHour = 1.0;
    cheap.watts = 10.0;

    FleetConfig fc;
    fc.spec.groups = {{pricey, 1}, {cheap, 1}};
    PoolConfig pc;
    pc.maxInstances = 2;

    fc.routing = RoutingPolicy::CostWeighted;
    {
        Fleet fleet(fc, pc, 1);
        Rng rng(7);
        EXPECT_EQ(fleet.route(0, 0, rng).node, 1u); // cheapest $/h
        // Deterministic: the routing substream is untouched.
        EXPECT_EQ(rng.next(), Rng(7).next());
    }
    fc.routing = RoutingPolicy::PowerWeighted;
    {
        Fleet fleet(fc, pc, 1);
        Rng rng(7);
        EXPECT_EQ(fleet.route(0, 0, rng).node, 0u); // fewest watts
        EXPECT_EQ(rng.next(), Rng(7).next());
    }
}

TEST(FleetClasses, WeightedArgminStillYieldsToBacklog)
{
    // The weight scales the backlog, it does not override it: enough
    // queued work on the cheap node sends cost-weighted routing to the
    // expensive idle one (5*(0+1) = 5 < 1*(200+1) = 201).
    NodeClass pricey;
    pricey.name = "pricey";
    pricey.costPerHour = 5.0;
    NodeClass cheap;
    cheap.name = "cheap";
    cheap.costPerHour = 1.0;

    FleetConfig fc;
    fc.routing = RoutingPolicy::CostWeighted;
    fc.spec.groups = {{pricey, 1}, {cheap, 1}};
    PoolConfig pc;
    pc.maxInstances = 2;
    Fleet fleet(fc, pc, 1);

    auto pl = fleet.pool(1).acquire(0, 0);
    fleet.onAttemptStart(1, 0, pl.startNs, 300);
    fleet.pool(1).release(pl.slot, 300);
    fleet.onAttemptEnd(1, 0);

    Rng rng(7);
    EXPECT_EQ(fleet.backlogNs(1, 100), 200u);
    EXPECT_EQ(fleet.route(0, 100, rng).node, 0u);
}

TEST(FleetClasses, SpecDerivesCountsWeightsAndGroups)
{
    NodeClass rv;
    rv.name = "rv";
    rv.watts = 4.0;
    rv.costPerHour = 1.0;
    NodeClass x86;
    x86.name = "x86";
    x86.speedFactor = 2.0;
    x86.watts = 18.0;
    x86.costPerHour = 3.0;

    FleetConfig fc;
    fc.spec.groups = {{rv, 2}, {x86, 3}};
    PoolConfig pc;
    pc.maxInstances = 2;
    Fleet fleet(fc, pc, 1);

    EXPECT_TRUE(fleet.classed());
    EXPECT_EQ(fleet.nodeCount(), 5u);
    EXPECT_EQ(fleet.groupCount(), 2u);
    EXPECT_EQ(fleet.groupOf(1), 0u);
    EXPECT_EQ(fleet.groupOf(2), 1u);
    EXPECT_EQ(fleet.nodeClass(1).name, "x86");
    EXPECT_DOUBLE_EQ(fleet.speedFactor(0), 1.0);
    EXPECT_DOUBLE_EQ(fleet.speedFactor(4), 2.0);
    // 2*4 W + 3*18 W = 62 W; 2*1 $/h + 3*3 $/h = 11 $/h.
    EXPECT_EQ(fleet.fleetPowerMw(), 62'000u);
    EXPECT_EQ(fleet.fleetCostMilli(), 11'000u);
    // A class-less fleet is one synthetic group at 1 W / 1 $/h a node.
    FleetConfig legacy;
    legacy.nodes = 3;
    Fleet plain(legacy, pc, 1);
    EXPECT_FALSE(plain.classed());
    EXPECT_EQ(plain.groupCount(), 1u);
    EXPECT_EQ(plain.fleetPowerMw(), 3'000u);
    EXPECT_EQ(plain.fleetCostMilli(), 3'000u);
}

TEST(FleetClasses, PreferredHintHitsAndMissesAreCounted)
{
    FleetConfig fc;
    fc.nodes = 3;
    fc.routing = RoutingPolicy::LeastLoaded;
    Fleet fleet = backloggedFleet(fc);
    Rng rng(7);

    // A routable hint short-circuits the policy: node 0 carries the
    // largest backlog, yet the hint wins — and counts as a hit.
    const Fleet::Route hit = fleet.route(0, 100, rng, 0);
    EXPECT_EQ(hit.node, 0u);
    EXPECT_EQ(fleet.preferredHits(), 1u);
    EXPECT_EQ(fleet.preferredMisses(), 0u);

    // An unroutable hint falls back to the policy and counts a miss.
    fleet.applyNodeFault({NodeFaultEvent::Kind::Partition, 0, 100, 1'000});
    const Fleet::Route miss = fleet.route(0, 200, rng, 0);
    EXPECT_EQ(miss.node, 2u); // least loaded of the survivors
    EXPECT_EQ(fleet.preferredHits(), 1u);
    EXPECT_EQ(fleet.preferredMisses(), 1u);
    // No hint, no counting.
    fleet.route(0, 200, rng);
    EXPECT_EQ(fleet.preferredHits(), 1u);
    EXPECT_EQ(fleet.preferredMisses(), 1u);
}

TEST(FleetClasses, ClassTagsNamespaceCalibrationAndCheckpoints)
{
    const ClusterConfig base = standaloneConfig(IsaId::Riscv);

    // A class without its own system calibrates on the scenario's
    // base cluster — no extra boots, no new cache keys.
    NodeClass shared;
    shared.name = "shared";
    const ClusterConfig same = classCluster(shared, base);
    EXPECT_TRUE(same.classTag.empty());
    EXPECT_EQ(same.system.isa, base.system.isa);

    // A class owning its system gets a class-tagged cluster so its
    // calibration rows and checkpoints can't collide with the base's.
    NodeClass own = NodeClass::forIsa("edge", IsaId::Cx86);
    own.system.clockMHz = 2000;
    const ClusterConfig tagged = classCluster(own, base);
    EXPECT_EQ(tagged.classTag, "edge");
    EXPECT_EQ(tagged.system.isa, IsaId::Cx86);
    EXPECT_EQ(tagged.system.clockMHz, 2000u);

    const FunctionSpec spec = specFor("fibonacci-go");
    const std::string fpBase = CheckpointStore::fingerprint(base, spec);
    const std::string fpTagged =
        CheckpointStore::fingerprint(tagged, spec);
    EXPECT_NE(fpBase, fpTagged);
    EXPECT_EQ(fpBase.find(";class="), std::string::npos);
    EXPECT_NE(fpTagged.find(";class=edge"), std::string::npos);

    // One calibration cluster per group, in group order.
    FleetConfig fc;
    fc.spec.groups = {{shared, 2}, {own, 1}};
    const std::vector<ClusterConfig> clusters =
        calibrationClusters(base, fc);
    ASSERT_EQ(clusters.size(), 2u);
    EXPECT_TRUE(clusters[0].classTag.empty());
    EXPECT_EQ(clusters[1].classTag, "edge");
    // The legacy scalar fleet calibrates exactly the base cluster.
    FleetConfig legacy;
    legacy.nodes = 4;
    EXPECT_EQ(calibrationClusters(base, legacy).size(), 1u);
}

TEST(FleetClasses, NameRoundTripsParseBothDirections)
{
    for (unsigned v = 0; v < 6; ++v) {
        const RoutingPolicy pol = RoutingPolicy(v);
        RoutingPolicy out;
        ASSERT_TRUE(parseRoutingPolicy(routingPolicyName(pol), out));
        EXPECT_EQ(out, pol);
    }
    RoutingPolicy out;
    EXPECT_FALSE(parseRoutingPolicy("no-such-policy", out));

    // The other enums only print, into row keys and tables: their
    // names must tell every value apart.
    const auto distinct = [](std::vector<std::string> names) {
        std::sort(names.begin(), names.end());
        return std::adjacent_find(names.begin(), names.end()) ==
                   names.end() &&
               std::find(names.begin(), names.end(), "?") == names.end();
    };
    std::vector<std::string> names;
    for (unsigned v = 0; v < 4; ++v)
        names.push_back(keepAlivePolicyName(KeepAlivePolicy(v)));
    EXPECT_TRUE(distinct(names));
    names.clear();
    for (unsigned v = 0; v < 3; ++v)
        names.push_back(arrivalKindName(ArrivalKind(v)));
    EXPECT_TRUE(distinct(names));
    names.clear();
    for (unsigned v = 0; v < 2; ++v)
        names.push_back(nodeFaultKindName(NodeFaultEvent::Kind(v)));
    EXPECT_TRUE(distinct(names));
    names.clear();
    for (unsigned v = 0; v < 2; ++v)
        names.push_back(stagePlacementName(StagePlacement(v)));
    EXPECT_TRUE(distinct(names));
}

// SVBENCH_FLEET_POLICIES reads through parseRoutingPolicies(): a comma
// list of whole policy names parses, and anything else (an unknown or
// misspelt name, a space, an empty element) fails and leaves the
// caller's list as it was, so fleet_capacity can warn and keep its
// default. Seeded mutations of valid lists are checked against a plain
// split-and-look-up model.
TEST(FleetClasses, PolicyListSeededMutationsParseWholeNamesOrFail)
{
    std::vector<std::string> known;
    for (unsigned v = 0; v < 6; ++v)
        known.push_back(routingPolicyName(RoutingPolicy(v)));
    const auto model = [&known](const std::string &csv,
                                std::vector<RoutingPolicy> &want) {
        want.clear();
        std::string tok;
        for (size_t i = 0; i <= csv.size(); ++i) {
            if (i < csv.size() && csv[i] != ',') {
                tok += csv[i];
                continue;
            }
            const auto it = std::find(known.begin(), known.end(), tok);
            if (it == known.end())
                return false;
            want.push_back(RoutingPolicy(it - known.begin()));
            tok.clear();
        }
        return true;
    };
    const std::vector<RoutingPolicy> sentinel = {RoutingPolicy::Affinity};
    const auto check = [&](const std::string &csv) {
        std::vector<RoutingPolicy> want;
        const bool valid = model(csv, want);
        std::vector<RoutingPolicy> out = sentinel;
        EXPECT_EQ(parseRoutingPolicies(csv, out), valid) << "'" << csv << "'";
        EXPECT_EQ(out, valid ? want : sentinel) << "'" << csv << "'";
    };

    for (const char *csv :
         {"least-loaded,cost,power", "p2c", "random,random", "", ",",
          "cost,", ",cost", "cost,,power", " cost", "cost ", "cost, power",
          "COST", "p2c;cost", "least_loaded", "affinity\n", "power\t"})
        check(csv);

    const std::string alphabet = "-,acdeflnoprstwy2 \t";
    Rng rng(2026);
    for (int i = 0; i < 2000; ++i) {
        std::string csv;
        for (uint64_t n = 1 + rng.nextBounded(3); n > 0; --n) {
            if (!csv.empty())
                csv += ',';
            csv += known[rng.nextBounded(known.size())];
        }
        for (uint64_t k = rng.nextBounded(3); k > 0; --k) {
            const size_t at = rng.nextBounded(csv.size() + 1);
            const char c = alphabet[rng.nextBounded(alphabet.size())];
            switch (rng.nextBounded(3)) {
              case 0: csv.insert(at, 1, c); break;
              case 1:
                if (at < csv.size())
                    csv[at] = c;
                break;
              default:
                if (at < csv.size())
                    csv.erase(at, 1);
                break;
            }
        }
        check(csv);
        if (::testing::Test::HasFailure())
            break; // the first mismatch names the value
    }
}

// --------------------------------------------------------------------------
// Autoscaler
// --------------------------------------------------------------------------

TEST(Autoscaler, DesiredNodeArithmetic)
{
    AutoscalerConfig cfg;
    cfg.enabled = true;
    cfg.minNodes = 1;
    cfg.maxNodes = 4;
    cfg.targetInFlightPerNode = 2.0;
    Autoscaler scaler(cfg, 8);

    EXPECT_EQ(scaler.desiredFor(0), 1u);  // floor
    EXPECT_EQ(scaler.desiredFor(1), 1u);  // ceil(1/2) = 1
    EXPECT_EQ(scaler.desiredFor(2), 1u);
    EXPECT_EQ(scaler.desiredFor(3), 2u);  // ceil(3/2) = 2
    EXPECT_EQ(scaler.desiredFor(7), 4u);
    EXPECT_EQ(scaler.desiredFor(100), 4u); // ceiling clamps
}

TEST(Autoscaler, ScaleToZeroFloor)
{
    AutoscalerConfig cfg;
    cfg.enabled = true;
    cfg.minNodes = 0;
    cfg.targetInFlightPerNode = 1.0;
    Autoscaler scaler(cfg, 3);
    EXPECT_EQ(scaler.desiredFor(0), 0u);
    EXPECT_EQ(scaler.desiredFor(1), 1u);
    EXPECT_EQ(scaler.desiredFor(9), 3u); // maxNodes defaults to fleet
}

TEST(Autoscaler, EvaluationBoundariesAreFixedPeriods)
{
    AutoscalerConfig cfg;
    cfg.enabled = true;
    cfg.evalPeriodNs = 100;
    Autoscaler scaler(cfg, 2);
    EXPECT_FALSE(scaler.due(99));
    EXPECT_TRUE(scaler.due(100));
    EXPECT_EQ(scaler.nextEvalNs(), 100u);
    scaler.evaluate(0);
    EXPECT_EQ(scaler.nextEvalNs(), 200u);
    EXPECT_FALSE(scaler.due(150));
    EXPECT_TRUE(scaler.due(350));
    EXPECT_EQ(scaler.evaluations(), 1u);
}

TEST(Autoscaler, FleetScaleUpPaysTheLagAndScaleDownRetires)
{
    FleetConfig fc;
    fc.nodes = 3;
    fc.autoscaler.enabled = true;
    fc.autoscaler.minNodes = 1;
    fc.autoscaler.evalPeriodNs = 1'000;
    fc.autoscaler.targetInFlightPerNode = 1.0;
    fc.autoscaler.scaleUpLagNs = 500;
    fc.autoscaler.scaleDownIdleNs = 2'000;
    PoolConfig pc;
    pc.maxInstances = 2;
    Fleet fleet(fc, pc, 1);
    Rng rng(7);

    // Only the floor is active initially.
    EXPECT_EQ(fleet.activeNodes(), 1u);

    // Three in-flight attempts at the first evaluation boundary want
    // three nodes; the new ones are routable only after the lag.
    for (int i = 0; i < 3; ++i)
        fleet.onAttemptStart(0, 0, 0, 10'000);
    const Fleet::Route rt = fleet.route(0, 1'000, rng);
    EXPECT_EQ(fleet.activeNodes(), 3u);
    EXPECT_EQ(rt.node, 0u); // the others are still in their lag window
    EXPECT_TRUE(fleet.routable(1, 1'500));
    EXPECT_EQ(fleet.maxActiveNodes(), 3u);
    EXPECT_EQ(fleet.activations(), 2u);

    // Load drains; after the idle threshold the extra nodes retire.
    for (int i = 0; i < 3; ++i)
        fleet.onAttemptEnd(0, 0);
    fleet.route(0, 20'000, rng);
    EXPECT_EQ(fleet.activeNodes(), 1u);
    EXPECT_EQ(fleet.deactivations(), 2u);
    // The peak is sticky: it reports the high-water mark.
    EXPECT_EQ(fleet.maxActiveNodes(), 3u);
}

TEST(Autoscaler, EngineScalesOutUnderBurstLoad)
{
    TempCheckpointDir ckpts("ckpt_fleet_burst");
    TempCacheFile file("test_fleet_burst.csv");

    LoadScenario s = fleetScenario("t-fleet-burst", 4,
                                   RoutingPolicy::LeastLoaded);
    s.arrival.kind = ArrivalKind::Burst;
    s.arrival.ratePerSec = 8000.0;
    s.arrival.burstFactor = 8.0;
    s.arrival.burstPeriodNs = 10'000'000;
    s.arrival.burstDuty = 0.1;
    s.invocations = 800;
    s.fleet.autoscaler.enabled = true;
    s.fleet.autoscaler.minNodes = 1;
    s.fleet.autoscaler.evalPeriodNs = 2'000'000;
    s.fleet.autoscaler.targetInFlightPerNode = 1.0;
    s.fleet.autoscaler.scaleUpLagNs = 1'000'000;
    s.fleet.autoscaler.scaleDownIdleNs = 10'000'000;

    ResultCache cache(file.path);
    const LoadResult res = LoadRunner(cache).run(s);
    ASSERT_TRUE(res.ok);
    EXPECT_GT(res.maxActiveNodes, 1u);
    EXPECT_LE(res.maxActiveNodes, 4u);
    EXPECT_EQ(res.succeeded + res.failedInvocations + res.sheds,
              res.invocations);
}

// --------------------------------------------------------------------------
// Node faults and the conservation invariant
// --------------------------------------------------------------------------

TEST(NodeFaults, CrashConservesInvocationsAndConvertsInFlight)
{
    TempCheckpointDir ckpts("ckpt_fleet_crash");
    TempCacheFile file("test_fleet_crash.csv");

    // High rate so attempts are in flight at the crash instants; two
    // crashes and a partition stress the route-around path. Retries
    // recover most conversions, the rest count as failed.
    LoadScenario s = fleetScenario("t-fleet-crash", 3,
                                   RoutingPolicy::LeastLoaded);
    s.arrival.ratePerSec = 20'000.0;
    s.invocations = 600;
    s.retry.maxAttempts = 3;
    s.retry.backoffBaseNs = 100'000;
    s.retry.backoffCapNs = 1'000'000;
    s.fleet.nodeFaults.push_back(
        {NodeFaultEvent::Kind::Crash, 0, 5'000'000, 5'000'000});
    s.fleet.nodeFaults.push_back(
        {NodeFaultEvent::Kind::Crash, 1, 10'000'000, 5'000'000});
    s.fleet.nodeFaults.push_back(
        {NodeFaultEvent::Kind::Partition, 2, 10'000'000, 2'000'000});

    ResultCache cache(file.path);
    const LoadResult res = LoadRunner(cache).run(s);
    ASSERT_TRUE(res.ok);

    // Conservation: every invocation ends exactly one way, and every
    // client-visible completion landed in the latency histogram.
    EXPECT_EQ(res.succeeded + res.failedInvocations + res.sheds,
              res.invocations);
    EXPECT_EQ(res.latency.count(), res.invocations);
    EXPECT_EQ(res.nodeFaults, 3u);
    // The crashes really converted in-flight attempts.
    EXPECT_GT(res.crashes, 0u);
    EXPECT_GT(res.retries, 0u);
}

TEST(NodeFaults, SingleNodeFleetDefersDuringTheDownWindow)
{
    TempCheckpointDir ckpts("ckpt_fleet_defer");
    TempCacheFile file("test_fleet_defer.csv");

    // With one node and a partition window, arrivals inside the
    // window defer until it closes instead of being dropped.
    LoadScenario s = fleetScenario("t-fleet-defer", 1,
                                   RoutingPolicy::LeastLoaded);
    s.invocations = 200;
    s.fleet.nodeFaults.push_back(
        {NodeFaultEvent::Kind::Partition, 0, 10'000'000, 10'000'000});

    ResultCache cache(file.path);
    const LoadResult res = LoadRunner(cache).run(s);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(res.succeeded + res.failedInvocations + res.sheds,
              res.invocations);
    EXPECT_EQ(res.latency.count(), res.invocations);
    EXPECT_EQ(res.succeeded, res.invocations); // nothing is lost
    EXPECT_EQ(res.nodeFaults, 1u);
}

// --------------------------------------------------------------------------
// Determinism across worker counts, and the single-node identity
// --------------------------------------------------------------------------

TEST(FleetSweep, ByteIdenticalAcrossWorkerCounts)
{
    TempCheckpointDir ckpts("ckpt_fleet_sweep");

    std::vector<LoadScenario> scenarios;
    for (RoutingPolicy pol :
         {RoutingPolicy::LeastLoaded, RoutingPolicy::PowerOfTwo,
          RoutingPolicy::Random, RoutingPolicy::Affinity}) {
        for (unsigned nodes : {1u, 3u}) {
            std::ostringstream name;
            name << "t-fleet-" << routingPolicyName(pol) << "-n" << nodes;
            scenarios.push_back(fleetScenario(name.str(), nodes, pol));
        }
    }
    {
        // One autoscaled scenario rides along so the scale machinery
        // is inside the determinism net too.
        LoadScenario s = fleetScenario("t-fleet-scaled", 4,
                                       RoutingPolicy::PowerOfTwo);
        s.fleet.autoscaler.enabled = true;
        s.fleet.autoscaler.minNodes = 1;
        s.fleet.autoscaler.evalPeriodNs = 5'000'000;
        scenarios.push_back(std::move(s));
    }

    TempCacheFile serial_file("test_fleet_serial.csv");
    std::vector<LoadResult> serial;
    {
        ResultCache cache(serial_file.path);
        serial = loadSweep(cache, scenarios, 1);
    }
    TempCacheFile par_file("test_fleet_jobs8.csv");
    std::vector<LoadResult> wide;
    {
        ResultCache cache(par_file.path);
        wide = loadSweep(cache, scenarios, 8);
    }

    ASSERT_EQ(serial.size(), wide.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(serial[i].ok) << scenarios[i].name;
        EXPECT_TRUE(serial[i].latency == wide[i].latency)
            << scenarios[i].name;
        EXPECT_EQ(serial[i].histoFingerprint, wide[i].histoFingerprint)
            << scenarios[i].name;
        EXPECT_EQ(serial[i].goodFingerprint, wide[i].goodFingerprint)
            << scenarios[i].name;
        EXPECT_EQ(serial[i].coldStarts, wide[i].coldStarts);
        EXPECT_EQ(serial[i].maxActiveNodes, wide[i].maxActiveNodes);
        ASSERT_EQ(serial[i].nodeUtilisation.size(),
                  wide[i].nodeUtilisation.size());
        for (size_t n = 0; n < serial[i].nodeUtilisation.size(); ++n)
            EXPECT_EQ(serial[i].nodeUtilisation[n],
                      wide[i].nodeUtilisation[n]);
    }

    // The CSV backing file too (ldcal + load v3 rows).
    const std::string serial_csv = slurp(serial_file.path);
    EXPECT_FALSE(serial_csv.empty());
    EXPECT_EQ(serial_csv, slurp(par_file.path));
}

TEST(FleetSweep, SingleNodeDefaultFleetMatchesThePreFleetEngine)
{
    TempCheckpointDir ckpts("ckpt_fleet_ident");

    // The same scenario with an explicit 1-node fleet and with the
    // default-constructed FleetConfig must be indistinguishable: the
    // fleet layer's byte-identity contract, at the engine level.
    LoadScenario plain = fleetScenario("t-ident", 1,
                                       RoutingPolicy::LeastLoaded);
    LoadScenario dflt = plain;
    dflt.fleet = FleetConfig{};

    TempCacheFile fa("test_fleet_ident_a.csv");
    TempCacheFile fb("test_fleet_ident_b.csv");
    LoadResult ra, rb;
    {
        ResultCache cache(fa.path);
        ra = LoadRunner(cache).run(plain);
    }
    {
        ResultCache cache(fb.path);
        rb = LoadRunner(cache).run(dflt);
    }
    ASSERT_TRUE(ra.ok);
    ASSERT_TRUE(rb.ok);
    EXPECT_TRUE(ra.latency == rb.latency);
    EXPECT_EQ(ra.histoFingerprint, rb.histoFingerprint);
    EXPECT_EQ(ra.goodFingerprint, rb.goodFingerprint);
    EXPECT_EQ(ra.coldStarts, rb.coldStarts);
    EXPECT_EQ(ra.warmHits, rb.warmHits);
    EXPECT_EQ(ra.evictions, rb.evictions);
    EXPECT_EQ(ra.p99Ns, rb.p99Ns);
    EXPECT_EQ(ra.throughputRps, rb.throughputRps);
    // The CSV rows match field-for-field as well.
    EXPECT_EQ(slurp(fa.path), slurp(fb.path));
}

TEST(FleetClasses, SingleClassSpecMatchesTheLegacyScalarApi)
{
    TempCheckpointDir ckpts("ckpt_class_ident");

    // The redesign's adapter contract: a FleetSpec of ONE class with
    // default calibration/pool/weights is indistinguishable from the
    // legacy scalar API — histograms, fingerprints and the CSV rows
    // (including the new class fields) are byte-identical.
    LoadScenario legacy = fleetScenario("t-class-ident", 3,
                                        RoutingPolicy::LeastLoaded);
    LoadScenario classed = legacy;
    classed.fleet = FleetConfig{};
    classed.fleet.routing = RoutingPolicy::LeastLoaded;
    NodeClass k;
    k.name = "small";
    classed.fleet.spec.groups = {{k, 3}};

    TempCacheFile fa("test_class_ident_a.csv");
    TempCacheFile fb("test_class_ident_b.csv");
    LoadResult ra, rb;
    {
        ResultCache cache(fa.path);
        ra = LoadRunner(cache).run(legacy);
    }
    {
        ResultCache cache(fb.path);
        rb = LoadRunner(cache).run(classed);
    }
    ASSERT_TRUE(ra.ok);
    ASSERT_TRUE(rb.ok);
    EXPECT_TRUE(ra.latency == rb.latency);
    EXPECT_EQ(ra.histoFingerprint, rb.histoFingerprint);
    EXPECT_EQ(ra.goodFingerprint, rb.goodFingerprint);
    EXPECT_EQ(ra.coldStarts, rb.coldStarts);
    EXPECT_EQ(ra.warmHits, rb.warmHits);
    EXPECT_EQ(ra.nodes, rb.nodes);
    EXPECT_EQ(ra.classes, rb.classes);
    EXPECT_EQ(ra.fleetPowerMw, rb.fleetPowerMw);
    EXPECT_EQ(ra.fleetCostMilli, rb.fleetCostMilli);
    EXPECT_EQ(slurp(fa.path), slurp(fb.path));
}

TEST(FleetClasses, MixedClassSweepByteIdenticalAcrossWorkerCounts)
{
    TempCheckpointDir ckpts("ckpt_class_sweep");

    // A genuinely heterogeneous fleet — two classes with different
    // speed/cost/power weights (sharing the base calibration, so the
    // test stays cheap) — swept under every class-aware policy at
    // jobs 1 and 8. The cost-weighted determinism contract from the
    // issue, plus the CSV with the v4 class fields.
    NodeClass sbc;
    sbc.name = "sbc";
    sbc.costPerHour = 1.0;
    sbc.watts = 4.0;
    NodeClass srv;
    srv.name = "srv";
    srv.speedFactor = 1.6;
    srv.costPerHour = 3.0;
    srv.watts = 18.0;

    std::vector<LoadScenario> scenarios;
    for (RoutingPolicy pol :
         {RoutingPolicy::CostWeighted, RoutingPolicy::PowerWeighted,
          RoutingPolicy::LeastLoaded}) {
        std::ostringstream name;
        name << "t-class-" << routingPolicyName(pol);
        LoadScenario s = fleetScenario(name.str(), 1, pol);
        s.arrival.ratePerSec = 12'000.0;
        s.fleet.spec.groups = {{sbc, 2}, {srv, 2}};
        scenarios.push_back(std::move(s));
    }

    TempCacheFile serial_file("test_class_serial.csv");
    std::vector<LoadResult> serial;
    {
        ResultCache cache(serial_file.path);
        serial = loadSweep(cache, scenarios, 1);
    }
    TempCacheFile par_file("test_class_jobs8.csv");
    std::vector<LoadResult> wide;
    {
        ResultCache cache(par_file.path);
        wide = loadSweep(cache, scenarios, 8);
    }

    ASSERT_EQ(serial.size(), wide.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(serial[i].ok) << scenarios[i].name;
        EXPECT_EQ(serial[i].classes, 2u);
        EXPECT_EQ(serial[i].nodes, 4u);
        EXPECT_EQ(serial[i].fleetPowerMw, 44'000u);
        EXPECT_EQ(serial[i].fleetCostMilli, 8'000u);
        EXPECT_TRUE(serial[i].latency == wide[i].latency)
            << scenarios[i].name;
        EXPECT_EQ(serial[i].histoFingerprint, wide[i].histoFingerprint)
            << scenarios[i].name;
        EXPECT_EQ(serial[i].goodFingerprint, wide[i].goodFingerprint)
            << scenarios[i].name;
        // Fresh runs expose the per-class routing split; it must be
        // identical too, and every attempt lands in some class.
        ASSERT_EQ(serial[i].classRouted.size(), 2u);
        EXPECT_EQ(serial[i].classRouted, wide[i].classRouted);
        EXPECT_EQ(serial[i].classNames, wide[i].classNames);
    }
    // The cost-weighted placement really differs from least-loaded on
    // a weighted fleet (same seed, same arrivals).
    EXPECT_NE(serial[0].classRouted, serial[2].classRouted);

    const std::string serial_csv = slurp(serial_file.path);
    EXPECT_FALSE(serial_csv.empty());
    EXPECT_EQ(serial_csv, slurp(par_file.path));
}

TEST(FleetClasses, AutoscalerScalesEachClassIndependentlyToZero)
{
    // Two single-class groups with a zero floor: demand lands only on
    // group 0, so group 1 must never activate, and once the work
    // drains both groups retire every node — per-class scale-to-zero.
    NodeClass a;
    a.name = "a";
    NodeClass b;
    b.name = "b";
    FleetConfig fc;
    fc.spec.groups = {{a, 2}, {b, 2}};
    fc.autoscaler.enabled = true;
    fc.autoscaler.minNodes = 0;
    fc.autoscaler.evalPeriodNs = 1'000;
    fc.autoscaler.targetInFlightPerNode = 1.0;
    fc.autoscaler.scaleUpLagNs = 500;
    fc.autoscaler.scaleDownIdleNs = 2'000;
    PoolConfig pc;
    pc.maxInstances = 2;
    Fleet fleet(fc, pc, 1);
    Rng rng(7);

    // Scale-to-zero start: nothing is active, the first arrival
    // demand-activates one node of group 0 and pays the lag.
    EXPECT_EQ(fleet.activeNodes(), 0u);
    const Fleet::Route cold = fleet.route(0, 0, rng);
    EXPECT_EQ(cold.node, Fleet::badNode);
    EXPECT_EQ(cold.retryAtNs, 500u);
    EXPECT_EQ(fleet.groupActiveNodes(0), 1u);
    EXPECT_EQ(fleet.groupActiveNodes(1), 0u);

    // Three in-flight attempts on group 0 at the next evaluation want
    // more capacity — group 0 grows to its 2-node cap, group 1 sees
    // zero demand and stays at zero.
    EXPECT_EQ(fleet.route(0, 500, rng).node, 0u);
    for (int i = 0; i < 3; ++i)
        fleet.onAttemptStart(0, 0, 500, 600);
    fleet.route(0, 1'000, rng);
    EXPECT_EQ(fleet.groupActiveNodes(0), 2u);
    EXPECT_EQ(fleet.groupActiveNodes(1), 0u);

    // Drain; past the idle threshold every node of group 0 retires
    // too (zero floor), so the whole fleet is back to zero before the
    // late arrival demand-activates afresh.
    for (int i = 0; i < 3; ++i)
        fleet.onAttemptEnd(0, 0);
    const Fleet::Route late = fleet.route(0, 20'000, rng);
    EXPECT_EQ(fleet.deactivations(), 2u);
    EXPECT_EQ(late.node, Fleet::badNode);
    EXPECT_EQ(late.retryAtNs, 20'500u);
    EXPECT_EQ(fleet.groupActiveNodes(0), 1u); // the fresh activation
    EXPECT_EQ(fleet.groupActiveNodes(1), 0u);
}
