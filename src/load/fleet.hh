/**
 * @file
 * Multi-node fleet simulation for the invocation-load subsystem.
 *
 * A single InstancePool models one serverless host; production
 * platforms route every invocation across a *fleet* of hosts behind a
 * cluster-level scheduler ("Characterizing Commodity Serverless
 * Computing Platforms", PAPERS.md, measures exactly this layer on
 * AWS/Azure/GCP). This header scales the load engine out:
 *
 *  - NodeClass / FleetSpec: the class-structured fleet API. A
 *    NodeClass bundles one hardware/pricing tier of node — its own
 *    calibration platform (ISA + cache/DRAM budget, so a mixed
 *    RISC-V + x86 cluster calibrates each tier on its own simulated
 *    host), a residual speed factor and cost/power weights. Every
 *    node's InstancePool follows the scenario's PoolConfig. A
 *    FleetSpec is an ordered list of {class, count} groups; a plain
 *    node count (FleetConfig::nodes) is one default-class group of
 *    that many nodes.
 *  - Fleet: N simulated nodes, each owning its own InstancePool (the
 *    per-node keep-alive state and concurrency limit) plus the
 *    class-derived service model over the calibrated cold/warm times;
 *  - ClusterScheduler routing policies: random, power-of-two-choices,
 *    least-loaded (by queued-backlog nanoseconds), session/locality
 *    affinity, and the class-aware cost- and power-weighted argmins
 *    (backlog scaled by the candidate's class weight — carbon/price
 *    aware placement over heterogeneous classes);
 *  - per-function fleet-wide concurrency limits: excess client-visible
 *    in-flight requests are throttled with a fast 429-style response;
 *  - scale-to-zero and scale-up lag through the reactive Autoscaler
 *    (autoscaler.hh), evaluated PER CLASS GROUP (each group tracks
 *    its own in-flight demand against the shared autoscaler config),
 *    plus demand-driven activation when a request arrives and no node
 *    is routable;
 *  - node-level faults that compose with the request-level fault layer
 *    (fault.hh): a crash kills every slot on the node (in-flight
 *    attempts fail, warm instances are lost), a partition makes the
 *    node unroutable for its duration (in-flight work completes).
 *
 * Determinism contract: routing draws come from a dedicated
 * Rng::split substream and are skipped entirely when only one node is
 * routable, so a single-node fleet with the default router performs
 * exactly the pool-operation and RNG-draw sequence of the pre-fleet
 * engine — byte-identical histograms, fingerprints and CSV rows. A
 * FleetSpec with one default-constructed class is the same adapter:
 * it degenerates to one group spanning the whole fleet and replays
 * the legacy byte stream exactly (tests/test_fleet.cc pins it). The
 * cost/power-weighted policies are deterministic argmins and draw
 * nothing from the routing substream.
 */

#ifndef SVB_LOAD_FLEET_HH
#define SVB_LOAD_FLEET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "autoscaler.hh"
#include "core/system_config.hh"
#include "instance_pool.hh"
#include "sim/rng.hh"

namespace svb::load
{

/** Cluster-scheduler routing policy. */
enum class RoutingPolicy
{
    /** Deterministic argmin of queued-backlog ns (the default; draws
     *  no randomness, so it is the byte-identity baseline). */
    LeastLoaded,
    /** Uniformly random routable node. */
    Random,
    /** Power-of-two-choices: two uniform draws, keep the less loaded. */
    PowerOfTwo,
    /** Session/locality affinity: fn hashes to a home node; falls back
     *  to least-loaded when the home node is unroutable. */
    Affinity,
    /** Class-aware cost-weighted argmin: minimise (backlog ns + 1) x
     *  the node class's costPerHour. Deterministic, zero draws; with
     *  equal backlogs the cheapest class wins. */
    CostWeighted,
    /** Class-aware power/carbon-weighted argmin: minimise (backlog ns
     *  + 1) x the node class's watts. Deterministic, zero draws. */
    PowerWeighted,
};

/** One scheduled node-level fault. */
struct NodeFaultEvent
{
    enum class Kind
    {
        /** All slots killed at atNs (in-flight attempts fail, warm
         *  instances lost); unroutable until atNs + durationNs. */
        Crash,
        /** Unroutable (route-around) for the duration; in-flight work
         *  still completes. */
        Partition,
    };
    Kind kind = Kind::Crash;
    unsigned node = 0;
    uint64_t atNs = 0;
    uint64_t durationNs = 500'000'000; // 500 ms
};

/**
 * One hardware/pricing class of fleet node: the unit of calibration
 * and cost/power accounting in a heterogeneous (e.g. mixed RISC-V +
 * x86) cluster.
 */
struct NodeClass
{
    /** Class tag. Required non-empty for every class of a FleetSpec;
     *  must be free of the result-cache metacharacters (',', '|',
     *  '='). When the class carries its own calibration platform the
     *  tag namespaces the cache keys and checkpoint fingerprints
     *  ("<isa>@<tag>") away from the plain per-ISA rows. */
    std::string name;
    /** Per-class calibration platform (ISA, cores, clock, cache/DRAM
     *  budget). Only read when ownSystem is true; otherwise the class
     *  calibrates on the scenario's own cluster — the legacy shared
     *  service model. */
    SystemConfig system;
    bool ownSystem = false;
    /** Residual service-time multiplier over the class's calibrated
     *  model; exactly 1.0 (the default) leaves service times
     *  bit-untouched. */
    double speedFactor = 1.0;
    /** Cost weight of one node of this class (arbitrary $/h units);
     *  the CostWeighted router and the capacity-per-dollar figures
     *  read it. */
    double costPerHour = 1.0;
    /** Power/carbon weight of one provisioned node, in watts; the
     *  PowerWeighted router and the capacity-per-watt figures read
     *  it. */
    double watts = 1.0;

    /** A class calibrated on the stock Chapter-4 platform of @p isa
     *  (SystemConfig::paperConfig), tagged @p name_arg. */
    static NodeClass forIsa(const std::string &name_arg, IsaId isa);
};

/** One {class, count} group of a FleetSpec. */
struct FleetGroup
{
    NodeClass klass;
    unsigned count = 1;
};

/**
 * The class-structured fleet shape: an ordered list of {class, count}
 * groups. Node ids are assigned group-major (group 0's nodes first),
 * so a single-group spec numbers its nodes exactly like the legacy
 * scalar API.
 */
struct FleetSpec
{
    std::vector<FleetGroup> groups;

    bool empty() const { return groups.empty(); }
    unsigned nodeCount() const
    {
        unsigned n = 0;
        for (const FleetGroup &g : groups)
            n += g.count;
        return n;
    }
};

/** Fleet shape and scheduler parameters. */
struct FleetConfig
{
    /** Simulated hosts; 1 reproduces the single-pool engine. Ignored
     *  (derived from the group counts) when `spec` is non-empty. */
    unsigned nodes = 1;
    RoutingPolicy routing = RoutingPolicy::LeastLoaded;
    /** Fleet-wide cap on client-visible in-flight requests per
     *  function; 0 = unlimited. Excess attempts are throttled. */
    unsigned fnConcurrencyLimit = 0;
    /** Latency of the 429-style response a throttled request gets. */
    uint64_t throttleNs = 50'000; // 50 us
    AutoscalerConfig autoscaler;
    /** Scheduled node crashes / partitions, applied on the engine's
     *  event timeline. */
    std::vector<NodeFaultEvent> nodeFaults;
    /** Class-structured fleet shape. When non-empty it replaces
     *  `nodes` (the sum of the group counts); a spec of one default
     *  class is byte-identical to a plain node count. */
    FleetSpec spec;

    /** Total nodes, whichever API described the fleet. */
    unsigned nodeCount() const
    {
        return spec.empty() ? nodes : spec.nodeCount();
    }

    /** @return true when any fleet machinery beyond the single-pool
     *  engine is engaged (used to keep legacy trace/stat surfaces
     *  byte-identical for plain scenarios). */
    bool engaged() const
    {
        return nodeCount() > 1 || autoscaler.enabled ||
               !nodeFaults.empty() || fnConcurrencyLimit > 0 ||
               !spec.empty();
    }
};

/** Per-node outcome counters over a run. */
struct NodeStats
{
    /** Attempts routed (and started) on this node. */
    uint64_t routed = 0;
    /** Accumulated slot-occupancy time (service ns actually held). */
    uint64_t busyNs = 0;
    /** Node-level crash events applied to this node. */
    uint64_t crashEvents = 0;
};

/**
 * The fleet of nodes plus the cluster scheduler over them.
 *
 * The load engine drives it per attempt: route() picks (or defers)
 * the node, pool(node) serves the usual acquire/release/kill
 * sequence, and onAttemptStart/onAttemptEnd keep the in-flight and
 * utilisation accounting that routing, throttling and autoscaling
 * read. All state changes happen at simulated-time points the engine
 * supplies; nothing here reads clocks or global state.
 *
 * Class structure: nodes are grouped by NodeClass (a legacy scalar
 * config becomes one synthetic default group spanning the fleet), and
 * the autoscaler runs one evaluation loop per group on a shared
 * clock, sizing each group against its own in-flight demand — so a
 * quiet class scales to zero while a loaded one holds its ceiling.
 */
class Fleet
{
  public:
    static constexpr unsigned badNode = ~0u;

    /**
     * @param config    fleet shape and scheduler parameters
     * @param node_pool per-node InstancePool configuration (the
     *                  default for classes without their own pool)
     * @param num_fns   functions in the scenario mix (fn ids < this)
     */
    Fleet(const FleetConfig &config, const PoolConfig &node_pool,
          unsigned num_fns);

    /** route()'s decision for one attempt. */
    struct Route
    {
        /** Chosen node, or badNode when no node is routable yet. */
        unsigned node = badNode;
        /** When node == badNode and !throttled: earliest time a node
         *  can serve (scale-up lag / fault recovery); the attempt
         *  re-enters the timeline then. */
        uint64_t retryAtNs = 0;
        /** The per-function concurrency limit rejected the attempt. */
        bool throttled = false;
    };

    /**
     * Advance the autoscaler to @p now_ns and route one attempt of
     * function @p fn. @p rng is the dedicated routing substream; it
     * is only drawn from when the policy is randomised AND more than
     * one node is routable.
     *
     * @p preferred_node (badNode = none) is a placement hint from the
     * caller — the workflow engine's payload-affinity policy names
     * the producer's node here. A routable preferred node is chosen
     * directly, with no policy evaluation and no routing draws (the
     * hint must not perturb the routing substream of co-scheduled
     * attempts); an unroutable one falls back to the configured
     * policy, counted in preferredMisses() so affinity misses are
     * observable. Throttling applies either way.
     */
    Route route(uint32_t fn, uint64_t now_ns, Rng &rng,
                unsigned preferred_node = badNode);

    /** The instance pool of @p node. */
    InstancePool &pool(unsigned node);
    const InstancePool &pool(unsigned node) const;

    /**
     * An attempt was placed on @p node: runs from @p start_ns to
     * @p server_end_ns server-side. Updates in-flight counts (client
     * concurrency), busy-time and idle bookkeeping.
     */
    void onAttemptStart(unsigned node, uint32_t fn, uint64_t start_ns,
                        uint64_t server_end_ns);

    /** The client-visible side of an attempt on @p node ended. */
    void onAttemptEnd(unsigned node, uint32_t fn);

    /**
     * Apply @p ev at its scheduled time: mark the node unroutable
     * for the duration; a crash additionally kills every slot of its
     * pool. The engine converts the node's in-flight attempts itself
     * (it owns the event timeline).
     */
    void applyNodeFault(const NodeFaultEvent &ev);

    /** Give back @p ns of accounted busy time on @p node (an attempt
     *  a node crash truncated). */
    void truncateBusy(unsigned node, uint64_t ns);

    /** @return true when @p node can take traffic at @p now_ns. */
    bool routable(unsigned node, uint64_t now_ns) const;

    /** Queued-backlog load metric of @p node (routing order key). */
    uint64_t backlogNs(unsigned node, uint64_t now_ns) const;

    /** Residual service-time multiplier of @p node: its class
     *  speedFactor (1.0 for a plain node count). */
    double speedFactor(unsigned node) const;

    unsigned nodeCount() const { return unsigned(nodes.size()); }

    // --- class structure -------------------------------------------------
    /** Was the fleet described through a FleetSpec (>= 1 explicit
     *  class)? False for the legacy scalar adapter. */
    bool classed() const { return !cfg.spec.empty(); }
    /** Class groups (1 for a legacy scalar fleet). */
    unsigned groupCount() const { return unsigned(groups.size()); }
    /** The group (== class index) @p node belongs to. */
    unsigned groupOf(unsigned node) const;
    /** The class of group @p g. */
    const NodeClass &nodeClass(unsigned g) const;
    /** Currently-activated nodes of group @p g. */
    unsigned groupActiveNodes(unsigned g) const;
    /** Provisioned fleet power, in milliwatts (count x watts over all
     *  groups; nodes x 1000 for a legacy fleet of 1 W defaults). */
    uint64_t fleetPowerMw() const;
    /** Provisioned fleet cost, in milli-$/h (same shape). */
    uint64_t fleetCostMilli() const;

    /** Nodes currently activated (including ones still in their
     *  scale-up lag window). */
    unsigned activeNodes() const;
    /** Peak concurrently-activated nodes over the run. */
    unsigned maxActiveNodes() const { return maxActive; }
    /** Scale-up activations performed (autoscaler or demand-driven). */
    uint64_t activations() const { return numActivations; }
    /** Scale-downs performed. */
    uint64_t deactivations() const { return numDeactivations; }
    /** Autoscaler evaluation boundaries consumed (per-group loops
     *  share one clock, so this counts boundaries, not groups). */
    uint64_t autoscaleEvaluations() const
    {
        return scalers.front().evaluations();
    }
    /** Attempts rejected by the per-function concurrency limit. */
    uint64_t throttles() const { return numThrottles; }
    /** Placement hints honoured (preferred node was routable). */
    uint64_t preferredHits() const { return numPreferredHits; }
    /** Placement hints that fell back to the routing policy (the
     *  preferred node was unroutable at route time). */
    uint64_t preferredMisses() const { return numPreferredMisses; }

    const NodeStats &nodeStats(unsigned node) const;
    const FleetConfig &config() const { return cfg; }

  private:
    struct Node
    {
        InstancePool pool;
        NodeStats stats;
        /** Activated (routable once readyAtNs passes). */
        bool active = true;
        /** Activation lag end; 0 for initially-active nodes. */
        uint64_t readyAtNs = 0;
        /** Crash/partition route-around window end. */
        uint64_t downUntilNs = 0;
        /** Client-visible in-flight attempts on this node. */
        unsigned inFlight = 0;
        /** Last time the node was known busy (idle-retire clock). */
        uint64_t lastBusyNs = 0;

        explicit Node(const PoolConfig &pool_cfg) : pool(pool_cfg) {}
    };

    /** One contiguous run of same-class nodes. */
    struct Group
    {
        NodeClass klass;
        unsigned first = 0;
        unsigned count = 0;
    };

    /** Consume autoscaler evaluation boundaries up to @p now_ns. */
    void advance(uint64_t now_ns);
    /** Activate/retire group @p g's nodes toward @p desired at @p t_ns. */
    void applyDesired(unsigned g, unsigned desired, uint64_t t_ns);
    /** Activate group @p g's lowest-index inactive node at @p t_ns. */
    void activateOne(unsigned g, uint64_t t_ns);
    /** Client-visible in-flight attempts across group @p g. */
    unsigned groupInFlight(unsigned g) const;
    /**
     * No node is routable at @p now_ns: trigger demand-driven
     * activation if possible and @return the earliest time any node
     * becomes routable (> now_ns unless an activation completes
     * instantly under a zero scale-up lag).
     */
    uint64_t ensureCapacity(uint64_t now_ns);

    FleetConfig cfg;
    std::vector<Group> groups;
    /** One autoscaler loop per group, on a shared evaluation clock. */
    std::vector<Autoscaler> scalers;
    std::vector<Node> nodes;
    /** Client-visible in-flight per function (throttle limit). */
    std::vector<unsigned> fnInFlight;
    unsigned maxActive = 0;
    uint64_t numActivations = 0;
    uint64_t numDeactivations = 0;
    uint64_t numThrottles = 0;
    uint64_t numPreferredHits = 0;
    uint64_t numPreferredMisses = 0;
    /** Scratch candidate list (avoids per-route allocation). */
    std::vector<unsigned> cands;
};

} // namespace svb::load

#endif // SVB_LOAD_FLEET_HH
