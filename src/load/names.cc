#include "names.hh"

namespace svb::load
{

const char *
routingPolicyName(RoutingPolicy policy)
{
    switch (policy) {
      case RoutingPolicy::LeastLoaded: return "least-loaded";
      case RoutingPolicy::Random: return "random";
      case RoutingPolicy::PowerOfTwo: return "p2c";
      case RoutingPolicy::Affinity: return "affinity";
      case RoutingPolicy::CostWeighted: return "cost";
      case RoutingPolicy::PowerWeighted: return "power";
    }
    return "?";
}

bool
parseRoutingPolicy(const std::string &name, RoutingPolicy &out)
{
    for (unsigned v = 0; v < 6; ++v) {
        if (name == routingPolicyName(RoutingPolicy(v))) {
            out = RoutingPolicy(v);
            return true;
        }
    }
    return false;
}

bool
parseRoutingPolicies(const std::string &csv, std::vector<RoutingPolicy> &out)
{
    std::vector<RoutingPolicy> policies;
    for (size_t start = 0;;) {
        const size_t comma = csv.find(',', start);
        RoutingPolicy policy;
        if (!parseRoutingPolicy(csv.substr(start, comma - start), policy))
            return false;
        policies.push_back(policy);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    out = std::move(policies);
    return true;
}

const char *
keepAlivePolicyName(KeepAlivePolicy policy)
{
    switch (policy) {
      case KeepAlivePolicy::AlwaysCold: return "always-cold";
      case KeepAlivePolicy::AlwaysWarm: return "always-warm";
      case KeepAlivePolicy::FixedTtl: return "fixed-ttl";
      case KeepAlivePolicy::Lru: return "lru";
    }
    return "?";
}

const char *
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Uniform: return "uniform";
      case ArrivalKind::Poisson: return "poisson";
      case ArrivalKind::Burst: return "burst";
    }
    return "?";
}

const char *
nodeFaultKindName(NodeFaultEvent::Kind kind)
{
    switch (kind) {
      case NodeFaultEvent::Kind::Crash: return "crash";
      case NodeFaultEvent::Kind::Partition: return "partition";
    }
    return "?";
}

const char *
stagePlacementName(StagePlacement placement)
{
    switch (placement) {
      case StagePlacement::Inherit: return "inherit";
      case StagePlacement::PayloadAffinity: return "payload-affinity";
    }
    return "?";
}

} // namespace svb::load
