/**
 * @file
 * Enum <-> name round-trips for the load subsystem's configuration
 * enums, in one place.
 *
 * Every scenario knob that lands in a result-cache row key or a bench
 * table needs a stable printable name. The routing policies also parse
 * back, because fleet_capacity takes its policy list from
 * SVBENCH_FLEET_POLICIES: the parser walks the enum's values through
 * routingPolicyName(), so the two directions can never drift apart
 * (tests/test_fleet.cc pins the round-trip).
 *
 * The parsers return false (leaving @p out untouched) on a bad value
 * rather than dying: the callers own the warning and the fallback.
 */

#ifndef SVB_LOAD_NAMES_HH
#define SVB_LOAD_NAMES_HH

#include <string>
#include <vector>

#include "arrival.hh"
#include "dag.hh"
#include "fleet.hh"
#include "instance_pool.hh"

namespace svb::load
{

const char *routingPolicyName(RoutingPolicy policy);
bool parseRoutingPolicy(const std::string &name, RoutingPolicy &out);
/** Parse a comma list of routing policy names ("least-loaded,cost"):
 *  every element must be a whole known name, with no space or empty
 *  element. */
bool parseRoutingPolicies(const std::string &csv,
                          std::vector<RoutingPolicy> &out);

const char *keepAlivePolicyName(KeepAlivePolicy policy);
const char *arrivalKindName(ArrivalKind kind);
const char *nodeFaultKindName(NodeFaultEvent::Kind kind);
const char *stagePlacementName(StagePlacement placement);

} // namespace svb::load

#endif // SVB_LOAD_NAMES_HH
