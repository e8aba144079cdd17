// The chaos harness's old names for exp/scenario.h. Only e2ebench still
// includes this header; delete it with the next benchmark change.
#pragma once

#include "exp/scenario.h"

namespace phantom::chaos {

using ScenarioSpec = exp::Scenario;
using exp::build_topology;
using exp::kind_from_string;
using exp::to_string;
using exp::topology_info;
using exp::TopologyInfo;

}  // namespace phantom::chaos
