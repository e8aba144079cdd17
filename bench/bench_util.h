// Headers shared by the per-figure bench binaries. Their scenarios come
// from exp/scenario.h.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "exp/factories.h"
#include "exp/probes.h"
#include "exp/report.h"
#include "exp/scenario.h"
#include "sim/simulator.h"
#include "stats/fairness.h"
#include "stats/series.h"
#include "tcp/phantom_policies.h"
#include "tcp/tcp_network.h"
#include "topo/abr_network.h"
#include "topo/workload.h"
