// Umbrella public header for the edgerep library.
//
// edgerep reproduces "QoS-Aware Proactive Data Replication for Big Data
// Analytics in Edge Clouds" (Xia et al., ICPP 2019 Workshops): a two-tier
// edge-cloud model, the primal-dual approximation algorithms Appro-S and
// Appro-G, the paper's baselines, exact ILP reference solvers, workload
// generators, and a discrete-event testbed simulator.
//
// Typical use:
//   #include "edgerep/edgerep.h"
//   auto inst = edgerep::generate_instance(edgerep::special_case_config(), 42);
//   auto result = edgerep::appro_s(inst);
//   auto metrics = edgerep::evaluate(result.plan);
#pragma once

#include "baselines/centrality_baseline.h"  // IWYU pragma: export
#include "baselines/graph_baseline.h"   // IWYU pragma: export
#include "baselines/greedy.h"           // IWYU pragma: export
#include "baselines/popularity.h"       // IWYU pragma: export
#include "baselines/random_baseline.h"  // IWYU pragma: export
#include "cloud/availability.h"         // IWYU pragma: export
#include "cloud/consistency.h"          // IWYU pragma: export
#include "cloud/delay.h"                // IWYU pragma: export
#include "cloud/instance.h"             // IWYU pragma: export
#include "cloud/instance_io.h"          // IWYU pragma: export
#include "cloud/plan.h"                 // IWYU pragma: export
#include "cloud/plan_diff.h"            // IWYU pragma: export
#include "cloud/plan_io.h"              // IWYU pragma: export
#include "cloud/types.h"                // IWYU pragma: export
#include "core/admission.h"             // IWYU pragma: export
#include "core/appro.h"                 // IWYU pragma: export
#include "core/candidate_index.h"       // IWYU pragma: export
#include "core/exact.h"                 // IWYU pragma: export
#include "core/lagrangian.h"            // IWYU pragma: export
#include "core/local_search.h"          // IWYU pragma: export
#include "core/pricing.h"               // IWYU pragma: export
#include "core/primal_dual.h"           // IWYU pragma: export
#include "core/repair.h"                // IWYU pragma: export
#include "core/rounding.h"              // IWYU pragma: export
#include "lp/ilp.h"                     // IWYU pragma: export
#include "lp/model.h"                   // IWYU pragma: export
#include "lp/simplex.h"                 // IWYU pragma: export
#include "net/centrality.h"             // IWYU pragma: export
#include "net/graph.h"                  // IWYU pragma: export
#include "net/io.h"                     // IWYU pragma: export
#include "net/shortest_path.h"          // IWYU pragma: export
#include "net/topology.h"               // IWYU pragma: export
#include "obs/audit.h"                  // IWYU pragma: export
#include "obs/http_server.h"            // IWYU pragma: export
#include "obs/metrics.h"                // IWYU pragma: export
#include "obs/obs.h"                    // IWYU pragma: export
#include "obs/postmortem.h"             // IWYU pragma: export
#include "obs/recorder.h"               // IWYU pragma: export
#include "obs/timeseries.h"             // IWYU pragma: export
#include "obs/trace.h"                  // IWYU pragma: export
#include "obs/watchdog.h"               // IWYU pragma: export
#include "part/partitioner.h"           // IWYU pragma: export
#include "sim/event_kernel.h"           // IWYU pragma: export
#include "sim/faults.h"                 // IWYU pragma: export
#include "sim/flows.h"                  // IWYU pragma: export
#include "sim/metrics.h"                // IWYU pragma: export
#include "sim/online.h"                 // IWYU pragma: export
#include "sim/simulator.h"              // IWYU pragma: export
#include "stream/shard_engine.h"        // IWYU pragma: export
#include "stream/shard_map.h"           // IWYU pragma: export
#include "stream/stream_engine.h"       // IWYU pragma: export
#include "util/args.h"                  // IWYU pragma: export
#include "util/log.h"                   // IWYU pragma: export
#include "util/rng.h"                   // IWYU pragma: export
#include "util/stats.h"                 // IWYU pragma: export
#include "util/table.h"                 // IWYU pragma: export
#include "workload/arrival_gen.h"       // IWYU pragma: export
#include "workload/config_io.h"         // IWYU pragma: export
#include "workload/fault_gen.h"         // IWYU pragma: export
#include "workload/generator.h"         // IWYU pragma: export
#include "workload/scenarios.h"         // IWYU pragma: export
#include "workload/sweep.h"             // IWYU pragma: export
#include "workload/testbed.h"           // IWYU pragma: export
#include "workload/trace.h"             // IWYU pragma: export
