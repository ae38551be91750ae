// The frozen contract of the event core, read from tests/golden/: a small
// run_online matrix, a byte-compared flow journal, and simulate()
// fingerprints.  The all-at-once simulate() cells start every query at one
// instant, so they pin the FIFO order of simultaneous events.  Each value
// must match bit for bit; a mismatch prints the actual line.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/appro.h"
#include "helpers/fixtures.h"
#include "helpers/golden.h"
#include "obs/obs.h"
#include "obs/postmortem.h"
#include "obs/recorder.h"
#include "sim/online.h"
#include "sim/simulator.h"
#include "workload/arrival_gen.h"
#include "workload/fault_gen.h"

namespace edgerep {
namespace {

// Cell i: backend (table / flow) × faults (none / with repair / without
// repair) × workload (steady / drifting Zipf plus diurnal wave).
class OnlineGoldenMatrix : public ::testing::TestWithParam<int> {};

TEST_P(OnlineGoldenMatrix, MatchesGolden) {
  const bool flow = GetParam() >= 6;
  const int faults = GetParam() / 2 % 3;
  const bool drift = GetParam() % 2 == 1;
  static const char* const kFaults[] = {"nofault", "repair", "norepair"};
  const std::string name = std::string("matrix/") + (flow ? "flow" : "table") +
                           "/" + kFaults[faults] + "/" +
                           (drift ? "drift" : "steady");
  StreamWorkloadConfig wc;
  wc.sites = 24;
  wc.queries = 600;
  wc.datasets = 12;
  wc.max_demands = 2;
  wc.avg_degree = 6.0;
  wc.max_replicas = 4;
  wc.capacity = {4.0, 10.0};   // binds: some queries are rejected
  wc.proc_delay = {0.3, 0.8};  // long flights: faults land on live work
  if (drift) {
    wc.zipf_exponent = 1.2;
    wc.zipf_drift_period = 100;
  }
  const Instance inst = stream_instance(wc, 0x601d);
  OnlineConfig cfg;
  cfg.arrival_rate = 1.5;
  cfg.seed = 0x601d;
  if (drift) {
    cfg.wave_amplitude = 0.8;
    cfg.wave_period = 4.0;
  }
  if (flow) {
    cfg.network = OnlineNetwork::kFlow;
    cfg.oversubscription = 0.75;
  }
  if (faults > 0) {
    FaultScenarioConfig fc;
    fc.horizon = 0.8 * static_cast<double>(wc.queries) / cfg.arrival_rate;
    fc.site_crashes = 4;
    fc.capacity_losses = 6;
    fc.link_failures = 2;
    fc.mean_repair_time = fc.horizon / 8.0;
    fc.cloudlets_only = false;
    cfg.faults = generate_fault_trace(inst, fc, 0xfa17);
    cfg.repair_on_failure = faults == 1;
  }
  const OnlineResult r = run_online(inst, cfg);
  testing::expect_golden(name,
                         flow ? testing::flow_fp(r) : testing::online_fp(r));
  if (flow) {
    EXPECT_GT(r.flow_gap.rate_changes, r.flow_gap.flows_routed)
        << "links must contend";
  }
}

INSTANTIATE_TEST_SUITE_P(Cells, OnlineGoldenMatrix, ::testing::Range(0, 12));

// A flow run whose journal carries rate-change and retirement records,
// pinned byte for byte: four sites, sparse arrivals, and capacity losses
// that throttle the struck sites' links mid-flow.
TEST(GoldenJournal, FlowRunWithRateChanges) {
  StreamWorkloadConfig wc;
  wc.sites = 4;
  wc.queries = 40;
  wc.datasets = 8;
  wc.proc_delay = {0.1, 0.3};
  const Instance inst = stream_instance(wc, 0xf10a);
  OnlineConfig cfg;
  cfg.arrival_rate = 1.5;
  cfg.seed = 0x10ad;
  cfg.network = OnlineNetwork::kFlow;
  cfg.oversubscription = 1.0;
  for (SiteId s = 0; s < 4; ++s) {
    cfg.faults.events.push_back(FaultEvent{2.0 + 0.1 * s,
                                           FaultKind::kCapacityLoss, s,
                                           kInvalidEdge, 0.9});
  }
  for (SiteId s = 0; s < 4; ++s) {
    cfg.faults.events.push_back(FaultEvent{
        200.0 + 0.1 * s, FaultKind::kCapacityRestore, s, kInvalidEdge, 0.0});
  }
  obs::set_all_enabled(false);
  obs::recorder().configure(obs::RecorderMode::kFull);
  obs::set_recorder_enabled(true);
  const OnlineResult res = run_online(inst, cfg);
  obs::set_recorder_enabled(false);
  std::ostringstream os;
  obs::recorder().write(os);
  obs::recorder().clear();
  obs::init_from_env();
  testing::expect_golden_bytes("flow_rate_changes.journal", os.str());
  testing::expect_golden("journal/flow_rate_changes", testing::flow_fp(res));

  // The golden file itself parses and replays through the postmortem.
  obs::Journal journal;
  std::string err;
  ASSERT_TRUE(obs::read_journal_file(
      testing::golden_path("flow_rate_changes.journal"), &journal, &err))
      << err;
  const obs::PostmortemReport report = obs::analyze_journal(journal);
  EXPECT_EQ(report.arrivals, wc.queries);
  EXPECT_GT(report.flow_rate_changes, report.flow_retirements);
}

// Cell i: discipline (reservation / processor sharing) × transfers (delay
// / max-min fair) × arrivals (Poisson / all at once).
class SimulateGolden : public ::testing::TestWithParam<int> {};

TEST_P(SimulateGolden, MatchesGolden) {
  const bool sharing = GetParam() >= 4;
  const bool maxmin = GetParam() / 2 % 2 == 1;
  const bool burst = GetParam() % 2 == 1;
  const std::string name = std::string("simulate/") +
                           (sharing ? "share" : "reserve") + "/" +
                           (maxmin ? "maxmin" : "delay") + "/" +
                           (burst ? "burst" : "poisson");
  const Instance inst = testing::medium_instance(5, /*f_max=*/4);
  const ApproResult offline = appro_g(inst);
  SimConfig cfg;
  if (sharing) cfg.discipline = SimConfig::Discipline::kProcessorSharing;
  if (maxmin) cfg.transfers = SimConfig::TransferModel::kMaxMinFair;
  if (burst) cfg.arrivals = SimConfig::Arrivals::kAllAtOnce;
  cfg.arrival_rate = 4.0;
  cfg.capacity_factor = 0.5;  // queueing and slowdown, not just delays
  testing::expect_golden(name, testing::sim_fp(simulate(offline.plan, cfg)));
}

INSTANTIATE_TEST_SUITE_P(Cells, SimulateGolden, ::testing::Range(0, 8));

}  // namespace
}  // namespace edgerep
