// Collapse diagnostics of the six paper-size application points that
// perfbench's `paper` workload probes, at default knobs (os_noise = 0.012).
// check::diff_results and the engine goldens ignore these fields (DESIGN.md
// §11.1), so an engine change that moves class structure — a different
// split, a lost merge, a leaked message record — passes every bit-identity
// test. This pins the class count, the split count by cause and the
// message-record high-water mark of each point, so such a change fails here
// first. A change that alters them on purpose updates this table and says
// why.

#include "apps/castep/castep.hpp"
#include "apps/cosa/cosa.hpp"
#include "apps/hpcg/hpcg.hpp"
#include "apps/minikab/minikab.hpp"
#include "apps/nekbone/nekbone.hpp"
#include "apps/opensbli/opensbli.hpp"
#include "arch/system.hpp"

#include <gtest/gtest.h>

#include <string>

namespace {

namespace aa = armstice::arch;
namespace ap = armstice::apps;
namespace as = armstice::sim;

struct Diagnostics {
    int classes;
    int splits;
    int split_p2p;
    int split_placement;
    int peak_msg_records;
};

void expect_diagnostics(const std::string& app, const as::RunResult& r,
                        const Diagnostics& want) {
    SCOPED_TRACE(app);
    ASSERT_GT(r.makespan, 0.0);
    EXPECT_EQ(r.collapse_classes, want.classes);
    EXPECT_EQ(r.collapse_splits, want.splits);
    EXPECT_EQ(r.collapse_split_p2p, want.split_p2p);
    EXPECT_EQ(r.collapse_split_placement, want.split_placement);
    EXPECT_EQ(r.collapse_split_noise, 0);
    EXPECT_EQ(r.peak_msg_records, want.peak_msg_records);
    // Each split has exactly one cause; OS noise is never one (§11.5).
    EXPECT_EQ(r.collapse_splits, r.collapse_split_p2p + r.collapse_split_placement);
}

const aa::SystemSpec& a64() { return aa::a64fx(); }

} // namespace

TEST(AppDiagnostics, HpcgOneNode) {
    expect_diagnostics("hpcg", ap::run_hpcg(a64(), 1).res.run, {27, 0, 0, 0, 129});
}

TEST(AppDiagnostics, MinikabFourRanksTwelveThreads) {
    ap::MinikabConfig cfg;
    cfg.nodes = 1;
    cfg.ranks = 4;
    cfg.threads = 12;
    expect_diagnostics("minikab", ap::run_minikab(a64(), cfg).run, {4, 1, 1, 0, 5});
}

TEST(AppDiagnostics, NekboneNodeConfig) {
    expect_diagnostics("nekbone",
                       ap::run_nekbone(a64(), ap::nekbone_node_config(a64(), 1)).run,
                       {3, 0, 0, 0, 3});
}

TEST(AppDiagnostics, CosaTwoNodes) {
    ap::CosaConfig cfg;
    cfg.nodes = 2;
    expect_diagnostics("cosa", ap::run_cosa(a64(), cfg).run, {6, 2, 0, 2, 9});
}

TEST(AppDiagnostics, CastepFullNode) {
    ap::CastepConfig cfg;
    cfg.nodes = 1;
    cfg.ranks = a64().node.cores();
    expect_diagnostics("castep", ap::run_castep(a64(), cfg).res.run, {1, 0, 0, 0, 0});
}

TEST(AppDiagnostics, OpensbliOneNode) {
    ap::OpensbliConfig cfg;
    cfg.nodes = 1;
    expect_diagnostics("opensbli", ap::run_opensbli(a64(), cfg).run, {27, 0, 0, 0, 169});
}
