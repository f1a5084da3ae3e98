// Directory vs the broadcast reference model on real engine traces.
//
// Every cell of the smokesmp grid is built from scratch and replayed three
// ways over the same trace set: through PrivateL2Hierarchy (the sharers-
// bitmap directory), through reference::ReferenceSmpHierarchy (the
// independent broadcast model in tests/reference_smp.h) and through
// RunExperiment (which reaches the directory via MakeSmpHierarchy). All
// three must agree on every SimResult field the shard format carries,
// compared word for word with doubles by bit pattern.
// tests/test_directory_equivalence.cc holds the same pair equal on
// synthetic traces; this suite covers the OLTP/DSS access streams the
// figures actually replay.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "coresim/result_fields.h"
#include "harness/config_fields.h"
#include "memsim/hierarchy.h"
#include "reference_smp.h"
#include "sweep/builtin_specs.h"

namespace stagedcmp {
namespace {

/// Every carried SimResult field as a word, in record order.
std::vector<uint64_t> ResultWords(coresim::SimResult r) {
  std::vector<uint64_t> words;
  const auto put = [&words](const auto& f) {
    words.push_back(harness::FieldWord(f));
  };
  coresim::VisitFields(r, put);
  return words;
}

/// Replays `set` under `exp`'s core config over `h`.
std::vector<uint64_t> Replay(const harness::ExperimentConfig& exp,
                             const harness::TraceSet& set,
                             memsim::MemoryHierarchy* h) {
  return ResultWords(
      coresim::CmpSimulator(harness::MakeSimConfig(exp, set), h,
                            set.Pointers())
          .Run());
}

TEST(SmpArms, SmokesmpDirectoryEqualsReferenceEqualsRunExperiment) {
  const sweep::SweepSpec spec = sweep::BuiltinSpec("smokesmp");
  harness::WorkloadFactory factory;
  sweep::ConfigureFactoryForSpec("smokesmp", &factory);
  const std::vector<sweep::Cell> cells = spec.Expand();
  ASSERT_FALSE(cells.empty());
  uint64_t invalidations = 0;
  for (const sweep::Cell& cell : cells) {
    SCOPED_TRACE("cell " + std::to_string(cell.index));
    ASSERT_EQ(cell.exp.topology, harness::Topology::kSmpPrivate);
    ASSERT_LE(cell.exp.cores, memsim::kNarrowMaxNodes);
    const harness::TraceSet set = factory.Build(cell.trace);
    const memsim::HierarchyConfig hc = harness::MakeHierarchyConfig(cell.exp);

    memsim::PrivateL2Hierarchy directory(hc);
    reference::ReferenceSmpHierarchy ref(hc);
    const std::vector<uint64_t> d = Replay(cell.exp, set, &directory);
    const std::vector<uint64_t> s = Replay(cell.exp, set, &ref);
    const std::vector<uint64_t> r =
        ResultWords(harness::RunExperiment(cell.exp, set));

    ASSERT_EQ(d.size(), s.size());
    ASSERT_EQ(d.size(), r.size());
    for (size_t i = 0; i < d.size(); ++i) {
      EXPECT_EQ(d[i], s[i]) << "directory vs reference, result field " << i;
      EXPECT_EQ(d[i], r[i]) << "directory vs RunExperiment, result field "
                            << i;
    }
    EXPECT_EQ(directory.CheckDirectoryInvariants(), "");
    invalidations += directory.stats().invalidations;
  }
  // The grid must exercise coherence, or the comparison is vacuous. (The
  // OLTP cell's shared lock and district lines always do; whether the DSS
  // cell does depends on heap layout.)
  EXPECT_GT(invalidations, 0u);
}

}  // namespace
}  // namespace stagedcmp
