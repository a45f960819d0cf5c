// Differential soak: RTSI and extended LSII implement the same scoring
// model, so under single-window streams (where postings never span
// components and both bounds are exact) a long randomized stream of
// inserts, finishes, deletions, popularity updates and queries must
// produce identical top-k output from both indices at every step.

#include <gtest/gtest.h>

#include <set>

#include "baseline/lsii_index.h"
#include "common/rng.h"
#include "core/rtsi_index.h"

namespace rtsi {
namespace {

using core::RtsiConfig;
using core::TermCount;

class DifferentialSoak : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialSoak, RtsiAndLsiiAgreeOnSingleWindowWorkloads) {
  RtsiConfig config;
  config.lsm.delta = 200;
  // Popularity updates land after insertion; the snapshot bound mode is
  // then only approximate. The global-pop mode keeps both systems exact,
  // so their outputs must match bit for bit.
  config.bound_mode = core::BoundMode::kGlobalPop;
  core::RtsiIndex rtsi(config);
  baseline::LsiiIndex lsii(config);

  Rng rng(GetParam() * 1003);
  Timestamp t = 0;
  StreamId next_stream = 0;
  std::vector<StreamId> active;

  for (int step = 0; step < 1500; ++step) {
    t += kMicrosPerSecond;
    const double action = rng.NextDouble();
    if (action < 0.55) {
      // New single-window stream.
      const StreamId stream = next_stream++;
      std::vector<TermCount> terms;
      std::set<TermId> used;
      const int n = 2 + static_cast<int>(rng.NextUint64(6));
      for (int i = 0; i < n; ++i) {
        const auto term = static_cast<TermId>(rng.NextUint64(60));
        if (used.insert(term).second) {
          terms.push_back(
              {term, 1 + static_cast<TermFreq>(rng.NextUint64(4))});
        }
      }
      rtsi.InsertWindow(stream, t, terms, false);
      lsii.InsertWindow(stream, t, terms, false);
      rtsi.FinishStream(stream);
      lsii.FinishStream(stream);
      active.push_back(stream);
    } else if (action < 0.70 && !active.empty()) {
      const StreamId stream = active[rng.NextUint64(active.size())];
      const std::uint64_t delta = 1 + rng.NextUint64(50);
      rtsi.UpdatePopularity(stream, delta);
      lsii.UpdatePopularity(stream, delta);
    } else if (action < 0.76 && !active.empty()) {
      const std::size_t pick = rng.NextUint64(active.size());
      const StreamId stream = active[pick];
      rtsi.DeleteStream(stream);
      lsii.DeleteStream(stream);
      active.erase(active.begin() + static_cast<long>(pick));
    } else {
      std::vector<TermId> q = {static_cast<TermId>(rng.NextUint64(60))};
      if (rng.NextBool(0.6)) {
        q.push_back(static_cast<TermId>(rng.NextUint64(60)));
      }
      const int k = 1 + static_cast<int>(rng.NextUint64(12));
      const auto r1 = rtsi.Query(q, k, t);
      const auto r2 = lsii.Query(q, k, t);
      ASSERT_EQ(r1.size(), r2.size()) << "step " << step;
      for (std::size_t i = 0; i < r1.size(); ++i) {
        // Scores (and therefore ranks up to ties) must match exactly.
        ASSERT_NEAR(r1[i].score, r2[i].score, 1e-9)
            << "step " << step << " rank " << i;
      }
    }
  }
  // Both must have merged at some point for the comparison to be
  // interesting.
  rtsi.WaitForMerges();
  EXPECT_GT(rtsi.GetMergeStats().merges, 0u);
  EXPECT_GT(lsii.GetMergeStats().merges, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialSoak, ::testing::Range(1, 7));

}  // namespace
}  // namespace rtsi
