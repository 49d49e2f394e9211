// Table 1 as a gate: on the `table1_accuracy --quick` dataset, FUNNEL's
// per-class confusion counts (scaled by the bench's x86 negative factor) are
// pinned exactly, and FUNNEL's accuracy leads Improved SST, CUSUM and MRLS on
// every KPI class.
//
// Assessment is deterministic at the dataset's fixed seed, so a change to the
// scorer, DiD or the dataset builder that moves one verdict moves a count
// here. An intended change updates kFunnelGolden and says so in CHANGES.md.
#include <gtest/gtest.h>

#include "bench_common.h"

namespace funnel::evalkit {
namespace {

struct GoldenRow {
  tsdb::KpiClass cls;
  std::uint64_t tp, fp, tn, fn;
};

constexpr GoldenRow kFunnelGolden[] = {
    // class, tp, fp, tn, fn (negatives scaled by bench::kNegativeScale)
    {tsdb::KpiClass::kSeasonal, 30, 0, 5549, 1},
    {tsdb::KpiClass::kStationary, 36, 0, 7989, 3},
    {tsdb::KpiClass::kVariable, 36, 2, 7988, 2},
};

const EvalDataset& quick_dataset() {
  static const std::unique_ptr<EvalDataset> ds =
      build_dataset(bench::paper_dataset_params(/*quick=*/true));
  return *ds;
}

const MethodResult& funnel_result() {
  static const MethodResult result = evaluate_funnel(
      quick_dataset(), bench::funnel_config(), bench::kNegativeScale);
  return result;
}

TEST(Table1Gate, FunnelConfusionCountsArePinned) {
  const MethodResult& result = funnel_result();
  ASSERT_EQ(result.by_class.size(), std::size(kFunnelGolden));
  for (const GoldenRow& want : kFunnelGolden) {
    SCOPED_TRACE(tsdb::to_string(want.cls));
    const auto it = result.by_class.find(want.cls);
    ASSERT_NE(it, result.by_class.end());
    const ConfusionMatrix& got = it->second;
    EXPECT_EQ(got.tp, want.tp);
    EXPECT_EQ(got.fp, want.fp);
    EXPECT_EQ(got.tn, want.tn);
    EXPECT_EQ(got.fn, want.fn);
  }
}

TEST(Table1Gate, FunnelLeadsEveryBaselineOnEveryClass) {
  const MethodResult& funnel = funnel_result();
  for (const DetectorSpec& spec :
       {bench::improved_sst_spec(), bench::cusum_spec(), bench::mrls_spec()}) {
    const MethodResult baseline = evaluate_detector(
        quick_dataset(), spec, 60, 60, bench::kNegativeScale);
    for (const auto& [cls, cm] : funnel.by_class) {
      SCOPED_TRACE(spec.name + " / " + tsdb::to_string(cls));
      const auto it = baseline.by_class.find(cls);
      ASSERT_NE(it, baseline.by_class.end());
      EXPECT_GT(cm.accuracy(), it->second.accuracy());
    }
  }
}

}  // namespace
}  // namespace funnel::evalkit
