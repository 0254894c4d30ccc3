// Unit tests of the benchmark's own code: the percentile and trimmed-mean
// helpers, span self time, and the seeded input generator.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "inputs.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(Percentile, ReportsSampleCountAndTail) {
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(static_cast<double>(i));
  const Percentile p90 = percentile(v, 0.9, 10);
  EXPECT_EQ(p90.samples, 200u);
  EXPECT_DOUBLE_EQ(p90.value, 180.0);
  EXPECT_EQ(p90.beyond, 20u);
  const Percentile p50 = percentile(v, 0.5);
  EXPECT_DOUBLE_EQ(p50.value, 100.0);
  EXPECT_EQ(p50.samples, 200u);
}

TEST(Percentile, RefusesP90WithFewerThanTenBeyond) {
  std::vector<double> v(99, 1.0);  // p90 leaves 9 samples beyond it
  EXPECT_THROW((void)percentile(v, 0.9, 10), std::invalid_argument);
  v.push_back(1.0);  // 100 samples: 10 beyond
  EXPECT_EQ(percentile(v, 0.9, 10).beyond, 10u);
  EXPECT_EQ(samples_needed(0.9, 10), 100u);
  EXPECT_THROW((void)percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)percentile({1.0}, 0.0), std::invalid_argument);
}

TEST(TrimmedMean, DropsBothTailsOfTheSample) {
  // n = 10, trim 0.1: the smallest and the largest value are dropped.
  EXPECT_DOUBLE_EQ(trimmed_mean({100.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, -50.0}, 0.1),
                   5.5);
  EXPECT_DOUBLE_EQ(trimmed_mean({1.0, 2.0, 6.0}, 0.1), 3.0);  // cut rounds down to 0
  EXPECT_THROW((void)trimmed_mean({}, 0.1), std::invalid_argument);
  EXPECT_THROW((void)trimmed_mean({1.0}, 0.5), std::invalid_argument);
}

Span make_span(const char* name, std::int64_t start_ms, std::int64_t end_ms,
               std::int32_t parent) {
  Span s;
  s.name = name;
  s.start_ns = start_ms * 1000000;
  s.end_ns = end_ms * 1000000;
  s.parent = parent;
  s.step = 0;
  return s;
}

TEST(Trace, SelfTimeSubtractsCoveredChildIntervals) {
  // step [0,100) -> lookup [10,40) -> plan [15,35)
  //              -> factor [50,90)
  // An overlapping and an out-of-parent child must not be double counted.
  std::vector<Span> spans = {
      make_span("step", 0, 100, -1),   make_span("lookup", 10, 40, 0),
      make_span("plan", 15, 35, 1),    make_span("factor", 50, 90, 0),
      make_span("overlap", 80, 95, 0), make_span("late", 120, 130, 0),
  };
  const std::vector<double> self = self_seconds(spans);
  EXPECT_NEAR(self[0], 0.100 - 0.030 - 0.045, 1e-12);  // covered: [10,40) [50,95)
  EXPECT_NEAR(self[1], 0.030 - 0.020, 1e-12);
  EXPECT_NEAR(self[2], 0.020, 1e-12);
  EXPECT_NEAR(self[3], 0.040, 1e-12);
  const auto by_name = self_seconds_by_name(spans);
  ASSERT_EQ(by_name.at("plan").size(), 1u);
  EXPECT_NEAR(by_name.at("plan")[0], 0.020, 1e-12);
}

TEST(Trace, ScopesNestAndCapacityDropsWithoutGrowing) {
  Tracer t(3);
  {
    const Tracer::Scope a(&t, "a", 1);
    {
      const Tracer::Scope b(&t, "b", 1);
      const Tracer::Scope c(&t, "c", 1);
    }
    const Tracer::Scope d(&t, "d", 1);  // over capacity: dropped
    const Tracer::Scope off(nullptr, "off", 1);  // untraced: records nothing
  }
  ASSERT_EQ(t.spans().size(), 3u);
  EXPECT_EQ(t.dropped(), 1u);
  EXPECT_EQ(t.spans()[0].parent, -1);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[2].parent, 1);
  for (const Span& s : t.spans()) EXPECT_GE(s.end_ns, s.start_ns);
}

TEST(Inputs, SameSeedSameHashDifferentSeedDifferentHash) {
  for (const Workload w : {Workload::kNewtonMesh, Workload::kTransientTrisolve,
                           Workload::kPatternChurn, Workload::kRestartStore}) {
    const Inputs a = make_inputs(w, 7);
    const Inputs b = make_inputs(w, 7);
    const Inputs c = make_inputs(w, 8);
    EXPECT_EQ(a.hash, b.hash) << to_string(w);
    EXPECT_NE(a.hash, c.hash) << to_string(w);
  }
}

TEST(Inputs, ZipfVisitsAreSkewedAndSeeded) {
  const auto v = zipf_visits(32, 1.0, 20000, 5);
  EXPECT_EQ(v, zipf_visits(32, 1.0, 20000, 5));
  std::vector<int> hits(32, 0);
  for (const auto p : v) ++hits.at(p);
  EXPECT_GT(hits[0], hits[31] * 10);
}

}  // namespace
}  // namespace perfbench
