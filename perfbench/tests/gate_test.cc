/**
 * @file
 * The correctness gate passes a real run and fires on each doctored
 * RunResult field it guards; a doctored weighted speedup is reported,
 * not fatal.
 */

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "gate.hh"
#include "sweep.hh"
#include "workloads.hh"

namespace
{

using namespace cdcs;
using namespace perfbench;

class GateTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        Workload w;
        ASSERT_TRUE(makeWorkload("contention_tiered", 5, true, &w));
        // CDCS under the far tier: every guarded counter is live.
        const MixSpec mix = w.mix(0);
        run = new RunResult(runScheme(w.cfg, w.schemes.back(), mix));
        expected = w.measuredAccessesPerMix();
    }

    static void
    TearDownTestSuite()
    {
        delete run;
        run = nullptr;
    }

    static RunResult *run;
    static std::uint64_t expected;
};

RunResult *GateTest::run = nullptr;
std::uint64_t GateTest::expected = 0;

TEST_F(GateTest, PassesARealRun)
{
    EXPECT_GT(run->memAccesses, 0u);
    EXPECT_GT(run->farMemAccesses, 0u);
    EXPECT_TRUE(checkRun(*run, expected).empty());
}

TEST_F(GateTest, FiresOnWrongAccessCount)
{
    RunResult r = *run;
    r.llcAccesses++;
    EXPECT_EQ(checkRun(r, expected).size(), 1u);
}

TEST_F(GateTest, FiresOnMoreHitsThanAccesses)
{
    RunResult r = *run;
    r.llcHits = r.llcAccesses + 1;
    EXPECT_FALSE(checkRun(r, expected).empty());
}

TEST_F(GateTest, FiresOnControllerSumMismatch)
{
    RunResult r = *run;
    r.memCtrlAccesses.back()++;
    EXPECT_EQ(checkRun(r, expected).size(), 1u);
}

TEST_F(GateTest, FiresOnFarAboveMemory)
{
    RunResult r = *run;
    r.farMemAccesses = r.memAccesses + 1;
    EXPECT_EQ(checkRun(r, expected).size(), 1u);
}

TEST_F(GateTest, FiresOnUnbalancedTierMoves)
{
    RunResult r = *run;
    r.tierPromotions = r.tierDemotions + 1;
    EXPECT_EQ(checkRun(r, expected).size(), 1u);
}

TEST(GateWs, FiresOnNonPositiveOrNonFinite)
{
    EXPECT_TRUE(checkWs(1.25).empty());
    EXPECT_FALSE(checkWs(0.0).empty());
    EXPECT_FALSE(checkWs(-1.0).empty());
    EXPECT_FALSE(checkWs(std::numeric_limits<double>::quiet_NaN()).empty());
    EXPECT_FALSE(checkWs(std::numeric_limits<double>::infinity()).empty());
}

TEST(GateDigest, SeparatesTexts)
{
    EXPECT_EQ(digest("abc"), digest("abc"));
    EXPECT_NE(digest("abc"), digest("abd"));
}

// A failed weighted speedup must reach the report as a gate failure:
// the digest and the record skip the gmean that would abort on it.
TEST(GateWs, DoctoredSweepIsReportedNotFatal)
{
    Workload w;
    ASSERT_TRUE(makeWorkload("omp16_shared", 5, true, &w));
    SweepRep rep = runSweep(w, 1);
    ASSERT_EQ(rep.failed, 0);
    ASSERT_TRUE(wsValid(rep.sweep));
    EXPECT_EQ(rep.digest, digest(rep.sweep.toJson()));
    EXPECT_NE(rep.digest, 0u);

    for (double bad : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
        SweepRep doctored = rep;
        doctored.sweep.ws.back()[0] = bad;
        EXPECT_FALSE(wsValid(doctored.sweep));
        EXPECT_EQ(sweepDigest(doctored.sweep), 0u);
        printRecord(w, doctored, 1, true); // must not abort
    }
}

} // namespace
