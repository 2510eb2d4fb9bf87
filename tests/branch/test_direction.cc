/** @file Unit tests for the direction predictors. */

#include <gtest/gtest.h>

#include "branch/direction.hh"
#include "util/random.hh"
#include "branch/perceptron.hh"

namespace
{

using namespace ghrp;
using namespace ghrp::branch;

double
accuracyOn(DirectionPredictor &p, const std::vector<bool> &outcomes,
           Addr pc = 0x4000)
{
    int correct = 0;
    for (bool taken : outcomes) {
        if (p.predict(pc) == taken)
            ++correct;
        p.update(pc, taken);
    }
    return static_cast<double>(correct) /
           static_cast<double>(outcomes.size());
}

std::vector<bool>
repeated(bool value, int n)
{
    return std::vector<bool>(static_cast<std::size_t>(n), value);
}

TEST(Bimodal, LearnsBias)
{
    BimodalPredictor p(1024);
    EXPECT_GT(accuracyOn(p, repeated(true, 200)), 0.95);
    BimodalPredictor q(1024);
    EXPECT_GT(accuracyOn(q, repeated(false, 200)), 0.95);
}

TEST(Bimodal, HysteresisSurvivesSingleFlip)
{
    BimodalPredictor p(1024);
    accuracyOn(p, repeated(true, 10));
    p.predict(0x4000);
    p.update(0x4000, false);  // one not-taken
    EXPECT_TRUE(p.predict(0x4000));  // still predicts taken
}

TEST(Gshare, LearnsAlternation)
{
    // T,N,T,N... is history-predictable: gshare should approach 100%
    // after warmup; bimodal cannot exceed ~50%.
    std::vector<bool> alt;
    for (int i = 0; i < 2000; ++i)
        alt.push_back(i % 2 == 0);

    GsharePredictor g;
    const double gshare_acc = accuracyOn(g, alt);
    BimodalPredictor b;
    const double bimodal_acc = accuracyOn(b, alt);
    EXPECT_GT(gshare_acc, 0.9);
    EXPECT_LT(bimodal_acc, 0.7);
}

TEST(Perceptron, LearnsBias)
{
    HashedPerceptron p;
    EXPECT_GT(accuracyOn(p, repeated(true, 400)), 0.9);
}

TEST(Perceptron, LearnsPeriodicPattern)
{
    // Period-5 pattern TTTNN...: linearly separable on history bits.
    std::vector<bool> pattern;
    for (int i = 0; i < 4000; ++i)
        pattern.push_back(i % 5 < 3);
    HashedPerceptron p;
    EXPECT_GT(accuracyOn(p, pattern), 0.9);
}

TEST(Perceptron, BeatsBimodalOnCorrelatedBranches)
{
    // Branch B's outcome equals branch A's previous outcome.
    HashedPerceptron hp;
    BimodalPredictor bi;
    Rng rng(3);
    int hp_correct = 0, bi_correct = 0;
    const int n = 4000;
    bool a_prev = false;
    for (int i = 0; i < n; ++i) {
        const bool a = rng.nextBool(0.5);
        // Branch A at 0x1000.
        hp.predict(0x1000);
        hp.update(0x1000, a);
        bi.predict(0x1000);
        bi.update(0x1000, a);
        // Branch B at 0x2000 repeats A's outcome.
        const bool b = a_prev;
        if (hp.predict(0x2000) == b)
            ++hp_correct;
        hp.update(0x2000, b);
        if (bi.predict(0x2000) == b)
            ++bi_correct;
        bi.update(0x2000, b);
        a_prev = a;
    }
    EXPECT_GT(hp_correct, bi_correct);
    EXPECT_GT(static_cast<double>(hp_correct) / n, 0.8);
}

TEST(Perceptron, ThetaDerivedFromHistoryLengths)
{
    // theta = 1.93 * mean(0, 3, 6, 12, 21, 34, 51, 64) + 14 = 60.08.
    EXPECT_EQ(HashedPerceptron::kTheta, 60);
}

TEST(Perceptron, ConfidentBranchStopsTrainingAtTheta)
{
    // A correct prediction trains only while |sum| <= theta, so a
    // branch that is always taken settles just above theta: one last
    // step of the eight weights takes the sum past it.
    HashedPerceptron p;
    for (int i = 0; i < 300; ++i) {
        p.predict(0x1000);
        p.update(0x1000, true);
    }
    p.predict(0x1000);
    EXPECT_GT(p.lastSum(), HashedPerceptron::kTheta);
    EXPECT_LE(p.lastSum(), HashedPerceptron::kTheta + 8);
}

TEST(Perceptron, WeightsSaturateAtInt8Bounds)
{
    // Theta stops a consistent branch long before any weight fills, so
    // the weights of one prediction are trained by repeating update()
    // after a single predict(). The PCs keep the path history at 0, and
    // a constant outcome keeps the outcome history where it is, so the
    // final predict() reads the same eight weights back.
    HashedPerceptron low;
    low.predict(0x1000);
    for (int i = 0; i < 300; ++i)
        low.update(0x1000, false);
    low.predict(0x1000);
    EXPECT_EQ(low.lastSum(), 8 * -128);

    HashedPerceptron high;
    for (int i = 0; i < 64; ++i) {
        // Fill the outcome history with ones through another branch.
        high.predict(0x2000);
        high.update(0x2000, true);
    }
    high.predict(0x1000);
    for (int i = 0; i < 300; ++i)
        high.update(0x1000, true);
    high.predict(0x1000);
    EXPECT_EQ(high.lastSum(), 8 * 127);
}

TEST(Direction, NamesDistinct)
{
    BimodalPredictor b;
    GsharePredictor g;
    HashedPerceptron h;
    EXPECT_NE(b.name(), g.name());
    EXPECT_NE(g.name(), h.name());
}

} // anonymous namespace
