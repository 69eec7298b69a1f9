/** @file Unit and property tests for the matrix arbiter (Figure 10). */

#include <gtest/gtest.h>

#include <vector>

#include "arb/matrix_arbiter.hh"
#include "arb/scalar_oracle.hh"
#include "common/rng.hh"

using namespace pdr;
using namespace pdr::arb;

namespace {

arb::ReqRow
mask(int n, std::initializer_list<int> set)
{
    arb::ReqRow m(n, false);
    for (int i : set)
        m[std::size_t(i)] = true;
    return m;
}

} // namespace

TEST(MatrixArbiter, NoRequestsNoGrant)
{
    MatrixArbiter arb(4);
    EXPECT_EQ(arb.arbitrate(mask(4, {})), NoGrant);
}

TEST(MatrixArbiter, SingleRequestWins)
{
    MatrixArbiter arb(4);
    for (int i = 0; i < 4; i++)
        EXPECT_EQ(arb.arbitrate(mask(4, {i})), i);
}

TEST(MatrixArbiter, InitialPriorityIsIndexOrder)
{
    MatrixArbiter arb(4);
    EXPECT_EQ(arb.arbitrate(mask(4, {1, 3})), 1);
    EXPECT_EQ(arb.arbitrate(mask(4, {0, 1, 2, 3})), 0);
}

TEST(MatrixArbiter, WinnerDropsToLowestPriority)
{
    MatrixArbiter arb(3);
    EXPECT_EQ(arb.arbitrate(mask(3, {0, 1})), 0);
    arb.update(0);
    // 0 is now lowest: 1 beats 0, 2 beats 0.
    EXPECT_EQ(arb.arbitrate(mask(3, {0, 1})), 1);
    EXPECT_EQ(arb.arbitrate(mask(3, {0, 2})), 2);
    arb.update(1);
    EXPECT_EQ(arb.arbitrate(mask(3, {0, 1})), 0);
}

TEST(MatrixArbiter, LeastRecentlyServedOrder)
{
    MatrixArbiter arb(4);
    auto all = mask(4, {0, 1, 2, 3});
    std::vector<int> order;
    for (int i = 0; i < 8; i++) {
        int w = arb.arbitrate(all);
        ASSERT_NE(w, NoGrant);
        arb.update(w);
        order.push_back(w);
    }
    // With all requesting, LRS degenerates to round-robin.
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 0, 1, 2, 3}));
}

TEST(MatrixArbiter, ArbitrateIsPure)
{
    // arbitrate() must not mutate priority state.
    MatrixArbiter arb(3);
    auto req = mask(3, {0, 1, 2});
    EXPECT_EQ(arb.arbitrate(req), 0);
    EXPECT_EQ(arb.arbitrate(req), 0);
    EXPECT_EQ(arb.arbitrate(req), 0);
}

TEST(MatrixArbiter, SizeOne)
{
    MatrixArbiter arb(1);
    EXPECT_EQ(arb.arbitrate(mask(1, {0})), 0);
    arb.update(0);
    EXPECT_EQ(arb.arbitrate(mask(1, {0})), 0);
}

namespace {

/**
 * Golden grant + priority-state sequence.  The matrix priority state is
 * a total order maintained as "least recently served first wins", so
 * the expected winners are derived by hand from the list model (winner
 * moves to the back); the final dumpState bytes pin the exact
 * serialized upper-triangle evolution the equivalence tests rely on.
 * Applied to both the bitmask engine and the scalar oracle so a
 * semantic drift in either is caught against an independent reference.
 */
template <typename Arb>
void
runGoldenSequence()
{
    Arb arb(4);
    const struct {
        std::initializer_list<int> req;
        int winner;
    } steps[] = {
        // Order starts [0,1,2,3] (highest priority first).
        {{0, 1, 2, 3}, 0},  // -> [1,2,3,0]
        {{0, 1, 2, 3}, 1},  // -> [2,3,0,1]
        {{0, 3}, 3},        // -> [2,0,1,3]
        {{1, 3}, 1},        // -> [2,0,3,1]
        {{0, 1, 2}, 2},     // -> [0,3,1,2]
        {{1, 2, 3}, 3},     // -> [0,1,2,3]
        {{2}, 2},           // -> [0,1,3,2]
        {{0, 1, 2, 3}, 0},  // -> [1,3,2,0]
        {{0, 2, 3}, 3},     // -> [1,2,0,3]
    };
    int step = 0;
    for (const auto &s : steps) {
        int w = arb.arbitrate(mask(4, s.req));
        ASSERT_EQ(w, s.winner) << "step " << step;
        arb.update(w);
        step++;
    }
    // Final order [1,2,0,3]: beats(i,j) for i < j, row-major.
    std::vector<std::uint8_t> state;
    arb.dumpState(state);
    EXPECT_EQ(state, (std::vector<std::uint8_t>{0, 0, 1, 1, 1, 1}));
}

} // namespace

TEST(MatrixArbiter, GoldenPrioritySequence)
{
    runGoldenSequence<MatrixArbiter>();
}

TEST(MatrixArbiter, GoldenPrioritySequenceScalarOracle)
{
    runGoldenSequence<ScalarMatrixArbiter>();
}

class MatrixArbiterProperty : public testing::TestWithParam<int>
{
};

TEST_P(MatrixArbiterProperty, AlwaysGrantsExactlyOneRequester)
{
    int n = GetParam();
    MatrixArbiter arb(n);
    Rng rng(1234 + n);
    for (int round = 0; round < 2000; round++) {
        arb::ReqRow req(n);
        bool any = false;
        for (int i = 0; i < n; i++) {
            req[i] = rng.bernoulli(0.4);
            any = any || req[i];
        }
        int w = arb.arbitrate(req);
        if (!any) {
            EXPECT_EQ(w, NoGrant);
        } else {
            ASSERT_NE(w, NoGrant);
            EXPECT_TRUE(req[w]);
            arb.update(w);
        }
    }
}

TEST_P(MatrixArbiterProperty, StrongFairnessUnderFullLoad)
{
    // Every requestor is served once per n grants when all request.
    int n = GetParam();
    MatrixArbiter arb(n);
    arb::ReqRow all(n, true);
    std::vector<int> served(n, 0);
    for (int round = 0; round < 10 * n; round++) {
        int w = arb.arbitrate(all);
        ASSERT_NE(w, NoGrant);
        served[w]++;
        arb.update(w);
    }
    for (int i = 0; i < n; i++)
        EXPECT_EQ(served[i], 10) << "requestor " << i;
}

TEST_P(MatrixArbiterProperty, NoStarvationUnderRandomLoad)
{
    // A persistent requestor is served within n rounds even against
    // random competition (the LRS property).
    int n = GetParam();
    if (n < 2)
        return;
    MatrixArbiter arb(n);
    Rng rng(99);
    int waiting = 0;
    for (int round = 0; round < 3000; round++) {
        arb::ReqRow req(n);
        req[0] = true;      // Persistent requestor.
        for (int i = 1; i < n; i++)
            req[i] = rng.bernoulli(0.8);
        int w = arb.arbitrate(req);
        ASSERT_NE(w, NoGrant);
        arb.update(w);
        if (w == 0) {
            waiting = 0;
        } else {
            waiting++;
            ASSERT_LT(waiting, n) << "requestor 0 starved";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatrixArbiterProperty,
                         testing::Values(1, 2, 3, 4, 5, 8, 16),
                         testing::PrintToStringParamName());

namespace {

/** A seeded request word over n requestors; the density varies per
 *  round so sparse, dense and single-bid rounds all occur. */
std::uint64_t
randomRequests(Rng &rng, int n)
{
    const double density = 0.05 + 0.9 * rng.uniform();
    std::uint64_t req = 0;
    for (int i = 0; i < n; i++) {
        if (rng.bernoulli(density))
            req |= std::uint64_t(1) << i;
    }
    return req;
}

arb::ReqRow
unpack(const std::vector<std::uint64_t> &words, int n)
{
    arb::ReqRow row(n, 0);
    for (int i = 0; i < n; i++)
        row[i] = testBit(words.data(), i) ? 1 : 0;
    return row;
}

} // namespace

TEST(MatrixArbiter, WordPathMatchesGenericPathInLockstep)
{
    // Three arbiters see the same request stream: one driven through
    // the single-word arbitrateWord/updateWord forms, one through the
    // generic arbitrateMask/update forms, and the scalar oracle.  The
    // winners and the serialized priority state must agree every round.
    for (int n : {1, 2, 5, 10, 63, 64}) {
        MatrixArbiter word(n), generic(n);
        ScalarMatrixArbiter oracle(n);
        ASSERT_EQ(word.words(), 1);
        Rng rng(7000 + std::uint64_t(n));
        std::vector<std::uint8_t> sw, sg, so;
        for (int round = 0; round < 3000; round++) {
            const std::uint64_t req = randomRequests(rng, n);
            const int ww = word.arbitrateWord(req);
            const int wg = generic.arbitrateMask(&req);
            const int wo = oracle.arbitrate(unpack({req}, n));
            ASSERT_EQ(ww, wg) << "n " << n << " round " << round;
            ASSERT_EQ(ww, wo) << "n " << n << " round " << round;
            if (ww != NoGrant) {
                word.updateWord(ww);
                generic.update(wg);
                oracle.update(wo);
            }
            sw.clear();
            sg.clear();
            so.clear();
            word.dumpState(sw);
            generic.dumpState(sg);
            oracle.dumpState(so);
            ASSERT_EQ(sw, sg) << "n " << n << " round " << round;
            ASSERT_EQ(sw, so) << "n " << n << " round " << round;
        }
    }
}

TEST(MatrixArbiter, SixtyFiveRequestorsTakeTheMultiWordPath)
{
    MatrixArbiter arb(65);
    ScalarMatrixArbiter oracle(65);
    ASSERT_EQ(arb.words(), 2);
    EXPECT_DEATH((void)arb.arbitrateWord(1), "");
    EXPECT_DEATH(arb.updateWord(0), "");
    Rng rng(65);
    std::vector<std::uint8_t> sa, so;
    for (int round = 0; round < 2000; round++) {
        std::vector<std::uint64_t> req(2, 0);
        const double density = 0.05 + 0.9 * rng.uniform();
        for (int i = 0; i < 65; i++) {
            if (rng.bernoulli(density))
                setBit(req.data(), i);
        }
        const int w = arb.arbitrateMask(req.data());
        ASSERT_EQ(w, oracle.arbitrate(unpack(req, 65))) << round;
        if (w != NoGrant) {
            arb.update(w);
            oracle.update(w);
        }
        sa.clear();
        so.clear();
        arb.dumpState(sa);
        oracle.dumpState(so);
        ASSERT_EQ(sa, so) << round;
    }
}

TEST(MatrixArbiterSlab, EachArbiterMatchesAStandaloneOne)
{
    // A slab of 3 arbiters, word-sized and multi-word, driven with one
    // stream per arbiter, against standalone MatrixArbiters.
    for (int n : {5, 70}) {
        MatrixArbiterSlab slab(3, n);
        std::vector<MatrixArbiter> alone(3, MatrixArbiter(n));
        const int words = wordsFor(n);
        ASSERT_EQ(slab.words(), words);
        Rng rng(300 + std::uint64_t(n));
        for (int round = 0; round < 1000; round++) {
            const int a = int(rng.range(3));
            std::vector<std::uint64_t> req(std::size_t(words), 0);
            for (int i = 0; i < n; i++) {
                if (rng.bernoulli(0.3))
                    setBit(req.data(), i);
            }
            int w = words == 1 ? slab.arbitrateWord(a, req[0])
                               : slab.arbitrate(a, req.data());
            ASSERT_EQ(w, alone[a].arbitrateMask(req.data())) << round;
            if (w == NoGrant)
                continue;
            if (words == 1)
                slab.updateWord(a, w);
            else
                slab.update(a, w);
            alone[a].update(w);
        }
        std::vector<std::uint8_t> s_slab, s_alone;
        slab.dumpState(s_slab);
        for (const auto &arb : alone)
            arb.dumpState(s_alone);
        EXPECT_EQ(s_slab, s_alone) << "n " << n;
    }
}
