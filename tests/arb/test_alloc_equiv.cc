/**
 * @file
 * Lockstep equivalence: bitmask allocation engine vs scalar oracle.
 *
 * The bitmask rework (arb/bitrow.hh layout) claims bit-identical grants
 * AND bit-identical priority-state evolution against the retained dense
 * implementations (arb/scalar_oracle.hh).  These tests drive each
 * bitmask/scalar pair in lockstep over seeded random request streams --
 * every round the grant vectors must match exactly (same grants, same
 * order), and the serialized priority state (rotating pointers + every
 * matrix arbiter's upper triangle) is compared periodically and at the
 * end, so a divergence in arbiter updates is caught even when it has
 * not yet produced a differing grant.
 *
 * An end-to-end layer runs whole simulations with router.scalar_alloc
 * on and off and requires identical results, covering the router's
 * sparse bid staging (bidRouteWait_/bidActive_/outFree_) on top of the
 * allocators themselves.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "api/simulation.hh"
#include "arb/matrix_arbiter.hh"
#include "arb/scalar_oracle.hh"
#include "arb/switch_allocator.hh"
#include "arb/vc_allocator.hh"
#include "common/rng.hh"

using namespace pdr;
using namespace pdr::arb;
using router::RouterModel;

namespace {

constexpr int kRounds = 10000;
constexpr int kStateEvery = 500;  //!< Full-state compare period.

/** Round-varying request density: sparse, medium, saturated. */
double
density(int round)
{
    static const double kDensities[3] = {0.1, 0.5, 0.9};
    return kDensities[round % 3];
}

std::tuple<int, int, int, bool>
key(const SaGrant &g)
{
    return {g.inPort, g.inVc, g.outPort, g.spec};
}

std::tuple<int, int, int, int>
key(const VaGrant &g)
{
    return {g.inPort, g.inVc, g.outPort, g.outVc};
}

template <typename Grant>
void
expectSameGrants(const std::vector<Grant> &bit,
                 const std::vector<Grant> &sca, int round)
{
    ASSERT_EQ(bit.size(), sca.size()) << "round " << round;
    for (std::size_t i = 0; i < bit.size(); i++)
        ASSERT_EQ(key(bit[i]), key(sca[i]))
            << "round " << round << " grant " << i;
}

template <typename Bit, typename Scalar>
void
expectSameState(const Bit &bit, const Scalar &sca, int round)
{
    std::vector<std::uint8_t> sb, ss;
    bit.dumpState(sb);
    sca.dumpState(ss);
    ASSERT_EQ(sb, ss) << "priority state diverged by round " << round;
}

} // namespace

// ---------------------------------------------------------------------
// MatrixArbiter vs ScalarMatrixArbiter, including a multi-word size.
// ---------------------------------------------------------------------

class MatrixArbiterEquiv : public testing::TestWithParam<int>
{
};

TEST_P(MatrixArbiterEquiv, LockstepGrantsAndState)
{
    const int n = GetParam();
    MatrixArbiter bit(n);
    ScalarMatrixArbiter sca(n);
    Rng rng(0xA110C8ED ^ std::uint64_t(n));
    ReqRow req(n);
    for (int round = 0; round < kRounds; round++) {
        const double d = density(round);
        for (int i = 0; i < n; i++)
            req[i] = rng.bernoulli(d) ? 1 : 0;
        const int wb = bit.arbitrate(req);
        const int ws = sca.arbitrate(req);
        ASSERT_EQ(wb, ws) << "round " << round;
        if (wb != NoGrant) {
            bit.update(wb);
            sca.update(ws);
        }
        if (round % kStateEvery == 0)
            expectSameState(bit, sca, round);
    }
    expectSameState(bit, sca, kRounds);
}

// 130 exercises the three-word arbitrateMask path (the stage-2 VC
// arbiter is (p*v):1 and may exceed one word).
INSTANTIATE_TEST_SUITE_P(Sizes, MatrixArbiterEquiv,
                         testing::Values(1, 2, 5, 8, 63, 64, 130),
                         testing::PrintToStringParamName());

// ---------------------------------------------------------------------
// Switch allocators, parameterized over (p, v).
// ---------------------------------------------------------------------

class AllocEquiv
    : public testing::TestWithParam<std::tuple<int, int>>
{
  protected:
    int p() const { return std::get<0>(GetParam()); }
    int v() const { return std::get<1>(GetParam()); }
};

TEST_P(AllocEquiv, WormholeArbiter)
{
    // Wormhole routers are v == 1; skip the multi-VC instantiations.
    if (v() != 1)
        return;
    WormholeSwitchArbiter bit(p());
    ScalarWormholeSwitchArbiter sca(p());
    Rng rng(0x11 + p());
    std::vector<SaRequest> reqs;
    for (int round = 0; round < kRounds; round++) {
        const double d = density(round);
        reqs.clear();
        // At most one request per input port (deterministic routing).
        for (int in = 0; in < p(); in++) {
            if (rng.bernoulli(d))
                reqs.push_back({in, 0, int(rng.range(p())), false});
        }
        expectSameGrants(bit.allocate(reqs), sca.allocate(reqs), round);
        if (round % kStateEvery == 0)
            expectSameState(bit, sca, round);
    }
    expectSameState(bit, sca, kRounds);
}

TEST_P(AllocEquiv, SeparableSwitchAllocator)
{
    SeparableSwitchAllocator bit(p(), v());
    ScalarSeparableSwitchAllocator sca(p(), v());
    Rng rng(0x22 + p() * 64 + v());
    std::vector<SaRequest> reqs;
    for (int round = 0; round < kRounds; round++) {
        const double d = density(round);
        reqs.clear();
        // At most one bid per input VC.
        for (int in = 0; in < p(); in++) {
            for (int vc = 0; vc < v(); vc++) {
                if (rng.bernoulli(d))
                    reqs.push_back({in, vc, int(rng.range(p())), false});
            }
        }
        expectSameGrants(bit.allocate(reqs), sca.allocate(reqs), round);
        if (round % kStateEvery == 0)
            expectSameState(bit, sca, round);
    }
    expectSameState(bit, sca, kRounds);
}

TEST_P(AllocEquiv, SpeculativeSwitchAllocator)
{
    SpeculativeSwitchAllocator bit(p(), v());
    ScalarSpeculativeSwitchAllocator sca(p(), v());
    Rng rng(0x33 + p() * 64 + v());
    std::vector<SaRequest> reqs;
    for (int round = 0; round < kRounds; round++) {
        const double d = density(round);
        reqs.clear();
        for (int in = 0; in < p(); in++) {
            for (int vc = 0; vc < v(); vc++) {
                if (rng.bernoulli(d))
                    reqs.push_back({in, vc, int(rng.range(p())),
                                    rng.bernoulli(0.5)});
            }
        }
        expectSameGrants(bit.allocate(reqs), sca.allocate(reqs), round);
        if (round % kStateEvery == 0)
            expectSameState(bit, sca, round);
    }
    expectSameState(bit, sca, kRounds);
}

TEST_P(AllocEquiv, VcAllocator)
{
    VcAllocator bit(p(), v());
    ScalarVcAllocator sca(p(), v());
    Rng rng(0x44 + p() * 64 + v());
    std::vector<VaRequest> reqs;
    std::vector<std::uint64_t> free_vcs(p());
    for (int round = 0; round < kRounds; round++) {
        const double d = density(round);
        reqs.clear();
        for (int in = 0; in < p(); in++) {
            for (int vc = 0; vc < v(); vc++) {
                if (!rng.bernoulli(d))
                    continue;
                // Nonzero acceptable-VC mask (bits >= v ignored by the
                // allocators; keep them clear as routing would).
                std::uint32_t vc_mask =
                    std::uint32_t(rng.range((1u << v()) - 1) + 1);
                reqs.push_back({in, vc, int(rng.range(p())), vc_mask});
            }
        }
        // Free-VC words, occasionally fully free / fully busy.
        for (int out = 0; out < p(); out++) {
            std::uint64_t w = 0;
            if (round % 17 == 0) {
                w = lowMask(v());
            } else if (round % 19 != 0) {
                for (int ov = 0; ov < v(); ov++) {
                    if (rng.bernoulli(0.6))
                        w |= std::uint64_t(1) << ov;
                }
            }
            free_vcs[out] = w;
        }
        expectSameGrants(bit.allocate(reqs, free_vcs.data()),
                         sca.allocate(reqs, free_vcs.data()), round);
        if (round % kStateEvery == 0)
            expectSameState(bit, sca, round);
    }
    expectSameState(bit, sca, kRounds);
}

INSTANTIATE_TEST_SUITE_P(
    Dims, AllocEquiv,
    testing::Values(std::make_tuple(2, 1), std::make_tuple(5, 1),
                    std::make_tuple(8, 1), std::make_tuple(2, 2),
                    std::make_tuple(3, 4), std::make_tuple(5, 2),
                    std::make_tuple(8, 8), std::make_tuple(5, 16)),
    [](const testing::TestParamInfo<std::tuple<int, int>> &info) {
        return "p" + std::to_string(std::get<0>(info.param)) + "v" +
               std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// End-to-end: whole simulations with router.scalar_alloc on/off.
// ---------------------------------------------------------------------

namespace {

api::SimResults
runModel(RouterModel model, int vcs, bool scalar)
{
    api::SimConfig cfg;
    cfg.net.k = 4;
    cfg.net.router.model = model;
    cfg.net.router.numVcs = vcs;
    cfg.net.router.bufDepth = 4;
    cfg.net.router.scalarAlloc = scalar;
    cfg.net.setOfferedFraction(0.3);
    cfg.mode = "fixed";
    cfg.horizon = 4000;
    return api::runSimulation(cfg);
}

void
expectSameResults(RouterModel model, int vcs)
{
    const auto bit = runModel(model, vcs, false);
    const auto sca = runModel(model, vcs, true);
    EXPECT_EQ(bit.cycles, sca.cycles);
    EXPECT_DOUBLE_EQ(bit.avgLatency, sca.avgLatency);
    EXPECT_DOUBLE_EQ(bit.acceptedFraction, sca.acceptedFraction);
    EXPECT_EQ(bit.routers.flitsIn, sca.routers.flitsIn);
    EXPECT_EQ(bit.routers.vaGrants, sca.routers.vaGrants);
    EXPECT_EQ(bit.routers.specSaAttempts, sca.routers.specSaAttempts);
    EXPECT_EQ(bit.routers.specSaUseful, sca.routers.specSaUseful);
}

} // namespace

TEST(AllocEquivEndToEnd, Wormhole)
{
    expectSameResults(RouterModel::Wormhole, 1);
}

TEST(AllocEquivEndToEnd, VirtualChannel)
{
    expectSameResults(RouterModel::VirtualChannel, 4);
}

TEST(AllocEquivEndToEnd, SpecVirtualChannel)
{
    expectSameResults(RouterModel::SpecVirtualChannel, 4);
}
