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
 * An end-to-end layer steps two networks built from one config, one of
 * them moved onto the oracle router by router, and requires identical
 * delivery traces and router counters.  That covers the router's
 * sparse bid staging (bidRouteWait_/bidActive_/outFree_) on top of the
 * allocators themselves.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "arb/matrix_arbiter.hh"
#include "arb/scalar_oracle.hh"
#include "arb/switch_allocator.hh"
#include "arb/vc_allocator.hh"
#include "common/rng.hh"
#include "net/network.hh"

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

namespace {

/**
 * replay(reqs, n) against n allocate(reqs) calls on a twin: both start
 * from the same warmed-up priority state, must report the same total
 * grants and end in the same state, and must then grant the same in
 * one more round.  `spec_frac` is the share of speculative bids.
 */
template <typename Alloc>
void
expectReplayMatchesRounds(int p, int v, double spec_frac,
                          std::uint64_t seed)
{
    for (std::uint64_t n : {0, 1, 2, 63, 64, 65, 1000}) {
        Alloc jump(p, v), loop(p, v);
        Rng rng(seed ^ (n * 0x9e37));
        std::vector<SaRequest> reqs;
        auto draw = [&](double d) {
            reqs.clear();
            for (int in = 0; in < p; in++) {
                for (int vc = 0; vc < v; vc++) {
                    if (rng.bernoulli(d))
                        reqs.push_back({in, vc, int(rng.range(p)),
                                        rng.bernoulli(spec_frac)});
                }
            }
        };
        for (int warm = 0; warm < 37; warm++) {
            draw(density(warm));
            (void)jump.allocate(reqs);
            (void)loop.allocate(reqs);
        }
        draw(0.7);
        std::uint64_t looped = 0;
        for (std::uint64_t i = 0; i < n; i++)
            looped += loop.allocate(reqs).size();
        EXPECT_EQ(jump.replay(reqs, n), looped) << "n = " << n;
        expectSameState(jump, loop, int(n));
        expectSameGrants(jump.allocate(reqs), loop.allocate(reqs),
                         int(n));
    }
}

} // namespace

// The router replays a speculation-only stall with replay(): all-spec
// bids on the speculative allocator, or on the separable one in the
// equal-priority ablation.  Mixed and non-speculative request vectors
// must replay exactly too, and the scalar oracle takes the default
// (round-by-round) path.
TEST_P(AllocEquiv, SwitchReplayMatchesRounds)
{
    expectReplayMatchesRounds<SpeculativeSwitchAllocator>(p(), v(), 1.0,
                                                          0x51);
    expectReplayMatchesRounds<SpeculativeSwitchAllocator>(p(), v(), 0.5,
                                                          0x52);
    expectReplayMatchesRounds<SeparableSwitchAllocator>(p(), v(), 1.0,
                                                        0x53);
    expectReplayMatchesRounds<SeparableSwitchAllocator>(p(), v(), 0.0,
                                                        0x54);
    expectReplayMatchesRounds<ScalarSpeculativeSwitchAllocator>(
        p(), v(), 1.0, 0x55);
}

// The jump ahead against the oracle's round-by-round default.
TEST_P(AllocEquiv, SwitchReplayMatchesOracle)
{
    SpeculativeSwitchAllocator bit(p(), v());
    ScalarSpeculativeSwitchAllocator sca(p(), v());
    Rng rng(0x56 + p() * 64 + v());
    std::vector<SaRequest> reqs;
    for (int round = 0; round < 200; round++) {
        reqs.clear();
        for (int in = 0; in < p(); in++) {
            for (int vc = 0; vc < v(); vc++) {
                if (rng.bernoulli(density(round)))
                    reqs.push_back({in, vc, int(rng.range(p())), true});
            }
        }
        const std::uint64_t n = rng.range(300);
        ASSERT_EQ(bit.replay(reqs, n), sca.replay(reqs, n))
            << "round " << round;
        expectSameState(bit, sca, round);
    }
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
// End-to-end: two networks from one config, one of them moved onto the
// scalar oracle through Router::replaceAllocators, stepped side by side.
// ---------------------------------------------------------------------

namespace {

net::NetworkConfig
e2eConfig(RouterModel model, int vcs)
{
    net::NetworkConfig cfg;
    cfg.k = 4;
    cfg.router.model = model;
    cfg.router.numVcs = vcs;
    cfg.router.bufDepth = 4;
    cfg.setOfferedFraction(0.3);
    return cfg;
}

/** Swap every allocator of every router in `net` for its oracle. */
void
useScalarOracle(net::Network &net)
{
    for (int r = 0; r < net.lattice().numRouters(); r++) {
        router::Router &rt = net.routerAt(r);
        const router::RouterConfig &c = rt.config();
        const int p = c.numPorts, v = c.numVcs;
        std::unique_ptr<WormholeArbiterBase> wh;
        std::unique_ptr<VcAllocatorBase> va;
        std::unique_ptr<SwitchAllocatorBase> sa, spec;
        if (c.model == RouterModel::Wormhole) {
            wh = std::make_unique<ScalarWormholeSwitchArbiter>(p);
        } else {
            va = std::make_unique<ScalarVcAllocator>(p, v);
            if (c.model == RouterModel::SpecVirtualChannel &&
                !c.singleCycle && !c.specEqualPriority)
                spec = std::make_unique<ScalarSpeculativeSwitchAllocator>(
                    p, v);
            else
                sa = std::make_unique<ScalarSeparableSwitchAllocator>(p, v);
        }
        rt.replaceAllocators(std::move(wh), std::move(va), std::move(sa),
                             std::move(spec));
    }
}

void
expectSameRun(const net::NetworkConfig &cfg)
{
    constexpr sim::Cycle kCycles = 4000;
    net::Network bit(cfg), sca(cfg);
    useScalarOracle(sca);
    std::vector<traffic::Delivery> bt, st;
    bit.recordDeliveries(&bt);
    sca.recordDeliveries(&st);
    bit.run(kCycles);
    sca.run(kCycles);

    ASSERT_EQ(bt.size(), st.size());
    ASSERT_GT(bt.size(), 0u) << "test drove no traffic";
    for (std::size_t i = 0; i < bt.size(); i++) {
        EXPECT_EQ(bt[i].packet, st[i].packet) << "delivery " << i;
        EXPECT_EQ(bt[i].dest, st[i].dest) << "delivery " << i;
        EXPECT_EQ(bt[i].at, st[i].at) << "delivery " << i;
        EXPECT_EQ(bt[i].latency, st[i].latency) << "delivery " << i;
    }
    for (int r = 0; r < bit.lattice().numRouters(); r++) {
        const auto b = bit.routerAt(r).statsAt(kCycles);
        const auto s = sca.routerAt(r).statsAt(kCycles);
        EXPECT_EQ(b.flitsIn, s.flitsIn) << "router " << r;
        EXPECT_EQ(b.flitsOut, s.flitsOut) << "router " << r;
        EXPECT_EQ(b.headGrants, s.headGrants) << "router " << r;
        EXPECT_EQ(b.vaGrants, s.vaGrants) << "router " << r;
        EXPECT_EQ(b.specSaAttempts, s.specSaAttempts) << "router " << r;
        EXPECT_EQ(b.specSaWins, s.specSaWins) << "router " << r;
        EXPECT_EQ(b.specSaUseful, s.specSaUseful) << "router " << r;
        EXPECT_EQ(b.creditStallCycles, s.creditStallCycles)
            << "router " << r;
        EXPECT_EQ(b.bufOccupancy, s.bufOccupancy) << "router " << r;
    }
}

} // namespace

TEST(AllocEquivEndToEnd, Wormhole)
{
    expectSameRun(e2eConfig(RouterModel::Wormhole, 1));
}

TEST(AllocEquivEndToEnd, VirtualChannel)
{
    expectSameRun(e2eConfig(RouterModel::VirtualChannel, 4));
}

TEST(AllocEquivEndToEnd, SpecVirtualChannel)
{
    expectSameRun(e2eConfig(RouterModel::SpecVirtualChannel, 4));
}

// West-first re-routes on every VA attempt, so the allocators see a
// head's request change from cycle to cycle.
TEST(AllocEquivEndToEnd, SpecVirtualChannelAdaptive)
{
    auto cfg = e2eConfig(RouterModel::SpecVirtualChannel, 2);
    cfg.routing = "westfirst";
    cfg.setOfferedFraction(0.5);
    expectSameRun(cfg);
}

// Heads queued for the hotspot's all-busy output VCs open
// speculation-only spans: the bitmask allocators replay them by jumping
// ahead, the oracle round by round.
TEST(AllocEquivEndToEnd, SpecVirtualChannelHotspot)
{
    auto cfg = e2eConfig(RouterModel::SpecVirtualChannel, 2);
    cfg.pattern = "hotspot";
    cfg.setOfferedFraction(0.9);
    expectSameRun(cfg);
}

// The equal-priority ablation replays its spans on the separable
// allocator.
TEST(AllocEquivEndToEnd, SpecVirtualChannelHotspotEqualPriority)
{
    auto cfg = e2eConfig(RouterModel::SpecVirtualChannel, 2);
    cfg.router.specEqualPriority = true;
    cfg.pattern = "hotspot";
    cfg.setOfferedFraction(0.9);
    expectSameRun(cfg);
}

// Dateline VC classes restrict each head's candidate output VCs.
TEST(AllocEquivEndToEnd, SpecVirtualChannelTorus)
{
    auto cfg = e2eConfig(RouterModel::SpecVirtualChannel, 4);
    cfg.topology = "torus";
    expectSameRun(cfg);
}

// The seam replaces only allocators the router's model built.
TEST(AllocEquivEndToEndDeathTest, SeamRejectsRoleTheModelLacks)
{
    net::Network net(e2eConfig(RouterModel::Wormhole, 1));
    EXPECT_DEATH(net.routerAt(0).replaceAllocators(
                     nullptr, std::make_unique<ScalarVcAllocator>(5, 1),
                     nullptr, nullptr),
                 "slot");
}
