/** @file Tests for network construction and bookkeeping. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "net/network.hh"

using namespace pdr;
using namespace pdr::net;

namespace {

NetworkConfig
smallConfig()
{
    NetworkConfig cfg;
    cfg.k = 4;
    cfg.router.model = router::RouterModel::SpecVirtualChannel;
    cfg.router.numVcs = 2;
    cfg.router.bufDepth = 4;
    cfg.warmup = 100;
    cfg.samplePackets = 200;
    cfg.setOfferedFraction(0.2);
    return cfg;
}

} // namespace

TEST(NetworkTest, OfferedFractionRoundTrip)
{
    NetworkConfig cfg;
    cfg.k = 8;
    cfg.setOfferedFraction(0.4);
    EXPECT_DOUBLE_EQ(cfg.injectionRate, 0.2);   // 0.4 * 0.5 capacity.
    EXPECT_DOUBLE_EQ(cfg.offeredFraction(), 0.4);
}

TEST(NetworkTest, BuildsAndIdlesCleanly)
{
    auto cfg = smallConfig();
    cfg.injectionRate = 0.0;
    Network n(cfg);
    n.run(200);
    EXPECT_EQ(n.now(), 200u);
    EXPECT_TRUE(n.quiescent());
    EXPECT_EQ(n.routerTotals().flitsIn, 0u);
}

TEST(NetworkTest, TrafficFlowsEndToEnd)
{
    Network n(smallConfig());
    n.run(2000);
    auto totals = n.routerTotals();
    EXPECT_GT(totals.flitsIn, 0u);
    EXPECT_GT(totals.flitsOut, 0u);
    std::uint64_t delivered = 0;
    for (sim::NodeId id = 0; id < 16; id++)
        delivered += n.sinkAt(id).totalFlits();
    EXPECT_GT(delivered, 0u);
}

TEST(NetworkTest, AcceptedMatchesOfferedAtLowLoad)
{
    auto cfg = smallConfig();
    cfg.setOfferedFraction(0.15);
    Network n(cfg);
    n.run(20000);
    EXPECT_NEAR(n.acceptedFraction(), 0.15, 0.02);
}

TEST(NetworkTest, LatencyAggregationAcrossSinks)
{
    Network n(smallConfig());
    while (!n.controller().done() && n.now() < 50000)
        n.step();
    ASSERT_TRUE(n.controller().done());
    auto lat = n.latency();
    EXPECT_EQ(lat.count(), 200u);
    EXPECT_GT(lat.mean(), 0.0);
    EXPECT_LE(lat.min(), lat.mean());
    EXPECT_LE(lat.mean(), lat.max());
}

TEST(NetworkTest, DeterministicForSeed)
{
    auto cfg = smallConfig();
    Network a(cfg), b(cfg);
    for (int i = 0; i < 3000; i++) {
        a.step();
        b.step();
    }
    EXPECT_EQ(a.routerTotals().flitsOut, b.routerTotals().flitsOut);
    EXPECT_DOUBLE_EQ(a.latency().mean(), b.latency().mean());
}

TEST(NetworkTest, SeedChangesOutcome)
{
    auto cfg = smallConfig();
    Network a(cfg);
    cfg.seed = 999;
    Network b(cfg);
    for (int i = 0; i < 3000; i++) {
        a.step();
        b.step();
    }
    EXPECT_NE(a.routerTotals().flitsOut, b.routerTotals().flitsOut);
}

TEST(NetworkTest, WormholeNetworkRuns)
{
    auto cfg = smallConfig();
    cfg.router.model = router::RouterModel::Wormhole;
    cfg.router.numVcs = 1;
    cfg.router.bufDepth = 8;
    Network n(cfg);
    while (!n.controller().done() && n.now() < 50000)
        n.step();
    EXPECT_TRUE(n.controller().done());
}

TEST(NetworkTest, CreditLatencyConfigurable)
{
    auto cfg = smallConfig();
    cfg.creditLatency = 4;
    Network n(cfg);
    while (!n.controller().done() && n.now() < 50000)
        n.step();
    EXPECT_TRUE(n.controller().done());
}

TEST(NetworkTest, CreditProcessingIsCreditChannelLatency)
{
    // A credit is applied the cycle it leaves its channel, so the
    // router's credit processing and the source's one-cycle credit
    // pipeline are built into the credit channels' latencies.
    auto cfg = smallConfig();
    cfg.creditLatency = 3;
    cfg.router.creditProcCycles = 2;
    Network n(cfg);
    const std::size_t sources = std::size_t(n.lattice().numNodes());
    for (std::size_t i = 0; i < n.numCreditChans(); i++) {
        const bool to_source = n.creditChanConsumer(i) < sources;
        EXPECT_EQ(n.creditChan(i).latency(),
                  sim::Cycle(to_source ? 2 : 3 + 2))
            << "credit channel " << i;
    }
}

TEST(NetworkDeath, WrongPortCountRejected)
{
    auto cfg = smallConfig();
    cfg.router.numPorts = 4;
    EXPECT_THROW(Network n(cfg), std::invalid_argument);
}

TEST(NetworkDeath, SillyInjectionRateRejected)
{
    auto cfg = smallConfig();
    cfg.injectionRate = 1.5;
    EXPECT_THROW(Network n(cfg), std::invalid_argument);
}

TEST(NetworkDeath, UnknownPatternRejected)
{
    auto cfg = smallConfig();
    cfg.pattern = "no-such-pattern";
    try {
        Network n(cfg);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("no-such-pattern"),
                  std::string::npos);
    }
}

TEST(NetworkDeath, UnknownTopologyRejected)
{
    auto cfg = smallConfig();
    cfg.topology = "hypercube";
    EXPECT_THROW(Network n(cfg), std::invalid_argument);
}
