/**
 * @file
 * Runtime invariant auditor (sim::Auditor + Network audit hooks).
 *
 * The auditor's job is to catch exactness-contract violations at the
 * offending cycle with the offending component named.  These tests
 * prove the detector detects: a clean audited run passes (and runs a
 * nonzero number of checks, bit-identical to an unaudited run), a
 * deliberately corrupted wake-table entry trips [AUD-WAKE] on the next
 * step -- serially and under partitioned stepping -- a dropped
 * arrival-calendar mark trips [AUD-ARRIVE], a corrupted
 * speculation-only span trips [AUD-SPEC] (serially and partitioned),
 * and a flit allocated but never queued trips [AUD-LEAK] at teardown.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "net/network.hh"
#include "par/stepper.hh"
#include "sim/audit.hh"

using namespace pdr;

namespace {

net::NetworkConfig
auditedConfig()
{
    net::NetworkConfig cfg;
    cfg.k = 4;
    cfg.router.model = router::RouterModel::SpecVirtualChannel;
    cfg.router.numVcs = 2;
    cfg.router.bufDepth = 4;
    cfg.packetLength = 3;
    cfg.injectionRate = 0.3;
    cfg.warmup = 50;
    cfg.samplePackets = 200;
    cfg.seed = 7;
    cfg.audit = true;
    return cfg;
}

/**
 * Corrupt one wake-table entry to simulate a component whose
 * nextWake() over-sleeps -- the hazard class [AUD-WAKE] exists for.
 * Router 0's injection channel gets traffic immediately at this load,
 * so a wake planted far in the future contradicts an in-flight item
 * within a few cycles.  `run(n)` steps `net` n cycles.
 */
template <typename Run>
void
expectPlantedWakeCaught(net::Network &net, Run run)
{
    run(20);  // Get traffic in flight.
    net.setWakeAtForTest(net.rtrComp(0), net.now() + 100000);
    try {
        run(50);
        FAIL() << "corrupted wake table not detected";
    } catch (const sim::AuditError &e) {
        EXPECT_NE(std::string(e.what()).find("AUD-WAKE"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("router 0"),
                  std::string::npos)
            << e.what();
    }
}

/**
 * Drop a frozen bid from the first sleeping router with an open
 * speculation-only span -- a span whose replay would settle rounds
 * unlike the ones per-cycle ticking runs, the hazard [AUD-SPEC] exists
 * for -- and expect the next step to report it.  Hotspot traffic near
 * saturation opens spans within a few hundred cycles.
 */
template <typename Run>
void
expectCorruptedSpanCaught(net::Network &net, Run run)
{
    for (int cycle = 0; cycle < 5000; cycle++) {
        run(1);
        for (int r = 0; r < net.lattice().numRouters(); r++) {
            router::Router &rt = net.routerAt(r);
            if (!rt.specSpanOpen() ||
                net.wakeAt(net.rtrComp(r)) <= net.now()) {
                continue;
            }
            ASSERT_FALSE(rt.specSpanForTest().empty());
            rt.specSpanForTest().pop_back();
            try {
                run(1);
                FAIL() << "corrupted speculation-only span not detected";
            } catch (const sim::AuditError &e) {
                EXPECT_NE(std::string(e.what()).find("AUD-SPEC"),
                          std::string::npos)
                    << e.what();
                EXPECT_NE(std::string(e.what()).find(
                              net.componentName(net.rtrComp(r)) + ":"),
                          std::string::npos)
                    << e.what();
            }
            return;
        }
    }
    FAIL() << "no speculation-only span opened";
}

net::NetworkConfig
hotspotConfig()
{
    auto cfg = auditedConfig();
    cfg.pattern = "hotspot";
    cfg.packetLength = 5;
    cfg.setOfferedFraction(0.9);
    return cfg;
}

} // namespace

TEST(Audit, EnvEnabledParsesTruthyValues)
{
    // Scoped setenv: gtest runs tests in one process, so restore.
    ASSERT_EQ(unsetenv("PDR_AUDIT"), 0);
    EXPECT_FALSE(sim::Auditor::envEnabled());
    for (const char *v : {"1", "true", "yes", "on"}) {
        ASSERT_EQ(setenv("PDR_AUDIT", v, 1), 0);
        EXPECT_TRUE(sim::Auditor::envEnabled()) << v;
    }
    for (const char *v : {"0", "false", "off", ""}) {
        ASSERT_EQ(setenv("PDR_AUDIT", v, 1), 0);
        EXPECT_FALSE(sim::Auditor::envEnabled()) << v;
    }
    ASSERT_EQ(unsetenv("PDR_AUDIT"), 0);
}

TEST(Audit, CleanRunPassesAndCountsChecks)
{
    net::Network net(auditedConfig());
    ASSERT_TRUE(net.auditEnabled());
    net.run(500);
    EXPECT_NO_THROW(net.auditTeardown());
    ASSERT_NE(net.auditor(), nullptr);
    // Wake-table and conservation checks ran every cycle.
    EXPECT_GT(net.auditor()->checksRun(), 1000u);
}

TEST(Audit, AuditedRunIsBitIdenticalToUnaudited)
{
    // The auditor is observational: same config with and without
    // auditing must produce identical deliveries and statistics.
    auto cfg = auditedConfig();
    net::Network audited(cfg);
    cfg.audit = false;
    net::Network plain(cfg);
    ASSERT_FALSE(plain.auditEnabled());

    std::vector<traffic::Delivery> ta, tp;
    audited.recordDeliveries(&ta);
    plain.recordDeliveries(&tp);
    audited.run(2000);
    plain.run(2000);

    ASSERT_EQ(ta.size(), tp.size());
    for (std::size_t i = 0; i < ta.size(); i++) {
        EXPECT_EQ(ta[i].packet, tp[i].packet);
        EXPECT_EQ(ta[i].dest, tp[i].dest);
        EXPECT_EQ(ta[i].at, tp[i].at);
        EXPECT_EQ(ta[i].latency, tp[i].latency);
    }
    EXPECT_EQ(audited.latency().count(), plain.latency().count());
    EXPECT_EQ(audited.now(), plain.now());
}

TEST(Audit, CatchesBrokenNextWake)
{
    net::Network net(auditedConfig());
    expectPlantedWakeCaught(net, [&net](sim::Cycle n) { net.run(n); });
}

TEST(Audit, CatchesBrokenNextWakeUnderPartitionedStepping)
{
    // The stepper runs the per-cycle checks on worker 0 at its
    // cycle-start safe point.
    net::Network net(auditedConfig());
    par::ParConfig pcfg;
    pcfg.workers = 4;
    pcfg.scheme = par::Scheme::Planes;
    par::ParallelStepper stepper(net, pcfg);
    ASSERT_EQ(stepper.workers(), 4);
    expectPlantedWakeCaught(net,
                            [&stepper](sim::Cycle n) { stepper.run(n); });
}

TEST(Audit, CatchesDroppedArrivalMark)
{
    // Clear the calendar slot holding a router's next flit arrival:
    // the router still wakes for it (AUD-WAKE holds) but would never
    // pop the channel, which [AUD-ARRIVE] reports before the tick.
    net::Network net(auditedConfig());
    net.run(20);
    const auto &lat = net.lattice();
    for (std::size_t i = 0; i < net.numFlitChans(); i++) {
        const std::size_t comp = net.flitChanConsumer(i);
        const sim::Cycle ready = net.flitChan(i).nextReady();
        if (comp < net.rtrComp(0) ||
            comp >= net.rtrComp(lat.numRouters()) ||
            ready == sim::CycleNever) {
            continue;
        }
        const sim::NodeId r = sim::NodeId(comp - net.rtrComp(0));
        (void)net.routerAt(r).arrivalsForTest().take(ready);
        try {
            net.step();
            FAIL() << "dropped arrival mark not detected";
        } catch (const sim::AuditError &e) {
            EXPECT_NE(std::string(e.what()).find("AUD-ARRIVE"),
                      std::string::npos)
                << e.what();
            EXPECT_NE(std::string(e.what()).find(
                          net.componentName(comp) + ":"),
                      std::string::npos)
                << e.what();
        }
        return;
    }
    FAIL() << "no flit in flight toward a router";
}

TEST(Audit, CatchesCorruptedSpeculationOnlySpan)
{
    net::Network net(hotspotConfig());
    expectCorruptedSpanCaught(net, [&net](sim::Cycle n) { net.run(n); });
}

TEST(Audit, CatchesCorruptedSpeculationOnlySpanUnderPartitionedStepping)
{
    net::Network net(hotspotConfig());
    par::ParConfig pcfg;
    pcfg.workers = 4;
    pcfg.scheme = par::Scheme::Planes;
    par::ParallelStepper stepper(net, pcfg);
    ASSERT_EQ(stepper.workers(), 4);
    expectCorruptedSpanCaught(
        net, [&stepper](sim::Cycle n) { stepper.run(n); });
}

TEST(Audit, CleanHotspotRunOpensSpansAndPasses)
{
    // Spans open, the audit checks them every cycle, and nothing trips.
    net::Network net(hotspotConfig());
    std::uint64_t open = 0;
    for (int c = 0; c < 2000; c++) {
        net.step();
        for (int r = 0; r < net.lattice().numRouters(); r++)
            open += net.routerAt(r).specSpanOpen() ? 1 : 0;
    }
    EXPECT_GT(open, 0u);
    EXPECT_NO_THROW(net.auditTeardown());
}

TEST(Audit, CatchesLeakedFlit)
{
    // Allocate a flit and drop the handle without queueing it
    // anywhere: the pool thinks it is live, no queue reaches it.
    net::Network net(auditedConfig());
    net.run(100);
    (void)net.flitPool().alloc();
    try {
        net.auditTeardown();
        FAIL() << "leaked flit not detected";
    } catch (const sim::AuditError &e) {
        EXPECT_NE(std::string(e.what()).find("AUD-LEAK"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Audit, CreditConservationSurvivesSweptParameters)
{
    // [AUD-CREDIT] must hold under the parameters the paper's
    // experiments stress: multi-cycle credit return and deeper VCs.
    auto cfg = auditedConfig();
    cfg.creditLatency = 4;
    cfg.router.numVcs = 4;
    cfg.router.bufDepth = 8;
    cfg.injectionRate = 0.5;
    net::Network net(cfg);
    EXPECT_NO_THROW(net.run(1500));
    EXPECT_NO_THROW(net.auditTeardown());
}
