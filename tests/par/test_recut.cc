/**
 * @file
 * The weighted scheme's measured re-cut: a 16x16 hotspot mesh stepped
 * by a re-cutting gang must stay bit-identical to serial stepping at
 * every worker count, every applied cut must leave the channel
 * classification, drain lists and terminal shards consistent, and the
 * cut sequence must be a pure function of the simulation (identical
 * across runs, with the profiler and telemetry on or off).
 */

#include <gtest/gtest.h>

#include <vector>

#include "net/network.hh"
#include "par/stepper.hh"
#include "prof/profiler.hh"
#include "telem/telemetry.hh"

using namespace pdr;

namespace {

/** The pdrbench hotspot16_w4 network: the hot sink makes the
 *  cost per router block uneven, so re-cuts apply. */
net::NetworkConfig
hotspotConfig()
{
    net::NetworkConfig cfg;
    cfg.k = 16;
    cfg.pattern = "hotspot";
    cfg.router.model = router::RouterModel::SpecVirtualChannel;
    cfg.router.numVcs = 2;
    cfg.router.bufDepth = 4;
    cfg.packetLength = 5;
    cfg.warmup = 200;
    cfg.samplePackets = 4000;
    cfg.seed = 11;
    cfg.setOfferedFraction(0.9);
    return cfg;
}

/** Four re-cut chances (cycles 1024, 2048, 3072, 4096). */
constexpr sim::Cycle kCycles = 4 * par::ParallelStepper::kRecutPeriod +
                               200;

/**
 * Independent check of the stepper's state after a cut: node blocks
 * are the initial even split, a channel is staged iff its ends have
 * different owners, each worker drains exactly the staged channels it
 * consumes (in channel order), and every terminal's pool and trace
 * shard is its node owner's.
 */
void
expectConsistent(const par::ParallelStepper &st, net::Network &net,
                 const std::vector<traffic::Delivery> *userTrace)
{
    const auto &part = st.partitioner();
    const par::Partitioner initial(net.lattice(), st.workers(),
                                   par::Scheme::Weighted);
    ASSERT_EQ(part.workers(), initial.workers());
    for (int b = 0; b < part.workers(); b++) {
        const auto &got = part.blocks()[std::size_t(b)];
        const auto &want = initial.blocks()[std::size_t(b)];
        EXPECT_EQ(got.nodeLo, want.nodeLo) << "block " << b;
        EXPECT_EQ(got.nodeHi, want.nodeHi) << "block " << b;
        EXPECT_GT(got.numRouters(), 0) << "block " << b;
    }

    const auto W = std::size_t(st.workers());
    std::vector<std::vector<net::Network::FlitChannel *>> flits(W);
    std::vector<std::vector<net::Network::CreditChannel *>> credits(W);
    std::size_t cross = 0;
    for (std::size_t i = 0; i < net.numFlitChans(); i++) {
        int p = part.ownerOfComp(net.flitChanProducer(i));
        int c = part.ownerOfComp(net.flitChanConsumer(i));
        ASSERT_EQ(net.flitChan(i).staged(), p != c) << "flit chan " << i;
        if (p != c) {
            flits[std::size_t(c)].push_back(&net.flitChan(i));
            cross++;
        }
    }
    for (std::size_t i = 0; i < net.numCreditChans(); i++) {
        int p = part.ownerOfComp(net.creditChanProducer(i));
        int c = part.ownerOfComp(net.creditChanConsumer(i));
        ASSERT_EQ(net.creditChan(i).staged(), p != c)
            << "credit chan " << i;
        if (p != c) {
            credits[std::size_t(c)].push_back(&net.creditChan(i));
            cross++;
        }
    }
    EXPECT_EQ(st.crossChannels(), cross);
    for (int w = 0; w < st.workers(); w++) {
        EXPECT_EQ(st.flitDrain(w), flits[std::size_t(w)]) << w;
        EXPECT_EQ(st.creditDrain(w), credits[std::size_t(w)]) << w;
    }

    std::vector<const std::vector<traffic::Delivery> *> shard(W,
                                                              nullptr);
    for (sim::NodeId n = 0; n < net.lattice().numNodes(); n++) {
        const auto owner = std::size_t(part.ownerOfNode(n));
        EXPECT_EQ(net.sourceAt(n).poolShard(), int(owner)) << n;
        EXPECT_EQ(net.sinkAt(n).poolShard(), int(owner)) << n;
        const auto *t = net.sinkAt(n).deliveryTrace();
        ASSERT_NE(t, nullptr);
        EXPECT_NE(t, userTrace) << "sink " << n << " skips its shard";
        if (!shard[owner])
            shard[owner] = t;
        EXPECT_EQ(t, shard[owner]) << "sink " << n;
    }
    for (std::size_t a = 0; a < W; a++)
        for (std::size_t b = a + 1; b < W; b++)
            EXPECT_NE(shard[a], shard[b]) << a << " " << b;
}

using Cuts = std::vector<par::ParallelStepper::Recut>;

void
expectSameCuts(const Cuts &a, const Cuts &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].cycle, b[i].cycle) << "cut " << i;
        EXPECT_EQ(a[i].routerHi, b[i].routerHi) << "cut " << i;
    }
}

/**
 * Step a serial and a re-cutting network in lockstep, with a delivery
 * trace, the engine profiler and telemetry attached to the parallel
 * one; check behaviour every cycle and the partition after every
 * applied cut.  Stores the cut sequence in `cuts`.
 */
void
lockstepWithRecuts(int workers, Cuts *cuts = nullptr)
{
    const auto cfg = hotspotConfig();
    net::Network serial(cfg);
    net::Network parallel(cfg);
    par::ParConfig pcfg;
    pcfg.workers = workers;
    pcfg.scheme = par::Scheme::Weighted;
    par::ParallelStepper stepper(parallel, pcfg);
    EXPECT_EQ(stepper.workers(), workers);

    // Destroyed before the stepper (reverse declaration order).
    prof::Profiler prof(parallel, stepper.workers());
    stepper.attachProfiler(&prof);
    telem::Config tc;
    tc.enable = true;
    tc.interval = 700;      // Epochs off the re-cut cadence.
    telem::Telemetry tel(tc, parallel, &prof);

    std::vector<traffic::Delivery> st, pt;
    serial.recordDeliveries(&st);
    parallel.recordDeliveries(&pt);

    // The first step binds the trace shards; check the start layout
    // there, then after every applied cut.
    std::size_t seen = ~std::size_t(0);
    for (sim::Cycle c = 0; c < kCycles; c++) {
        serial.step();
        stepper.stepTo(parallel.now() + 1, &tel);
        EXPECT_EQ(serial.now(), parallel.now());
        if (st.size() != pt.size()) {
            ADD_FAILURE() << "delivery count diverged at cycle " << c;
            break;
        }
        if (stepper.recuts().size() != seen) {
            seen = stepper.recuts().size();
            expectConsistent(stepper, parallel, &pt);
        }
    }
    tel.finish();

    EXPECT_GT(st.size(), 0u);
    for (std::size_t i = 0; i < std::min(st.size(), pt.size()); i++) {
        ASSERT_EQ(st[i].packet, pt[i].packet) << "delivery " << i;
        ASSERT_EQ(st[i].dest, pt[i].dest) << "delivery " << i;
        ASSERT_EQ(st[i].at, pt[i].at) << "delivery " << i;
    }
    auto sr = serial.routerTotals(), pr = parallel.routerTotals();
    EXPECT_EQ(sr.flitsOut, pr.flitsOut);
    EXPECT_EQ(sr.specSaWins, pr.specSaWins);
    EXPECT_EQ(sr.creditStallCycles, pr.creditStallCycles);
    EXPECT_EQ(serial.routerTicks(), parallel.routerTicks());
    EXPECT_EQ(serial.latency().mean(), parallel.latency().mean());
    if (cuts)
        *cuts = stepper.recuts();
}

/** A plain re-cutting run (no serial twin, nothing attached). */
Cuts
plainRecuts(int workers)
{
    net::Network net(hotspotConfig());
    par::ParConfig pcfg;
    pcfg.workers = workers;
    par::ParallelStepper stepper(net, pcfg);
    stepper.run(kCycles);
    return stepper.recuts();
}

} // namespace

TEST(Recut, TwoWorkersMatchSerial)
{
    lockstepWithRecuts(2);
}

TEST(Recut, ThreeWorkersMatchSerial)
{
    lockstepWithRecuts(3);
}

TEST(Recut, FourWorkersMatchSerialAndMoveOffThePlanes)
{
    Cuts cuts;
    lockstepWithRecuts(4, &cuts);
    ASSERT_FALSE(cuts.empty()) << "no re-cut applied on a hotspot";
    for (const auto &c : cuts)
        EXPECT_EQ(c.cycle % par::ParallelStepper::kRecutPeriod, 0u);

    // The last cut is not the plane-aligned layout the run started
    // from (16x16 at 4 workers: the weighted start equals planes).
    net::Network net(hotspotConfig());
    const par::Partitioner planes(net.lattice(), 4,
                                  par::Scheme::Planes);
    std::vector<sim::NodeId> planesHi;
    for (const auto &b : planes.blocks())
        planesHi.push_back(b.routerHi);
    EXPECT_NE(cuts.back().routerHi, planesHi);
}

TEST(Recut, CutSequenceIsAPureFunctionOfTheRun)
{
    // Same cuts at the same cycles: twice without observers, and with
    // the profiler and telemetry attached (the lockstep run).
    const Cuts plain = plainRecuts(4);
    ASSERT_FALSE(plain.empty());
    expectSameCuts(plain, plainRecuts(4));
    Cuts observed;
    lockstepWithRecuts(4, &observed);
    expectSameCuts(plain, observed);
}

TEST(Recut, PlanesNeverRecut)
{
    net::Network net(hotspotConfig());
    par::ParConfig pcfg;
    pcfg.workers = 4;
    pcfg.scheme = par::Scheme::Planes;
    par::ParallelStepper stepper(net, pcfg);
    const auto cross = stepper.crossChannels();
    stepper.run(kCycles);
    EXPECT_TRUE(stepper.recuts().empty());
    EXPECT_EQ(stepper.crossChannels(), cross);
}
