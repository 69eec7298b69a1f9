/** @file Tests for the topology and routing registries. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "net/network.hh"
#include "net/registry.hh"

using namespace pdr;
using namespace pdr::net;
using topo::Lattice;

TEST(TopologyRegistry, ContainsBuiltins)
{
    auto &reg = TopologyRegistry::instance();
    for (const char *name :
         {"mesh", "torus", "kary3cube", "cmesh", "cmesh2"}) {
        EXPECT_TRUE(reg.contains(name)) << name;
        EXPECT_FALSE(reg.description(name).empty()) << name;
    }
}

TEST(TopologyRegistry, BuildsTheRightGeometry)
{
    auto &reg = TopologyRegistry::instance();
    auto mesh = reg.at("mesh").make(4);
    EXPECT_FALSE(mesh.wraps());
    EXPECT_EQ(mesh.numNodes(), 16);
    auto torus = reg.at("torus").make(4);
    EXPECT_TRUE(torus.wraps());
    EXPECT_EQ(reg.at("mesh").defaultRouting, "xy");
    EXPECT_EQ(reg.at("torus").defaultRouting, "dateline");

    auto cube = reg.at("kary3cube").make(4);
    EXPECT_EQ(cube.dims(), 3);
    EXPECT_EQ(cube.numRouters(), 64);
    EXPECT_EQ(cube.numPorts(), 7);
    EXPECT_TRUE(cube.wraps());
    EXPECT_EQ(reg.at("kary3cube").defaultRouting, "dor");

    auto cm = reg.at("cmesh").make(4);
    EXPECT_EQ(cm.concentration(), 4);
    EXPECT_EQ(cm.numNodes(), 64);
    EXPECT_EQ(cm.numPorts(), 8);
    EXPECT_EQ(reg.at("cmesh2").make(4).concentration(), 2);
}

TEST(TopologyRegistry, UnknownNameListsKnownOnes)
{
    try {
        TopologyRegistry::instance().at("hypercube");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("hypercube"), std::string::npos);
        EXPECT_NE(msg.find("mesh"), std::string::npos);
        EXPECT_NE(msg.find("torus"), std::string::npos);
        EXPECT_NE(msg.find("kary3cube"), std::string::npos);
    }
}

TEST(RoutingRegistry, BuildsEveryBuiltinOnItsTopology)
{
    auto &reg = RoutingRegistry::instance();
    Lattice mesh = Lattice::mesh2D(4);
    Lattice torus = Lattice::torus2D(4);
    Lattice cube = Lattice::kAryNCube(3, 3);
    Lattice cm = Lattice::cmesh(4, 4);
    EXPECT_NE(reg.at("xy")(mesh), nullptr);
    EXPECT_NE(reg.at("westfirst")(mesh), nullptr);
    EXPECT_NE(reg.at("westfirst")(cm), nullptr);
    EXPECT_NE(reg.at("dateline")(torus), nullptr);
    for (const Lattice &lat : {mesh, torus, cube, cm}) {
        EXPECT_NE(reg.at("dor")(lat), nullptr);
        EXPECT_NE(reg.at("o1turn")(lat), nullptr);
        EXPECT_NE(reg.at("val")(lat), nullptr);
    }
}

TEST(RoutingRegistry, RejectsIncompatibleGeometry)
{
    auto &reg = RoutingRegistry::instance();
    Lattice mesh = Lattice::mesh2D(4);
    Lattice torus = Lattice::torus2D(4);
    Lattice cube = Lattice::kAryNCube(3, 3);
    EXPECT_THROW(reg.at("xy")(torus), std::invalid_argument);
    EXPECT_THROW(reg.at("westfirst")(torus), std::invalid_argument);
    EXPECT_THROW(reg.at("westfirst")(cube), std::invalid_argument);
    EXPECT_THROW(reg.at("dateline")(mesh), std::invalid_argument);
    EXPECT_THROW(reg.at("no-such-routing"), std::invalid_argument);
}

TEST(NetworkConfig, ResolvedRoutingFollowsTopology)
{
    NetworkConfig cfg;
    EXPECT_EQ(cfg.resolvedRouting(), "xy");
    cfg.topology = "torus";
    EXPECT_EQ(cfg.resolvedRouting(), "dateline");
    cfg.topology = "kary3cube";
    EXPECT_EQ(cfg.resolvedRouting(), "dor");
    cfg.topology = "cmesh";
    EXPECT_EQ(cfg.resolvedRouting(), "dor");
    cfg.routing = "westfirst";
    EXPECT_EQ(cfg.resolvedRouting(), "westfirst");
}

TEST(NetworkConfig, CapacityComesFromTheTopology)
{
    NetworkConfig cfg;
    cfg.k = 8;
    EXPECT_DOUBLE_EQ(cfg.capacity(), 0.5);
    cfg.topology = "torus";
    EXPECT_DOUBLE_EQ(cfg.capacity(), 1.0);
    cfg.topology = "kary3cube";
    EXPECT_DOUBLE_EQ(cfg.capacity(), 1.0);
    cfg.topology = "cmesh";
    EXPECT_DOUBLE_EQ(cfg.capacity(), 0.125);
    cfg.topology = "nope";
    EXPECT_THROW(cfg.capacity(), std::invalid_argument);
}

TEST(NetworkConfig, VcRequirementsFollowTheRouting)
{
    // O1TURN needs a VC class per dimension order; Valiant one per
    // phase; wrapping lattices double both for the dateline split.
    NetworkConfig cfg;
    cfg.router.model = router::RouterModel::SpecVirtualChannel;
    cfg.router.numVcs = 1;
    cfg.routing = "o1turn";
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg.router.numVcs = 2;
    EXPECT_NO_THROW(cfg.validate());

    cfg.topology = "kary3cube";
    cfg.router.numPorts = 0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg.router.numVcs = 4;
    EXPECT_NO_THROW(cfg.validate());

    cfg.routing = "val";
    EXPECT_NO_THROW(cfg.validate());
    cfg.router.numVcs = 2;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(NetworkConfig, PortCountDerivesFromTopology)
{
    NetworkConfig cfg;
    cfg.topology = "kary3cube";
    cfg.router.model = router::RouterModel::SpecVirtualChannel;
    cfg.router.numVcs = 2;
    // The default derives the port count (0 = auto)...
    EXPECT_EQ(cfg.router.numPorts, 0);
    EXPECT_NO_THROW(cfg.validate());
    // ...a 2D mesh's 5 ports do not fit a 3-cube, the exact count does.
    cfg.router.numPorts = 5;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg.router.numPorts = 7;
    EXPECT_NO_THROW(cfg.validate());
    // A bare RouterConfig (single-router harnesses) keeps 5.
    EXPECT_EQ(router::RouterConfig{}.numPorts, 5);
}
