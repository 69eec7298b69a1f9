/**
 * @file
 * Runtime invariant auditor: per-cycle cross-checks of the exactness
 * contract (docs/ARCHITECTURE.md, "Determinism invariants").
 *
 * The golden-CSV gates and the lockstep tests prove *that* a change
 * broke bit-exactness; the auditor exists to say *where*.  When
 * enabled (PDR_AUDIT=1 or sim.audit=true) the Network runs five
 * classes of checks and fails at the offending cycle with the
 * offending component named, instead of surfacing as a byte-diff ten
 * thousand cycles later:
 *
 *   - wake-table exactness [AUD-WAKE]: no component may sleep past a
 *     matured item on a channel it consumes.  This is the runtime dual
 *     of invariant 1 (schedule equivalence): a component whose wake
 *     entry lies in the future while an input is deliverable would
 *     have acted under forceTickAll but not under the skipping
 *     schedule -- a broken nextWake() or a missed Channel::watch.
 *   - arrival-calendar exactness [AUD-ARRIVE]: a router pops only the
 *     channels its arrival calendar marks for the cycle, so the front
 *     item in flight on every channel a router consumes must be marked
 *     in the slot of its ready cycle.  An unmarked front is an arrival
 *     the router would tick for (AUD-WAKE holds) but never look at --
 *     a missed mark in Channel::push / drainStaged or a missed
 *     Channel::remark.
 *   - credit conservation [AUD-CREDIT]: for every (link, VC), credits
 *     held upstream + credits on the wire (the upstream credit
 *     pipeline is part of the credit channel's latency) + flits
 *     buffered downstream + flits on the wire must equal the
 *     configured buffer depth, every cycle.
 *   - allocation-bitset consistency [AUD-BID]: every router's
 *     incremental RouteWait/Active bid bitsets and free output-VC
 *     words (the sparse sets the allocation phases and nextWake
 *     iterate) must equal a dense recompute from the per-VC pipeline
 *     state, every cycle.  A stale bit is the allocation-side dual of
 *     an AUD-WAKE violation: a VC that would bid under a dense scan
 *     but is skipped by the sparse one.
 *   - speculation-only spans [AUD-SPEC]: a router asleep through the
 *     cycle with a span open (Router::nextWake) must have no VC able
 *     to progress, and its frozen bids must equal its ready RouteWait
 *     heads, or its next tick would replay rounds that per-cycle
 *     ticking never ran.
 *   - flit-pool leaks [AUD-LEAK]: every live pool slot must be
 *     reachable from some queue (channel or router FIFO).  Checked at
 *     teardown; a slot that is alive but unreachable was allocated
 *     and lost, which silently corrupts handle-reuse order (invariant
 *     4) on top of leaking.
 *
 * Failures throw sim::AuditError (tests assert on it; the CLI lets it
 * terminate with the diagnostic).  The auditor is observational: it
 * never mutates simulation state, so an audited run is bit-identical
 * to an unaudited one.  The per-cycle checks run at a cycle boundary:
 * Network::step() runs them before its tick phases, and the parallel
 * stepper runs them on worker 0 at its cycle-start safe point, where
 * the gang is parked and every staging buffer is drained.
 */

#ifndef PDR_SIM_AUDIT_HH
#define PDR_SIM_AUDIT_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace pdr::sim {

class FlitPool;

/** A broken determinism invariant, caught at the offending cycle. */
class AuditError : public std::logic_error
{
  public:
    explicit AuditError(const std::string &what)
        : std::logic_error(what)
    {
    }
};

/**
 * Failure reporting + counters for the invariant checks.  The checks
 * themselves live with the state they inspect (net::Network walks its
 * channels and routers); the auditor provides the uniform "fail at
 * cycle C in component X" diagnostic and keeps the check census that
 * tests and the CLI report.
 */
class Auditor
{
  public:
    /** PDR_AUDIT is set to 1/true/yes/on in the environment. */
    static bool envEnabled();

    /**
     * Report a violated invariant and throw AuditError.  `check` is
     * the check id (e.g. "AUD-WAKE"), `who` names the component
     * ("router 12", "sink 3"), `detail` says what held and what was
     * expected.
     */
    [[noreturn]] void fail(Cycle at, const std::string &who,
                           const char *check,
                           const std::string &detail);

    /** Assert one invariant; count it and fail() when violated. */
    void
    require(bool ok, Cycle at, const std::string &who,
            const char *check, const std::string &detail)
    {
        checksRun_++;
        if (!ok)
            fail(at, who, check, detail);
    }

    /** Individual invariant evaluations since construction. */
    std::uint64_t checksRun() const { return checksRun_; }

    /** Batch-count `n` checks that passed (callers on per-cycle paths
     *  test cheaply and build the failure diagnostic only on the
     *  fail() path; this keeps their census without per-check string
     *  construction). */
    void addChecks(std::uint64_t n) { checksRun_ += n; }

    /**
     * [AUD-LEAK] Every slot the pool believes live must appear in
     * `reachable` (the refs collected from every queue).  Throws with
     * the leaked slot ids; also flags the reverse inconsistency (a
     * reachable ref the pool thinks is free -- a double free).
     */
    void checkPoolLeaks(const FlitPool &pool,
                        const std::vector<std::uint32_t> &reachable,
                        Cycle at, const std::string &who);

  private:
    std::uint64_t checksRun_ = 0;
};

} // namespace pdr::sim

#endif // PDR_SIM_AUDIT_HH
