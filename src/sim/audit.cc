#include "sim/audit.hh"

#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "sim/flit_pool.hh"

namespace pdr::sim {

bool
Auditor::envEnabled()
{
    const char *env = std::getenv("PDR_AUDIT");
    if (!env)
        return false;
    return std::strcmp(env, "1") == 0 ||
           std::strcmp(env, "true") == 0 ||
           std::strcmp(env, "yes") == 0 || std::strcmp(env, "on") == 0;
}

void
Auditor::fail(Cycle at, const std::string &who, const char *check,
              const std::string &detail)
{
    throw AuditError(csprintf("[%s] cycle %llu, %s: %s", check,
                              static_cast<unsigned long long>(at),
                              who.c_str(), detail.c_str()));
}

void
Auditor::checkPoolLeaks(const FlitPool &pool,
                        const std::vector<std::uint32_t> &reachable,
                        Cycle at, const std::string &who)
{
    std::vector<char> seen(pool.capacity(), 0);
    for (FlitRef ref : reachable) {
        require(ref < pool.capacity(), at, who, "AUD-LEAK",
                csprintf("queued handle %u is outside the pool "
                         "(capacity %zu)",
                         ref, pool.capacity()));
        require(pool.alive(ref), at, who, "AUD-LEAK",
                csprintf("queued handle %u refers to a freed slot "
                         "(use after free)",
                         ref));
        require(!seen[ref], at, who, "AUD-LEAK",
                csprintf("handle %u is queued twice", ref));
        seen[ref] = 1;
    }
    std::string leaked;
    std::size_t nleaked = 0;
    for (FlitRef ref = 0; ref < pool.capacity(); ref++) {
        if (pool.alive(ref) && !seen[ref]) {
            nleaked++;
            if (nleaked <= 8)
                leaked += csprintf("%s%u", leaked.empty() ? "" : ", ",
                                   ref);
        }
    }
    require(nleaked == 0, at, who, "AUD-LEAK",
            csprintf("%zu live flit slot(s) unreachable from any "
                     "queue (leaked): slots [%s%s]; pool reports %zu "
                     "live, queues hold %zu",
                     nleaked, leaked.c_str(),
                     nleaked > 8 ? ", ..." : "", pool.liveCount(),
                     reachable.size()));
    // Count consistency: the pool's own live tally must match the
    // per-slot liveness flags the scan above walked.
    require(pool.liveCount() == reachable.size(), at, who, "AUD-LEAK",
            csprintf("pool live count %zu != reachable count %zu "
                     "(shard live-delta accounting drifted)",
                     pool.liveCount(), reachable.size()));
}

} // namespace pdr::sim
