/**
 * @file
 * A memory request as seen by the memory controller.
 */

#ifndef MITHRIL_MC_REQUEST_HH
#define MITHRIL_MC_REQUEST_HH

#include <cstdint>

#include "common/types.hh"

namespace mithril::mc
{

/** One cache-line-granularity DRAM request. */
struct Request
{
    Addr addr = 0;
    bool isWrite = false;
    /** True when the issuing core counts this request against its MLP
     *  window and expects a completion callback (demand fills and
     *  store-buffer writes; false for cache writebacks). */
    bool tracked = true;
    std::uint32_t coreId = 0;
    Tick arrival = 0;      //!< Tick the request entered the MC queue.
    std::uint64_t seq = 0; //!< Global arrival order (FCFS tiebreak).
    /** Set by the controller the first time the tracker delays this
     *  request's ACT; each delayed request counts one throttle stall,
     *  however often the scheduler re-probes it. */
    bool throttled = false;

    // Decoded address fields (filled by AddressMap::decode).
    std::uint32_t channel = 0;
    std::uint32_t rank = 0;
    BankId bank = 0;       //!< Flat system-wide bank id.
    RowId row = 0;
    std::uint32_t column = 0;
};

} // namespace mithril::mc

#endif // MITHRIL_MC_REQUEST_HH
