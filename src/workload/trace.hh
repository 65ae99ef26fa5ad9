/**
 * @file
 * Trace-record vocabulary and the generator interface every workload
 * implements.
 *
 * A record is one LLC-level memory access: the number of non-memory
 * instructions preceding it (the gap), the physical address, and
 * whether it writes. Attack generators mark records uncacheable so the
 * access stream reaches DRAM unchanged (real attackers use clflush or
 * cache-conflict evictions to the same effect).
 */

#ifndef MITHRIL_WORKLOAD_TRACE_HH
#define MITHRIL_WORKLOAD_TRACE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/types.hh"

namespace mithril::workload
{

/** One memory access of a core's instruction stream. */
struct TraceRecord
{
    std::uint64_t gap = 1;   //!< Instructions before this access.
    Addr addr = 0;
    bool write = false;
    bool uncached = false;   //!< Bypass the LLC (attack traffic).
};

/** A DRAM bank by its coordinates. */
struct BankCoord
{
    std::uint32_t channel = 0;
    std::uint32_t rank = 0;
    std::uint32_t bank = 0;  //!< Bank within the rank.
};

/** Pull-based trace source. */
class TraceGenerator
{
  public:
    virtual ~TraceGenerator() = default;

    /** Next record, or nullopt when the trace is exhausted. */
    virtual std::optional<TraceRecord> next() = 0;

    /** Human-readable workload name. */
    virtual std::string name() const = 0;

    /**
     * The one bank every record of this generator composes to, or
     * nullopt for "no declaration" (the default). A generator that
     * declares a bank also promises never to end. The engine's
     * attack source uses the declaration to build each shard's
     * slice from only the generators aimed inside the shard, and
     * checks it against every decoded record.
     */
    virtual std::optional<BankCoord> targetBank() const
    {
        return std::nullopt;
    }
};

} // namespace mithril::workload

#endif // MITHRIL_WORKLOAD_TRACE_HH
