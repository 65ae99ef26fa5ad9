/**
 * @file
 * Ground-truth Row Hammer oracle.
 *
 * Independent of any protection scheme, the oracle maintains for every
 * row the number of disturbances (aggressor activations weighted by
 * distance) it has absorbed since it was last refreshed by any means
 * (auto-refresh, ARR, or an RFM preventive refresh). A row whose
 * disturbance count reaches FlipTH has, by definition, flipped bits.
 *
 * The oracle is the arbiter of every safety claim in this repository:
 * a scheme is deterministically safe iff no workload can drive the
 * oracle's high-water mark to FlipTH.
 */

#ifndef MITHRIL_DRAM_RH_ORACLE_HH
#define MITHRIL_DRAM_RH_ORACLE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace mithril::telemetry
{
class EventRecorder;
}

namespace mithril::dram
{

/** Disturbance bookkeeping for one or more banks. */
class RhOracle
{
  public:
    /**
     * @param banks        Number of banks tracked.
     * @param rows_per_bank Rows per bank.
     * @param flip_th      Disturbance count at which a bit flip occurs.
     * @param blast_radius How far (in rows) an aggressor disturbs its
     *                     neighbours. 1 models the classic double-sided
     *                     setting; 2 adds half-double style coupling
     *                     with quarter weight.
     */
    RhOracle(std::uint32_t banks, std::uint32_t rows_per_bank,
             std::uint32_t flip_th, std::uint32_t blast_radius = 1);

    /**
     * Record one activation of the given row; flip and near-miss
     * events are stamped with the tick last given to setNow(). The
     * one-row case of onActivateRun().
     */
    void onActivate(BankId bank, RowId row)
    {
        onActivateRun(bank, &row, 1, now_, 0);
    }

    /**
     * Record `n` activations of one bank, `rows[0..n)` in stream
     * order; activation i's flip and near-miss events are stamped
     * `tick0 + i * stride`.
     *
     * Exact by construction: it applies the same disturbances in the
     * same order as `n` onActivate() calls, so every count, flip,
     * high-water mark and event equals theirs. The run form only
     * keeps the table geometry, bank offset, threshold and high-water
     * mark in locals across the run, and remembers the last slot it
     * touched: under double- and multi-sided hammering activation
     * k's upper victim is activation k+1's lower victim. That memo
     * stays valid within a call because a run only inserts rows
     * (linear probing never moves a resident row on insert), and a
     * growth rehash re-keys it. Allocates nothing unless the table
     * grows.
     */
    void onActivateRun(BankId bank, const RowId *rows, std::size_t n,
                       Tick tick0, Tick stride);

    /** Record a refresh of exactly this row (resets its disturbance). */
    void onRowRefresh(BankId bank, RowId row);

    /**
     * Record a preventive refresh around an aggressor: refreshes the
     * 2*radius neighbouring victim rows (not the aggressor itself).
     */
    void onNeighborRefresh(BankId bank, RowId aggressor);

    /**
     * Record an auto-refresh REF command: the next rows-per-group rows
     * (per the rotating refresh pointer) of every bank covered by the
     * REF are refreshed.
     * @param bank   Bank the REF applies to.
     * @param groups Number of refresh groups per tREFW (typically 8192).
     */
    void onAutoRefresh(BankId bank, std::uint32_t groups);

    /** Current disturbance count of a row (scaled by 4 internally to
     *  express quarter weights; this returns the full-ACT equivalent). */
    double disturbance(BankId bank, RowId row) const;

    /** Highest disturbance any row has ever reached before a refresh. */
    double maxDisturbanceEver() const
    {
        return static_cast<double>(maxDisturbanceQ_) / 4.0;
    }

    /** Number of (row, episode) bit-flip events: a row crossing FlipTH. */
    std::uint64_t bitFlips() const { return bitFlips_; }

    /** Number of distinct rows that have ever flipped. */
    std::uint64_t flippedRows() const { return flippedRows_; }

    /** Activations applied so far: the conservation count a frontend
     *  checks against its own ACT count. */
    std::uint64_t activations() const { return activations_; }

    /** Configured FlipTH. */
    std::uint32_t flipTh() const { return flipTh_; }

    /** Slots in the row table: a power of two that tracks the peak
     *  number of resident rows (disturbed and unrefreshed, or ever
     *  flipped), not the geometry. */
    std::size_t tableCapacity() const { return slots_.size(); }

    /**
     * Attach a mitigation-event recorder: flip and near-miss
     * crossings emit OracleFlip / NearMiss events stamped with the
     * tick last given to setNow(). Observation only — attaching a
     * recorder never changes oracle state. Null detaches.
     */
    void setEventRecorder(telemetry::EventRecorder *recorder)
    {
        recorder_ = recorder;
    }

    /** Event timestamp cursor: the oracle has no clock of its own,
     *  so the frontend stamps each activation's tick before the
     *  onActivate() call (only needed while tracing). */
    void setNow(Tick now) { now_ = now; }

  private:
    /**
     * One resident row: flat key `bank * rowsPerBank + row` and its
     * disturbance in quarter-ACT units. The top count bit marks a row
     * that has ever flipped; such a row stays resident (count 0)
     * after a refresh so flippedRows() counts it once.
     */
    struct Slot
    {
        std::uint32_t key;
        std::uint32_t count;
    };

    static constexpr std::uint32_t kEmptyKey = 0xffffffffu;
    static constexpr std::uint32_t kFlippedBit = 0x80000000u;
    static constexpr std::uint32_t kCountMask = kFlippedBit - 1;

    /** Fibonacci hash: the top bits of key * 2^64/phi, so every key
     *  bit (bank bits included) reaches the slot index. */
    static std::uint32_t home(std::uint32_t key, std::uint32_t shift)
    {
        return static_cast<std::uint32_t>(
            (key * 0x9e3779b97f4a7c15ull) >> shift);
    }
    std::uint32_t home(std::uint32_t key) const { return home(key, shift_); }

    /** Slot holding the key, or the empty slot ending its probe
     *  chain when the key is absent. */
    std::uint32_t probe(std::uint32_t key) const;
    /** Insert the absent key at `i`, the empty slot ending its probe
     *  chain, growing the table first when it is full; returns the
     *  row's slot. */
    [[gnu::noinline]] std::uint32_t insert(std::uint32_t key,
                                           std::uint32_t i);
    /** A disturbance took the row's count from `before` (under
     *  FlipTH) to `count`, at or past the lowest line that emits:
     *  count a flip, or record a near miss while tracing. */
    [[gnu::cold]] void cross(Slot &slot, BankId bank, RowId row,
                             std::uint32_t before, std::uint32_t count,
                             Tick now);
    /** Zero the row's count; free its slot unless it has flipped. */
    void refresh(std::uint32_t key);
    /** Move every resident row into a fresh table of `capacity`
     *  (a power of two) slots. */
    void rehash(std::uint32_t capacity);

    std::uint32_t banks_;
    std::uint32_t rowsPerBank_;
    std::uint32_t flipTh_;
    std::uint32_t blastRadius_;

    std::uint64_t thresholdQ_; //!< FlipTH in quarter-ACT units.

    /**
     * Open-addressing row table: linear probing, backward-shift
     * erase (no tombstones), doubled past 3/4 load. Empty slots hold
     * kEmptyKey.
     */
    std::vector<Slot> slots_;
    std::uint32_t mask_ = 0;
    std::uint32_t shift_ = 0;
    std::uint32_t resident_ = 0;
    std::uint32_t growAt_ = 0;
    /** Per-bank auto-refresh rotation pointer (next row to refresh). */
    std::vector<RowId> refreshPtr_;

    std::uint64_t maxDisturbanceQ_ = 0;
    std::uint64_t bitFlips_ = 0;
    std::uint64_t flippedRows_ = 0;
    std::uint64_t activations_ = 0;

    telemetry::EventRecorder *recorder_ = nullptr;
    Tick now_ = 0;
};

} // namespace mithril::dram

#endif // MITHRIL_DRAM_RH_ORACLE_HH
