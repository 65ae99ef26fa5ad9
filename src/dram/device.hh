/**
 * @file
 * Whole-system DRAM device model.
 *
 * Owns every bank's state machine, rank-level ACT pacing, the ground
 * truth RH oracle, the energy meter, the hook into the active RH
 * protection scheme, and the DDR5 mitigation state (RAA, owed RFMs,
 * queued ARRs; see dram::Mitigation). The memory controller drives it
 * by committing commands; the device executes them, keeps the oracle
 * honest, and meters energy.
 */

#ifndef MITHRIL_DRAM_DEVICE_HH
#define MITHRIL_DRAM_DEVICE_HH

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "dram/bank.hh"
#include "dram/energy.hh"
#include "dram/mitigation.hh"
#include "dram/rank.hh"
#include "dram/rh_oracle.hh"
#include "dram/timing.hh"
#include "trackers/rh_protection.hh"

namespace mithril::dram
{

/** The DRAM subsystem across all channels/ranks/banks. */
class Device
{
  public:
    /**
     * @param timing       Timing preset (e.g. ddr5_4800()).
     * @param geometry     System geometry.
     * @param flip_th      Ground-truth RH threshold for the oracle.
     * @param blast_radius Oracle disturbance radius.
     */
    Device(const Timing &timing, const Geometry &geometry,
           std::uint32_t flip_th, std::uint32_t blast_radius = 1);

    /** Attach the active protection scheme (may be null = unprotected). */
    void
    setTracker(trackers::RhProtection *tracker)
    {
        tracker_ = tracker;
        mitigation_.setTracker(tracker);
    }
    trackers::RhProtection *tracker() const { return tracker_; }

    /** What each bank owes in RFMs and ARRs; commit through
     *  mitigate(). */
    const Mitigation &mitigation() const { return mitigation_; }
    Mitigation &mitigation() { return mitigation_; }

    /** Observes every committed ACT (bank, row, issue tick) — the
     *  tap an act-trace recorder captures a System run through.
     *  Preventive/auto refreshes are not ACTs and are not reported. */
    using ActObserver = std::function<void(BankId, RowId, Tick)>;
    void setActObserver(ActObserver observer)
    {
        actObserver_ = std::move(observer);
    }

    const Timing &timing() const { return timing_; }
    const Geometry &geometry() const { return geometry_; }

    Bank &bank(BankId b) { return banks_.at(b); }
    const Bank &bank(BankId b) const { return banks_.at(b); }

    /** Flat rank index of a bank. */
    std::uint32_t rankOf(BankId b) const
    {
        return b / geometry_.banksPerRank;
    }

    /** Channel index of a bank. */
    std::uint32_t channelOf(BankId b) const
    {
        return b / (geometry_.banksPerRank * geometry_.ranksPerChannel);
    }

    RankTiming &rankTiming(std::uint32_t flat_rank)
    {
        return ranks_.at(flat_rank);
    }

    /** Earliest tick an ACT to this bank satisfies bank+rank timing. */
    Tick
    earliestAct(BankId b, Tick now) const
    {
        return std::max(banks_.at(b).earliestAct(now),
                        ranks_.at(rankOf(b)).earliestAct(now));
    }

    /**
     * Commit an ACT. Informs the oracle and the tracker, and counts it
     * in the bank's mitigation state, which then owes any RFM or ARR
     * the ACT made due.
     */
    void activate(BankId b, RowId row, Tick t);

    /** Commit a PRE. */
    void precharge(BankId b, Tick t);

    /** Commit a RD; returns data-ready tick. */
    Tick read(BankId b, Tick t);

    /** Commit a WR; returns data-done tick. */
    Tick write(BankId b, Tick t);

    /**
     * Commit an all-bank REF for one rank at tick t: every bank of the
     * rank is busy for tRFC and one refresh group of rows is refreshed.
     * @param raa_decrement DDR5 RAA decrement per refreshed bank.
     */
    void autoRefreshRank(std::uint32_t flat_rank, Tick t,
                         std::uint32_t raa_decrement = 0);

    /**
     * Commit a same-bank REF (DDR5 REFsb) at tick t: only this bank is
     * busy (tRFCsb) and one refresh group of its rows is refreshed.
     */
    void autoRefreshBank(BankId b, Tick t,
                         std::uint32_t raa_decrement = 0);

    /**
     * Commit the bank's mitigation verdict at tick t. An RFM keeps the
     * bank busy for tRFM, an ARR for about one row cycle per victim
     * row; an MRR skip costs the bank nothing (its bus time is the
     * controller's).
     * @return Number of aggressor rows treated.
     */
    std::size_t mitigate(BankId b, const Mitigation::Verdict &verdict,
                         Tick t);

    RhOracle &oracle() { return oracle_; }
    const RhOracle &oracle() const { return oracle_; }

    EnergyMeter &energy() { return energy_; }
    const EnergyMeter &energy() const { return energy_; }

    /** Total RFM commands executed. */
    std::uint64_t rfmCount() const { return mitigation_.rfms(); }
    /** RFM commands whose preventive refresh was skipped (adaptive). */
    std::uint64_t rfmSkipped() const { return rfmSkipped_; }
    /** Preventive refresh operations (aggressors treated). */
    std::uint64_t preventiveCount() const
    {
        return mitigation_.preventive();
    }

  private:
    /** Commit a REF to one closed bank, busy for `busy` ticks. */
    void refreshBank(BankId b, Tick t, Tick busy,
                     std::uint32_t raa_decrement);

    Timing timing_;
    Geometry geometry_;
    std::vector<Bank> banks_;
    std::vector<RankTiming> ranks_;
    RhOracle oracle_;
    Mitigation mitigation_;
    EnergyMeter energy_;
    trackers::RhProtection *tracker_ = nullptr;
    ActObserver actObserver_;
    std::uint32_t blastRadius_;

    std::uint64_t rfmSkipped_ = 0;

    /** ARR aggressor scratch — the shared reusable-buffer protocol
     *  (trackers append, the mitigation state takes them). */
    trackers::ActScratch scratch_;
};

} // namespace mithril::dram

#endif // MITHRIL_DRAM_DEVICE_HH
