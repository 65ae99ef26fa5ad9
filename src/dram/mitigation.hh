/**
 * @file
 * The DDR5 mitigation state machine both simulation frontends share.
 *
 * JESD79-5 RFM: the memory controller counts ACTs per bank (RAA) and
 * owes the bank an RFM once the count reaches the scheme's RFM_TH;
 * inside tRFM the DRAM treats the aggressors the scheme picks.
 * Mithril+ first reads a mode register (MRR) and skips an RFM the
 * scheme does not need. ARR-based schemes instead queue aggressor rows
 * whose victims must be refreshed before the bank's next ACT. Every
 * REF refreshes one row group, informs the scheme and may lower RAA by
 * a fixed decrement, but never cancels an owed RFM.
 *
 * Mitigation holds that per-bank state — the RAA count, the RFM-owed
 * flag, the ARR FIFO and the owed-bank counts — and performs each
 * mitigation's effects on the scheme, the ground-truth oracle, the
 * counters and the event trace. It knows no timing: a frontend asks
 * verdict() what a bank owes, schedules it under its own timing model
 * and commits it. The memory controller turns verdicts into fenced
 * DRAM commands (dram::Device owns its instance); the ActStream engine
 * commits them inline as its bank clocks advance.
 */

#ifndef MITHRIL_DRAM_MITIGATION_HH
#define MITHRIL_DRAM_MITIGATION_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.hh"
#include "dram/timing.hh"
#include "trackers/rh_protection.hh"

namespace mithril::telemetry
{
class EventRecorder;
}

namespace mithril::dram
{

class RhOracle;

class Mitigation
{
  public:
    /** What a bank owes now. */
    struct Verdict
    {
        enum class Kind
        {
            None,
            MrrSkip,  //!< An RFM fell due but the MRR poll says no.
            Rfm,
            Arr,
        };

        Kind kind = Kind::None;
        RowId row = kInvalidRow;  //!< The ARR aggressor.
    };

    Mitigation(const Timing &timing, const Geometry &geometry);

    /** The active scheme (null = unprotected). Its usesRfm()/rfmTh()
     *  are read once here: the RhProtection contract keeps them
     *  constant. */
    void setTracker(trackers::RhProtection *tracker);

    /** Emit RfmIssued / RfmSkipped / ArrFired events (null = off). */
    void setEventRecorder(telemetry::EventRecorder *recorder)
    {
        events_ = recorder;
    }

    /** Count `acts` ACTs of the bank and queue the ARR rows the scheme
     *  asked for with the last of them. */
    void
    noteActs(BankId bank, std::uint32_t acts, const std::vector<RowId> &arr)
    {
        if (usesRfm_ || !arr.empty())
            countActs(bank, acts, arr);
    }

    /** ACTs the bank can take before it owes an RFM. */
    std::uint32_t
    actsUntilRfm(BankId bank) const
    {
        return usesRfm_ ? rfmTh_ - banks_[bank].raa
                        : std::numeric_limits<std::uint32_t>::max();
    }

    /** True while the bank owes an RFM or an ARR: a frontend must
     *  commit its verdicts before the bank's next ACT. */
    bool
    owes(BankId bank) const
    {
        const BankState &s = banks_[bank];
        return s.rfmOwed || s.arrHead != s.arr.size();
    }

    /** Banks of the channel that owe an RFM or an ARR. */
    std::uint32_t owedBanks(std::uint32_t channel) const
    {
        return owedPerChannel_[channel];
    }

    /**
     * The bank's verdict: an owed RFM first — a Mithril+ scheme is
     * polled (rfmPending) and an RFM it does not need becomes MrrSkip —
     * then the oldest queued ARR.
     */
    Verdict
    verdict(BankId bank) const
    {
        const BankState &s = banks_[bank];
        if (s.rfmOwed) {
            return {tracker_->rfmPending(bank) ? Verdict::Kind::Rfm
                                               : Verdict::Kind::MrrSkip};
        }
        if (s.arrHead != s.arr.size())
            return {Verdict::Kind::Arr, s.arr[s.arrHead]};
        return {};
    }

    /**
     * Perform the bank's verdict at `tick`: an RFM lets the scheme pick
     * aggressors and refreshes their victims, an MRR skip clears the
     * RFM without one, an ARR refreshes the victims of its row.
     * @param oracle The frontend's ground truth (null: none kept).
     * @return Aggressor rows whose victims were refreshed.
     */
    std::size_t commit(BankId bank, const Verdict &verdict, Tick tick,
                       RhOracle *oracle);

    /** A REF reached the bank at `tick`: refresh its next row group in
     *  `oracle` (null: none kept), tell the scheme, and lower RAA by
     *  `raa_decrement` unless an RFM is owed. */
    void refresh(BankId bank, Tick tick, std::uint32_t raa_decrement,
                 RhOracle *oracle);

    /** RFMs issued (MRR skips excluded). */
    std::uint64_t rfms() const { return rfms_; }
    /** Aggressors treated, by RFM or ARR. */
    std::uint64_t preventive() const { return preventive_; }
    std::uint64_t rfmsAt(BankId bank) const { return banks_.at(bank).rfms; }
    std::uint64_t preventiveAt(BankId bank) const
    {
        return banks_.at(bank).preventive;
    }

  private:
    /** One bank's mitigation state, on its own cache line. */
    struct alignas(64) BankState
    {
        std::uint32_t raa = 0;
        bool rfmOwed = false;
        /** The ARR FIFO is arr[arrHead, arr.size()); cleared when
         *  drained, so it stops allocating once warm. */
        std::uint32_t arrHead = 0;
        std::vector<RowId> arr;
        std::uint64_t rfms = 0;
        std::uint64_t preventive = 0;
    };

    void countActs(BankId bank, std::uint32_t acts,
                   const std::vector<RowId> &arr);

    /** Re-count the bank's channel after its owed state changed from
     *  `owed_before`. */
    void recountOwed(BankId bank, bool owed_before);

    trackers::RhProtection *tracker_ = nullptr;
    bool usesRfm_ = false;
    std::uint32_t rfmTh_ = 0;
    telemetry::EventRecorder *events_ = nullptr;
    std::uint32_t refreshGroups_;
    std::uint32_t banksPerChannel_;

    std::vector<BankState> banks_;
    std::vector<std::uint32_t> owedPerChannel_;
    std::uint64_t rfms_ = 0;
    std::uint64_t preventive_ = 0;
    /** RFM aggressor scratch (the scheme appends, commit drains). */
    trackers::ActScratch scratch_;
};

} // namespace mithril::dram

#endif // MITHRIL_DRAM_MITIGATION_HH
