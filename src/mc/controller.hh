/**
 * @file
 * The per-channel memory-controller frontend.
 *
 * One Controller instance owns exactly one channel of the geometry:
 * its request queue, its command bus, its BLISS state, and — for the
 * channel's rank slice — the DDR5 RAA (rolling accumulated ACT)
 * counters, RFM issue at RFM_TH per Figure 1, pending ARR preventive
 * refreshes for the ARR-based baselines, and the auto-refresh cadence
 * (all-bank REF every tREFI, or the REFsb rotation). Requests are
 * arbitrated with BLISS (FR-FCFS + served-streak blacklisting) under
 * a minimalist-open page policy.
 *
 * A multi-channel System builds one Controller per channel and
 * interleaves their service() loops deterministically (min-tick, ties
 * by channel index); because a controller touches only its own
 * channel's ranks/banks of the Device, the per-channel instances may
 * also advance in parallel within a causality window. Cross-channel
 * statistics merge through ControllerStats::mergeFrom() in channel
 * order — the same partition-and-merge discipline the sharded
 * ActStream engine uses for banks.
 *
 * The controller is event-driven: service(now) issues every command
 * legal at `now` and returns the next tick it needs servicing.
 *
 * The channel queue is indexed by bank: each owned bank keeps its
 * queued-request count, its count of requests to the row it last
 * opened, a bank-local ready tick and a bitmask of the queue slots
 * holding its requests, all kept current by enqueue() and execute().
 * A scheduling pass sweeps the banks once and evaluates only the
 * requests of banks that can issue now, in queue-slot order — the
 * same decisions as a scan of the whole queue.
 */

#ifndef MITHRIL_MC_CONTROLLER_HH
#define MITHRIL_MC_CONTROLLER_HH

#include <deque>
#include <functional>
#include <vector>

#include "common/histogram.hh"
#include "common/types.hh"
#include "dram/device.hh"
#include "mc/address_map.hh"
#include "mc/request.hh"
#include "trackers/rh_protection.hh"

namespace mithril::telemetry
{
class EventRecorder;
}

namespace mithril::mc
{

/** Controller tuning knobs. */
struct ControllerParams
{
    std::uint32_t queueCapacity = 64;   //!< Requests per channel.
    bool useBliss = true;               //!< BLISS vs plain FR-FCFS.
    std::uint32_t blissStreak = 4;      //!< Served streak before
                                        //!< blacklisting.
    Tick blissDuration = usToTick(8.0); //!< Blacklist duration.
    std::uint32_t maxRowHits = 4;       //!< Minimalist-open hit cap.
    /** Use DDR5 same-bank refresh (REFsb): one bank refreshed every
     *  tREFI/banksPerRank instead of an all-bank REF every tREFI. */
    bool perBankRefresh = false;
    /** DDR5 RAA decrement applied by each REF the bank receives
     *  (0 = the paper's reset-only RAA semantics). */
    std::uint32_t raaRefDecrement = 0;
    Tick commandSlot = nsToTick(0.83);  //!< Command bus occupancy.
    Tick mrrLatency = nsToTick(2.0);    //!< Mithril+ MRR poll cost
                                        //!< (command-bus occupancy).
};

/** Aggregate controller statistics (one channel's slice). */
struct ControllerStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t activates = 0;
    std::uint64_t precharges = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t rfmIssued = 0;
    std::uint64_t rfmSkippedByMrr = 0;  //!< Mithril+ avoided commands.
    std::uint64_t arrExecuted = 0;
    std::uint64_t throttleStalls = 0;   //!< Requests whose ACT the
                                        //!< tracker delayed (once each).
    double totalReadLatencyNs = 0.0;
    /** Read latency distribution (ns), 20ns buckets up to 2us. */
    Histogram readLatencyNs{0.0, 2000.0, 100};

    double avgReadLatencyNs() const
    {
        return reads ? totalReadLatencyNs / static_cast<double>(reads)
                     : 0.0;
    }

    /** Fold another channel's statistics into this one (sums; the
     *  latency histogram merges bucket-wise). Folding in channel
     *  order makes the merged sheet deterministic at any pool size. */
    void mergeFrom(const ControllerStats &other);
};

/** Event-driven DDR5 memory controller for one channel. */
class Controller
{
  public:
    /** Callback fired when a request's data completes. */
    using CompletionFn =
        std::function<void(const Request &, Tick completion)>;

    /**
     * Build the frontend for `channel` of the device's geometry. The
     * controller drives only that channel's ranks and banks; the
     * Device (and AddressMap) may be shared with other channels'
     * controllers only if the caller serializes their service calls.
     */
    Controller(dram::Device &device, const AddressMap &map,
               const ControllerParams &params,
               std::uint32_t channel = 0);

    void setCompletionCallback(CompletionFn fn)
    {
        onComplete_ = std::move(fn);
    }

    /** Enqueue a decoded request targeting this controller's channel;
     *  false when the queue is full. */
    bool enqueue(const Request &req, Tick now);

    /** Outstanding requests in the channel queue. */
    std::size_t queueDepth() const { return queue_.size(); }

    /** The channel this controller owns. */
    std::uint32_t channel() const { return channel_; }

    /**
     * Issue every command legal at `now`; returns the next tick the
     * controller can make progress (kTickMax when fully idle).
     */
    Tick service(Tick now);

    const ControllerStats &stats() const { return stats_; }
    dram::Device &device() { return device_; }

    /**
     * Attach a mitigation-event recorder: RFM issue/skip, executed
     * ARRs, and throttle stalls emit trace events at their issue
     * ticks. Observation only — never affects scheduling. Null
     * detaches.
     */
    void setEventRecorder(telemetry::EventRecorder *recorder)
    {
        eventRecorder_ = recorder;
    }

    /** True when the queue and every pending-work list is empty. */
    bool idle() const { return queue_.empty() && owedBanks_ == 0; }

    /**
     * Self-check of the bank index: recomputes every owned bank's
     * request count, hit-row count, ready tick, open flag and slot
     * mask from the queue and the device, and compares them with the
     * incrementally kept state. Debug builds assert it after every
     * service() call.
     */
    bool indexConsistent() const;

    /**
     * The first tick at which a scheduling pass could decide anything
     * the last pass did not foresee, even with no new request: a
     * rank's refresh drain starts or its refresh falls due (the pass
     * only looks at a refresh once it is due), or — right away — a
     * throttled ACT is waiting, since the tracker's verdict may lapse
     * early. Until then, and until the tick service() returned, a
     * service() call without a new request is a no-op with no side
     * effects, so a host may skip it.
     */
    Tick stableUntil() const { return stableUntil_; }

  private:
    /** A scheduling decision for one instant on this channel. */
    struct Decision
    {
        enum class Kind
        {
            None,
            Pre,
            Act,
            Rd,
            Wr,
            Ref,
            RefSb,
            Rfm,
            MrrSkip,
            Arr,
        };

        Kind kind = Kind::None;
        Tick issue = kTickMax;
        BankId bank = 0;            //!< Global (system-flat) bank id.
        std::uint32_t rank = 0;     //!< Global flat rank id.
        std::size_t reqIndex = 0;   //!< For Rd/Wr/Act/Pre on a request.
        RowId arrAggressor = 0;
    };

    struct BankCtl
    {
        std::uint32_t raa = 0;
        bool rfmRequired = false;
        std::deque<RowId> pendingArr;
        std::uint32_t rowHitStreak = 0;
    };

    struct BlissState
    {
        std::uint32_t lastCore = ~0u;
        std::uint32_t streak = 0;
        /** Blacklist expiry per core id (grown on first blacklisting;
         *  0 = never blacklisted). */
        std::vector<Tick> blacklistUntil;
    };

    /** One owned rank's refresh drain, fixed for a scheduling pass. */
    struct RankPass
    {
        bool draining = false;  //!< Within 2*tRC of its refresh.
        /** The bank the drain fences: kAllBanks for an all-bank REF,
         *  else the REFsb rotation's current target. */
        BankId fenced = 0;
    };
    static constexpr BankId kAllBanks = ~BankId{0};

    /**
     * One owned bank's view of the request queue, kept current by
     * enqueue() and by every execute() that commits to the bank.
     */
    struct BankQueue
    {
        /** Bank-local earliest tick any queued request can issue a
         *  command: when open, the sooner of the column fence (a hit
         *  within the minimalist-open cap is queued) and the PRE
         *  fence (a request would miss); when closed, the ACT fence
         *  (rank pacing is added per pass); kTickMax when empty. */
        Tick ready = kTickMax;
        std::uint32_t count = 0;     //!< Queued requests.
        std::uint32_t hitCount = 0;  //!< Queued requests to hitRow.
        /** The row hitCount counts: recounted only when the bank
         *  opens a different row. */
        RowId hitRow = kInvalidRow;
        bool open = false;
    };

    /** Pick the next command given bus-free tick t0. */
    Decision choose(Tick t0);

    /** Commit a decision; returns the tick the bus frees. */
    Tick execute(const Decision &d);

    void noteServed(std::uint32_t core, Tick t);

    /** True while a bank owes an RFM or ARR: it is fenced from demand
     *  traffic and counted in owedBanks_. */
    static bool
    owes(const BankCtl &ctl)
    {
        return ctl.rfmRequired || !ctl.pendingArr.empty();
    }
    /** Re-count a bank in owedBanks_ after its RFM/ARR state changed
     *  from `owed_before`. */
    void recountOwed(const BankCtl &ctl, bool owed_before);

    /** Apply the DDR5 RAA decrement to one refreshed bank. */
    void decrementRaa(BankId bank);

    void handleActSideEffects(BankId bank, std::vector<RowId> &arr_out);

    /** Bring an owned bank's BankQueue up to date with the device and
     *  the bank's row-hit streak. */
    void updateBankQueue(std::uint32_t local);

    /** The queue-slot mask of an owned bank (slotWords_ words). */
    std::uint64_t *slotMask(std::uint32_t local)
    {
        return &slotMask_[local * slotWords_];
    }

    /** Per-bank control state of a global bank id in our channel. */
    BankCtl &bankCtl(BankId bank) { return banks_[bank - firstBank_]; }

    dram::Device &device_;
    const AddressMap &map_;
    ControllerParams params_;
    std::uint32_t channel_;
    std::uint32_t firstRank_;     //!< First global flat rank we own.
    BankId firstBank_;            //!< First global bank id we own.
    CompletionFn onComplete_;

    std::vector<Request> queue_;  //!< The channel's request queue.
    Tick busFree_ = 0;            //!< The channel's command bus.
    BlissState bliss_;
    std::vector<Tick> refreshDue_;               //!< Per owned rank.
    std::vector<std::uint32_t> refreshBankPtr_;  //!< Per owned rank
                                                 //!< (REFsb rotation).
    /** REFsb cadence remainder per owned rank: tREFI rarely divides
     *  by banksPerRank, so the integer step alone would drift the
     *  rotation early by up to banksPerRank-1 ticks per tREFI. The
     *  carry spreads the remainder Bresenham-style so banksPerRank
     *  REFsb commands span exactly tREFI. */
    std::vector<Tick> refsbCarry_;
    std::vector<BankCtl> banks_;                 //!< Per owned bank.
    std::uint32_t owedBanks_ = 0;  //!< Owned banks that owe RFM/ARR.

    std::vector<RankPass> rankPass_;  //!< Per owned rank, this pass.
    std::vector<BankQueue> bankQueue_;   //!< Per owned bank.
    std::uint32_t slotWords_;            //!< ceil(queueCapacity / 64).
    /** Per owned bank, slotWords_ words: bit i set when queue_[i]
     *  targets the bank. */
    std::vector<std::uint64_t> slotMask_;
    std::vector<std::uint64_t> passSlots_;  //!< Slots a pass visits.
    /** Per owned bank, this pass: a closed bank's earliest legal ACT
     *  (bank fence, rank tRRD/tFAW pacing and the pass tick). */
    std::vector<Tick> actTick_;
    Tick stableUntil_ = 0;

    std::uint64_t seq_ = 0;
    ControllerStats stats_;
    /** ARR/RFM aggressor scratch — the same reusable-buffer protocol
     *  the ActStream engine uses (trackers append, frontend drains). */
    trackers::ActScratch scratch_;
    /** Non-null while mitigation-event tracing is enabled. */
    telemetry::EventRecorder *eventRecorder_ = nullptr;
};

} // namespace mithril::mc

#endif // MITHRIL_MC_CONTROLLER_HH
