#include "mitigation.hh"

#include "common/logging.hh"
#include "dram/rh_oracle.hh"
#include "telemetry/event_trace.hh"

namespace mithril::dram
{

Mitigation::Mitigation(const Timing &timing, const Geometry &geometry)
    : refreshGroups_(refreshGroups(timing)),
      banksPerChannel_(geometry.ranksPerChannel * geometry.banksPerRank),
      banks_(geometry.totalBanks()),
      owedPerChannel_(geometry.channels, 0)
{
}

void
Mitigation::setTracker(trackers::RhProtection *tracker)
{
    tracker_ = tracker;
    usesRfm_ = tracker && tracker->usesRfm();
    rfmTh_ = usesRfm_ ? tracker->rfmTh() : 0;
}

void
Mitigation::recountOwed(BankId bank, bool owed_before)
{
    const bool owed = owes(bank);
    if (owed != owed_before) {
        std::uint32_t &count = owedPerChannel_[bank / banksPerChannel_];
        count = owed ? count + 1 : count - 1;
    }
}

void
Mitigation::countActs(BankId bank, std::uint32_t acts,
                      const std::vector<RowId> &arr)
{
    // Both kinds pending at once would need an order between them,
    // and the frontends never had to agree on one.
    MITHRIL_ASSERT_MSG(!usesRfm_ || arr.empty(),
                       "an RFM scheme asked for an ARR");
    BankState &s = banks_[bank];
    const bool owed_before = owes(bank);
    if (usesRfm_ && (s.raa += acts) >= rfmTh_)
        s.rfmOwed = true;
    s.arr.insert(s.arr.end(), arr.begin(), arr.end());
    recountOwed(bank, owed_before);
}

std::size_t
Mitigation::commit(BankId bank, const Verdict &verdict, Tick tick,
                   RhOracle *oracle)
{
    BankState &s = banks_[bank];
    const bool owed_before = owes(bank);
    std::size_t treated = 0;
    switch (verdict.kind) {
      case Verdict::Kind::MrrSkip:
        MITHRIL_ASSERT(s.rfmOwed);
        s.raa = 0;
        s.rfmOwed = false;
        if (events_) {
            events_->record(telemetry::EventKind::RfmSkipped, tick, bank,
                            kInvalidRow);
        }
        break;
      case Verdict::Kind::Rfm: {
        scratch_.reset();
        if (tracker_)
            tracker_->onRfm(bank, tick, scratch_.arr);
        const std::vector<RowId> &aggressors = scratch_.arr;
        treated = aggressors.size();
        if (events_) {
            events_->record(
                telemetry::EventKind::RfmIssued, tick, bank,
                treated ? aggressors.front() : kInvalidRow,
                static_cast<std::uint32_t>(treated));
        }
        if (oracle) {
            for (RowId aggressor : aggressors)
                oracle->onNeighborRefresh(bank, aggressor);
        }
        s.raa = 0;
        s.rfmOwed = false;
        ++s.rfms;
        ++rfms_;
        break;
      }
      case Verdict::Kind::Arr:
        MITHRIL_ASSERT(s.arrHead < s.arr.size() &&
                       s.arr[s.arrHead] == verdict.row);
        if (++s.arrHead == s.arr.size()) {
            s.arr.clear();
            s.arrHead = 0;
        }
        if (events_) {
            events_->record(telemetry::EventKind::ArrFired, tick, bank,
                            verdict.row, 1);
        }
        if (oracle)
            oracle->onNeighborRefresh(bank, verdict.row);
        treated = 1;
        break;
      case Verdict::Kind::None:
        panic("committing a None mitigation verdict");
    }
    s.preventive += treated;
    preventive_ += treated;
    recountOwed(bank, owed_before);
    return treated;
}

void
Mitigation::refresh(BankId bank, Tick tick, std::uint32_t raa_decrement,
                    RhOracle *oracle)
{
    if (oracle)
        oracle->onAutoRefresh(bank, refreshGroups_);
    if (tracker_)
        tracker_->onRefresh(bank, tick);
    BankState &s = banks_[bank];
    if (!s.rfmOwed)
        s.raa = s.raa > raa_decrement ? s.raa - raa_decrement : 0;
}

} // namespace mithril::dram
