#include "device.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mithril::dram
{

Device::Device(const Timing &timing, const Geometry &geometry,
               std::uint32_t flip_th, std::uint32_t blast_radius)
    : timing_(timing), geometry_(geometry),
      oracle_(geometry.totalBanks(), geometry.rowsPerBank, flip_th,
              blast_radius),
      mitigation_(timing, geometry), blastRadius_(blast_radius)
{
    const std::uint32_t total_banks = geometry_.totalBanks();
    banks_.reserve(total_banks);
    for (std::uint32_t b = 0; b < total_banks; ++b)
        banks_.emplace_back(timing_);

    const std::uint32_t total_ranks =
        geometry_.channels * geometry_.ranksPerChannel;
    ranks_.reserve(total_ranks);
    for (std::uint32_t r = 0; r < total_ranks; ++r)
        ranks_.emplace_back(timing_);
}

void
Device::activate(BankId b, RowId row, Tick t)
{
    banks_.at(b).doActivate(t, row);
    ranks_.at(rankOf(b)).recordAct(t);
    energy_.addAct();
    // Event-timestamp cursor for oracle flip/near-miss tracing (one
    // dead store when no recorder is attached).
    oracle_.setNow(t);
    oracle_.onActivate(b, row);
    if (actObserver_)
        actObserver_(b, row, t);
    if (tracker_) {
        scratch_.reset();
        tracker_->onActivate(b, row, t, scratch_.arr);
        mitigation_.noteActs(b, 1, scratch_.arr);
    }
}

void
Device::precharge(BankId b, Tick t)
{
    banks_.at(b).doPrecharge(t);
    energy_.addPre();
}

Tick
Device::read(BankId b, Tick t)
{
    energy_.addRead();
    return banks_.at(b).doRead(t);
}

Tick
Device::write(BankId b, Tick t)
{
    energy_.addWrite();
    return banks_.at(b).doWrite(t);
}

void
Device::autoRefreshRank(std::uint32_t flat_rank, Tick t,
                        std::uint32_t raa_decrement)
{
    const BankId first = flat_rank * geometry_.banksPerRank;
    for (std::uint32_t i = 0; i < geometry_.banksPerRank; ++i)
        refreshBank(first + i, t, timing_.tRFC, raa_decrement);
}

void
Device::autoRefreshBank(BankId b, Tick t, std::uint32_t raa_decrement)
{
    refreshBank(b, t, timing_.tRFCsb, raa_decrement);
}

void
Device::refreshBank(BankId b, Tick t, Tick busy, std::uint32_t raa_decrement)
{
    Bank &bank = banks_.at(b);
    // The controller must have closed the bank already.
    MITHRIL_ASSERT(!bank.isOpen());
    bank.doRefresh(std::max(t, bank.earliestRefresh(t)), busy);
    const std::uint32_t groups = refreshGroups(timing_);
    energy_.addRefreshRows((geometry_.rowsPerBank + groups - 1) / groups);
    mitigation_.refresh(b, t, raa_decrement, &oracle_);
}

std::size_t
Device::mitigate(BankId b, const Mitigation::Verdict &verdict, Tick t)
{
    Bank &bank = banks_.at(b);
    using Kind = Mitigation::Verdict::Kind;
    MITHRIL_ASSERT(verdict.kind == Kind::MrrSkip || !bank.isOpen());
    if (verdict.kind == Kind::Rfm) {
        bank.doRefresh(t, timing_.tRFM);
    } else if (verdict.kind == Kind::Arr) {
        // Refreshing the 2*radius victims costs about one row cycle
        // each.
        bank.doRefresh(std::max(t, bank.earliestRefresh(t)),
                       static_cast<Tick>(2 * blastRadius_) * timing_.tRC);
    }
    const std::size_t treated = mitigation_.commit(b, verdict, t, &oracle_);
    if (verdict.kind == Kind::Rfm && treated == 0)
        ++rfmSkipped_;
    energy_.addPreventiveRows(2ull * blastRadius_ * treated);
    return treated;
}

} // namespace mithril::dram
