#include "rh_oracle.hh"

#include <algorithm>

#include "common/logging.hh"
#include "telemetry/event_trace.hh"

namespace mithril::dram
{

namespace
{

/** Initial table size: small enough that an idle oracle (a System
 *  lane or engine shard no ACT reaches) costs half a kilobyte. */
constexpr std::uint32_t kMinCapacity = 64;

} // namespace

RhOracle::RhOracle(std::uint32_t banks, std::uint32_t rows_per_bank,
                   std::uint32_t flip_th, std::uint32_t blast_radius)
    : banks_(banks), rowsPerBank_(rows_per_bank), flipTh_(flip_th),
      blastRadius_(blast_radius), thresholdQ_(std::uint64_t{flip_th} * 4),
      refreshPtr_(banks, 0)
{
    MITHRIL_ASSERT(banks_ > 0);
    MITHRIL_ASSERT(rowsPerBank_ > 0);
    MITHRIL_ASSERT(flipTh_ > 0);
    MITHRIL_ASSERT(blast_radius >= 1 && blast_radius <= 3);
    // Flat row keys must stay below the empty-slot sentinel.
    MITHRIL_ASSERT_MSG(static_cast<std::uint64_t>(banks_) * rowsPerBank_ <=
                           kEmptyKey,
                       "%u banks x %u rows exceed 32-bit row keys", banks_,
                       rowsPerBank_);
    rehash(kMinCapacity);
}

std::uint32_t
RhOracle::probe(std::uint32_t key) const
{
    std::uint32_t i = home(key);
    while (slots_[i].key != key && slots_[i].key != kEmptyKey)
        i = (i + 1) & mask_;
    return i;
}

void
RhOracle::refresh(std::uint32_t key)
{
    std::uint32_t i = probe(key);
    if (slots_[i].key == kEmptyKey)
        return;
    if (slots_[i].count & kFlippedBit) {
        slots_[i].count = kFlippedBit;
        return;
    }
    // Backward-shift erase: pull each later row of the probe chain
    // into the hole unless that would move it before its home slot.
    for (std::uint32_t j = (i + 1) & mask_; slots_[j].key != kEmptyKey;
         j = (j + 1) & mask_) {
        if (((j - home(slots_[j].key)) & mask_) >= ((j - i) & mask_)) {
            slots_[i] = slots_[j];
            i = j;
        }
    }
    slots_[i].key = kEmptyKey;
    --resident_;
}

void
RhOracle::rehash(std::uint32_t capacity)
{
    std::vector<Slot> old(capacity, Slot{kEmptyKey, 0});
    old.swap(slots_);
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<std::uint32_t>(__builtin_ctz(capacity));
    growAt_ = capacity / 4 * 3;
    for (const Slot &s : old) {
        if (s.key != kEmptyKey)
            slots_[probe(s.key)] = s;
    }
}

std::uint32_t
RhOracle::insert(std::uint32_t key, std::uint32_t i)
{
    if (resident_ == growAt_) {
        rehash(static_cast<std::uint32_t>(2 * slots_.size()));
        i = probe(key);
    }
    ++resident_;
    slots_[i] = Slot{key, 0};
    return i;
}

void
RhOracle::cross(Slot &slot, BankId bank, RowId row, std::uint32_t before,
                std::uint32_t count, Tick now)
{
    if (count >= thresholdQ_) {
        ++bitFlips_;
        if (!(slot.count & kFlippedBit)) {
            slot.count |= kFlippedBit;
            ++flippedRows_;
        }
        if (recorder_) {
            recorder_->record(telemetry::EventKind::OracleFlip, now, bank,
                              row, static_cast<std::uint32_t>(flippedRows_));
        }
        return;
    }
    // Near-miss line: within 1/8 of FlipTH. Emit once, on the
    // crossing (pure observation; no oracle state changes).
    const std::uint64_t near_q = thresholdQ_ - thresholdQ_ / 8;
    if (recorder_ && before < near_q) {
        recorder_->record(telemetry::EventKind::NearMiss, now, bank, row,
                          static_cast<std::uint32_t>(thresholdQ_ - count));
    }
}

void
RhOracle::onActivateRun(BankId bank, const RowId *rows, std::size_t n,
                        Tick tick0, Tick stride)
{
    MITHRIL_ASSERT(bank < banks_);
    // Everything the loop reads lives in a local: a store through a
    // Slot may alias any 32-bit member, so member reads would be
    // reloaded after every disturbance.
    const std::uint32_t rows_per_bank = rowsPerBank_;
    const std::uint32_t base = bank * rows_per_bank;
    const std::uint32_t radius = blastRadius_;
    const std::uint64_t threshold_q = thresholdQ_;
    // The lowest count that can emit: the near-miss line while
    // tracing, else FlipTH. cross() sorts out which line was crossed.
    const std::uint64_t watch_q =
        recorder_ ? threshold_q - threshold_q / 8 : threshold_q;
    Slot *slots = slots_.data();
    std::uint32_t mask = mask_;
    std::uint32_t shift = shift_;
    std::uint64_t max_q = maxDisturbanceQ_;
    // The last slot touched. Inserts never move a resident row, so
    // it stays valid until a growth rehash, which re-keys it below.
    std::uint32_t memo_key = kEmptyKey;
    std::uint32_t memo_slot = 0;

    auto disturb = [&](RowId row, std::uint32_t weight_q, Tick now) {
        const std::uint32_t key = base + row;
        std::uint32_t i = memo_slot;
        if (key != memo_key) {
            i = home(key, shift);
            while (slots[i].key != key && slots[i].key != kEmptyKey)
                i = (i + 1) & mask;
            if (slots[i].key == kEmptyKey) {
                i = insert(key, i);
                slots = slots_.data();
                mask = mask_;
                shift = shift_;
            }
            memo_key = key;
            memo_slot = i;
        }
        Slot &slot = slots[i];
        const std::uint32_t before = slot.count & kCountMask;
        const std::uint32_t count = before + weight_q;
        // Auto-refresh bounds a row at ~2.8M quarter units per tREFW;
        // only a run with refresh disabled could approach 2^31.
        MITHRIL_ASSERT(count <= kCountMask);
        slot.count += weight_q;
        max_q = std::max<std::uint64_t>(max_q, count);
        if (count >= watch_q && before < threshold_q)
            cross(slot, bank, row, before, count, now);
    };

    std::size_t i = 0;
    for (; i < n; ++i) {
        const RowId row = rows[i];
        MITHRIL_ASSERT(row < rows_per_bank);
        const Tick now = tick0 + static_cast<Tick>(i) * stride;
        // Distance-1 neighbours take a full hit; distance-2 a quarter
        // hit (half-double style coupling); distance-3 a sixteenth,
        // rounded to zero in quarter units, so radius 3 reuses the
        // quarter weight to stay conservative.
        for (std::uint32_t d = 1; d <= radius; ++d) {
            const std::uint32_t weight_q = (d == 1) ? 4 : 1;
            if (row >= d)
                disturb(row - d, weight_q, now);
            if (row + d < rows_per_bank)
                disturb(row + d, weight_q, now);
        }
    }
    maxDisturbanceQ_ = max_q;
    activations_ += i;
}

void
RhOracle::onRowRefresh(BankId bank, RowId row)
{
    refresh(bank * rowsPerBank_ + row);
}

void
RhOracle::onNeighborRefresh(BankId bank, RowId aggressor)
{
    for (std::uint32_t d = 1; d <= blastRadius_; ++d) {
        if (aggressor >= d)
            onRowRefresh(bank, aggressor - d);
        if (aggressor + d < rowsPerBank_)
            onRowRefresh(bank, aggressor + d);
    }
}

void
RhOracle::onAutoRefresh(BankId bank, std::uint32_t groups)
{
    MITHRIL_ASSERT(bank < banks_);
    MITHRIL_ASSERT(groups > 0);
    std::uint32_t rows = (rowsPerBank_ + groups - 1) / groups;
    RowId &ptr = refreshPtr_[bank];
    for (std::uint32_t i = 0; i < rows; ++i) {
        onRowRefresh(bank, ptr);
        ptr = (ptr + 1) % rowsPerBank_;
    }
}

double
RhOracle::disturbance(BankId bank, RowId row) const
{
    const Slot &slot = slots_[probe(bank * rowsPerBank_ + row)];
    if (slot.key == kEmptyKey)
        return 0.0;
    return static_cast<double>(slot.count & kCountMask) / 4.0;
}

} // namespace mithril::dram
