#include "controller.hh"

#include <algorithm>

#include "common/logging.hh"
#include "telemetry/event_trace.hh"

namespace mithril::mc
{

namespace
{

/** Call fn(slot) for every set bit of a `words`-word slot mask, in
 *  ascending slot order. */
template <typename Fn>
void
forEachSlot(const std::uint64_t *mask, std::uint32_t words, Fn &&fn)
{
    for (std::uint32_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = mask[w]; bits != 0; bits &= bits - 1)
            fn(std::size_t{w} * 64 + __builtin_ctzll(bits));
    }
}

} // namespace

void
ControllerStats::mergeFrom(const ControllerStats &other)
{
    reads += other.reads;
    writes += other.writes;
    rowHits += other.rowHits;
    rowMisses += other.rowMisses;
    activates += other.activates;
    precharges += other.precharges;
    refreshes += other.refreshes;
    rfmIssued += other.rfmIssued;
    rfmSkippedByMrr += other.rfmSkippedByMrr;
    arrExecuted += other.arrExecuted;
    throttleStalls += other.throttleStalls;
    totalReadLatencyNs += other.totalReadLatencyNs;
    readLatencyNs.mergeFrom(other.readLatencyNs);
}

Controller::Controller(dram::Device &device, const AddressMap &map,
                       const ControllerParams &params,
                       std::uint32_t channel)
    : device_(device), map_(map), params_(params), channel_(channel)
{
    const auto &geom = device_.geometry();
    MITHRIL_ASSERT(channel_ < geom.channels);
    firstRank_ = channel_ * geom.ranksPerChannel;
    firstBank_ = firstRank_ * geom.banksPerRank;
    const std::uint32_t banks = geom.ranksPerChannel * geom.banksPerRank;
    rowHitStreak_.assign(banks, 0);
    rankPass_.resize(geom.ranksPerChannel);
    bankQueue_.resize(banks);
    slotWords_ = (params_.queueCapacity + 63) / 64;
    slotMask_.assign(banks * slotWords_, 0);
    passSlots_.assign(slotWords_, 0);
    actTick_.assign(banks, 0);

    const std::uint32_t total_ranks =
        geom.channels * geom.ranksPerChannel;
    refreshDue_.resize(geom.ranksPerChannel);
    refreshBankPtr_.assign(geom.ranksPerChannel, 0);
    refsbCarry_.assign(geom.ranksPerChannel, 0);
    const Tick interval =
        params_.perBankRefresh
            ? device_.timing().tREFI / geom.banksPerRank
            : device_.timing().tREFI;
    for (std::uint32_t r = 0; r < geom.ranksPerChannel; ++r) {
        // Stagger by the *global* rank index so the system-wide
        // refresh phases match the historical single-frontend layout
        // and refreshes never collide across channels.
        const auto g = static_cast<Tick>(firstRank_ + r);
        refreshDue_[r] = interval + g * (interval / total_ranks);
    }
}

bool
Controller::enqueue(const Request &req, Tick now)
{
    MITHRIL_ASSERT_MSG(req.channel == channel_,
                       "request for channel %u enqueued on the "
                       "channel-%u controller",
                       req.channel, channel_);
    MITHRIL_ASSERT(req.bank - firstBank_ < bankQueue_.size());
    if (queue_.size() >= params_.queueCapacity)
        return false;
    Request stored = req;
    stored.arrival = now;
    stored.seq = seq_++;
    const std::size_t slot = queue_.size();
    queue_.push_back(stored);
    const std::uint32_t local = req.bank - firstBank_;
    BankQueue &q = bankQueue_[local];
    ++q.count;
    q.hitCount += req.row == q.hitRow;
    slotMask(local)[slot / 64] |= std::uint64_t{1} << (slot % 64);
    updateBankQueue(local);
    return true;
}

void
Controller::updateBankQueue(std::uint32_t local)
{
    BankQueue &q = bankQueue_[local];
    const dram::Bank &bank = device_.bank(firstBank_ + local);
    q.open = bank.isOpen();
    if (q.open && bank.openRow() != q.hitRow) {
        q.hitRow = bank.openRow();
        q.hitCount = 0;
        forEachSlot(slotMask(local), slotWords_, [&](std::size_t i) {
            q.hitCount += queue_[i].row == q.hitRow;
        });
    }
    // Fences never fall below tick 0, so earliestX(0) reads them raw.
    if (q.count == 0) {
        q.ready = kTickMax;
    } else if (!q.open) {
        q.ready = bank.earliestAct(0);
    } else {
        const std::uint32_t hits =
            rowHitStreak_[local] < params_.maxRowHits ? q.hitCount : 0;
        q.ready = std::min(hits ? bank.earliestCol(0) : kTickMax,
                           q.count > hits ? bank.earliestPre(0)
                                          : kTickMax);
    }
}

bool
Controller::indexConsistent() const
{
    // Rebuild the index from the queue alone: each request's next
    // command is the one choose() would evaluate for it.
    const std::size_t nbanks = bankQueue_.size();
    std::vector<std::uint32_t> count(nbanks, 0);
    std::vector<std::uint32_t> hits(nbanks, 0);
    std::vector<Tick> ready(nbanks, kTickMax);
    std::vector<std::uint64_t> masks(slotMask_.size(), 0);
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        const Request &req = queue_[i];
        const std::uint32_t local = req.bank - firstBank_;
        const dram::Bank &bank = device_.bank(req.bank);
        ++count[local];
        hits[local] += req.row == bankQueue_[local].hitRow;
        masks[local * slotWords_ + i / 64] |= std::uint64_t{1}
                                              << (i % 64);
        Tick t;
        if (!bank.isOpen())
            t = bank.earliestAct(0);
        else if (bank.openRow() == req.row &&
                 rowHitStreak_[local] < params_.maxRowHits)
            t = bank.earliestCol(0);
        else
            t = bank.earliestPre(0);
        ready[local] = std::min(ready[local], t);
    }
    for (std::size_t b = 0; b < nbanks; ++b) {
        const BankQueue &q = bankQueue_[b];
        const dram::Bank &bank = device_.bank(firstBank_ + b);
        if (q.count != count[b] || q.hitCount != hits[b] ||
            q.ready != ready[b] || q.open != bank.isOpen() ||
            (q.open && q.hitRow != bank.openRow()))
            return false;
    }
    return masks == slotMask_;
}

void
Controller::noteServed(std::uint32_t core, Tick t)
{
    if (!params_.useBliss)
        return;
    if (bliss_.lastCore == core) {
        if (++bliss_.streak > params_.blissStreak) {
            if (core >= bliss_.blacklistUntil.size())
                bliss_.blacklistUntil.resize(core + 1, 0);
            bliss_.blacklistUntil[core] = t + params_.blissDuration;
        }
    } else {
        bliss_.lastCore = core;
        bliss_.streak = 1;
    }
}

Controller::Decision
Controller::choose(Tick t0)
{
    const auto &geom = device_.geometry();
    const std::uint32_t banks_per_channel =
        geom.ranksPerChannel * geom.banksPerRank;

    // Commands that cannot issue yet only set the wake-up hint, so
    // that a stalled high-priority command never blocks ready work on
    // other banks.
    Tick wake = kTickMax;

    // One sweep over the owned ranks fixes each rank's refresh drain
    // for the pass, notes when the next drain starts or refresh falls
    // due, and takes Priority 1: overdue auto-refresh (all-bank REF or
    // DDR5 REFsb).
    stableUntil_ = kTickMax;
    for (std::uint32_t r = 0; r < geom.ranksPerChannel; ++r) {
        const std::uint32_t rank = firstRank_ + r;
        const BankId rank_first = rank * geom.banksPerRank;
        const Tick due = refreshDue_[r];
        const Tick drain = due - 2 * device_.timing().tRC;
        RankPass &rp = rankPass_[r];
        rp.draining = t0 >= drain;
        // Same-bank REF only fences the rotation's current target;
        // all-bank REF drains the whole rank.
        rp.fenced = params_.perBankRefresh
                        ? rank_first + refreshBankPtr_[r]
                        : kAllBanks;
        if (t0 < due) {
            stableUntil_ = std::min(stableUntil_, t0 < drain ? drain : due);
            continue;
        }
        Decision d;
        if (params_.perBankRefresh) {
            const BankId b = rank_first + refreshBankPtr_[r];
            const auto &bank = device_.bank(b);
            d.bank = b;
            d.rank = rank;
            if (bank.isOpen()) {
                d.kind = Decision::Kind::Pre;
                d.issue = bank.earliestPre(t0);
            } else {
                d.kind = Decision::Kind::RefSb;
                d.issue = bank.earliestRefresh(t0);
            }
        } else {
            Tick ready = t0;
            // Close any open bank first (cheapest one).
            Decision pre;
            for (std::uint32_t i = 0; i < geom.banksPerRank; ++i) {
                const BankId b = rank_first + i;
                const auto &bank = device_.bank(b);
                if (bank.isOpen()) {
                    const Tick t = bank.earliestPre(t0);
                    if (t < pre.issue) {
                        pre.kind = Decision::Kind::Pre;
                        pre.issue = t;
                        pre.bank = b;
                    }
                } else {
                    ready = std::max(ready, bank.earliestRefresh(t0));
                }
            }
            if (pre.kind == Decision::Kind::Pre) {
                d = pre;
            } else {
                d.kind = Decision::Kind::Ref;
                d.rank = rank;
                d.issue = ready;
            }
        }
        if (d.issue <= t0)
            return d;
        wake = std::min(wake, d.issue);
    }

    // Priority 2: banks that owe an RFM or ARR. A Mithril+ MRR poll
    // that finds the RFM needless skips it at once; an RFM or ARR
    // needs the bank closed.
    Decision best;
    auto *tracker = device_.tracker();
    const dram::Mitigation &mitigation = device_.mitigation();
    const std::uint32_t owed = mitigation.owedBanks(channel_);
    std::uint32_t owed_seen = 0;
    for (std::uint32_t i = 0; owed != 0 && i < banks_per_channel; ++i) {
        const BankId b = firstBank_ + i;
        if (!mitigation.owes(b))
            continue;
        ++owed_seen;
        const auto &bank = device_.bank(b);
        Decision d;
        d.bank = b;
        d.verdict = mitigation.verdict(b);
        if (d.verdict.kind == dram::Mitigation::Verdict::Kind::MrrSkip) {
            d.kind = Decision::Kind::Mitigate;
            d.issue = t0;
        } else if (bank.isOpen()) {
            d.kind = Decision::Kind::Pre;
            d.issue = bank.earliestPre(t0);
        } else {
            d.kind = Decision::Kind::Mitigate;
            d.issue = bank.earliestRefresh(t0);
        }
        if (d.issue < best.issue)
            best = d;
    }
    // The fences of Priority 3 trust the incremental count.
    MITHRIL_ASSERT(owed == 0 || owed_seen == owed);
    if (best.kind != Decision::Kind::None) {
        if (best.issue <= t0)
            return best;
        wake = std::min(wake, best.issue);
        best = Decision{};
    }

    // Priority 3: demand requests, BLISS + FR-FCFS + minimalist-open.
    //
    // One sweep over the owned banks takes each bank's earliest
    // command tick t: its ready tick, plus rank tRRD/tFAW pacing when
    // closed. An unfenced bank is visited when t is legal now, or when
    // it is closed and the tracker may delay ACTs: the throttle probe
    // has side effects, so every candidate ACT must be probed as a
    // full queue scan would. Every other unfenced bank can issue
    // nothing before t and only feeds the wake-up hint.
    const bool delays = tracker && tracker->delaysActs();
    const bool any_owed = owed != 0;
    const std::uint32_t words = slotWords_;
    const std::uint64_t *const masks = slotMask_.data();
    std::uint64_t *const visit = passSlots_.data();
    std::fill_n(visit, words, 0);
    for (std::uint32_t r = 0; r < geom.ranksPerChannel; ++r) {
        const Tick pace =
            device_.rankTiming(firstRank_ + r).earliestAct(t0);
        const RankPass &rp = rankPass_[r];
        const bool rank_drain = rp.draining && rp.fenced == kAllBanks;
        const BankId drain_bank = rp.draining ? rp.fenced : kAllBanks;
        const std::uint32_t first = r * geom.banksPerRank;
        for (std::uint32_t i = first; i < first + geom.banksPerRank;
             ++i) {
            const BankQueue &q = bankQueue_[i];
            const Tick t = q.open ? q.ready : std::max(q.ready, pace);
            const bool fenced = (any_owed &&
                                 mitigation.owes(firstBank_ + i)) ||
                                rank_drain ||
                                firstBank_ + i == drain_bank;
            const bool relevant =
                !fenced && (t <= t0 || (delays && !q.open));
            actTick_[i] = t;
            wake = std::min(wake, fenced || relevant ? kTickMax : t);
            const std::uint64_t keep = 0 - std::uint64_t{relevant};
            for (std::uint32_t w = 0; w < words; ++w)
                visit[w] |= masks[i * words + w] & keep;
        }
    }

    // Visit the chosen banks' requests in queue order. The loop reads
    // pass-invariant state through locals: the tracker probe is a
    // virtual call, after which members would be reloaded.
    int best_class = 4;
    std::uint64_t best_seq = ~0ull;
    bool throttling = false;
    const std::uint32_t max_hits = params_.maxRowHits;
    const dram::Bank *const dev_banks = &device_.bank(firstBank_);
    const std::uint32_t *const streaks = rowHitStreak_.data();
    const Tick *const act_tick = actTick_.data();
    const Tick *const bl_until = bliss_.blacklistUntil.data();
    const std::size_t bl_cores = bliss_.blacklistUntil.size();
    Request *const queue = queue_.data();
    for (std::uint32_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = visit[w]; bits != 0; bits &= bits - 1) {
            const std::size_t i =
                std::size_t{w} * 64 + __builtin_ctzll(bits);
            Request &req = queue[i];
            const std::uint32_t local = req.bank - firstBank_;
            const dram::Bank &bank = dev_banks[local];
            const bool open_hit = bank.isOpen() &&
                                  bank.openRow() == req.row &&
                                  streaks[local] < max_hits;
            const bool blacklisted =
                req.coreId < bl_cores && bl_until[req.coreId] > t0;
            const int cls = (blacklisted ? 2 : 0) + (open_hit ? 0 : 1);
            if (cls > best_class ||
                (cls == best_class && req.seq >= best_seq)) {
                continue;  // A ready candidate already beats this one.
            }

            Decision::Kind kind;
            Tick issue;
            if (open_hit) {
                kind = req.isWrite ? Decision::Kind::Wr
                                   : Decision::Kind::Rd;
                issue = bank.earliestCol(t0);
            } else if (bank.isOpen()) {
                kind = Decision::Kind::Pre;
                issue = bank.earliestPre(t0);
            } else {
                kind = Decision::Kind::Act;
                Tick t = act_tick[local];
                if (delays) {
                    const Tick throttled =
                        tracker->throttleAct(req.bank, req.row, t);
                    if (throttled > t) {
                        throttling = true;
                        // One stall per delayed request: the scheduler
                        // re-probes a waiting ACT on every pass, so a
                        // per-probe count would measure the pass rate.
                        if (!req.throttled) {
                            req.throttled = true;
                            ++stats_.throttleStalls;
                            if (eventRecorder_) {
                                eventRecorder_->record(
                                    telemetry::EventKind::ThrottleStall,
                                    t, req.bank, req.row, 0,
                                    throttled - t);
                            }
                        }
                        t = throttled;
                    }
                }
                issue = t;
            }
            if (issue <= t0) {
                best.kind = kind;
                best.issue = issue;
                best.bank = req.bank;
                best.reqIndex = i;
                best_class = cls;
                best_seq = req.seq;
            } else {
                wake = std::min(wake, issue);
            }
        }
    }
    if (best.kind != Decision::Kind::None)
        return best;
    // A throttle verdict may lapse before its tick (the tracker's
    // filters rotate), so a waiting throttled ACT keeps every pass
    // live.
    if (throttling)
        stableUntil_ = t0;
    // Nothing is ready: report the earliest future command as the
    // wake-up hint without executing it. Fully idle, the next
    // auto-refresh still needs a wakeup.
    Decision none;
    none.issue = wake;
    if (wake == kTickMax) {
        for (std::uint32_t r = 0; r < geom.ranksPerChannel; ++r)
            none.issue = std::min(none.issue, refreshDue_[r]);
    }
    return none;
}

Tick
Controller::execute(const Decision &d)
{
    const auto &timing = device_.timing();
    Tick bus_done = d.issue + params_.commandSlot;

    switch (d.kind) {
      case Decision::Kind::Pre: {
        device_.precharge(d.bank, d.issue);
        rowHitStreak_[d.bank - firstBank_] = 0;
        ++stats_.precharges;
        break;
      }
      case Decision::Kind::Act: {
        const Request &req = queue_[d.reqIndex];
        device_.activate(d.bank, req.row, d.issue);
        rowHitStreak_[d.bank - firstBank_] = 0;
        ++stats_.activates;
        ++stats_.rowMisses;
        break;
      }
      case Decision::Kind::Rd:
      case Decision::Kind::Wr: {
        // Swap-remove the request; the moved request's bit follows it.
        Request req = queue_[d.reqIndex];
        const std::size_t last = queue_.size() - 1;
        const std::uint32_t local = d.bank - firstBank_;
        BankQueue &q = bankQueue_[local];
        --q.count;
        q.hitCount -= req.row == q.hitRow;
        slotMask(local)[d.reqIndex / 64] &=
            ~(std::uint64_t{1} << (d.reqIndex % 64));
        if (d.reqIndex != last) {
            std::uint64_t *const moved =
                slotMask(queue_[last].bank - firstBank_);
            moved[last / 64] &= ~(std::uint64_t{1} << (last % 64));
            moved[d.reqIndex / 64] |= std::uint64_t{1}
                                      << (d.reqIndex % 64);
        }
        queue_[d.reqIndex] = queue_[last];
        queue_.pop_back();
        Tick data;
        if (d.kind == Decision::Kind::Rd) {
            data = device_.read(d.bank, d.issue);
            ++stats_.reads;
            const double lat_ns = tickToNs(data - req.arrival);
            stats_.totalReadLatencyNs += lat_ns;
            stats_.readLatencyNs.sample(lat_ns);
        } else {
            data = device_.write(d.bank, d.issue);
            ++stats_.writes;
        }
        ++stats_.rowHits;
        ++rowHitStreak_[d.bank - firstBank_];
        noteServed(req.coreId, d.issue);
        if (onComplete_)
            onComplete_(req, data);
        break;
      }
      case Decision::Kind::Ref: {
        device_.autoRefreshRank(d.rank, d.issue, params_.raaRefDecrement);
        refreshDue_[d.rank - firstRank_] += timing.tREFI;
        ++stats_.refreshes;
        break;
      }
      case Decision::Kind::RefSb: {
        device_.autoRefreshBank(d.bank, d.issue, params_.raaRefDecrement);
        // Bresenham remainder carry: banksPerRank REFsb steps must
        // span exactly tREFI, but the integer step truncates up to
        // banksPerRank-1 ticks per rotation. Spreading the remainder
        // keeps the per-bank cadence drift-free over long runs.
        const std::uint32_t r = d.rank - firstRank_;
        const auto bpr =
            static_cast<Tick>(device_.geometry().banksPerRank);
        Tick step = timing.tREFI / bpr;
        refsbCarry_[r] += timing.tREFI % bpr;
        if (refsbCarry_[r] >= bpr) {
            refsbCarry_[r] -= bpr;
            ++step;
        }
        refreshDue_[r] += step;
        refreshBankPtr_[r] =
            (refreshBankPtr_[r] + 1) %
            device_.geometry().banksPerRank;
        ++stats_.refreshes;
        break;
      }
      case Decision::Kind::Mitigate: {
        device_.mitigate(d.bank, d.verdict, d.issue);
        switch (d.verdict.kind) {
          case dram::Mitigation::Verdict::Kind::MrrSkip:
            ++stats_.rfmSkippedByMrr;
            bus_done = d.issue + params_.mrrLatency;
            break;
          case dram::Mitigation::Verdict::Kind::Rfm:
            ++stats_.rfmIssued;
            break;
          case dram::Mitigation::Verdict::Kind::Arr:
            ++stats_.arrExecuted;
            break;
          case dram::Mitigation::Verdict::Kind::None:
            break;
        }
        break;
      }
      case Decision::Kind::None:
        panic("executing a None decision");
    }
    if (d.kind == Decision::Kind::Ref) {
        const std::uint32_t first =
            (d.rank - firstRank_) * device_.geometry().banksPerRank;
        for (std::uint32_t i = 0; i < device_.geometry().banksPerRank;
             ++i) {
            updateBankQueue(first + i);
        }
    } else {
        updateBankQueue(d.bank - firstBank_);
    }
    return bus_done;
}

Tick
Controller::service(Tick now)
{
    Tick next = kTickMax;
    while (true) {
        const Tick t0 = std::max(now, busFree_);
        if (t0 > now) {
            next = std::min(next, t0);
            break;
        }
        Decision d = choose(t0);
        if (d.kind == Decision::Kind::None) {
            next = std::min(next, d.issue);
            break;
        }
        if (d.issue > now) {
            next = std::min(next, d.issue);
            break;
        }
        busFree_ = execute(d);
    }
#ifndef NDEBUG
    MITHRIL_ASSERT(indexConsistent());
#endif
    return next;
}

} // namespace mithril::mc
