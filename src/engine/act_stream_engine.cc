#include "act_stream_engine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "telemetry/exports.hh"
#include "telemetry/telemetry.hh"

namespace mithril::engine
{

EngineConfig
EngineConfig::singleBank(const dram::Timing &timing,
                         std::uint32_t flip_th,
                         std::uint32_t rows_per_bank,
                         std::uint32_t blast_radius)
{
    EngineConfig cfg;
    cfg.timing = timing;
    cfg.geometry.channels = 1;
    cfg.geometry.ranksPerChannel = 1;
    cfg.geometry.banksPerRank = 1;
    cfg.geometry.rowsPerBank = rows_per_bank;
    cfg.geometry.rowBytes = 8192;
    cfg.geometry.lineBytes = 64;
    cfg.flipTh = flip_th;
    cfg.blastRadius = blast_radius;
    return cfg;
}

ActStreamEngine::ActStreamEngine(const EngineConfig &config,
                                 trackers::RhProtection *tracker)
    : config_(config), tracker_(tracker),
      oracle_(config.geometry.totalBanks(), config.geometry.rowsPerBank,
              config.flipTh, config.blastRadius),
      mitigation_(config.timing, config.geometry),
      banks_(config.geometry.totalBanks())
{
    MITHRIL_ASSERT(config_.geometry.totalBanks() > 0);
    MITHRIL_ASSERT(config_.timing.tRC > 0);
    tRcDiv_ = simd::U64Divisor(
        static_cast<std::uint64_t>(config_.timing.tRC));
    const auto num_banks =
        static_cast<std::uint32_t>(banks_.size());
    partCount_.assign(num_banks, 0);
    partOffset_.assign(num_banks, 0);
    partCursor_.assign(num_banks, 0);
    partRows_.resize(ActBatch::kCapacity);
    for (BankState &bs : banks_)
        bs.nextRef = config_.timing.tREFI;
    mitigation_.setTracker(tracker_);
    if (config_.telemetry) {
        events_ = config_.telemetry->events();
        heatmap_ = config_.telemetry->heatmap();
        if (config_.telemetry->config().phases)
            phases_ = &config_.telemetry->phases();
        if (events_) {
            oracle_.setEventRecorder(events_);
            mitigation_.setEventRecorder(events_);
            if (tracker_)
                tracker_->setEventRecorder(events_);
        }
    }
}

void
ActStreamEngine::maybeRefresh(BankState &bs, BankId bank)
{
    while (bs.now >= bs.nextRef) {
        mitigation_.refresh(bank, bs.nextRef, 0, liveOracle());
        bs.now += config_.timing.tRFC;  // Bank blocked for tRFC.
        bs.nextRef += config_.timing.tREFI;
        ++bs.refs;
        ++refs_;
    }
}

void
ActStreamEngine::mitigate(BankState &bs, BankId bank, std::uint32_t acts)
{
    mitigation_.noteActs(bank, acts, scratch_.arr);
    using Kind = dram::Mitigation::Verdict::Kind;
    for (dram::Mitigation::Verdict v = mitigation_.verdict(bank);
         v.kind != Kind::None; v = mitigation_.verdict(bank)) {
        mitigation_.commit(bank, v, bs.now, liveOracle());
        if (v.kind == Kind::Rfm) {
            bs.now += config_.timing.tRFM;
        } else if (v.kind == Kind::Arr) {
            bs.now += static_cast<Tick>(2 * config_.blastRadius) *
                      config_.timing.tRC;
        }
    }
}

void
ActStreamEngine::activate(BankId bank, RowId row)
{
    BankState &bs = banks_.at(bank);
    maybeRefresh(bs, bank);

    if (config_.honorThrottle && tracker_) {
        const Tick earliest = tracker_->throttleAct(bank, row, bs.now);
        if (earliest > bs.now) {
            if (events_) {
                events_->record(telemetry::EventKind::ThrottleStall,
                                bs.now, bank, row, 0,
                                earliest - bs.now);
            }
            ++throttleStalls_;
            bs.now = earliest;
            maybeRefresh(bs, bank);
        }
    }

    if (heatmap_)
        heatmap_->touch(bank, row);
    if (config_.enableOracle) {
        if (events_)
            oracle_.setNow(bs.now);
        oracle_.onActivate(bank, row);
    }
    ++bs.acts;
    ++acts_;
    scratch_.reset();
    if (tracker_)
        tracker_->onActivate(bank, row, bs.now, scratch_.arr);
    bs.now += config_.timing.tRC;
    mitigate(bs, bank, 1);
}

void
ActStreamEngine::processRun(BankState &bs, BankId bank,
                            const RowId *rows, std::size_t n)
{
    const Tick t_rc = config_.timing.tRC;
    while (n > 0) {
        maybeRefresh(bs, bank);

        // Cut the run at the next REF boundary and RFM epoch so the
        // span's ticks are exact under the uniform tRC stride.
        // until_ref > 0 after maybeRefresh(), so the prepared-divisor
        // ceil equals the signed expression it replaced.
        const Tick until_ref = bs.nextRef - bs.now;
        std::uint64_t cap = tRcDiv_.div(
            static_cast<std::uint64_t>(until_ref + t_rc - 1));
        cap = std::min<std::uint64_t>(cap, mitigation_.actsUntilRfm(bank));
        cap = std::min<std::uint64_t>(cap, n);

        trackers::ActSpan span;
        span.bank = bank;
        span.rows = rows;
        span.size = static_cast<std::size_t>(cap);
        span.tick0 = bs.now;
        span.tickStride = t_rc;

        scratch_.reset();
        std::size_t consumed = span.size;
        if (tracker_) {
            consumed = tracker_->onActivateBatch(span, scratch_.arr);
            MITHRIL_ASSERT(consumed >= 1 && consumed <= span.size);
        }

        if (heatmap_) {
            for (std::size_t i = 0; i < consumed; ++i)
                heatmap_->touch(bank, rows[i]);
        }
        if (config_.enableOracle) {
            if (events_) {
                // Tracing variant: stamp the oracle's event clock
                // with each record's exact tick.
                for (std::size_t i = 0; i < consumed; ++i) {
                    oracle_.setNow(span.tick0 +
                                   static_cast<Tick>(i) * t_rc);
                    oracle_.onActivate(bank, rows[i]);
                }
            } else {
                for (std::size_t i = 0; i < consumed; ++i)
                    oracle_.onActivate(bank, rows[i]);
            }
        }
        bs.acts += consumed;
        acts_ += consumed;
        bs.now += static_cast<Tick>(consumed) * t_rc;
        mitigate(bs, bank, static_cast<std::uint32_t>(consumed));

        rows += consumed;
        n -= consumed;
    }
}

void
ActStreamEngine::dispatchBatch(const ActBatch &batch, std::size_t n)
{
    if (n == 0)
        return;
    const BankId *bank_col = batch.banks();
    const RowId *row_col = batch.rows();
    const auto num_banks = static_cast<std::uint32_t>(banks_.size());
    const bool scalar =
        config_.dispatch == EngineConfig::Dispatch::Scalar ||
        config_.honorThrottle;

    // Uniform-bank fast path: sharded runs and single-bank workloads
    // deliver whole batches on one bank; one SIMD sweep detects that
    // and skips the partition entirely. Dispatch order is trivially
    // identical (one bank, stream order).
    if (simd::uniformPrefix(bank_col, n, bank_col[0]) == n) {
        const BankId bank = bank_col[0];
        MITHRIL_ASSERT(bank < num_banks);
        if (scalar) {
            for (std::size_t i = 0; i < n; ++i)
                activate(bank, row_col[i]);
        } else {
            processRun(banks_[bank], bank, row_col, n);
        }
        return;
    }

    // Counting-sort partition into one flat reused buffer (stable, so
    // each bank's slice keeps stream order). Both dispatch modes
    // traverse the partition in ascending bank order so they agree on
    // the interleaving seen by process-wide tracker state (shared
    // RNGs, logic-op counters).
    std::fill(partCount_.begin(), partCount_.end(), 0u);
    for (std::size_t i = 0; i < n; ++i) {
        MITHRIL_ASSERT(bank_col[i] < num_banks);
        ++partCount_[bank_col[i]];
    }
    std::uint32_t off = 0;
    for (std::uint32_t b = 0; b < num_banks; ++b) {
        partOffset_[b] = off;
        partCursor_[b] = off;
        off += partCount_[b];
    }
    for (std::size_t i = 0; i < n; ++i)
        partRows_[partCursor_[bank_col[i]]++] = row_col[i];

    for (BankId bank = 0; bank < num_banks; ++bank) {
        const std::uint32_t count = partCount_[bank];
        if (count == 0)
            continue;
        const RowId *rows = partRows_.data() + partOffset_[bank];
        if (scalar) {
            for (std::uint32_t i = 0; i < count; ++i)
                activate(bank, rows[i]);
        } else {
            processRun(banks_[bank], bank, rows, count);
        }
    }
}

std::uint64_t
ActStreamEngine::run(ActSource &source)
{
    return run(source, ~0ull);
}

std::uint64_t
ActStreamEngine::run(ActSource &source, std::uint64_t max_acts)
{
    std::uint64_t done = 0;
    telemetry::PhaseTimer timer;
    while (done < max_acts) {
        batch_.clear();
        const auto limit = static_cast<std::size_t>(
            std::min<std::uint64_t>(ActBatch::kCapacity,
                                    max_acts - done));
        if (phases_)
            timer.lap();
        const std::size_t n = source.fill(batch_, limit);
        if (phases_)
            phases_->addSource(timer.lap());
        if (n == 0)
            break;
        MITHRIL_ASSERT(n <= limit);
        dispatchBatch(batch_, n);
        if (phases_)
            phases_->addDispatch(timer.lap());
        done += n;
    }
    return done;
}

void
ActStreamEngine::exportTelemetry()
{
    if (!config_.telemetry)
        return;
    telemetry::MetricSheet &sheet = config_.telemetry->sheet();
    sheet.setCounter("engine.acts", acts_);
    sheet.setCounter("engine.refs", refs_);
    sheet.setCounter("engine.rfms", mitigation_.rfms());
    sheet.setCounter("engine.preventive", mitigation_.preventive());
    sheet.setCounter("engine.throttle_stalls", throttleStalls_);
    if (config_.enableOracle) {
        telemetry::exportOracle(sheet, oracle_.bitFlips(),
                                oracle_.flippedRows(),
                                oracle_.maxDisturbanceEver());
    }
    if (events_)
        telemetry::exportEventCounts(sheet, {events_});
    if (heatmap_)
        telemetry::exportHeatmap(sheet, *heatmap_);
    if (tracker_)
        tracker_->exportMetrics(sheet);
}

} // namespace mithril::engine
