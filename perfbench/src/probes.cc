#include "probes.hh"

#include <cstdio>

namespace perfbench
{

std::int64_t
clockOverheadNs()
{
    static const std::int64_t overhead = [] {
        std::vector<std::int64_t> d(1001);
        for (std::int64_t &x : d) {
            const std::int64_t t0 = nowNs();
            x = nowNs() - t0;
        }
        std::nth_element(d.begin(), d.begin() + 500, d.end());
        return d[500];
    }();
    return overhead;
}

std::size_t
SpanLog::seam(const std::string &name, const std::string &parent)
{
    for (std::size_t i = 0; i < seams_.size(); ++i)
        if (seams_[i].name == name)
            return i;
    seams_.push_back({name, parent, {}});
    return seams_.size() - 1;
}

void
SpanLog::add(std::size_t seam, std::int64_t t0, std::int64_t t1)
{
    std::vector<Span> &spans = seams_[seam].spans;
    if (spans.size() < cap_)
        spans.push_back({t0, t1, pass_});
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::int64_t epoch = INT64_MAX;
    for (const SeamLog &s : seams_)
        for (const Span &span : s.spans)
            epoch = std::min(epoch, span.t0);
    std::fprintf(f, "{\"traceEvents\": [");
    bool first = true;
    for (const SeamLog &s : seams_) {
        for (const Span &span : s.spans) {
            std::fprintf(f,
                         "%s\n{\"name\": \"%s\", \"ph\": \"X\", "
                         "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                         "\"dur\": %.3f, \"args\": {\"pass\": %u, "
                         "\"parent\": \"%s\"}}",
                         first ? "" : ",", s.name.c_str(),
                         static_cast<double>(span.t0 - epoch) * 1e-3,
                         static_cast<double>(span.t1 - span.t0) * 1e-3,
                         span.pass, s.parent.c_str());
            first = false;
        }
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

std::optional<mithril::workload::TraceRecord>
TimedGenerator::next()
{
    const std::int64_t t0 = nowNs();
    auto rec = inner_->next();
    seam_.record(t0, nowNs());
    return rec;
}

void
TimedTracker::syncOps()
{
    const std::uint64_t ops = inner_->logicOps();
    countOp(ops - seenOps_);
    seenOps_ = ops;
}

void
TimedTracker::onActivate(mithril::BankId bank, mithril::RowId row,
                         mithril::Tick now,
                         std::vector<mithril::RowId> &arr_aggressors)
{
    const std::size_t before = arr_aggressors.size();
    const std::int64_t t0 = nowNs();
    inner_->onActivate(bank, row, now, arr_aggressors);
    counts_.seam.record(t0, nowNs());
    ++counts_.actsSeen;
    counts_.aggressorRows += arr_aggressors.size() - before;
    syncOps();
}

std::size_t
TimedTracker::onActivateBatch(const mithril::trackers::ActSpan &span,
                              std::vector<mithril::RowId> &arr_aggressors)
{
    const std::size_t before = arr_aggressors.size();
    const std::int64_t t0 = nowNs();
    const std::size_t consumed =
        inner_->onActivateBatch(span, arr_aggressors);
    counts_.seam.record(t0, nowNs());
    counts_.actsSeen += consumed;
    counts_.aggressorRows += arr_aggressors.size() - before;
    syncOps();
    return consumed;
}

void
TimedTracker::onRfm(mithril::BankId bank, mithril::Tick now,
                    std::vector<mithril::RowId> &aggressors)
{
    const std::size_t before = aggressors.size();
    const std::int64_t t0 = nowNs();
    inner_->onRfm(bank, now, aggressors);
    counts_.seam.record(t0, nowNs());
    ++counts_.rfmCalls;
    counts_.aggressorRows += aggressors.size() - before;
    syncOps();
}

bool
TimedTracker::sampleQuery() const
{
    if (++counts_.queries % kQuerySample == 0)
        return true;
    ++counts_.seam.calls;
    return false;
}

bool
TimedTracker::rfmPending(mithril::BankId bank) const
{
    if (!sampleQuery())
        return inner_->rfmPending(bank);
    const std::int64_t t0 = nowNs();
    const bool pending = inner_->rfmPending(bank);
    counts_.seam.record(t0, nowNs(), kQuerySample);
    return pending;
}

mithril::Tick
TimedTracker::throttleAct(mithril::BankId bank, mithril::RowId row,
                          mithril::Tick now)
{
    mithril::Tick when = now;
    if (!sampleQuery()) {
        when = inner_->throttleAct(bank, row, now);
    } else {
        const std::int64_t t0 = nowNs();
        when = inner_->throttleAct(bank, row, now);
        counts_.seam.record(t0, nowNs(), kQuerySample);
    }
    syncOps();
    return when;
}

void
TimedTracker::onRefresh(mithril::BankId bank, mithril::Tick now)
{
    const std::int64_t t0 = nowNs();
    inner_->onRefresh(bank, now);
    counts_.seam.record(t0, nowNs());
    syncOps();
}

void
TimedTracker::mergeStatsFrom(const RhProtection &other)
{
    RhProtection::mergeStatsFrom(other);
    inner_->mergeStatsFrom(*static_cast<const TimedTracker &>(other).inner_);
    seenOps_ = inner_->logicOps();
}

std::size_t
TimedSource::fill(mithril::engine::ActBatch &batch, std::size_t limit)
{
    const std::int64_t t0 = nowNs();
    const std::size_t n = inner_->fill(batch, limit);
    counts_.seam.record(t0, nowNs());
    counts_.records += n;
    return n;
}

std::unique_ptr<mithril::engine::ActSource>
TimedSource::shardSlice(mithril::BankId lo, mithril::BankId hi,
                        std::uint64_t budget)
{
    auto slice = inner_->shardSlice(lo, hi, budget);
    if (!slice)
        return nullptr;
    return std::make_unique<TimedSource>(std::move(slice), counts_);
}

} // namespace perfbench
