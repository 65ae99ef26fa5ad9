/**
 * @file
 * Timing probes the traced benchmark run places at the simulator's
 * public seams, plus the in-memory span log they write to.
 *
 * Each probe is a decorator over one public interface — a trace
 * generator (workload layer), a protection scheme (trackers layer)
 * or an ACT source (engine source layer). It forwards every call
 * unchanged, so a decorated run simulates byte-identically to an
 * undecorated one, and around each forwarded call it adds the call's
 * duration and work counts to a Seam. The first spans of each seam
 * are also kept verbatim and written out as Chrome trace-event JSON
 * when the run ends; the totals cover every call.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/act_source.hh"
#include "trackers/rh_protection.hh"
#include "workload/trace.hh"

namespace perfbench
{

/** Nanoseconds on the monotonic clock. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Seconds elapsed since a nowNs() reading. */
inline double
secondsSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

/** Median duration of an empty span (two back-to-back clock reads),
 *  measured once; probes subtract it from every span they time. */
std::int64_t clockOverheadNs();

/**
 * Bounded in-memory span log. Spans carry their seam name, the name
 * of the enclosing seam, and the traced pass they belong to (spans of
 * one pass share that identifier).
 */
class SpanLog
{
  public:
    explicit SpanLog(std::size_t per_seam_cap) : cap_(per_seam_cap) {}

    /** Start a new traced pass; later spans carry its id. */
    void beginPass() { ++pass_; }

    void add(std::size_t seam, std::int64_t t0, std::int64_t t1);

    /** Register a seam; returns its index. */
    std::size_t seam(const std::string &name, const std::string &parent);

    /** Write every kept span as Chrome trace-event JSON. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Span
    {
        std::int64_t t0;
        std::int64_t t1;
        std::uint32_t pass;
    };
    struct SeamLog
    {
        std::string name;
        std::string parent;
        std::vector<Span> spans;
    };

    std::size_t cap_;
    std::uint32_t pass_ = 0;
    std::vector<SeamLog> seams_;
};

/** Call count and summed duration of one seam within one pass. */
struct Seam
{
    SpanLog *log = nullptr;
    std::size_t id = 0;
    std::uint64_t calls = 0;
    std::int64_t ns = 0;

    /** Count one call spanning [t0, t1], standing for `weight`
     *  calls' worth of time when the seam is sampled. */
    void
    record(std::int64_t t0, std::int64_t t1, std::int64_t weight = 1)
    {
        ++calls;
        ns += weight * std::max<std::int64_t>(0, t1 - t0 - clockOverheadNs());
        if (log)
            log->add(id, t0, t1);
    }

    double seconds() const { return static_cast<double>(ns) * 1e-9; }
};

/** Work counts of the trackers layer within one pass. */
struct TrackerCounts
{
    Seam seam;
    /** rfmPending/throttleAct calls (sampled, see TimedTracker). */
    std::uint64_t queries = 0;
    std::uint64_t actsSeen = 0;
    std::uint64_t rfmCalls = 0;
    std::uint64_t aggressorRows = 0;
};

/** Work counts of the engine source layer within one pass. */
struct SourceCounts
{
    Seam seam;
    std::uint64_t records = 0;
};

/** Times every next() of a workload trace generator. */
class TimedGenerator : public mithril::workload::TraceGenerator
{
  public:
    TimedGenerator(std::unique_ptr<mithril::workload::TraceGenerator> inner,
                   Seam &seam)
        : inner_(std::move(inner)), seam_(seam)
    {
    }

    std::optional<mithril::workload::TraceRecord> next() override;
    std::string name() const override { return inner_->name(); }

  private:
    std::unique_ptr<mithril::workload::TraceGenerator> inner_;
    Seam &seam_;
};

/**
 * Times the calls of a protection scheme. Forwards all virtuals;
 * mirrors the inner tracker's logic-op count into its own
 * counter (RhProtection::logicOps() is non-virtual, and the System's
 * energy model and the engine's join read the decorator's counter).
 */
class TimedTracker : public mithril::trackers::RhProtection
{
  public:
    TimedTracker(std::unique_ptr<mithril::trackers::RhProtection> inner,
                 TrackerCounts &counts)
        : inner_(std::move(inner)), counts_(counts),
          seenOps_(inner_->logicOps())
    {
        countOp(seenOps_);
    }

    std::string name() const override { return inner_->name(); }
    mithril::trackers::Location location() const override
    {
        return inner_->location();
    }
    bool usesRfm() const override { return inner_->usesRfm(); }
    std::uint32_t rfmTh() const override { return inner_->rfmTh(); }

    void onActivate(mithril::BankId bank, mithril::RowId row,
                    mithril::Tick now,
                    std::vector<mithril::RowId> &arr_aggressors) override;
    std::size_t
    onActivateBatch(const mithril::trackers::ActSpan &span,
                    std::vector<mithril::RowId> &arr_aggressors) override;
    void onRfm(mithril::BankId bank, mithril::Tick now,
               std::vector<mithril::RowId> &aggressors) override;
    bool rfmPending(mithril::BankId bank) const override;
    mithril::Tick throttleAct(mithril::BankId bank, mithril::RowId row,
                              mithril::Tick now) override;
    void onRefresh(mithril::BankId bank, mithril::Tick now) override;

    double tableBytesPerBank() const override
    {
        return inner_->tableBytesPerBank();
    }
    void mergeStatsFrom(const RhProtection &other) override;
    void exportMetrics(mithril::telemetry::MetricSheet &sheet) const override
    {
        inner_->exportMetrics(sheet);
    }

  private:
    /** The MC asks rfmPending/throttleAct millions of times per run
     *  at a few ns each, so timing every query would mostly measure
     *  the clock: one query in kQuerySample is timed and stands for
     *  the others. Every other call is timed. */
    static constexpr std::int64_t kQuerySample = 64;

    /** True when this query is the sampled one; counts it otherwise. */
    bool sampleQuery() const;

    /** Mirror the inner tracker's logic ops counted since last sync. */
    void syncOps();

    std::unique_ptr<mithril::trackers::RhProtection> inner_;
    TrackerCounts &counts_;
    std::uint64_t seenOps_;
};

/** Times every fill() of an ACT source, including native slices. */
class TimedSource : public mithril::engine::ActSource
{
  public:
    TimedSource(std::unique_ptr<mithril::engine::ActSource> inner,
                SourceCounts &counts)
        : inner_(std::move(inner)), counts_(counts)
    {
    }

    std::string name() const override { return inner_->name(); }
    std::size_t fill(mithril::engine::ActBatch &batch,
                     std::size_t limit) override;
    std::unique_ptr<mithril::engine::ActSource>
    shardSlice(mithril::BankId lo, mithril::BankId hi,
               std::uint64_t budget) override;

  private:
    std::unique_ptr<mithril::engine::ActSource> inner_;
    SourceCounts &counts_;
};

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
