/**
 * @file
 * Differential tests: the optimized implementations checked against
 * naive reference models under long random operation sequences.
 *
 *  - CbsTable (O(1) stream-summary) vs a literal O(N)-scan CbS.
 *  - The command-level harness's RFM/REF accounting vs closed-form
 *    cadence expectations.
 *  - The two frontends' DDR5 mitigation (RAA counting, RFM, Mithril+
 *    MRR skip, ARR) against each other on one ACT stream.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "core/bounds.hh"
#include "core/cbs_table.hh"
#include "core/mithril.hh"
#include "dram/device.hh"
#include "engine/act_stream_engine.hh"
#include "mc/address_map.hh"
#include "mc/controller.hh"
#include "registry/scheme_registry.hh"

namespace mithril::core
{
namespace
{

/**
 * Literal Counter-based Summary, straight from the paper's Figure 3:
 * a flat array scanned linearly. Deliberately simple — this is the
 * specification the fast table must match.
 */
class ReferenceCbs
{
  public:
    explicit ReferenceCbs(std::uint32_t n)
        : rows_(n, kInvalidRow), counts_(n, 0)
    {
    }

    std::uint64_t
    touch(RowId row)
    {
        // Hit?
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            if (rows_[i] == row)
                return ++counts_[i];
        }
        // Miss: replace the entry with the minimum counter. To mirror
        // the fast table's tie-break we take *any* minimum; counts are
        // what we compare, and the multiset of counts is tie-break
        // independent.
        std::size_t victim = 0;
        for (std::size_t i = 1; i < rows_.size(); ++i) {
            if (counts_[i] < counts_[victim])
                victim = i;
        }
        rows_[victim] = row;
        return ++counts_[victim];
    }

    std::uint64_t
    minValue() const
    {
        return *std::min_element(counts_.begin(), counts_.end());
    }

    std::uint64_t
    maxValue() const
    {
        return *std::max_element(counts_.begin(), counts_.end());
    }

    /** Lower the given row's counter to the minimum; returns its
     *  value before the reset (kNoRow if absent). */
    std::uint64_t
    resetRowToMin(RowId row)
    {
        const std::uint64_t min = minValue();
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            if (rows_[i] == row) {
                const std::uint64_t before = counts_[i];
                counts_[i] = min;
                return before;
            }
        }
        return ~0ull;
    }

    std::vector<std::uint64_t>
    sortedCounts() const
    {
        std::vector<std::uint64_t> out = counts_;
        std::sort(out.begin(), out.end());
        return out;
    }

    std::uint64_t
    estimate(RowId row) const
    {
        for (std::size_t i = 0; i < rows_.size(); ++i)
            if (rows_[i] == row)
                return counts_[i];
        return minValue();
    }

  private:
    std::vector<RowId> rows_;
    std::vector<std::uint64_t> counts_;
};

std::vector<std::uint64_t>
sortedCounts(const CbsTable &table)
{
    std::vector<std::uint64_t> out(table.capacity(), 0);
    std::size_t i = 0;
    for (const auto &entry : table.entries())
        out[i++] = entry.count;
    std::sort(out.begin(), out.end());
    return out;
}

class CbsDifferential
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::uint32_t,
                                                 double>>
{
};

TEST_P(CbsDifferential, MatchesReferenceOnRandomStreams)
{
    const auto [capacity, universe, zipf_s] = GetParam();
    CbsTable fast(capacity);
    ReferenceCbs ref(capacity);
    Rng rng(capacity * 31 + universe);

    for (int i = 0; i < 30000; ++i) {
        RowId row;
        if (zipf_s > 0.0)
            row = static_cast<RowId>(rng.nextZipf(universe, zipf_s));
        else
            row = static_cast<RowId>(rng.nextBounded(universe));

        fast.touch(row);
        ref.touch(row);

        if (i % 257 == 0) {
            // Touched rows' estimates must agree exactly; the count
            // multiset must match (tie-breaks may differ by identity
            // but never by value).
            ASSERT_EQ(fast.estimate(row), ref.estimate(row))
                << "step " << i;
            ASSERT_EQ(fast.minValue(), ref.minValue()) << "step " << i;
            ASSERT_EQ(fast.maxValue(), ref.maxValue()) << "step " << i;
            ASSERT_EQ(sortedCounts(fast), ref.sortedCounts())
                << "step " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, CbsDifferential,
    ::testing::Values(std::make_tuple(4u, 16u, 0.0),
                      std::make_tuple(16u, 64u, 0.0),
                      std::make_tuple(16u, 1024u, 0.0),
                      std::make_tuple(32u, 256u, 1.1),
                      std::make_tuple(64u, 4096u, 0.8),
                      std::make_tuple(8u, 8u, 0.0)));

TEST(CbsDifferentialReset, GreedyResetMatchesReference)
{
    // Interleave touches with greedy resets. Max-selection tie-breaks
    // are implementation-defined, so the reference resets the *same
    // row* the fast table greedily selected — after which both
    // structures must stay value-identical.
    CbsTable fast(16);
    ReferenceCbs ref(16);
    Rng rng(77);
    for (int i = 0; i < 20000; ++i) {
        const RowId row =
            static_cast<RowId>(rng.nextZipf(256, 1.0));
        fast.touch(row);
        ref.touch(row);
        if (i % 64 == 63) {
            const std::uint64_t max_before = fast.maxValue();
            const RowId selected = fast.resetMaxToMin();
            ASSERT_NE(selected, kInvalidRow);
            const std::uint64_t ref_before =
                ref.resetRowToMin(selected);
            // The fast table's greedy pick must hold the reference's
            // maximum value.
            ASSERT_EQ(ref_before, max_before) << "step " << i;
        }
        if (i % 509 == 0) {
            ASSERT_EQ(sortedCounts(fast), ref.sortedCounts())
                << "step " << i;
            ASSERT_EQ(fast.minValue(), ref.minValue());
            ASSERT_EQ(fast.maxValue(), ref.maxValue());
        }
    }
}

TEST(CbsFastPaths, TouchFastAndTouchRunMatchTouch)
{
    // The cached scalar fast path and the register-cached batch run
    // must stay value-identical to touch() under random mixed use.
    CbsTable plain(16), fast(16), run(16);
    Rng rng(99);
    std::vector<RowId> buf;
    for (int round = 0; round < 3000; ++round) {
        buf.clear();
        const std::size_t n = 1 + rng.nextBounded(24);
        for (std::size_t i = 0; i < n; ++i)
            buf.push_back(static_cast<RowId>(rng.nextZipf(128, 0.9)));

        for (RowId r : buf)
            plain.touch(r);
        for (RowId r : buf)
            fast.touchFast(r);
        std::size_t done = 0;
        while (done < buf.size()) {
            done += run.touchRun(buf.data() + done,
                                 buf.size() - done, 7, nullptr);
        }

        ASSERT_EQ(plain.touches(), fast.touches());
        ASSERT_EQ(plain.touches(), run.touches());
        if (round % 97 == 0) {
            ASSERT_EQ(sortedCounts(plain), sortedCounts(fast));
            ASSERT_EQ(sortedCounts(plain), sortedCounts(run));
            ASSERT_EQ(plain.minValue(), fast.minValue());
            ASSERT_EQ(plain.maxValue(), run.maxValue());
            ASSERT_EQ(plain.estimate(buf.back()),
                      fast.estimate(buf.back()));
            ASSERT_EQ(plain.estimate(buf.back()),
                      run.estimate(buf.back()));
            ASSERT_TRUE(fast.checkInvariants());
            ASSERT_TRUE(run.checkInvariants());
        }
    }
}

TEST(CbsFastPaths, DivisibilityTriggerMatchesModulo)
{
    // touchRun's multiply-based divisibility trigger must agree with
    // the literal est % divisor == 0 for every divisor shape.
    for (std::uint64_t d : {1ull, 2ull, 3ull, 7ull, 10ull, 781ull,
                            1562ull, 65536ull}) {
        CbsTable fast(8), ref(8);
        Rng rng(static_cast<std::uint64_t>(d * 31 + 5));
        for (int i = 0; i < 5000; ++i) {
            RowId row = static_cast<RowId>(rng.nextZipf(64, 1.0));
            bool hit = false;
            ASSERT_EQ(fast.touchRun(&row, 1, d, &hit), 1u);
            const bool expect = (ref.touch(row) % d) == 0;
            ASSERT_EQ(hit, expect) << "divisor " << d << " step " << i;
        }
    }
}

TEST(HarnessCadence, RfmAndRefCountsMatchClosedForm)
{
    // Drive exactly N ACTs and check REF/RFM counts against the
    // closed-form cadences the W term assumes.
    const dram::Timing timing = dram::ddr5_4800();
    MithrilParams params;
    params.nEntry = 64;
    params.rfmTh = 32;
    Mithril tracker(1, params);

    engine::ActStreamEngine eng(
        engine::EngineConfig::singleBank(timing, 1u << 30),
        &tracker);

    const std::uint64_t acts = 200000;
    engine::CallbackSource source(acts, [](std::uint64_t i) {
        return static_cast<RowId>(i % 97);
    });
    eng.run(source);

    EXPECT_EQ(eng.rfms(), acts / params.rfmTh);
    // Elapsed time ~= acts*tRC + rfms*tRFM + refs*tRFC; REF count must
    // equal elapsed/tREFI within one.
    const double elapsed = static_cast<double>(eng.now());
    const double expect_refs =
        elapsed / static_cast<double>(timing.tREFI);
    EXPECT_NEAR(static_cast<double>(eng.refs()), expect_refs, 1.5);
}

TEST(HarnessCadence, WindowIntervalsMatchesHarnessTime)
{
    // The W term of Theorem 1 predicts how many RFM intervals fit in
    // one tREFW; the harness, run for exactly one window of wall
    // time, must produce W RFMs within ~1%.
    const dram::Timing timing = dram::ddr5_4800();
    MithrilParams params;
    params.nEntry = 64;
    params.rfmTh = 64;
    Mithril tracker(1, params);

    engine::ActStreamEngine eng(
        engine::EngineConfig::singleBank(timing, 1u << 30),
        &tracker);

    std::uint64_t acts = 0;
    while (eng.now() < timing.tREFW) {
        eng.activate(0, static_cast<RowId>(acts % 131));
        ++acts;
    }
    const double w = static_cast<double>(
        core::windowIntervals(timing, params.rfmTh));
    EXPECT_NEAR(static_cast<double>(eng.rfms()), w, w * 0.01);
}

// ------------------------------------ cross-frontend mitigation

/** One logged tracker interaction on a bank. */
struct MitigationEntry
{
    char kind;           //!< A act, R ARR row, P poll, F RFM, f row.
    std::uint32_t value; //!< Row, poll result or aggressor count.

    bool operator==(const MitigationEntry &o) const
    {
        return kind == o.kind && value == o.value;
    }
};

using BankLog = std::vector<MitigationEntry>;

/**
 * Test-only decorator: forwards every call to the wrapped scheme and
 * logs, per bank, what the mitigation contract is made of — the rows
 * activated, the ARR rows the scheme asks for (a frontend executes
 * each one before the bank's next ACT), every Mithril+ poll result
 * and every RFM's aggressors. REF notifications are forwarded but
 * not logged: the frontends place REFs at different ticks.
 */
class RecordingTracker : public trackers::RhProtection
{
  public:
    RecordingTracker(std::unique_ptr<trackers::RhProtection> inner,
                     std::uint32_t banks)
        : inner_(std::move(inner)), logs_(banks)
    {
    }

    std::string name() const override { return inner_->name(); }
    trackers::Location location() const override
    {
        return inner_->location();
    }
    bool usesRfm() const override { return inner_->usesRfm(); }
    std::uint32_t rfmTh() const override { return inner_->rfmTh(); }
    bool delaysActs() const override { return inner_->delaysActs(); }
    double tableBytesPerBank() const override
    {
        return inner_->tableBytesPerBank();
    }

    void
    onActivate(BankId bank, RowId row, Tick now,
               std::vector<RowId> &arr) override
    {
        const std::size_t before = arr.size();
        inner_->onActivate(bank, row, now, arr);
        logs_[bank].push_back({'A', row});
        logArr(bank, arr, before);
    }

    std::size_t
    onActivateBatch(const trackers::ActSpan &span,
                    std::vector<RowId> &arr) override
    {
        const std::size_t before = arr.size();
        const std::size_t n = inner_->onActivateBatch(span, arr);
        for (std::size_t i = 0; i < n; ++i)
            logs_[span.bank].push_back({'A', span.rows[i]});
        logArr(span.bank, arr, before);
        return n;
    }

    void
    onRfm(BankId bank, Tick now, std::vector<RowId> &aggressors) override
    {
        const std::size_t before = aggressors.size();
        inner_->onRfm(bank, now, aggressors);
        logs_[bank].push_back(
            {'F', static_cast<std::uint32_t>(aggressors.size() - before)});
        for (std::size_t i = before; i < aggressors.size(); ++i)
            logs_[bank].push_back({'f', aggressors[i]});
    }

    /** Repeated polls with nothing logged in between collapse into
     *  one: the controller re-polls an owed bank on every scheduling
     *  pass until the RFM issues, the engine polls once. */
    bool
    rfmPending(BankId bank) const override
    {
        const bool pending = inner_->rfmPending(bank);
        const MitigationEntry entry{'P', pending ? 1u : 0u};
        BankLog &log = logs_[bank];
        if (log.empty() || !(log.back() == entry))
            log.push_back(entry);
        return pending;
    }

    Tick
    throttleAct(BankId bank, RowId row, Tick now) override
    {
        return inner_->throttleAct(bank, row, now);
    }

    void
    onRefresh(BankId bank, Tick now) override
    {
        inner_->onRefresh(bank, now);
    }

    const std::vector<BankLog> &logs() const { return logs_; }

  private:
    void
    logArr(BankId bank, const std::vector<RowId> &arr, std::size_t from)
    {
        for (std::size_t i = from; i < arr.size(); ++i)
            logs_[bank].push_back({'R', arr[i]});
    }

    std::unique_ptr<trackers::RhProtection> inner_;
    mutable std::vector<BankLog> logs_;
};

/** What one frontend did with a stream. */
struct MitigationRun
{
    std::vector<BankLog> logs;  //!< Empty when no scheme is attached.
    std::uint64_t acts = 0;
    std::uint64_t refs = 0;
    std::uint64_t rfms = 0;
    std::uint64_t mrrSkips = 0;
    std::uint64_t preventive = 0;
};

/** A (bank, row) stream on one channel and rank. */
using ActList = std::vector<std::pair<BankId, RowId>>;

/** What one frontend did with a stream, and the ACTs it committed. */
struct ControllerRun : MitigationRun
{
    ActList committed;
};

/** Replays an ActList into the engine. */
class ListSource : public engine::ActSource
{
  public:
    explicit ListSource(const ActList &acts) : acts_(acts) {}

    std::string name() const override { return "list"; }

    std::size_t
    fill(engine::ActBatch &batch, std::size_t limit) override
    {
        std::size_t n = 0;
        while (next_ < acts_.size() && n < limit &&
               batch.push(acts_[next_].first, acts_[next_].second)) {
            ++next_;
            ++n;
        }
        return n;
    }

  private:
    const ActList &acts_;
    std::size_t next_ = 0;
};

dram::Geometry
oneRankGeometry(std::uint32_t banks)
{
    dram::Geometry geom = dram::paperGeometry();
    geom.channels = 1;
    geom.ranksPerChannel = 1;
    geom.banksPerRank = banks;
    return geom;
}

/** Hammer pairs, a rotating sweep and random hot rows on random
 *  banks; a bank never sees the same row twice in a row, so every
 *  request is a row miss (one ACT) in the controller too. */
ActList
mixedStream(std::uint32_t banks, std::size_t count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint64_t> issued(banks, 0);
    std::vector<RowId> last(banks, kInvalidRow);
    ActList acts;
    for (std::size_t k = 0; k < count; ++k) {
        const auto bank = static_cast<BankId>(rng.nextBounded(banks));
        const std::uint64_t i = issued[bank]++;
        RowId row;
        switch (i % 4) {
          case 0:
          case 1:
            row = 2000 + 2 * static_cast<RowId>(i % 2);
            break;
          case 2:
            row = 3000 + 2 * static_cast<RowId>(i % 600);
            break;
          default:
            row = 2000 + static_cast<RowId>(rng.nextBounded(1024));
        }
        if (row == last[bank])
            ++row;
        last[bank] = row;
        acts.emplace_back(bank, row);
    }
    return acts;
}

std::unique_ptr<RecordingTracker>
makeRecording(const std::string &scheme, const dram::Geometry &geom,
              std::uint32_t flip_th)
{
    registry::SchemeKnobs knobs;
    knobs.flipTh = flip_th;
    knobs.rfmTh = 16;
    auto inner = registry::makeScheme(scheme, knobs.toParams(),
                                      {dram::ddr5_4800(), geom});
    if (!inner)
        return nullptr;
    return std::make_unique<RecordingTracker>(std::move(inner),
                                              geom.totalBanks());
}

std::uint64_t
countSkips(const std::vector<BankLog> &logs)
{
    std::uint64_t skips = 0;
    for (const BankLog &log : logs) {
        skips += static_cast<std::uint64_t>(std::count(
            log.begin(), log.end(), MitigationEntry{'P', 0}));
    }
    return skips;
}

MitigationRun
runEngine(const std::string &scheme, const dram::Geometry &geom,
          std::uint32_t flip_th, const ActList &acts,
          engine::EngineConfig::Dispatch dispatch)
{
    auto tracker = makeRecording(scheme, geom, flip_th);
    engine::EngineConfig cfg;
    cfg.timing = dram::ddr5_4800();
    cfg.geometry = geom;
    cfg.flipTh = flip_th;
    cfg.dispatch = dispatch;
    engine::ActStreamEngine eng(cfg, tracker.get());
    ListSource source(acts);
    eng.run(source);

    MitigationRun run;
    if (tracker)
        run.logs = tracker->logs();
    run.acts = eng.acts();
    run.refs = eng.refs();
    run.rfms = eng.rfms();
    run.mrrSkips = countSkips(run.logs);
    run.preventive = eng.preventiveRefreshes();
    return run;
}

/** One channel's controller, handed one request at a time and
 *  serviced until idle before the next arrives. */
ControllerRun
runController(const std::string &scheme, const dram::Geometry &geom,
              std::uint32_t flip_th, const ActList &acts)
{
    auto tracker = makeRecording(scheme, geom, flip_th);
    dram::Device device(dram::ddr5_4800(), geom, flip_th);
    device.setTracker(tracker.get());
    ControllerRun run;
    device.setActObserver([&run](BankId bank, RowId row, Tick) {
        run.committed.emplace_back(bank, row);
    });
    const mc::AddressMap map(geom);
    mc::Controller ctrl(device, map, mc::ControllerParams{});
    ctrl.setCompletionCallback([](const mc::Request &, Tick) {});
    Tick now = 0;
    for (const auto &[bank, row] : acts) {
        mc::Request req;
        req.addr = map.compose(0, 0, bank, row, 0);
        map.decode(req);
        EXPECT_TRUE(ctrl.enqueue(req, now));
        while (true) {
            const Tick next = ctrl.service(now);
            if (ctrl.idle())
                break;
            now = next;
        }
    }

    if (tracker)
        run.logs = tracker->logs();
    const mc::ControllerStats &stats = ctrl.stats();
    run.acts = stats.activates;
    run.refs = stats.refreshes;
    run.rfms = stats.rfmIssued;
    run.mrrSkips = stats.rfmSkippedByMrr;
    run.preventive = device.preventiveCount();
    EXPECT_EQ(device.rfmCount(), stats.rfmIssued);
    EXPECT_EQ(countSkips(run.logs), stats.rfmSkippedByMrr);
    return run;
}

/** The stream without re-activations: an ACT of the row its bank
 *  activated last. */
ActList
withoutReactivations(const ActList &acts, std::uint32_t banks)
{
    std::vector<RowId> last(banks, kInvalidRow);
    ActList kept;
    for (const auto &[bank, row] : acts) {
        if (row != last[bank])
            kept.emplace_back(bank, row);
        last[bank] = row;
    }
    return kept;
}

/** Index of the first entry where two bank logs differ. */
std::size_t
firstDifference(const BankLog &a, const BankLog &b)
{
    std::size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i])
        ++i;
    return i;
}

void
expectSameMitigation(const MitigationRun &ref, const MitigationRun &got,
                     const std::string &what)
{
    EXPECT_EQ(got.acts, ref.acts) << what;
    EXPECT_EQ(got.rfms, ref.rfms) << what;
    EXPECT_EQ(got.mrrSkips, ref.mrrSkips) << what;
    EXPECT_EQ(got.preventive, ref.preventive) << what;
    ASSERT_EQ(got.logs.size(), ref.logs.size()) << what;
    for (std::size_t b = 0; b < ref.logs.size(); ++b) {
        const std::size_t at = firstDifference(ref.logs[b], got.logs[b]);
        EXPECT_TRUE(at == ref.logs[b].size() &&
                    at == got.logs[b].size())
            << what << ": bank " << b << " logs diverge at entry " << at
            << " of " << ref.logs[b].size() << "/"
            << got.logs[b].size();
    }
}

/**
 * The engine (scalar and batched dispatch) and a one-channel
 * controller implement one DDR5 mitigation contract: the same ACTs
 * reach the scheme in the same per-bank order, RFMs fall due after
 * the same ACTs, Mithril+ polls see the same state and skip the same
 * RFMs, and every ARR row is refreshed before the bank's next ACT.
 *
 * The controller may close a row between its ACT and its column
 * access (an RFM, ARR or REF of the bank falls due) and then
 * activates it again, so the engines replay the ACT stream the
 * controller committed: the requests' rows plus those
 * re-activations.
 *
 * Two model differences are intended and stay out of the comparison:
 *
 *  - an MRR skip costs command-bus time (mrrLatency) only in the
 *    controller; the engine models it as free;
 *  - REFsb and the rank-staggered REF schedule exist only in the
 *    controller; the engine refreshes each bank on its own clock.
 *
 * BlockHammer is left out: its throttle belongs to the scheduler, not
 * to the mitigation contract. TWiCe prunes its table on every REF, so
 * it is compared on a prefix that reaches no REF in either frontend.
 */
class CrossFrontendMitigation
    : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(CrossFrontendMitigation, EngineAndControllerAgree)
{
    const std::uint32_t banks = GetParam();
    const dram::Geometry geom = oneRankGeometry(banks);
    const ActList acts = mixedStream(banks, 6000 * banks, 42 + banks);
    constexpr std::uint32_t kFlip = 2000;
    std::uint64_t rfms = 0, skips = 0, preventive = 0;
    for (const std::string &scheme :
         registry::schemeRegistry().names()) {
        if (scheme == "blockhammer" || scheme == "twice")
            continue;
        const ControllerRun ctrl =
            runController(scheme, geom, kFlip, acts);
        EXPECT_EQ(withoutReactivations(ctrl.committed, banks), acts)
            << scheme;
        const MitigationRun scalar = runEngine(
            scheme, geom, kFlip, ctrl.committed,
            engine::EngineConfig::Dispatch::Scalar);
        const MitigationRun batched = runEngine(
            scheme, geom, kFlip, ctrl.committed,
            engine::EngineConfig::Dispatch::Batched);
        expectSameMitigation(scalar, batched, scheme + " batched");
        expectSameMitigation(scalar, ctrl, scheme + " controller");
        rfms += scalar.rfms;
        skips += scalar.mrrSkips;
        preventive += scalar.preventive;
    }
    // The stream exercises every branch of the contract.
    EXPECT_GT(rfms, 0u);
    EXPECT_GT(skips, 0u);
    EXPECT_GT(preventive, 0u);
}

TEST_P(CrossFrontendMitigation, TwiceAgreesBeforeTheFirstRefresh)
{
    const std::uint32_t banks = GetParam();
    const dram::Geometry geom = oneRankGeometry(banks);
    const ActList acts = mixedStream(banks, 24, 7 + banks);
    constexpr std::uint32_t kFlip = 8;  // An ARR every 2 ACTs of a row.
    const ControllerRun ctrl = runController("twice", geom, kFlip, acts);
    EXPECT_EQ(withoutReactivations(ctrl.committed, banks), acts);
    const MitigationRun scalar =
        runEngine("twice", geom, kFlip, ctrl.committed,
                  engine::EngineConfig::Dispatch::Scalar);
    const MitigationRun batched =
        runEngine("twice", geom, kFlip, ctrl.committed,
                  engine::EngineConfig::Dispatch::Batched);
    ASSERT_EQ(scalar.refs, 0u);
    ASSERT_EQ(ctrl.refs, 0u);
    expectSameMitigation(scalar, batched, "twice batched");
    expectSameMitigation(scalar, ctrl, "twice controller");
    EXPECT_GT(scalar.preventive, 0u);
}

INSTANTIATE_TEST_SUITE_P(Banks, CrossFrontendMitigation,
                         ::testing::Values(1u, 4u));

} // namespace
} // namespace mithril::core
