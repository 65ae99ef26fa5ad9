#include "sources.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "mc/request.hh"
#include "registry/attack_registry.hh"
#include "registry/source_registry.hh"
#include "workload/attacks.hh"
#include "workload/trace_file.hh"

namespace mithril::engine
{

// ------------------------------------------------- TraceActSource

TraceActSource::TraceActSource(
    std::unique_ptr<workload::TraceGenerator> generator,
    const dram::Geometry &geometry)
    : map_(geometry), generator_(std::move(generator))
{
    MITHRIL_ASSERT(generator_ != nullptr);
}

std::string
TraceActSource::name() const
{
    return "trace:" + generator_->name();
}

std::size_t
TraceActSource::fill(ActBatch &batch, std::size_t limit)
{
    std::size_t appended = 0;
    mc::Request req;
    while (appended < limit && !batch.full()) {
        auto rec = generator_->next();
        if (!rec)
            break;
        req.addr = rec->addr;
        map_.decode(req);
        batch.push(req.bank, req.row,
                   static_cast<Tick>(produced_));
        ++produced_;
        ++appended;
    }
    return appended;
}

// ------------------------------------------------- MultiBankSource

MultiBankSource::MultiBankSource(std::string name,
                                 const dram::Geometry &geometry,
                                 std::uint32_t generators,
                                 GeneratorMaker make)
    : MultiBankSource(std::move(name), geometry, generators,
                      std::move(make), 0, geometry.totalBanks(),
                      ~std::uint64_t{0})
{
}

MultiBankSource::MultiBankSource(std::string name,
                                 const dram::Geometry &geometry,
                                 std::uint32_t generators,
                                 GeneratorMaker make, BankId lo,
                                 BankId hi, std::uint64_t budget)
    : name_(std::move(name)), map_(geometry),
      generatorCount_(generators), make_(std::move(make))
{
    MITHRIL_ASSERT(generatorCount_ > 0);
    // Round-robin hands generator g the prefix positions g, g+N, ...
    // of the full stream, so the first `budget` records hold
    // budget/N + (g < budget%N) of its records.
    const std::uint64_t share = budget / generatorCount_;
    const std::uint64_t extra = budget % generatorCount_;
    for (std::uint32_t g = 0; g < generatorCount_; ++g) {
        auto gen = make_(g, map_);
        MITHRIL_ASSERT(gen != nullptr);
        BankId bank = kUndeclared;
        if (const auto at = gen->targetBank())
            bank = map_.flatBank(at->channel, at->rank, at->bank);
        else
            declared_ = false;
        const std::uint64_t left = share + (g < extra ? 1 : 0);
        if (left == 0 ||
            (bank != kUndeclared && (bank < lo || bank >= hi)))
            continue;
        auto *attack = dynamic_cast<workload::TargetedAttack *>(gen.get());
        lanes_.push_back(Lane{std::move(gen), attack, bank, left, {}});
    }
}

void
MultiBankSource::refill(Lane &lane)
{
    lane.rows.resize(static_cast<std::size_t>(
        std::min<std::uint64_t>(kLaneRows, lane.left)));
    lane.attack->fillRows(lane.rows.data(), lane.rows.size());
    lane.nextRow = 0;
#ifndef NDEBUG
    // The row hook skips the compose/decode round trip; check it
    // against that round trip here.
    mc::Request req;
    for (const RowId row : lane.rows) {
        req.addr = lane.attack->hammer(row).addr;
        map_.decode(req);
        MITHRIL_ASSERT_MSG(req.bank == lane.bank && req.row == row,
                           "generator '%s' row %u composes to bank %u "
                           "row %u, not bank %u",
                           lane.gen->name().c_str(), row, req.bank,
                           req.row, lane.bank);
    }
#endif
}

std::size_t
MultiBankSource::fill(ActBatch &batch, std::size_t limit)
{
    std::size_t appended = 0;
    // A local cursor: the batch's stores may alias cursor_, which
    // would chain every record through a store and a reload.
    std::size_t cursor = cursor_;
    mc::Request req;
    while (appended < limit && !lanes_.empty() && !batch.full()) {
        if (cursor >= lanes_.size())
            cursor = 0;
        Lane &lane = lanes_[cursor];
        if (lane.attack) {
            if (lane.nextRow == lane.rows.size())
                refill(lane);
            batch.push(lane.bank, lane.rows[lane.nextRow++]);
        } else {
            const auto rec = lane.gen->next();
            if (!rec) {
                MITHRIL_ASSERT_MSG(lane.bank == kUndeclared,
                                   "generator '%s' declared bank %u "
                                   "but ended",
                                   lane.gen->name().c_str(), lane.bank);
                lanes_.erase(lanes_.begin() +
                             static_cast<std::ptrdiff_t>(cursor));
                continue;
            }
            req.addr = rec->addr;
            map_.decode(req);
            MITHRIL_ASSERT_MSG(lane.bank == kUndeclared ||
                                   req.bank == lane.bank,
                               "generator '%s' declared bank %u but "
                               "aimed at bank %u",
                               lane.gen->name().c_str(), lane.bank,
                               req.bank);
            batch.push(req.bank, req.row);
        }
        ++appended;
        // A lane that spent its share leaves the rotation; the
        // cursor then already points at its successor.
        if (--lane.left == 0)
            lanes_.erase(lanes_.begin() +
                         static_cast<std::ptrdiff_t>(cursor));
        else
            ++cursor;
    }
    cursor_ = cursor;
    return appended;
}

std::unique_ptr<ActSource>
MultiBankSource::shardSlice(BankId lo, BankId hi, std::uint64_t budget)
{
    if (!declared_)
        return nullptr;
    // Fresh generators through the slice's own map: the probe's
    // state is never touched.
    return std::unique_ptr<ActSource>(new MultiBankSource(
        name_ + "[" + std::to_string(lo) + "," + std::to_string(hi) +
            ")",
        map_.geometry(), generatorCount_, make_, lo, hi, budget));
}

// ---------------------------------------------------- registration
//
// The engine-drivable workloads: trace files and the attack
// registry's patterns replicated across banks.

namespace
{

const registry::Registrar<registry::SourceTraits> kRegisterTraceFile{{
    /*name=*/"trace-file",
    /*display=*/"trace-file",
    /*description=*/
    "replay an instruction-level trace file (Ramulator-style gap/addr "
    "records decoded through the MC map); raw captured ACT streams "
    "replay via act-trace and compose via the trace-ops pipeline",
    /*aliases=*/{"trace_file"},
    /*uses=*/"",
    /*params=*/
    {{"trace-file", registry::ParamDesc::Type::String, "", 0, 0,
      "path of the trace to replay (required)"},
     {"trace-loop", registry::ParamDesc::Type::Bool, "0", 0, 1,
      "loop the trace forever (bound the run with an ACT budget)"}},
    /*make=*/
    [](const ParamSet &params, const registry::SourceContext &ctx)
        -> std::unique_ptr<ActSource> {
        const std::string path = params.getString("trace-file", "");
        if (path.empty()) {
            throw registry::SpecError(
                "source 'trace-file' needs trace-file=<path>");
        }
        return std::make_unique<TraceActSource>(
            workload::loadTraceFile(path,
                                    params.getBool("trace-loop",
                                                   false)),
            ctx.geometry);
    },
}};

const registry::Registrar<registry::SourceTraits> kRegisterAttack{{
    /*name=*/"attack",
    /*display=*/"attack",
    /*description=*/
    "a registered attack pattern replicated on N banks, every bank "
    "hammering at full rate",
    /*aliases=*/{},
    /*uses=*/"flip (attack sizing), plus the chosen attack's params",
    /*params=*/
    {{"attack", registry::ParamDesc::Type::String, "double-sided", 0,
      0, "attack registry entry to replicate"},
     {"source-banks", registry::ParamDesc::Type::Uint, "0", 0, 65536,
      "banks to attack concurrently (0 = every bank of channel 0, "
      "rank 0)"}},
    /*make=*/
    [](const ParamSet &params, const registry::SourceContext &ctx)
        -> std::unique_ptr<ActSource> {
        const std::string attack =
            params.getString("attack", "double-sided");
        if (attack == "none") {
            throw registry::SpecError(
                "source 'attack' needs a real attack entry "
                "(attack=none produces no stream)");
        }
        if (params.has("attack-bank")) {
            throw registry::SpecError(
                "source 'attack' assigns attack-bank itself (one "
                "generator per replicated bank); drop attack-bank= "
                "and choose the width with source-banks=");
        }
        // The attack factories aim inside channel 0 / rank 0, so the
        // replication width is capped at banksPerRank.
        std::uint32_t banks =
            params.getUint32("source-banks", 0);
        if (banks == 0)
            banks = ctx.geometry.banksPerRank;
        if (banks > ctx.geometry.banksPerRank) {
            throw registry::SpecError(
                "source-banks=" + std::to_string(banks) +
                " exceeds banksPerRank=" +
                std::to_string(ctx.geometry.banksPerRank));
        }
        // Generator b hammers bank b of channel 0, rank 0; the maker
        // is kept so every shard slice opens fresh generators.
        return std::make_unique<MultiBankSource>(
            "attack:" + attack + "x" + std::to_string(banks),
            ctx.geometry, banks,
            [attack, params, flip_th = ctx.flipTh, seed = ctx.seed](
                std::uint32_t b, const mc::AddressMap &map) {
                ParamSet per_bank = params;
                per_bank.set("attack-bank", std::to_string(b));
                return registry::makeAttack(
                    attack, per_bank,
                    {map, flip_th, /*benignCores=*/0, seed,
                     /*benignThread=*/{}});
            });
    },
}};

} // namespace

} // namespace mithril::engine
