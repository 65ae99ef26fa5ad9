/**
 * @file
 * Engine-drivable workload sources: adapters that turn the existing
 * trace-record generators (trace files, the attack registry's
 * patterns) into multi-bank activation streams for ActStreamEngine.
 *
 * Both adapters decode each record's physical address through the MC
 * address map, so a source aims at exactly the (channel, rank, bank,
 * row) its generator composed — the same address semantics the full
 * System uses. The exception is a workload::TargetedAttack, whose
 * rows MultiBankSource reads straight from its row hook: they are
 * by construction the rows its records compose to (checked in Debug
 * builds). The registry entries ("trace-file", "attack") live in
 * sources.cc; registry::makeActSource() builds them by name.
 */

#ifndef MITHRIL_ENGINE_SOURCES_HH
#define MITHRIL_ENGINE_SOURCES_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/act_source.hh"
#include "mc/address_map.hh"
#include "workload/trace.hh"

namespace mithril::workload
{
class TargetedAttack;
}

namespace mithril::engine
{

/**
 * One trace-record generator decoded to (bank, row) activations over
 * the full geometry. The record's instruction gap is ignored — the
 * engine drives banks at the maximum legal rate — and the record
 * index is carried in the batch's tick column as a replay hint.
 */
class TraceActSource : public ActSource
{
  public:
    TraceActSource(std::unique_ptr<workload::TraceGenerator> generator,
                   const dram::Geometry &geometry);

    std::string name() const override;

    std::size_t fill(ActBatch &batch, std::size_t limit) override;

  private:
    mc::AddressMap map_;
    std::unique_ptr<workload::TraceGenerator> generator_;
    std::uint64_t produced_ = 0;
};

/**
 * N concurrent per-bank generators drained round-robin — the
 * multi-bank attack shape: every targeted bank hammers at its own
 * full ACT rate, the worst case the paper's Theorem 1/2 margins are
 * sized for. Owns the address map its generators compose through.
 *
 * When every generator declares its bank
 * (TraceGenerator::targetBank), shardSlice() is native: the slice
 * builds fresh generators through the same maker, keeps only those
 * aimed inside [lo, hi), and caps each at its share of the global
 * round-robin prefix. Otherwise it returns nullptr and the sharded
 * engine filters a full copy instead.
 *
 * A workload::TargetedAttack lane is drained through its row hook
 * into a small per-lane buffer, with no compose, decode or virtual
 * call per record; every other lane pulls next() and decodes each
 * record, checking it against the declared bank.
 */
class MultiBankSource : public ActSource
{
  public:
    /** Builds generator g of the stream, composing through `map`
     *  (alive as long as the source that calls it). */
    using GeneratorMaker =
        std::function<std::unique_ptr<workload::TraceGenerator>(
            std::uint32_t g, const mc::AddressMap &map)>;

    /** The full stream of `generators` generators built by `make`. */
    MultiBankSource(std::string name, const dram::Geometry &geometry,
                    std::uint32_t generators, GeneratorMaker make);

    std::string name() const override { return name_; }

    std::size_t fill(ActBatch &batch, std::size_t limit) override;

    std::unique_ptr<ActSource>
    shardSlice(BankId lo, BankId hi, std::uint64_t budget) override;

  private:
    /** No declared bank. */
    static constexpr BankId kUndeclared = ~BankId{0};

    /** Rows a TargetedAttack lane buffers per refill. */
    static constexpr std::size_t kLaneRows = 256;

    /** One generator still in the rotation. */
    struct Lane
    {
        std::unique_ptr<workload::TraceGenerator> gen;
        /** `gen` when it is a row-hook attack, else nullptr. */
        workload::TargetedAttack *attack;
        BankId bank;          //!< Declared flat bank, or kUndeclared.
        std::uint64_t left;   //!< Records it may still emit.
        std::vector<RowId> rows;  //!< Buffered rows of `attack`.
        std::size_t nextRow = 0;  //!< First unread buffered row.
    };

    /** Refill `lane.rows` with the next min(kLaneRows, left) rows of
     *  its attack. */
    void refill(Lane &lane);

    /** The generators aimed inside [lo, hi) (undeclared ones
     *  always), each capped at its share of the first `budget`
     *  records of the full stream. */
    MultiBankSource(std::string name, const dram::Geometry &geometry,
                    std::uint32_t generators, GeneratorMaker make,
                    BankId lo, BankId hi, std::uint64_t budget);

    std::string name_;
    mc::AddressMap map_;
    std::uint32_t generatorCount_;
    GeneratorMaker make_;
    bool declared_ = true;  //!< Every generator declares its bank.
    std::vector<Lane> lanes_;
    std::size_t cursor_ = 0;
};

} // namespace mithril::engine

#endif // MITHRIL_ENGINE_SOURCES_HH
