/**
 * @file
 * Row Hammer attack traffic generators.
 *
 * All attack records are uncacheable (a real attacker uses clflush or
 * eviction sets) and gap-1 (the attacker spends every instruction
 * hammering). Address composition goes through the MC address map so
 * each generator can aim at an exact (channel, rank, bank, row).
 *
 *  - DoubleSidedAttack: the classic pattern, alternating the two
 *    aggressors around one victim.
 *  - MultiSidedAttack: TRRespass-style many-sided pattern over a block
 *    of interleaved aggressors (32 victims by default, Section VI-A).
 *  - RfmOptimalAttack: one ACT per row over a rotating set of distinct
 *    rows — the cost-effectiveness-optimal pattern against sampling
 *    (Appendix C) and the concentration driver against RFM schemes.
 *  - ConcentrationAttack: Figure 2's worst case for RFM-Graphene —
 *    drive Q rows across the predefined threshold nearly
 *    simultaneously, then keep hammering the last-buffered pair while
 *    the refresh queue drains.
 *  - CbfPollutionAttack: BlockHammer's performance adversary — spread
 *    just-below-blacklist activation counts over many rows so the CBF
 *    count floor rises and benign rows get throttled.
 */

#ifndef MITHRIL_WORKLOAD_ATTACKS_HH
#define MITHRIL_WORKLOAD_ATTACKS_HH

#include <cstddef>
#include <vector>

#include "common/random.hh"
#include "mc/address_map.hh"
#include "workload/trace.hh"

namespace mithril::workload
{

/** Where an attack aims. */
struct AttackTarget
{
    const mc::AddressMap *map = nullptr;
    std::uint32_t channel = 0;
    std::uint32_t rank = 0;
    std::uint32_t bank = 0;    //!< Bank within the rank.
    RowId baseRow = 0x2000;
};

/**
 * Base of the generators that hammer rows of one AttackTarget bank
 * forever: declares that bank (TraceGenerator::targetBank) and
 * composes each record through the target's map.
 *
 * Each attack defines its row sequence once, in fillRows(); next()
 * is built from that hook, so the System attacker core (records) and
 * the engine's attack source (rows, no compose/decode round trip)
 * read one definition. Both are final: a generator cannot declare a
 * bank other than the one it composes to.
 */
class TargetedAttack : public TraceGenerator
{
  public:
    std::optional<TraceRecord> next() final;

    std::optional<BankCoord> targetBank() const final
    {
        return BankCoord{target_.channel, target_.rank, target_.bank};
    }

    /** Write the next `n` rows of the sequence and advance past
     *  them; interleaves freely with next(). */
    virtual void fillRows(RowId *rows, std::size_t n) = 0;

    /** The record of one ACT of `row` in the target bank. */
    TraceRecord hammer(RowId row) const;

  protected:
    explicit TargetedAttack(const AttackTarget &target)
        : target_(target)
    {
    }

    AttackTarget target_;
};

/** Classic double-sided hammer around baseRow+1. */
class DoubleSidedAttack : public TargetedAttack
{
  public:
    explicit DoubleSidedAttack(const AttackTarget &target);

    void fillRows(RowId *rows, std::size_t n) override;
    std::string name() const override { return "double-sided"; }

    /** The victim row between the two aggressors. */
    RowId victimRow() const { return target_.baseRow + 1; }

  private:
    bool odd_ = false;  //!< Next row is the upper aggressor.
};

/** TRRespass-style multi-sided hammer. */
class MultiSidedAttack : public TargetedAttack
{
  public:
    /**
     * @param victims Number of victim rows (aggressors = victims + 1,
     *        interleaved: A V A V ... A).
     */
    MultiSidedAttack(const AttackTarget &target,
                     std::uint32_t victims = 32);

    void fillRows(RowId *rows, std::size_t n) override;
    std::string name() const override { return "multi-sided"; }

  private:
    std::uint32_t aggressors_;
    std::uint32_t idx_ = 0;  //!< Next aggressor.
};

/** One ACT per row over a rotating distinct-row set. */
class RfmOptimalAttack : public TargetedAttack
{
  public:
    RfmOptimalAttack(const AttackTarget &target,
                     std::uint32_t distinct_rows);

    void fillRows(RowId *rows, std::size_t n) override;
    std::string name() const override { return "rfm-optimal"; }

  private:
    std::uint32_t distinctRows_;
    std::uint32_t idx_ = 0;  //!< Next row of the rotation.
};

/** Figure 2 concentration attack against buffered-RFM schemes. */
class ConcentrationAttack : public TargetedAttack
{
  public:
    /**
     * @param threshold The scheme's predefined threshold T.
     * @param rows      Q rows to drive across T (spaced 2 apart so each
     *                  pair of neighbours shares a victim).
     */
    ConcentrationAttack(const AttackTarget &target,
                        std::uint32_t threshold, std::uint32_t rows);

    void fillRows(RowId *rows, std::size_t n) override;
    std::string name() const override { return "concentration"; }

    /** Victim of the final hammered pair. */
    RowId finalVictim() const;

  private:
    std::uint32_t threshold_;
    std::uint32_t rows_;
    std::uint64_t phase1Records_;
    std::uint64_t produced_ = 0;  //!< Rows emitted so far.
    std::uint32_t idx_ = 0;       //!< Next phase-1 row.
};

/**
 * Profiled-aliasing performance adversary against BlockHammer
 * (Section VI-A): the attacker has profiled which rows share CBF
 * entries with the benign threads' hot rows and activates exactly
 * those, just enough to push them across the blacklist threshold, so
 * the benign threads get throttled.
 */
class ProfiledAliasAttack : public TraceGenerator
{
  public:
    /**
     * @param targets Row-granular physical addresses whose CBF slots
     *        the attack inflates (uncached round-robin).
     */
    explicit ProfiledAliasAttack(std::vector<Addr> targets);

    std::optional<TraceRecord> next() override;
    std::string name() const override { return "profiled-alias"; }

    std::size_t targetCount() const { return targets_.size(); }

  private:
    std::vector<Addr> targets_;
    std::uint64_t produced_ = 0;
};

/** BlockHammer CBF-pollution performance adversary. */
class CbfPollutionAttack : public TargetedAttack
{
  public:
    /**
     * @param rows   Distinct rows to pollute with.
     * @param bursts ACTs per row per sweep (kept below blacklisting of
     *               the attacker's own service priority).
     */
    CbfPollutionAttack(const AttackTarget &target, std::uint32_t rows,
                       std::uint32_t bursts = 8);

    void fillRows(RowId *rows, std::size_t n) override;
    std::string name() const override { return "cbf-pollution"; }

  private:
    std::uint32_t rows_;
    std::uint32_t bursts_;
    std::uint32_t pair_ = 0;     //!< Row pair of the current burst.
    std::uint32_t inBurst_ = 0;  //!< Rows emitted in this burst.
};

} // namespace mithril::workload

#endif // MITHRIL_WORKLOAD_ATTACKS_HH
