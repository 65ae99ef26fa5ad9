#include "telemetry/exports.hh"

#include <algorithm>

namespace mithril::telemetry
{

void
exportControllerStats(MetricSheet &sheet,
                      const mc::ControllerStats &stats)
{
    sheet.setCounter("mc.acts", stats.activates);
    sheet.setCounter("mc.reads", stats.reads);
    sheet.setCounter("mc.writes", stats.writes);
    sheet.setCounter("mc.row_hits", stats.rowHits);
    sheet.setCounter("mc.row_misses", stats.rowMisses);
    sheet.setCounter("mc.refreshes", stats.refreshes);
    sheet.setCounter("mc.rfm_issued", stats.rfmIssued);
    sheet.setCounter("mc.rfm_skipped_mrr", stats.rfmSkippedByMrr);
    sheet.setCounter("mc.arr_executed", stats.arrExecuted);
    sheet.setCounter("mc.throttle_stalls", stats.throttleStalls);
}

void
exportOracle(MetricSheet &sheet, std::uint64_t bit_flips,
             std::uint64_t flipped_rows, double max_disturbance)
{
    sheet.setCounter("oracle.bit_flips", bit_flips);
    sheet.setCounter("oracle.flipped_rows", flipped_rows);
    sheet.setGauge("oracle.max_disturbance", max_disturbance);
}

void
exportEventCounts(MetricSheet &sheet,
                  const std::vector<const EventRecorder *> &recorders)
{
    std::uint64_t emitted = 0, dropped = 0;
    for (const EventRecorder *rec : recorders) {
        for (BankId b = 0; b < rec->numBanks(); ++b)
            emitted += rec->emitted(b);
        dropped += rec->dropped();
    }
    sheet.setCounter("trace.emitted", emitted);
    sheet.setCounter("trace.dropped", dropped);
}

void
exportHeatmap(MetricSheet &sheet, const ActHeatmap &heatmap)
{
    sheet.setCounter("heatmap.acts", heatmap.totalActs());
    std::uint64_t folds = 0, regions = 0;
    std::uint32_t max_gran = 0;
    for (BankId b = 0; b < heatmap.numBanks(); ++b) {
        folds += heatmap.folds(b);
        max_gran = std::max(max_gran, heatmap.granularityLog2(b));
    }
    for (const auto &snap : heatmap.snapshot())
        regions += snap.regions.size();
    sheet.setCounter("heatmap.folds", folds);
    sheet.setCounter("heatmap.regions", regions);
    sheet.setGauge("heatmap.max_granularity_log2",
                   static_cast<double>(max_gran));
}

} // namespace mithril::telemetry
