/**
 * @file
 * Writers of the metric blocks more than one frontend reports: the
 * controller counters, the RH oracle totals, the event-recorder
 * counts and the ACT heatmap summary. Each block's names are spelled
 * here once, so the System run, the engine shards and
 * System::exportStats() cannot drift apart.
 */

#ifndef MITHRIL_TELEMETRY_EXPORTS_HH
#define MITHRIL_TELEMETRY_EXPORTS_HH

#include <cstdint>
#include <vector>

#include "mc/controller.hh"
#include "telemetry/event_trace.hh"
#include "telemetry/heatmap.hh"
#include "telemetry/metric_sheet.hh"

namespace mithril::telemetry
{

/** mc.acts, mc.reads, mc.writes, mc.row_hits, mc.row_misses,
 *  mc.refreshes, mc.rfm_issued, mc.rfm_skipped_mrr, mc.arr_executed
 *  and mc.throttle_stalls. */
void exportControllerStats(MetricSheet &sheet,
                           const mc::ControllerStats &stats);

/** oracle.bit_flips, oracle.flipped_rows and the
 *  oracle.max_disturbance gauge. */
void exportOracle(MetricSheet &sheet, std::uint64_t bit_flips,
                  std::uint64_t flipped_rows, double max_disturbance);

/** trace.emitted and trace.dropped, summed over the recorders. */
void exportEventCounts(MetricSheet &sheet,
                       const std::vector<const EventRecorder *> &recorders);

/** heatmap.acts, heatmap.folds, heatmap.regions and the
 *  heatmap.max_granularity_log2 gauge. */
void exportHeatmap(MetricSheet &sheet, const ActHeatmap &heatmap);

} // namespace mithril::telemetry

#endif // MITHRIL_TELEMETRY_EXPORTS_HH
