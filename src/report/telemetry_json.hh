/**
 * @file
 * Converters between a telemetry::Snapshot and the ordered report
 * JSON, used for the `extras.telemetry` subtree of run reports
 * (schema minor 2).
 *
 * Layout (all members optional on read, unknown members ignored):
 *
 *   {
 *     "counters":   {"pool.tasks": 42, ...},
 *     "gauges":     {"pool.queue_depth": 0, ...},
 *     "histograms": {
 *       "sweep.leg_seconds": {
 *         "count": 120,
 *         "sumSeconds": 1.25,
 *         "buckets": [{"bucket": 21, "count": 3}, ...]
 *       }, ...
 *     }
 *   }
 *
 * "bucket" is the log-scale index defined by
 * telemetry::Histogram::bucketUpperSeconds. The conversion is
 * lossless: toJson(fromJson(j)) reproduces j member-for-member.
 */

#ifndef GHRP_REPORT_TELEMETRY_JSON_HH
#define GHRP_REPORT_TELEMETRY_JSON_HH

#include "report/json.hh"
#include "telemetry/metrics.hh"

namespace ghrp::report
{

/** Render @p snapshot as ordered JSON. */
Json telemetryToJson(const telemetry::Snapshot &snapshot);

/** Parse a snapshot back; throws ReportError on malformed input. */
telemetry::Snapshot telemetryFromJson(const Json &json);

} // namespace ghrp::report

#endif // GHRP_REPORT_TELEMETRY_JSON_HH
