// Run-record export: wires --metrics-out / --trace-out into a binary.
//
// Usage in an example or bench main:
//   Flags flags;
//   obs::defineExportFlags(flags);
//   flags.parse(argc, argv);
//   obs::applyExportFlags(flags);   // enables tracing if --trace-out set
//   ... run the experiment ...
//   obs::writeExportFlags(flags);   // writes the requested files
#pragma once

#include <string>

namespace resex {
class Flags;
}

namespace resex::obs {

/// Defines --metrics-out, --metrics-format (json|prom), --trace-out.
void defineExportFlags(Flags& flags);

/// Enables tracing when --trace-out is non-empty. Call before the workload.
void applyExportFlags(const Flags& flags);

/// Writes whichever outputs were requested; returns false if any write
/// failed (already logged).
bool writeExportFlags(const Flags& flags);

/// Writes the global registry snapshot as JSON (or Prometheus text).
bool writeMetricsFile(const std::string& path, bool prometheus = false);

/// Writes every span of the global TraceRegistry (process spans, retained
/// query traces, timeline events) as one Chrome trace_event JSON array.
bool writeTraceFile(const std::string& path);

}  // namespace resex::obs
