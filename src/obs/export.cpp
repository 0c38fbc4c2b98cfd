#include "obs/export.hpp"

#include <fstream>

#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "util/flags.hpp"
#include "util/log.hpp"

namespace resex::obs {
namespace {

bool writeFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    RESEX_LOG_ERROR("obs: cannot open %s for writing", path.c_str());
    return false;
  }
  out << content << "\n";
  if (!out) {
    RESEX_LOG_ERROR("obs: write to %s failed", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

void defineExportFlags(Flags& flags) {
  flags.define("metrics-out", "", "write a metrics snapshot here on exit")
      .define("metrics-format", "json", "metrics snapshot format: json|prom")
      .define("trace-out", "", "write a Chrome trace_event JSON array here "
                               "(enables tracing)");
}

void applyExportFlags(const Flags& flags) {
  if (!flags.str("trace-out").empty()) TraceRegistry::global().setEnabled(true);
}

bool writeExportFlags(const Flags& flags) {
  bool ok = true;
  const std::string format = flags.str("metrics-format");
  if (format != "json" && format != "prom") {
    RESEX_LOG_ERROR("obs: unknown --metrics-format '%s' (json|prom)",
                    format.c_str());
    ok = false;
  } else if (!flags.str("metrics-out").empty()) {
    ok = writeMetricsFile(flags.str("metrics-out"), format == "prom") && ok;
  }
  if (!flags.str("trace-out").empty())
    ok = writeTraceFile(flags.str("trace-out")) && ok;
  return ok;
}

bool writeMetricsFile(const std::string& path, bool prometheus) {
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  return writeFile(path, prometheus ? snap.toPrometheusText() : snap.toJson());
}

bool writeTraceFile(const std::string& path) {
  std::string events;
  TraceRegistry::global().appendChromeEvents(events);
  return writeFile(path, "[" + events + "]");
}

}  // namespace resex::obs
