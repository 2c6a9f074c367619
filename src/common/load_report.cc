#include "common/load_report.h"

#include "obs/metrics.h"

namespace privrec {

void RecordLoadMetrics(const LoadReport& report) {
  static obs::Counter& loads = obs::GetCounter("privrec.data.loads");
  static obs::Counter& lines =
      obs::GetCounter("privrec.data.lines_scanned");
  static obs::Counter& loaded =
      obs::GetCounter("privrec.data.records_loaded");
  static obs::Counter& self_loops =
      obs::GetCounter("privrec.data.skipped_self_loops");
  loads.Increment();
  lines.Add(report.lines_scanned);
  loaded.Add(report.records_loaded);
  self_loops.Add(report.skipped_self_loops);
}

}  // namespace privrec
