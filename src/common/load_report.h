// LoadReport: what a successful load read.
//
// Loading is strict: the first defect ends a load with kParseError naming
// the file and line (common/record_reader.h). A report therefore describes
// a clean load: the record lines read, the records that reached the loaded
// structure, and the self loops that the dataset preprocessing drops
// (the HetRec and Flixster loaders drop them; the edge-list loaders reject
// them).

#ifndef PRIVREC_COMMON_LOAD_REPORT_H_
#define PRIVREC_COMMON_LOAD_REPORT_H_

#include <cstdint>

namespace privrec {

struct LoadReport {
  // Non-blank, non-comment record lines read (across all files of a
  // multi-file load).
  int64_t lines_scanned = 0;
  // Records that made it into the loaded structure.
  int64_t records_loaded = 0;
  // Self loops the preprocessing dropped.
  int64_t skipped_self_loops = 0;
};

// Records a successful load into the metrics registry under
// privrec.data.*: one load, its lines, records and dropped self loops.
void RecordLoadMetrics(const LoadReport& report);

}  // namespace privrec

#endif  // PRIVREC_COMMON_LOAD_REPORT_H_
