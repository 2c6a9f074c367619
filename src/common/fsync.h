// Directory durability: a file created or renamed into a directory
// survives a host crash only once the directory itself is fsynced.

#ifndef PRIVREC_COMMON_FSYNC_H_
#define PRIVREC_COMMON_FSYNC_H_

#include <string>

#include "common/status.h"

namespace privrec {

// Fsyncs the directory that holds `path` (the working directory for a
// bare file name). kIoError when it cannot be opened or synced.
Status SyncDirectoryOf(const std::string& path);

}  // namespace privrec

#endif  // PRIVREC_COMMON_FSYNC_H_
