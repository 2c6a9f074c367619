#include "common/fsync.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace privrec {

Status SyncDirectoryOf(const std::string& path) {
  const size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0             ? "/"
                                                   : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open directory '" + dir +
                           "': " + std::strerror(errno));
  }
  const int synced = ::fsync(fd);
  const int saved_errno = errno;
  ::close(fd);
  if (synced != 0) {
    return Status::IoError("fsync of directory '" + dir +
                           "' failed: " + std::strerror(saved_errno));
  }
  return Status::Ok();
}

}  // namespace privrec
