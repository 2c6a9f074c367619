# Writes OUTPUT, the one translation unit that defines privrec::kGitRevision
# (common/version.h), from `git rev-parse --short HEAD` in SOURCE_DIR, or
# "unknown" outside a git checkout. Run by the build on every build
# (cmake -P), it leaves OUTPUT untouched while the revision is the same, so
# a commit recompiles that one file and relinks, and nothing else.
execute_process(
  COMMAND git rev-parse --short HEAD
  WORKING_DIRECTORY "${SOURCE_DIR}"
  OUTPUT_VARIABLE revision
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT revision)
  set(revision "unknown")
endif()
set(text "// Generated by common/git_revision.cmake at build time.
#include \"common/version.h\"

namespace privrec {

const char kGitRevision[] = \"${revision}\";

}  // namespace privrec
")
set(old "")
if(EXISTS "${OUTPUT}")
  file(READ "${OUTPUT}" old)
endif()
if(NOT old STREQUAL text)
  file(WRITE "${OUTPUT}" "${text}")
endif()
