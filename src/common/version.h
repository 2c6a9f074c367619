// Library version and build provenance.

#ifndef PRIVREC_COMMON_VERSION_H_
#define PRIVREC_COMMON_VERSION_H_

namespace privrec {

inline constexpr int kVersionMajor = 1;
inline constexpr int kVersionMinor = 0;
inline constexpr int kVersionPatch = 0;
inline constexpr const char* kVersionString = "1.0.0";
// `git rev-parse --short HEAD` of the checkout at build time, or
// "unknown" outside a git checkout, so that benchmark records
// (BENCH_*.json) identify the code they measured. Defined in a source the
// build generates (common/git_revision.cmake), which a commit rewrites
// without recompiling anything else.
extern const char kGitRevision[];

}  // namespace privrec

#endif  // PRIVREC_COMMON_VERSION_H_
