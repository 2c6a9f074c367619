// Loader for the Flixster dataset (Jamali & Ester), applying the paper's
// Section 6.1 preprocessing:
//   1. restrict to users with at least one rating,
//   2. take the main connected component of the induced social graph,
//   3. discard ratings with value < 2 ("likely to indicate dislike"),
//   4. binarize the remaining ratings to w = 1.
//
// Expected files inside `dir`:
//   links.txt     "userID\tfriendID" per line (undirected)
//   ratings.txt   "userID\tmovieID\trating" per line (rating may be x.5)
//
// Loading is strict (common/record_reader.h): the first malformed record
// — including a non-finite rating — is a ParseError naming the file and
// line. Self loops in the links are dropped and counted in
// Dataset::report.
//
// `MakeSyntheticFlixster` in data/synthetic.h provides a statistically
// matched substitute when the raw dump is unavailable.

#ifndef PRIVREC_DATA_FLIXSTER_H_
#define PRIVREC_DATA_FLIXSTER_H_

#include <string>

#include "common/status.h"
#include "data/dataset.h"

namespace privrec::data {

struct FlixsterOptions {
  // The paper binarizes surviving ratings to weight 1. Setting false keeps
  // the raw rating as the edge weight (the weighted-edge extension); the
  // recommenders then calibrate noise to max_weight().
  bool binarize = true;
};

Result<Dataset> LoadFlixster(const std::string& dir,
                             const FlixsterOptions& options = {});

}  // namespace privrec::data

#endif  // PRIVREC_DATA_FLIXSTER_H_
