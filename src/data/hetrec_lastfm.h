// Loader for the HetRec 2011 Last.fm dataset (Cantador et al.), applying
// the preprocessing of Section 6.1: listened-to edges with weight < 2 are
// discarded ("listening to an artist only once is unlikely to indicate a
// positive preference") and the rest binarized to w = 1.
//
// Expected files inside `dir`:
//   user_friends.dat   header line, then "userID\tfriendID"
//   user_artists.dat   header line, then "userID\tartistID\tweight"
//
// Loading is strict (common/record_reader.h): the first malformed record
// is a ParseError naming the file and line. Self loops in the friendships
// are dropped and counted in Dataset::report.
//
// The dataset itself is not redistributed with this repository; see
// http://ir.ii.uam.es/hetrec2011/. `MakeSyntheticLastFm` in
// data/synthetic.h provides a statistically matched substitute.

#ifndef PRIVREC_DATA_HETREC_LASTFM_H_
#define PRIVREC_DATA_HETREC_LASTFM_H_

#include <string>

#include "common/status.h"
#include "data/dataset.h"

namespace privrec::data {

Result<Dataset> LoadHetRecLastFm(const std::string& dir);

}  // namespace privrec::data

#endif  // PRIVREC_DATA_HETREC_LASTFM_H_
