// Dataset directory serialization: one directory holds social.tsv,
// preferences.tsv and meta.txt. Unlike the raw graph_io loaders (which
// densify arbitrary ids by first appearance), this format preserves the
// exact node/item universe — users or items with no edges survive the
// round trip — so a saved synthetic dataset reproduces experiments
// bit-for-bit elsewhere.

#ifndef PRIVREC_DATA_EXPORT_H_
#define PRIVREC_DATA_EXPORT_H_

#include <string>

#include "common/status.h"
#include "data/dataset.h"

namespace privrec::data {

// Creates `dir` if needed and writes social.tsv (undirected edges),
// preferences.tsv (user item [weight]) and meta.txt (name + sizes).
Status SaveDataset(const Dataset& dataset, const std::string& dir);

// Loads a directory written by SaveDataset. The edge files' header
// comments must repeat meta.txt's sizes and count the records that follow
// them; any disagreement (a file cut at a line boundary, a dropped or
// repeated line) is a ParseError naming the file.
Result<Dataset> LoadDataset(const std::string& dir);

}  // namespace privrec::data

#endif  // PRIVREC_DATA_EXPORT_H_
