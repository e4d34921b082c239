// Per-run link table: the static parameters of every ordered link of one
// instance pool, derived once.
//
// LatencyModel::Link rebuilds a link's LinkParams from ~20 hash chains plus
// exp/log/cos/sqrt. A measurement protocol probes the same n(n-1) links
// millions of times, so it builds one LinkTable at its start and takes every
// probe's parameters from it; the sampling formula itself stays
// LatencyModel::SampleRtt(const LinkParams&, ...). The table is owned by the
// run, never by the (shared, const) CloudSimulator, so concurrent runs on
// one simulator share no mutable state.
#ifndef CLOUDIA_NETSIM_LINK_TABLE_H_
#define CLOUDIA_NETSIM_LINK_TABLE_H_

#include <vector>

#include "common/rng.h"
#include "netsim/cloud.h"
#include "netsim/latency_model.h"

namespace cloudia::net {

class LinkTable {
 public:
  /// Derives the LinkParams of every ordered pair of `instances` on their
  /// allocation-time hosts: n^2 * sizeof(LinkParams) bytes. Non-owning:
  /// `cloud` and `instances` must outlive the table.
  LinkTable(const CloudSimulator& cloud,
            const std::vector<Instance>& instances);

  /// One RTT sample (ms) of instances[i] -> instances[j]; bit-identical to
  /// cloud.SampleRtt(instances[i], instances[j], ...). Attached dynamics
  /// still apply on every call: when relocation has moved either endpoint
  /// off its allocation host at `t_hours`, the link is derived afresh on the
  /// effective hosts instead of read from the table.
  double Sample(int i, int j, double msg_bytes, double t_hours,
                Rng& rng) const;

 private:
  const CloudSimulator& cloud_;
  const std::vector<Instance>& instances_;
  size_t n_;
  std::vector<LinkParams> links_;  // n*n row-major; diagonal unused
};

}  // namespace cloudia::net

#endif  // CLOUDIA_NETSIM_LINK_TABLE_H_
