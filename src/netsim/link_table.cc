#include "netsim/link_table.h"

#include "common/check.h"

namespace cloudia::net {

LinkTable::LinkTable(const CloudSimulator& cloud,
                     const std::vector<Instance>& instances)
    : cloud_(cloud),
      instances_(instances),
      n_(instances.size()),
      links_(n_ * n_) {
  const LatencyModel& model = cloud.model();
  for (size_t i = 0; i < n_; ++i) {
    for (size_t j = 0; j < n_; ++j) {
      if (i == j) continue;
      const Instance& a = instances[i];
      const Instance& b = instances[j];
      links_[i * n_ + j] = model.Link(a.id, a.host, b.id, b.host);
    }
  }
}

double LinkTable::Sample(int i, int j, double msg_bytes, double t_hours,
                         Rng& rng) const {
  return Sample(i, j, msg_bytes, t_hours, rng.Uniform());
}

double LinkTable::Sample(int i, int j, double msg_bytes, double t_hours,
                         double jitter_u) const {
  const size_t si = static_cast<size_t>(i);
  const size_t sj = static_cast<size_t>(j);
  CLOUDIA_DCHECK(si < n_ && sj < n_ && si != sj);
  const Instance& a = instances_[si];
  const Instance& b = instances_[sj];
  const LatencyModel& model = cloud_.model();
  const LinkPath path = cloud_.PathAt(a, b, t_hours);
  if (path.host_a == a.host && path.host_b == b.host) {
    return path.multiplier * model.SampleRtt(links_[si * n_ + sj], msg_bytes,
                                             t_hours, jitter_u);
  }
  return path.multiplier *
         model.SampleRtt(model.Link(a.id, path.host_a, b.id, path.host_b),
                         msg_bytes, t_hours, jitter_u);
}

}  // namespace cloudia::net
