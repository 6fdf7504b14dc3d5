#include "workflow/pipeline.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace zipper::workflow {

std::string edge_method_token(EdgeMethod m) {
  switch (m) {
    case EdgeMethod::kZip:
      return "zip";
    case EdgeMethod::kStaged:
      return "staged";
    case EdgeMethod::kPfs:
      return "pfs";
  }
  return "?";
}

std::optional<EdgeMethod> parse_edge_method(const std::string& token) {
  if (token == "zip") return EdgeMethod::kZip;
  if (token == "staged") return EdgeMethod::kStaged;
  if (token == "pfs") return EdgeMethod::kPfs;
  return std::nullopt;
}

void PipelineSpec::validate() const {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("pipeline: " + what);
  };
  if (stages.size() < 2) fail("need at least 2 stages (sim + one consumer)");
  if (edges.size() + 1 != stages.size())
    fail("need exactly stages-1 edges, got " + std::to_string(edges.size()) +
         " for " + std::to_string(stages.size()) + " stages");
  if (fan < 1) fail("fan must be >= 1");
  if (chaos_edge < 0 || chaos_edge >= num_edges())
    fail("chaos_edge " + std::to_string(chaos_edge) + " out of range [0, " +
         std::to_string(num_edges()) + ")");
  if (edges[0].compression != 1.0)
    fail("edge 0 cannot compress (the simulation's own output is fixed); "
         "compression applies to forwarding edges >= 1");
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (!(edges[e].compression > 0))
      fail("edge " + std::to_string(e) + " compression must be > 0");
  }
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (stages[i].ranks < 0)
      fail("stage " + std::to_string(i) + " ranks must be >= 0 (0 = derive)");
    if (!(stages[i].work_factor > 0))
      fail("stage " + std::to_string(i) + " work_factor must be > 0");
  }
}

std::vector<int> PipelineSpec::resolved_ranks(int producers,
                                              int consumers) const {
  std::vector<int> r(stages.size(), 0);
  if (stages.empty()) return r;
  r[0] = stages[0].ranks > 0 ? stages[0].ranks : producers;
  int derived = std::max(1, consumers);
  for (std::size_t i = 1; i < stages.size(); ++i) {
    r[i] = stages[i].ranks > 0 ? stages[i].ranks : derived;
    // The next derived stage shrinks from this stage's actual count.
    derived = std::max(1, r[i] / fan);
  }
  return r;
}

std::string PipelineSpec::summary(int producers, int consumers) const {
  const auto r = resolved_ranks(producers, consumers);
  std::string out;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    out += stages[i].name + ":" + std::to_string(r[i]);
    if (i >= 2 && !stages[i].staging) out += "~";  // colocated helper stage
    if (i < edges.size()) {
      out += " -" + edge_method_token(edges[i].method);
      if (edges[i].compression != 1.0) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "/%.3gx", edges[i].compression);
        out += buf;
      }
      out += "-> ";
    }
  }
  return out;
}

PipelineSpec make_chain(int depth, int fan, double compress, bool staging) {
  if (depth < 1) throw std::invalid_argument("pipeline: depth must be >= 1");
  PipelineSpec pl;
  pl.fan = fan;
  pl.stages.assign(1, {"sim"});
  pl.edges.clear();
  for (int d = 0; d < depth; ++d) {
    PipelineStage s;
    // Template names so chains read naturally at every depth:
    //   1: sim -> analyze            3: sim -> reduce -> analyze -> store
    //   2: sim -> reduce -> analyze  4: sim -> reduce -> stage2 -> analyze -> store
    if (d == depth - 1) {
      s.name = depth >= 3 ? "store" : "analyze";
    } else if (d == 0) {
      s.name = "reduce";
    } else if (d == depth - 2 && depth >= 3) {
      s.name = "analyze";
    } else {
      s.name = "stage" + std::to_string(d + 1);
    }
    s.staging = staging;
    pl.stages.push_back(s);
    PipelineEdge e;
    if (d >= 1) e.compression = compress;
    pl.edges.push_back(e);
  }
  return pl;
}

}  // namespace zipper::workflow
