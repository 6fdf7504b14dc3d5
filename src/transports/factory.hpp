// Convenience factory used by the benches and integration tests: builds any
// of the paper's seven transport couplings (plus Zipper) by name.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/profiles.hpp"
#include "core/zipper/vt_binding.hpp"
#include "transports/params.hpp"
#include "workflow/cluster.hpp"
#include "workflow/coupling.hpp"
#include "workflow/pipeline.hpp"

namespace zipper::transports {

enum class Method {
  kMpiIo,
  kAdiosDataSpaces,
  kAdiosDimes,
  kNativeDataSpaces,
  kNativeDimes,
  kFlexpath,
  kDecaf,
  kZipper,
};

/// Human-readable name matching the paper's Figure 2 labels.
std::string method_name(Method m);

/// Stable CLI/label token: "mpiio", "adios-dataspaces", "adios-dimes",
/// "dataspaces", "dimes", "flexpath", "decaf", "zipper".
std::string method_token(Method m);

/// Inverse of method_token. Also accepts the paper's display names
/// (case-insensitive) and a few common aliases ("mpi-io", "native dimes").
/// Returns nullopt for unknown tokens — "sim-only" is deliberately not a
/// Method; callers model it as an absent coupling.
std::optional<Method> parse_method(const std::string& token);

/// All eight methods in the paper's Figure 2 order.
const std::vector<Method>& all_methods();

/// Number of auxiliary server/link ranks a method wants for P producers,
/// following Table 1 (DataSpaces/DIMES: 32 servers per 256 producers; Decaf:
/// 64 links per 256 producers i.e. P/4; others: none).
int servers_for(Method m, int producers);

/// Builds method `m`'s coupling. kZipper runs `pipeline` (by default the
/// paper's single hop) as a PipelineCoupling with `zipper_cfg` as the
/// per-edge template; see its constructor for the layout it needs. The other
/// methods ignore `zipper_cfg` and `pipeline`.
std::unique_ptr<workflow::Coupling> make_coupling(
    Method m, workflow::Cluster& cluster, const apps::WorkloadProfile& profile,
    const TransportParams& params = {},
    const core::zbody::VtConfig& zipper_cfg = {},
    const workflow::PipelineSpec& pipeline = {});

}  // namespace zipper::transports
