#include "transports/factory.hpp"

#include <cctype>

#include "transports/decaf.hpp"
#include "transports/flexpath.hpp"
#include "transports/mpiio.hpp"
#include "transports/staging.hpp"
#include "workflow/pipeline_coupling.hpp"

namespace zipper::transports {

std::string method_name(Method m) {
  switch (m) {
    case Method::kMpiIo: return "MPI-IO";
    case Method::kAdiosDataSpaces: return "ADIOS/DataSpaces";
    case Method::kAdiosDimes: return "ADIOS/DIMES";
    case Method::kNativeDataSpaces: return "native DataSpaces";
    case Method::kNativeDimes: return "native DIMES";
    case Method::kFlexpath: return "Flexpath";
    case Method::kDecaf: return "Decaf";
    case Method::kZipper: return "Zipper";
  }
  return "?";
}

std::string method_token(Method m) {
  switch (m) {
    case Method::kMpiIo: return "mpiio";
    case Method::kAdiosDataSpaces: return "adios-dataspaces";
    case Method::kAdiosDimes: return "adios-dimes";
    case Method::kNativeDataSpaces: return "dataspaces";
    case Method::kNativeDimes: return "dimes";
    case Method::kFlexpath: return "flexpath";
    case Method::kDecaf: return "decaf";
    case Method::kZipper: return "zipper";
  }
  return "?";
}

std::optional<Method> parse_method(const std::string& token) {
  std::string t;
  t.reserve(token.size());
  for (char c : token) {
    if (c == ' ' || c == '_' || c == '/') c = '-';
    t.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  for (Method m : all_methods()) {
    if (t == method_token(m)) return m;
  }
  if (t == "mpi-io") return Method::kMpiIo;
  if (t == "native-dataspaces") return Method::kNativeDataSpaces;
  if (t == "native-dimes") return Method::kNativeDimes;
  return std::nullopt;
}

const std::vector<Method>& all_methods() {
  static const std::vector<Method> kAll{
      Method::kMpiIo,           Method::kAdiosDataSpaces, Method::kAdiosDimes,
      Method::kNativeDataSpaces, Method::kNativeDimes,     Method::kFlexpath,
      Method::kDecaf,           Method::kZipper,
  };
  return kAll;
}

int servers_for(Method m, int producers) {
  switch (m) {
    case Method::kAdiosDataSpaces:
    case Method::kAdiosDimes:
    case Method::kNativeDataSpaces:
    case Method::kNativeDimes:
      // Table 1: 32 staging/metadata server processes for 256 producers.
      return std::max(1, producers / 8);
    case Method::kDecaf:
      // Table 1: 64 Decaf-link processes for 256 producers.
      return std::max(1, producers / 4);
    default:
      return 0;
  }
}

std::unique_ptr<workflow::Coupling> make_coupling(
    Method m, workflow::Cluster& cluster, const apps::WorkloadProfile& profile,
    const TransportParams& params, const core::zbody::VtConfig& zipper_cfg,
    const workflow::PipelineSpec& pipeline) {
  switch (m) {
    case Method::kMpiIo:
      return std::make_unique<MpiIoCoupling>(cluster, profile, params);
    case Method::kAdiosDataSpaces:
      return std::make_unique<StagingCoupling>(cluster, profile,
                                               StagingKind::kDataSpaces, true,
                                               params);
    case Method::kAdiosDimes:
      return std::make_unique<StagingCoupling>(cluster, profile,
                                               StagingKind::kDimes, true, params);
    case Method::kNativeDataSpaces:
      return std::make_unique<StagingCoupling>(cluster, profile,
                                               StagingKind::kDataSpaces, false,
                                               params);
    case Method::kNativeDimes:
      return std::make_unique<StagingCoupling>(cluster, profile,
                                               StagingKind::kDimes, false, params);
    case Method::kFlexpath:
      return std::make_unique<FlexpathCoupling>(cluster, profile, params);
    case Method::kDecaf:
      return std::make_unique<DecafCoupling>(cluster, profile, params);
    case Method::kZipper:
      return std::make_unique<workflow::PipelineCoupling>(cluster, profile,
                                                          zipper_cfg, pipeline);
  }
  return nullptr;
}

}  // namespace zipper::transports
