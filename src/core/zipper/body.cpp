// The single translation unit every executor consults: explicit
// instantiations of the unified zipper body over the virtual-time, threaded,
// and network bindings. workflow::PipelineCoupling, core/rt, and the zipperd
// service layer link against these — none carries application logic of its
// own.
#include "core/zipper/body_impl.hpp"

#include "core/zipper/net_binding.hpp"
#include "core/zipper/rt_binding.hpp"
#include "core/zipper/vt_binding.hpp"

namespace zipper::core::zbody {

template class ZipperBody<VtBinding>;
template class ZipperBody<RtBinding>;
template class ZipperBody<NetBinding>;

}  // namespace zipper::core::zbody
