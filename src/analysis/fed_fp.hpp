// Resource-oblivious federated scheduling (Li et al., ECRTS 2014): the
// paper's hypothetical "FED-FP" upper baseline, which pretends critical
// sections are ordinary computation.
#pragma once

#include "analysis/interface.hpp"

namespace dpcp {

std::unique_ptr<PreparedAnalysis> prepare_fed_fp(AnalysisSession& session);

}  // namespace dpcp
