#include "proto/types.h"

#include <sstream>

namespace scale::proto {

std::string Guti::str() const {
  std::ostringstream os;
  os << "GUTI(" << plmn << "." << mme_group << "."
     << static_cast<int>(mme_code) << "." << m_tmsi << ")";
  return os.str();
}

const char* procedure_name(ProcedureType p) {
  switch (p) {
    case ProcedureType::kAttach: return "attach";
    case ProcedureType::kServiceRequest: return "service_request";
    case ProcedureType::kTrackingAreaUpdate: return "tau";
    case ProcedureType::kPaging: return "paging";
    case ProcedureType::kHandover: return "handover";
    case ProcedureType::kDetach: return "detach";
  }
  return "?";
}

std::optional<ProcedureType> parse_procedure_name(std::string_view name) {
  for (const ProcedureType p : kAllProcedures) {
    if (name == procedure_name(p)) return p;
  }
  return std::nullopt;
}

}  // namespace scale::proto
