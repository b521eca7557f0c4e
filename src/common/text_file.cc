#include "common/text_file.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/fault.h"

namespace lowino {

bool save_text_file(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) return false;
    out << text;
    if (!out.flush()) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  try {
    maybe_inject_fault(FaultSite::kPlanLoad);
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<std::string> load_text_file(const std::string& path) {
  maybe_inject_fault(FaultSite::kPlanLoad);
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace lowino
