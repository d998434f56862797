#include "common/logging.h"

namespace ie {
namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line) {
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << (level == LogLevel::kWarn ? "WARN" : "ERROR") << " "
          << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  stream_ << "\n";
  std::cerr << stream_.str();
}

FatalLogMessage::~FatalLogMessage() {
  stream() << "\n";
  std::cerr << stream().str() << std::flush;
  std::abort();
}

}  // namespace internal
}  // namespace ie
