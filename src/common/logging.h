// Minimal logging to stderr. Every product message is a warning, and a
// failed IE_CHECK prints an error before aborting; there is no level to
// set, so every message prints.
//
// Thread safety: logging holds no shared state. Each message is buffered
// whole in its LogMessage and written to std::cerr in one call;
// interleaving between concurrent messages happens only at whole-message
// granularity on glibc (POSIX-locked FILE streams).
//
// In the static thread-safety model (DESIGN.md §11) logging is therefore
// the one concurrent component with no capability at all: it owns no
// mutex, guards no fields, and needs no annotations — there is nothing
// for -Wthread-safety to check, by construction.
#pragma once

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace ie {

enum class LogLevel { kWarn, kError };

namespace internal {

/// Prints `[<LEVEL> <file basename>:<line>] <message>` on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  std::ostringstream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

/// Swallows the streamed expression when the check holds.
struct LogVoidify {
  void operator&(std::ostream&) {}
};

/// Prints on destruction, then aborts. Used by IE_CHECK so the message is
/// flushed before the process dies.
class FatalLogMessage : public LogMessage {
 public:
  FatalLogMessage(const char* file, int line)
      : LogMessage(LogLevel::kError, file, line) {}
  [[noreturn]] ~FatalLogMessage();
};

}  // namespace internal
}  // namespace ie

#define IE_LOG(level)                                                     \
  ::ie::internal::LogMessage(::ie::LogLevel::level, __FILE__, __LINE__) \
      .stream()

#define IE_CHECK(cond)                                               \
  (cond) ? (void)0                                                   \
         : ::ie::internal::LogVoidify() &                            \
               ::ie::internal::FatalLogMessage(__FILE__, __LINE__)   \
                       .stream()                                     \
                   << "Check failed: " #cond " "
