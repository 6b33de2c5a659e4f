#ifndef RPDBSCAN_UTIL_LOGGING_H_
#define RPDBSCAN_UTIL_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>

namespace rpdbscan {
namespace internal_logging {

/// Collects one fatal message in a stream, then writes it (with a
/// file:line prefix) and aborts the process on destruction.
class FatalMessage {
 public:
  FatalMessage(const char* file, int line) {
    stream_ << "[FATAL " << Basename(file) << ":" << line << "] ";
  }

  FatalMessage(const FatalMessage&) = delete;
  FatalMessage& operator=(const FatalMessage&) = delete;

  ~FatalMessage() {
    stream_ << "\n";
    std::cerr << stream_.str() << std::flush;
    std::abort();
  }

  std::ostream& stream() { return stream_; }

 private:
  static const char* Basename(const char* file) {
    const char* base = file;
    for (const char* p = file; *p != '\0'; ++p) {
      if (*p == '/') base = p + 1;
    }
    return base;
  }

  std::ostringstream stream_;
};

/// Swallows the streamed expression when a CHECK passes; keeps the macro a
/// single expression.
struct Voidify {
  void operator&(std::ostream&) {}
};

}  // namespace internal_logging
}  // namespace rpdbscan

/// Aborts with a message when `cond` is false. Active in all build modes:
/// these guard internal invariants whose violation would corrupt results.
#define RPDBSCAN_CHECK(cond)                                               \
  (cond) ? (void)0                                                        \
         : ::rpdbscan::internal_logging::Voidify() &                      \
               ::rpdbscan::internal_logging::FatalMessage(__FILE__,       \
                                                          __LINE__)       \
                   .stream()                                              \
               << "Check failed: " #cond " "

#define RPDBSCAN_DCHECK(cond) RPDBSCAN_CHECK(cond)

#endif  // RPDBSCAN_UTIL_LOGGING_H_
