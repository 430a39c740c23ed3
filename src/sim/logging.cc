#include "logging.hh"

#include <cstdlib>
#include <iostream>
#include <mutex>

namespace svb
{

namespace
{
/** Serialises sink writes so concurrent workers never tear lines. */
std::mutex sinkMtx;
}

void
logMessage(LogLevel level, const std::string &msg)
{
    std::lock_guard<std::mutex> lk(sinkMtx);
    switch (level) {
      case LogLevel::Inform:
        std::cout << "info: " << msg << "\n";
        break;
      case LogLevel::Warn:
        std::cerr << "warn: " << msg << "\n";
        break;
      case LogLevel::Fatal:
        std::cerr << "fatal: " << msg << "\n";
        break;
      case LogLevel::Panic:
        std::cerr << "panic: " << msg << "\n";
        break;
    }
}

namespace detail
{

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::ostringstream os;
    os << msg << " @ " << file << ":" << line;
    logMessage(LogLevel::Panic, os.str());
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::ostringstream os;
    os << msg << " @ " << file << ":" << line;
    logMessage(LogLevel::Fatal, os.str());
    std::exit(1);
}

} // namespace detail

} // namespace svb
