#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"

namespace coredis_bench {

Child::Child(const std::vector<std::string>& argv, const std::string& log_path) {
  // Everything the child needs is prepared before fork: between fork and
  // exec it only calls async-signal-safe functions.
  std::vector<char*> raw;
  raw.reserve(argv.size() + 1);
  for (const std::string& arg : argv) raw.push_back(const_cast<char*>(arg.c_str()));
  raw.push_back(nullptr);
  const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log < 0) throw std::runtime_error("cannot open " + log_path);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ == 0) {
    // A benchmark killed mid-run must not leave its programs running.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(127);
    const int null = ::open("/dev/null", O_RDONLY);
    ::dup2(null, STDIN_FILENO);
    ::dup2(log, STDOUT_FILENO);
    ::dup2(log, STDERR_FILENO);
    ::execv(raw[0], raw.data());
    ::_exit(127);
  }
  const int error = errno;
  ::close(log);
  if (pid_ < 0)
    throw std::runtime_error("cannot fork for " + argv[0] + ": " + std::strerror(error));
}

Child::~Child() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

bool Child::Exit::ok() const {
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

Child::Exit Child::wait() {
  if (pid_ <= 0) throw std::logic_error("child already reaped");
  Exit exit;
  struct rusage usage {};
  while (::wait4(pid_, &exit.status, 0, &usage) < 0) {
    if (errno != EINTR)
      throw std::runtime_error(std::string("wait4: ") + std::strerror(errno));
  }
  pid_ = -1;
  exit.cpu_seconds = static_cast<double>(usage.ru_utime.tv_sec) +
                     static_cast<double>(usage.ru_utime.tv_usec) * 1e-6 +
                     static_cast<double>(usage.ru_stime.tv_sec) +
                     static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
  exit.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  return exit;
}

Child::Exit Child::terminate() {
  if (pid_ > 0) ::kill(pid_, SIGTERM);
  return wait();
}

double process_cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are
  // fields 14 and 15 (1-based), i.e. the 12th and 13th after ") ".
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos)
    throw std::runtime_error("cannot read /proc stat of pid " +
                             std::to_string(pid));
  std::istringstream fields(stat.substr(close + 2));
  std::string skip;
  for (int i = 0; i < 11; ++i) fields >> skip;
  unsigned long long utime = 0, stime = 0;
  fields >> utime >> stime;
  const long ticks = ::sysconf(_SC_CLK_TCK);
  return static_cast<double>(utime + stime) / static_cast<double>(ticks);
}

double process_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM for pid " + std::to_string(pid));
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
  return online > 0 ? static_cast<std::size_t>(online) : 1;
}

}  // namespace coredis_bench
