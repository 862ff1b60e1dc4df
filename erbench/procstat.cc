// Host processes, /proc accounting and the /metrics scrape.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "erbench.h"
#include "obs/export.h"

extern char** environ;

namespace erbench {

using erbium::Result;
using erbium::Status;

Result<HostProcess> SpawnHost(const std::vector<std::string>& argv,
                              double timeout_s) {
  int fds[2];
  if (::pipe(fds) != 0) return Status::IOError("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  HostProcess host;
  int rc = posix_spawn(&host.pid, args[0], &actions, nullptr, args.data(),
                       environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    return Status::IOError("cannot start " + argv[0] + ": " + std::strerror(rc));
  }
  // Read up to the READY line; EOF or the deadline means the host failed.
  std::string out;
  uint64_t deadline = NowNs() + static_cast<uint64_t>(timeout_s * 1e9);
  while (out.find('\n') == std::string::npos) {
    int left_ms = static_cast<int>((static_cast<int64_t>(deadline) -
                                    static_cast<int64_t>(NowNs())) / 1000000);
    struct pollfd pfd = {fds[0], POLLIN, 0};
    char buf[256];
    ssize_t n = left_ms > 0 && ::poll(&pfd, 1, left_ms) > 0
                    ? ::read(fds[0], buf, sizeof(buf))
                    : 0;
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  if (std::sscanf(out.c_str(), "READY %d %d", &host.port,
                  &host.metrics_port) != 2) {
    StopHost(&host, SIGKILL);
    return Status::IOError("host did not become ready: '" + out + "'");
  }
  return host;
}

void StopHost(HostProcess* host, int sig) {
  if (host->pid <= 0) return;
  ::kill(host->pid, sig);
  int status = 0;
  ::waitpid(host->pid, &status, 0);
  host->pid = -1;
}

namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The number after `key` in a "key: value" style /proc file, or 0.
double Field(const std::string& text, const std::string& key) {
  size_t at = text.find(key);
  return at == std::string::npos
             ? 0
             : std::strtod(text.c_str() + at + key.size(), nullptr);
}

}  // namespace

ProcSample SampleProcess(pid_t pid) {
  const std::string proc = "/proc/" + std::to_string(pid);
  ProcSample sample;
  // Fields after the parenthesized command name start at field 3;
  // utime and stime are fields 14 and 15.
  std::string stat = ReadFile(proc + "/stat");
  size_t paren = stat.rfind(')');
  if (paren != std::string::npos) {
    std::istringstream fields(stat.substr(paren + 1));
    std::string token;
    double ticks = 0;
    for (int field = 3; field <= 15 && (fields >> token); ++field) {
      if (field >= 14) ticks += std::strtod(token.c_str(), nullptr);
    }
    sample.cpu_ms = ticks * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  sample.write_bytes = Field(ReadFile(proc + "/io"), "write_bytes:");
  sample.hwm_mb = Field(ReadFile(proc + "/status"), "VmHWM:") / 1024.0;
  return sample;
}

SystemCpu SampleSystemCpu() {
  // "cpu  user nice system idle iowait irq softirq steal ..."
  std::istringstream line(ReadFile("/proc/stat"));
  std::string label;
  line >> label;
  SystemCpu cpu;
  double value = 0;
  for (int i = 0; i < 8 && (line >> value); ++i) {
    cpu.total += value;
    if (i == 7) cpu.steal = value;
  }
  return cpu;
}

double SelfCpuSeconds() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const struct timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double DirBytes(const std::string& dir) {
  double bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      bytes += static_cast<double>(entry.file_size(ec));
    }
  }
  return bytes;
}

Result<std::map<std::string, double>> ScrapeMetrics(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("socket failed");
  struct timeval timeout = {5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string response;
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) == 0) {
    const std::string request = "GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n";
    if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(request.size())) {
      char buf[65536];
      for (ssize_t n; (n = ::recv(fd, buf, sizeof(buf), 0)) > 0;) {
        response.append(buf, static_cast<size_t>(n));
      }
    }
  }
  ::close(fd);
  size_t body_at = response.find("\r\n\r\n");
  if (response.rfind("HTTP/1.", 0) != 0 || body_at == std::string::npos ||
      response.find(" 200 ") > body_at) {
    return Status::IOError("bad /metrics response");
  }
  std::string body = response.substr(body_at + 4);
  std::string error = erbium::obs::PrometheusFormatError(body);
  if (!error.empty()) return Status::Internal("/metrics: " + error);
  std::map<std::string, double> samples;
  std::istringstream lines(body);
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line[0] == '#' || line.find('{') != std::string::npos) {
      continue;
    }
    size_t space = line.find(' ');
    samples[line.substr(0, space)] = std::strtod(line.c_str() + space, nullptr);
  }
  return samples;
}

}  // namespace erbench
