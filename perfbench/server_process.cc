#include "perfbench/server_process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "perfbench/load_client.h"
#include "src/service/protocol.h"

namespace perfbench {
namespace {

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Whether the server has logged that it is draining after a SIGTERM.
bool Draining(const std::string& log_path) {
  std::ifstream log(log_path);
  std::string line;
  while (std::getline(log, line)) {
    if (line.find("SIGTERM, draining") != std::string::npos) {
      return true;
    }
  }
  return false;
}

// The port from "maya_serve: listening on HOST:PORT", or 0 when not yet there.
int AnnouncedPort(const std::string& log_path) {
  std::ifstream log(log_path);
  std::string line;
  const std::string marker = "listening on ";
  while (std::getline(log, line)) {
    const size_t at = line.find(marker);
    const size_t colon = line.rfind(':');
    if (at != std::string::npos && colon != std::string::npos && colon > at) {
      return std::atoi(line.c_str() + colon + 1);
    }
  }
  return 0;
}

}  // namespace

maya::Result<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::vector<std::string>& argv, const std::string& log_path, double timeout_s) {
  const int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    return maya::Status::Internal("cannot open " + log_path + ": " + std::strerror(errno));
  }
  std::vector<char*> args;
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);

  std::unique_ptr<ServerProcess> server(new ServerProcess());
  server->log_path_ = log_path;
  const double start = Now();
  server->pid_ = ::fork();
  if (server->pid_ < 0) {
    ::close(log_fd);
    return maya::Status::Internal(std::string("fork: ") + std::strerror(errno));
  }
  if (server->pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int null_fd = ::open("/dev/null", O_RDWR);
    ::dup2(null_fd, STDIN_FILENO);
    ::dup2(null_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(args[0], args.data());
    _exit(127);
  }
  ::close(log_fd);

  while ((server->port_ = AnnouncedPort(log_path)) == 0) {
    int status = 0;
    if (::waitpid(server->pid_, &status, WNOHANG) == server->pid_) {
      server->pid_ = -1;
      return maya::Status::Internal("maya_serve exited during startup; see " + log_path);
    }
    if (Now() - start > timeout_s) {
      return maya::Status::DeadlineExceeded("maya_serve did not announce a port");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  maya::Result<std::unique_ptr<LoadClient>> probe = LoadClient::Connect(server->port_, 1);
  MAYA_RETURN_IF_ERROR(probe.status());
  maya::Result<std::string> health =
      (*probe)->RoundTrip(R"({"id":1,"kind":"health"})", timeout_s);
  MAYA_RETURN_IF_ERROR(health.status());
  maya::Result<maya::ServiceResponse> parsed = maya::ParseServiceResponse(*health);
  if (!parsed.ok() || !parsed->ok || !parsed->health.ready) {
    return maya::Status::Internal("maya_serve health is not ready: " + *health);
  }
  server->setup_s_ = Now() - start;
  return server;
}

ServerProcess::~ServerProcess() { (void)Stop(); }

maya::Result<double> ServerProcess::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return maya::Status::NotFound("no VmHWM for maya_serve");
}

maya::Status ServerProcess::Stop() {
  if (pid_ <= 0) {
    return maya::Status::Ok();
  }
  ::kill(pid_, SIGTERM);
  int status = 0;
  const double start = Now();
  double signalled = start;
  while (::waitpid(pid_, &status, WNOHANG) != pid_) {
    // maya_serve waits for SIGTERM by checking a flag and then calling
    // pause(), which misses a signal that lands between the two. Until the
    // server logs that it is draining, repeat the signal every second.
    if (Now() - signalled > 1.0 && !Draining(log_path_)) {
      ::kill(pid_, SIGTERM);
      signalled = Now();
    }
    if (Now() - start > 20.0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      return maya::Status::DeadlineExceeded("maya_serve did not drain within 20 s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return maya::Status::Internal("maya_serve did not exit cleanly");
  }
  return maya::Status::Ok();
}

}  // namespace perfbench
