// A maya_serve child process listening on an ephemeral TCP port.
#ifndef PERFBENCH_SERVER_PROCESS_H_
#define PERFBENCH_SERVER_PROCESS_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace perfbench {

class ServerProcess {
 public:
  // Starts `argv` (argv[0] is the binary) with stderr sent to `log_path`, and
  // returns once the server has announced its port and answered `health`
  // with ready=true. The child is killed if this process dies first.
  static maya::Result<std::unique_ptr<ServerProcess>> Start(const std::vector<std::string>& argv,
                                                            const std::string& log_path,
                                                            double timeout_s);
  // Stops the server (see Stop).
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }
  // Seconds from fork until health answered ready.
  double setup_s() const { return setup_s_; }
  // The server's peak resident set (VmHWM), in MB.
  maya::Result<double> PeakRssMb() const;
  // SIGTERM (graceful drain), then SIGKILL after a grace period; waits for
  // the process to end. Returns an error when it did not exit cleanly.
  maya::Status Stop();

 private:
  ServerProcess() = default;
  std::string log_path_;
  pid_t pid_ = -1;
  int port_ = 0;
  double setup_s_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_PROCESS_H_
