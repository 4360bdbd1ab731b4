// Load generator: one thread driving up to four TCP connections to maya_serve
// with poll(), so the benchmark never adds threads or connections beyond the
// ones it reports. Each connection answers in request order, so responses are
// matched to requests by a per-connection FIFO.
#ifndef PERFBENCH_LOAD_CLIENT_H_
#define PERFBENCH_LOAD_CLIENT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/inputs.h"
#include "src/common/status.h"

namespace perfbench {

// One request of a phase. Times are seconds since the phase started.
struct Outcome {
  uint32_t line = 0;
  double due_s = 0.0;   // when it was due (closed loop: when it was sent)
  double sent_s = 0.0;  // when its bytes were queued
  double done_s = -1.0; // when its response line arrived; < 0 = none
  std::string response;

  bool answered() const { return done_s >= 0.0; }
  // Latency as users see it: from the due time, so a stall that delays later
  // sends is charged to them.
  double latency_s() const { return done_s - due_s; }
};

class LoadClient {
 public:
  static maya::Result<std::unique_ptr<LoadClient>> Connect(int port, int connections);
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  // Open loop: sends every arrival at its due time, round robin over the
  // connections, whatever is still in flight. Waits at most `drain_s` after
  // the last due time for the remaining responses.
  std::vector<Outcome> OpenLoop(const std::vector<std::string>& lines,
                                const std::vector<Arrival>& arrivals, double drain_s);

  // Closed loop: each of the first `connections` connections keeps one request
  // in flight, taking the next entry of `order` when its previous one
  // completes, until `duration_s` has passed or `order` runs out.
  std::vector<Outcome> ClosedLoop(const std::vector<std::string>& lines,
                                  const std::vector<uint32_t>& order, size_t connections,
                                  double duration_s, double drain_s);

  // One request on the first connection, waiting up to `timeout_s` for its
  // response line.
  maya::Result<std::string> RoundTrip(const std::string& line, double timeout_s);

  size_t connections() const { return conns_.size(); }

 private:
  struct Conn {
    int fd = -1;
    bool alive = true;
    std::deque<const std::string*> outbox;  // lines not yet fully written
    size_t out_offset = 0;  // bytes of outbox.front() written (line + '\n')
    std::deque<size_t> awaiting;  // outcomes written or queued, in order
    std::string inbox;
  };

  LoadClient() = default;
  double Elapsed() const;
  void BeginPhase(std::vector<Outcome>& outcomes);
  void Enqueue(size_t conn, const std::string& line, size_t outcome);
  void Flush(Conn& conn);
  // Waits up to `timeout_s` for socket events; calls `done(conn)` after each
  // completed response.
  void Poll(double timeout_s, const std::function<void(size_t)>& done);
  size_t InFlight() const;

  std::vector<Conn> conns_;
  std::vector<Outcome>* outcomes_ = nullptr;
  double start_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_CLIENT_H_
