#include "perfbench/load_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

namespace perfbench {
namespace {

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

maya::Result<std::unique_ptr<LoadClient>> LoadClient::Connect(int port, int connections) {
  std::unique_ptr<LoadClient> client(new LoadClient());
  for (int i = 0; i < connections; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return maya::Status::Internal(std::string("socket: ") + std::strerror(errno));
    }
    client->conns_.emplace_back();
    client->conns_.back().fd = fd;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      return maya::Status::Internal(std::string("connect: ") + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  }
  return client;
}

LoadClient::~LoadClient() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) {
      ::close(conn.fd);
    }
  }
}

double LoadClient::Elapsed() const { return Now() - start_; }

void LoadClient::BeginPhase(std::vector<Outcome>& outcomes) {
  // A connection still owing responses from an earlier phase cannot be
  // matched any more; its later requests go unanswered and count as failed.
  for (Conn& conn : conns_) {
    if (!conn.awaiting.empty() || !conn.outbox.empty()) {
      conn.alive = false;
    }
  }
  outcomes_ = &outcomes;
  start_ = Now();
}

size_t LoadClient::InFlight() const {
  size_t total = 0;
  for (const Conn& conn : conns_) {
    if (conn.alive) {
      total += conn.awaiting.size();
    }
  }
  return total;
}

void LoadClient::Enqueue(size_t conn, const std::string& line, size_t outcome) {
  Conn& c = conns_[conn];
  c.outbox.push_back(&line);
  c.awaiting.push_back(outcome);
  Flush(c);
}

void LoadClient::Flush(Conn& conn) {
  while (conn.alive && !conn.outbox.empty()) {
    const std::string& line = *conn.outbox.front();
    const char* data = conn.out_offset < line.size() ? line.data() + conn.out_offset : "\n";
    const size_t len = conn.out_offset < line.size() ? line.size() - conn.out_offset : 1;
    const ssize_t n = ::send(conn.fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        return;
      }
      conn.alive = false;
      return;
    }
    conn.out_offset += static_cast<size_t>(n);
    if (conn.out_offset == line.size() + 1) {
      conn.outbox.pop_front();
      conn.out_offset = 0;
    }
  }
}

void LoadClient::Poll(double timeout_s, const std::function<void(size_t)>& done) {
  std::vector<pollfd> fds(conns_.size());
  for (size_t i = 0; i < conns_.size(); ++i) {
    const Conn& c = conns_[i];
    fds[i].fd = c.alive ? c.fd : -1;
    fds[i].events = static_cast<short>(POLLIN | (c.outbox.empty() ? 0 : POLLOUT));
  }
  timespec wait{};
  const double clamped = std::max(0.0, timeout_s);
  wait.tv_sec = static_cast<time_t>(clamped);
  wait.tv_nsec = static_cast<long>((clamped - std::floor(clamped)) * 1e9);
  if (::ppoll(fds.data(), fds.size(), &wait, nullptr) <= 0) {
    return;
  }
  char buffer[1 << 16];
  for (size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = conns_[i];
    if (!c.alive) {
      continue;
    }
    if (fds[i].revents & POLLOUT) {
      Flush(c);
    }
    if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) {
      continue;
    }
    for (;;) {
      const ssize_t n = ::recv(c.fd, buffer, sizeof(buffer), 0);
      if (n > 0) {
        c.inbox.append(buffer, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
        break;
      }
      c.alive = false;  // closed or failed: its awaiting requests stay unanswered
      break;
    }
    size_t begin = 0;
    for (size_t end; (end = c.inbox.find('\n', begin)) != std::string::npos; begin = end + 1) {
      if (c.awaiting.empty()) {
        continue;  // an unsolicited line cannot be matched; it is not counted
      }
      Outcome& outcome = (*outcomes_)[c.awaiting.front()];
      c.awaiting.pop_front();
      outcome.done_s = Elapsed();
      outcome.response.assign(c.inbox, begin, end - begin);
      done(i);
    }
    c.inbox.erase(0, begin);
  }
}

std::vector<Outcome> LoadClient::OpenLoop(const std::vector<std::string>& lines,
                                          const std::vector<Arrival>& arrivals,
                                          double drain_s) {
  std::vector<Outcome> outcomes(arrivals.size());
  BeginPhase(outcomes);
  const double last_due = arrivals.empty() ? 0.0 : arrivals.back().due_s;
  size_t next = 0;
  for (;;) {
    double t = Elapsed();
    while (next < arrivals.size() && arrivals[next].due_s <= t) {
      Outcome& outcome = outcomes[next];
      outcome.line = arrivals[next].line;
      outcome.due_s = arrivals[next].due_s;
      outcome.sent_s = t;
      Enqueue(next % conns_.size(), lines[outcome.line], next);
      ++next;
      t = Elapsed();
    }
    if (next == arrivals.size() && (InFlight() == 0 || t > last_due + drain_s)) {
      break;
    }
    const double wait =
        next < arrivals.size() ? arrivals[next].due_s - t : last_due + drain_s - t;
    Poll(wait, [](size_t) {});
  }
  outcomes_ = nullptr;
  return outcomes;
}

std::vector<Outcome> LoadClient::ClosedLoop(const std::vector<std::string>& lines,
                                            const std::vector<uint32_t>& order,
                                            size_t connections, double duration_s,
                                            double drain_s) {
  std::vector<Outcome> outcomes;
  outcomes.reserve(order.size());
  BeginPhase(outcomes);
  size_t cursor = 0;
  const auto issue = [&](size_t conn) {
    if (cursor >= order.size() || Elapsed() >= duration_s || !conns_[conn].alive) {
      return;
    }
    Outcome outcome;
    outcome.line = order[cursor++];
    outcome.due_s = outcome.sent_s = Elapsed();
    outcomes.push_back(outcome);
    Enqueue(conn, lines[outcome.line], outcomes.size() - 1);
  };
  for (size_t c = 0; c < std::min(connections, conns_.size()); ++c) {
    issue(c);
  }
  while (InFlight() > 0 && Elapsed() < duration_s + drain_s) {
    Poll(duration_s + drain_s - Elapsed(), issue);
  }
  outcomes_ = nullptr;
  return outcomes;
}

maya::Result<std::string> LoadClient::RoundTrip(const std::string& line, double timeout_s) {
  std::vector<Outcome> outcomes(1);
  BeginPhase(outcomes);
  Enqueue(0, line, 0);
  while (!outcomes[0].answered() && conns_[0].alive && Elapsed() < timeout_s) {
    Poll(timeout_s - Elapsed(), [](size_t) {});
  }
  outcomes_ = nullptr;
  if (!outcomes[0].answered()) {
    return maya::Status::Internal("no response within " + std::to_string(timeout_s) + " s");
  }
  return std::move(outcomes[0].response);
}

}  // namespace perfbench
