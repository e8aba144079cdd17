#include "chaos/isolate.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>
#include <stdexcept>
#include <utility>

#ifdef __linux__
#include <sys/prctl.h>
#endif

// ASan/TSan reserve terabytes of virtual address space for shadow
// memory, so RLIMIT_AS would kill every child at startup.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PHANTOM_ISOLATE_SANITIZED 1
#endif
#if !defined(PHANTOM_ISOLATE_SANITIZED) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PHANTOM_ISOLATE_SANITIZED 1
#endif
#endif

namespace phantom::chaos {
namespace {

// ---- pipe frame protocol -------------------------------------------------
//
// The child writes 'P' (progress) frames while the simulation runs and
// exactly one 'R' (result) frame on completion. Parent and child are
// the same binary on the same machine, so integers travel in native
// byte order and doubles travel by bit pattern — decoding a healthy
// result is bit-exact.

void append_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

void append_i64(std::string& out, std::int64_t v) {
  append_u64(out, static_cast<std::uint64_t>(v));
}

void append_double(std::string& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  append_u64(out, bits);
}

void append_str(std::string& out, const std::string& s) {
  append_u64(out, s.size());
  out += s;
}

/// EINTR-safe full write; gives up quietly on a broken pipe (the parent
/// is gone — nobody is left to read a result anyway).
void write_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return;
    }
  }
}

void write_progress_frame(int fd, std::uint64_t events) {
  std::string frame;
  append_u8(frame, 'P');
  append_u64(frame, events);
  write_all(fd, frame);
}

void write_result_frame(int fd, const TrialResult& r) {
  std::string frame;
  append_u8(frame, 'R');
  std::string body;
  append_u8(body, static_cast<std::uint8_t>(r.verdict));
  append_u64(body, r.events);
  append_u64(body, r.violations);
  append_u8(body, r.reconverge_latency.has_value() ? 1 : 0);
  append_i64(body,
             r.reconverge_latency ? r.reconverge_latency->nanoseconds() : 0);
  append_double(body, r.settled_share_mbps);
  append_double(body, r.peak_queue_cells);
  append_str(body, r.detail);
  append_u64(body, r.flight_recorder.size());
  for (const std::string& line : r.flight_recorder) append_str(body, line);
  append_u64(frame, body.size());
  frame += body;
  write_all(fd, frame);
}

/// Bounds-checked reader over the parent's accumulated pipe bytes.
struct Reader {
  const std::string& buf;
  std::size_t pos = 0;

  [[nodiscard]] bool have(std::size_t n) const { return buf.size() - pos >= n; }
  [[nodiscard]] std::uint64_t u64() {
    std::uint64_t v;
    std::memcpy(&v, buf.data() + pos, 8);
    pos += 8;
    return v;
  }
  [[nodiscard]] double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }
};

struct ParsedFrames {
  std::optional<TrialResult> result;
  std::uint64_t progress = 0;  ///< last reported event count
};

[[nodiscard]] ParsedFrames parse_frames(const std::string& buf) {
  ParsedFrames out;
  Reader r{buf};
  while (r.have(1)) {
    const char tag = buf[r.pos];
    if (tag == 'P') {
      if (!r.have(9)) break;
      ++r.pos;
      out.progress = r.u64();
    } else if (tag == 'R') {
      if (!r.have(9)) break;
      ++r.pos;
      const std::uint64_t len = r.u64();
      if (!r.have(len)) break;
      const std::size_t end = r.pos + len;
      TrialResult res;
      res.verdict = static_cast<Verdict>(buf[r.pos]);
      ++r.pos;
      res.events = r.u64();
      res.violations = r.u64();
      const bool has_latency = buf[r.pos] != 0;
      ++r.pos;
      const std::int64_t latency_ns = static_cast<std::int64_t>(r.u64());
      if (has_latency) res.reconverge_latency = sim::Time::ns(latency_ns);
      res.settled_share_mbps = r.f64();
      res.peak_queue_cells = r.f64();
      const std::uint64_t detail_len = r.u64();
      if (detail_len > end - r.pos) break;  // corrupt frame
      res.detail = buf.substr(r.pos, detail_len);
      r.pos += detail_len;
      if (end - r.pos < 8) break;
      const std::uint64_t n_flight = r.u64();
      bool flight_ok = true;
      for (std::uint64_t i = 0; i < n_flight; ++i) {
        if (end - r.pos < 8) { flight_ok = false; break; }
        const std::uint64_t line_len = r.u64();
        if (line_len > end - r.pos) { flight_ok = false; break; }
        res.flight_recorder.push_back(buf.substr(r.pos, line_len));
        r.pos += line_len;
      }
      if (!flight_ok || r.pos != end) break;  // corrupt frame
      out.progress = res.events;
      out.result = std::move(res);
    } else {
      break;  // corrupt stream; keep what decoded so far
    }
  }
  return out;
}

// ---- child-side setup ----------------------------------------------------

void apply_rlimits(const IsolateOptions& opt) {
  if (opt.cpu_limit_sec > 0) {
    // Soft limit raises SIGXCPU; the hard limit one second later is the
    // kernel's SIGKILL backstop in case the process ignores it.
    rlimit lim{};
    lim.rlim_cur = static_cast<rlim_t>(opt.cpu_limit_sec);
    lim.rlim_max = static_cast<rlim_t>(opt.cpu_limit_sec + 1);
    ::setrlimit(RLIMIT_CPU, &lim);
  }
#ifndef PHANTOM_ISOLATE_SANITIZED
  if (opt.memory_limit_mb > 0) {
    rlimit lim{};
    lim.rlim_cur = lim.rlim_max =
        static_cast<rlim_t>(opt.memory_limit_mb) * 1024 * 1024;
    ::setrlimit(RLIMIT_AS, &lim);
  }
#endif
}

[[noreturn]] void child_main(const IsolatedTrial::Body& body, int result_fd,
                             int stderr_fd, const IsolateOptions& opt) {
  ::dup2(stderr_fd, 2);
  ::close(stderr_fd);
  // The parent owns interrupt handling: on Ctrl-C it drains in-flight
  // children, so the terminal's process-group SIGINT must not kill them
  // first. A vanished parent is handled by EPIPE (ignored) and, on
  // Linux, the parent-death signal.
  ::signal(SIGINT, SIG_IGN);
  ::signal(SIGPIPE, SIG_IGN);
#ifdef __linux__
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  apply_rlimits(opt);
  try {
    body(result_fd);
  } catch (...) {
    ::_exit(82);  // Body threw past its own catch blocks: still contained.
  }
  ::_exit(0);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

[[nodiscard]] std::string errno_message(const char* what) {
  return std::string{what} + ": " + std::strerror(errno);
}

/// Drains `fd` without blocking into `out`. Returns false once the fd
/// reached EOF (caller should close it).
[[nodiscard]] bool drain_fd(int fd, std::string& out) {
  char buf[4096];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0) {
      return false;
    } else if (errno == EINTR) {
      continue;
    } else {
      return true;  // EAGAIN: nothing more for now
    }
  }
}

}  // namespace

std::string signal_name(int sig) {
  switch (sig) {
    case SIGHUP:  return "SIGHUP";
    case SIGINT:  return "SIGINT";
    case SIGQUIT: return "SIGQUIT";
    case SIGILL:  return "SIGILL";
    case SIGTRAP: return "SIGTRAP";
    case SIGABRT: return "SIGABRT";
    case SIGBUS:  return "SIGBUS";
    case SIGFPE:  return "SIGFPE";
    case SIGKILL: return "SIGKILL";
    case SIGSEGV: return "SIGSEGV";
    case SIGPIPE: return "SIGPIPE";
    case SIGALRM: return "SIGALRM";
    case SIGTERM: return "SIGTERM";
    case SIGXCPU: return "SIGXCPU";
    case SIGXFSZ: return "SIGXFSZ";
    default:      return "SIG" + std::to_string(sig);
  }
}

ChildExit classify_wait_status(int wait_status, bool timed_out) {
  ChildExit e;
  if (WIFSIGNALED(wait_status)) {
    e.kind = timed_out ? ChildExit::Kind::kTimedOut : ChildExit::Kind::kSignaled;
    e.code = WTERMSIG(wait_status);
  } else if (WIFEXITED(wait_status)) {
    // A parent SIGKILL can race the child's own exit; a child that
    // delivered an exit status was not meaningfully timed out.
    e.kind = ChildExit::Kind::kExited;
    e.code = WEXITSTATUS(wait_status);
  }
  return e;
}

TrialResult process_crash_result(const ChildExit& how,
                                 const std::string& stderr_tail,
                                 std::uint64_t events_so_far,
                                 std::int64_t timeout_ms) {
  TrialResult r;
  r.verdict = Verdict::kProcessCrash;
  r.events = events_so_far;
  r.stderr_tail = stderr_tail;
  switch (how.kind) {
    case ChildExit::Kind::kExited:
      r.exit_code = how.code;
      r.detail = "trial process exited with code " + std::to_string(how.code) +
                 " without reporting a result";
      break;
    case ChildExit::Kind::kSignaled:
      r.crash_signal = signal_name(how.code);
      r.detail = "trial process killed by " + r.crash_signal;
      break;
    case ChildExit::Kind::kTimedOut:
      r.crash_signal = signal_name(how.code);
      r.detail = "trial process exceeded the " + std::to_string(timeout_ms) +
                 " ms wall-clock deadline";
      break;
  }
  if (events_so_far > 0) {
    r.detail += " after ~" + std::to_string(events_so_far) + " events";
  }
  return r;
}

std::int64_t monotonic_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1'000'000;
}

bool address_space_limit_supported() {
#ifdef PHANTOM_ISOLATE_SANITIZED
  return false;
#else
  return true;
#endif
}

std::unique_ptr<IsolatedTrial> IsolatedTrial::spawn(const Body& body,
                                                    const IsolateOptions& opt,
                                                    std::string& infra_error) {
  int rpipe[2] = {-1, -1};
  int epipe[2] = {-1, -1};
  if (::pipe(rpipe) != 0) {
    infra_error = errno_message("pipe");
    return nullptr;
  }
  if (::pipe(epipe) != 0) {
    infra_error = errno_message("pipe");
    ::close(rpipe[0]);
    ::close(rpipe[1]);
    return nullptr;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    infra_error = errno_message("fork");
    for (const int fd : {rpipe[0], rpipe[1], epipe[0], epipe[1]}) ::close(fd);
    return nullptr;
  }
  if (pid == 0) {
    ::close(rpipe[0]);
    ::close(epipe[0]);
    child_main(body, rpipe[1], epipe[1], opt);  // never returns
  }
  ::close(rpipe[1]);
  ::close(epipe[1]);
  set_nonblocking(rpipe[0]);
  set_nonblocking(epipe[0]);

  auto t = std::unique_ptr<IsolatedTrial>(new IsolatedTrial);
  t->pid_ = pid;
  t->result_fd_ = rpipe[0];
  t->stderr_fd_ = epipe[0];
  t->timeout_ms_ = opt.timeout_ms;
  t->stderr_tail_bytes_ = opt.stderr_tail_bytes;
  if (opt.timeout_ms > 0) t->deadline_ms_ = monotonic_ms() + opt.timeout_ms;
  infra_error.clear();
  return t;
}

IsolatedTrial::~IsolatedTrial() {
  if (pid_ > 0 && !reaped_) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &wait_status_, 0);
  }
  if (result_fd_ >= 0) ::close(result_fd_);
  if (stderr_fd_ >= 0) ::close(stderr_fd_);
}

bool IsolatedTrial::pump() {
  if (reaped_) return true;
  if (result_fd_ >= 0 && !drain_fd(result_fd_, result_buf_)) {
    ::close(result_fd_);
    result_fd_ = -1;
  }
  if (stderr_fd_ >= 0) {
    const bool open = drain_fd(stderr_fd_, stderr_tail_);
    // Ring-buffer the tail so a log-spewing child stays O(tail).
    if (stderr_tail_.size() > 2 * stderr_tail_bytes_) {
      stderr_tail_.erase(0, stderr_tail_.size() - stderr_tail_bytes_);
    }
    if (!open) {
      ::close(stderr_fd_);
      stderr_fd_ = -1;
    }
  }
  if (result_fd_ < 0 && stderr_fd_ < 0) {
    // Both pipes at EOF: the child is gone (every write end lived in
    // it), so this wait cannot block meaningfully.
    ::waitpid(pid_, &wait_status_, 0);
    reaped_ = true;
  }
  return reaped_;
}

void IsolatedTrial::kill_child(bool timed_out) {
  if (pid_ > 0 && !reaped_) {
    if (timed_out) killed_on_timeout_ = true;
    ::kill(pid_, SIGKILL);
  }
}

TrialResult IsolatedTrial::result() const {
  const ParsedFrames frames = parse_frames(result_buf_);
  const ChildExit how = classify_wait_status(wait_status_, killed_on_timeout_);
  if (frames.result && how.kind == ChildExit::Kind::kExited && how.code == 0) {
    return *frames.result;  // healthy delivery: bit-exact in-process result
  }
  std::string tail = stderr_tail_;
  if (tail.size() > stderr_tail_bytes_) {
    tail.erase(0, tail.size() - stderr_tail_bytes_);
  }
  return process_crash_result(how, tail, frames.progress, timeout_ms_);
}

IsolatedTrial::Body trial_body(exp::Scenario spec, std::uint64_t seed,
                               fault::FaultPlan plan, TrialOptions opt,
                               std::optional<Baseline> baseline) {
  return [spec = std::move(spec), seed, plan = std::move(plan),
          opt = std::move(opt), baseline = std::move(baseline)](int fd) mutable {
    opt.watchdog.progress_every = 65'536;
    opt.watchdog.on_progress = [fd](std::uint64_t events) {
      write_progress_frame(fd, events);
    };
    const TrialResult r =
        run_trial(spec, seed, plan, opt, baseline ? &*baseline : nullptr);
    write_result_frame(fd, r);
  };
}

TrialResult run_trial_isolated(const exp::Scenario& spec, std::uint64_t seed,
                               const fault::FaultPlan& plan,
                               const TrialOptions& opt,
                               const Baseline* baseline,
                               const IsolateOptions& iso) {
  std::string infra_error;
  auto body = trial_body(spec, seed, plan, opt,
                         baseline ? std::optional<Baseline>{*baseline}
                                  : std::nullopt);
  std::unique_ptr<IsolatedTrial> t;
  // One retry for transient fork/pipe failure; persistent infra
  // breakage is a harness error, not a verdict.
  for (int attempt = 0; attempt < 2 && !t; ++attempt) {
    t = IsolatedTrial::spawn(body, iso, infra_error);
  }
  if (!t) {
    throw std::runtime_error{"chaos isolate: " + infra_error};
  }
  while (!t->pump()) {
    pollfd fds[2];
    nfds_t n = 0;
    if (t->result_fd() >= 0) fds[n++] = {t->result_fd(), POLLIN, 0};
    if (t->stderr_fd() >= 0) fds[n++] = {t->stderr_fd(), POLLIN, 0};
    int timeout = -1;
    if (t->deadline_ms()) {
      const std::int64_t left = *t->deadline_ms() - monotonic_ms();
      if (left <= 0) {
        t->kill_child(/*timed_out=*/true);
        timeout = 50;  // the EOF after SIGKILL arrives almost at once
      } else {
        timeout = static_cast<int>(left > 1'000'000 ? 1'000'000 : left);
      }
    }
    ::poll(fds, n, timeout);
  }
  return t->result();
}

}  // namespace phantom::chaos
