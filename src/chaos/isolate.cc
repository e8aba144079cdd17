#include "chaos/isolate.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <limits>
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

/// How much of the end of the child's stderr to keep for the report.
constexpr std::size_t kStderrTailBytes = 4096;
/// Spawn retries for fork/pipe failure; the first backoff, in wall ms,
/// doubles per attempt.
constexpr int kMaxSpawnRetries = 3;
constexpr int kSpawnBackoffMs = 10;

// ---- pipe frame protocol -------------------------------------------------
//
// The child writes 'P' (progress) frames while the simulation runs and
// exactly one 'R' (result) frame on completion. Each frame is a tag
// byte and a native-order u64 (parent and child are the same binary on
// the same machine): the event count for 'P', the row's length for
// 'R', which the checkpoint row follows.

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

void write_frame(int fd, char tag, std::uint64_t value,
                 const std::string& body = {}) {
  std::string frame(9, tag);
  std::memcpy(frame.data() + 1, &value, 8);
  frame += body;
  write_all(fd, frame);
}

struct ParsedFrames {
  std::optional<TrialResult> result;
  std::uint64_t progress = 0;  ///< last reported event count
};

[[nodiscard]] ParsedFrames parse_frames(const std::string& buf) {
  ParsedFrames out;
  std::size_t pos = 0;
  while (buf.size() - pos >= 9 && (buf[pos] == 'P' || buf[pos] == 'R')) {
    const char tag = buf[pos];
    std::uint64_t value = 0;
    std::memcpy(&value, buf.data() + pos + 1, 8);
    pos += 9;
    if (tag == 'P') {
      out.progress = value;
      continue;
    }
    // A torn or unparseable row leaves no result: the child then ends
    // as a kProcessCrash, however it exited.
    if (value <= buf.size() - pos) {
      if (auto row = parse_checkpoint_row(buf.substr(pos, value))) {
        out.progress = row->second.events;
        out.result = std::move(row->second);
      }
    }
    break;  // the result frame is the last
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

/// How a child ended, from the parent's side of waitpid().
struct ChildExit {
  enum class Kind {
    kExited,    ///< _exit(code)
    kSignaled,  ///< killed by `code` (a signal number)
    kTimedOut,  ///< parent SIGKILLed it at the wall-clock deadline
  };
  Kind kind = Kind::kExited;
  int code = 0;  ///< exit code (kExited) or signal number (otherwise)
};

/// Decodes a raw waitpid() status. `timed_out` marks a child the parent
/// killed at the deadline (the raw status is then a plain SIGKILL).
[[nodiscard]] ChildExit classify_wait_status(int wait_status,
                                             bool timed_out) {
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

/// The structured kProcessCrash result for a child that died without
/// delivering a result frame. `timeout_ms` only shapes the kTimedOut
/// message.
[[nodiscard]] TrialResult process_crash_result(const ChildExit& how,
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

/// CLOCK_MONOTONIC now, in milliseconds (the clock deadlines use).
[[nodiscard]] std::int64_t monotonic_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1'000'000;
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
    if (stderr_tail_.size() > 2 * kStderrTailBytes) {
      stderr_tail_.erase(0, stderr_tail_.size() - kStderrTailBytes);
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
    deadline_ms_.reset();  // nothing left to enforce; EOF follows
  }
}

TrialResult IsolatedTrial::result() const {
  const ParsedFrames frames = parse_frames(result_buf_);
  const ChildExit how = classify_wait_status(wait_status_, killed_on_timeout_);
  if (frames.result && how.kind == ChildExit::Kind::kExited && how.code == 0) {
    return *frames.result;  // healthy delivery: bit-exact in-process result
  }
  std::string tail = stderr_tail_;
  if (tail.size() > kStderrTailBytes) {
    tail.erase(0, tail.size() - kStderrTailBytes);
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
      write_frame(fd, 'P', events);
    };
    const TrialResult r =
        run_trial(spec, seed, plan, opt, baseline ? &*baseline : nullptr);
    // The child does not know its trial index; the parent keeps only
    // the result.
    const std::string row = checkpoint_row(0, plan.to_spec(), r);
    write_frame(fd, 'R', row.size(), row);
  };
}

std::unique_ptr<IsolatedTrial> spawn_with_retry(
    const IsolatedTrial::Body& body, const IsolateOptions& opt) {
  std::string err;
  int backoff_ms = kSpawnBackoffMs;
  for (int attempt = 0; attempt <= kMaxSpawnRetries; ++attempt) {
    if (attempt > 0) {
      ::usleep(static_cast<useconds_t>(backoff_ms) * 1000);
      backoff_ms *= 2;
    }
    if (auto t = IsolatedTrial::spawn(body, opt, err)) return t;
  }
  throw std::runtime_error{"chaos isolate: cannot start a trial after " +
                           std::to_string(kMaxSpawnRetries + 1) +
                           " attempts (" + err + ")"};
}

void wait_any(const std::vector<IsolatedTrial*>& trials) {
  std::vector<pollfd> fds;
  int timeout_ms = -1;
  const std::int64_t now = monotonic_ms();
  for (const IsolatedTrial* t : trials) {
    if (t->result_fd() >= 0) fds.push_back({t->result_fd(), POLLIN, 0});
    if (t->stderr_fd() >= 0) fds.push_back({t->stderr_fd(), POLLIN, 0});
    if (const auto deadline = t->deadline_ms()) {
      const int left = static_cast<int>(std::clamp<std::int64_t>(
          *deadline - now, 0, std::numeric_limits<int>::max() / 2));
      timeout_ms = timeout_ms < 0 ? left : std::min(timeout_ms, left);
    }
  }
  ::poll(fds.data(), fds.size(), timeout_ms);
  const std::int64_t after_poll = monotonic_ms();
  for (IsolatedTrial* t : trials) {
    if (const auto deadline = t->deadline_ms();
        deadline && after_poll >= *deadline) {
      t->kill_child(/*timed_out=*/true);
    }
  }
}

TrialResult run_trial_isolated(const exp::Scenario& spec, std::uint64_t seed,
                               const fault::FaultPlan& plan,
                               const TrialOptions& opt,
                               const Baseline* baseline,
                               const IsolateOptions& iso) {
  const auto t = spawn_with_retry(
      trial_body(spec, seed, plan, opt,
                 baseline ? std::optional<Baseline>{*baseline} : std::nullopt),
      iso);
  while (!t->pump()) wait_any({t.get()});
  return t->result();
}

}  // namespace phantom::chaos
