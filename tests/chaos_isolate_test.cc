// Process isolation: forked children, rlimits, wall-clock deadlines and
// exit-status decoding, exercised with real hostile child bodies.
#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "chaos/generator.h"
#include "chaos/isolate.h"

namespace phantom {
namespace {

using sim::Time;

/// Drives one isolated trial to completion the way the supervisor does:
/// poll the pipes, enforce the wall-clock deadline, pump until reaped.
chaos::TrialResult run_to_completion(chaos::IsolatedTrial& t) {
  while (!t.pump()) {
    pollfd fds[2];
    nfds_t n = 0;
    if (t.result_fd() >= 0) fds[n++] = {t.result_fd(), POLLIN, 0};
    if (t.stderr_fd() >= 0) fds[n++] = {t.stderr_fd(), POLLIN, 0};
    int timeout = 100;
    if (t.deadline_ms()) {
      const std::int64_t left = *t.deadline_ms() - chaos::monotonic_ms();
      if (left <= 0) {
        t.kill_child(/*timed_out=*/true);
        timeout = 50;
      } else {
        timeout = static_cast<int>(std::min<std::int64_t>(left, 100));
      }
    }
    ::poll(fds, n, timeout);
  }
  return t.result();
}

chaos::TrialResult run_body(const chaos::IsolatedTrial::Body& body,
                            const chaos::IsolateOptions& opt = {}) {
  std::string infra_error;
  auto t = chaos::IsolatedTrial::spawn(body, opt, infra_error);
  if (!t) {
    ADD_FAILURE() << "spawn failed: " << infra_error;
    return {};
  }
  return run_to_completion(*t);
}

TEST(IsolateTest, SignalNamesAreHuman) {
  EXPECT_EQ(chaos::signal_name(SIGSEGV), "SIGSEGV");
  EXPECT_EQ(chaos::signal_name(SIGABRT), "SIGABRT");
  EXPECT_EQ(chaos::signal_name(SIGXCPU), "SIGXCPU");
  EXPECT_EQ(chaos::signal_name(SIGKILL), "SIGKILL");
  // Signals without a common name still render unambiguously.
  EXPECT_EQ(chaos::signal_name(63), "SIG63");
}

TEST(IsolateTest, FatalSignalBecomesStructuredProcessCrash) {
  const auto r = run_body([](int) {
    std::fputs("ERROR: AddressSanitizer: heap-use-after-free 0xdeadbeef\n",
               stderr);
    std::fflush(stderr);
    ::raise(SIGSEGV);
  });
  EXPECT_EQ(r.verdict, chaos::Verdict::kProcessCrash);
  if (chaos::address_space_limit_supported()) {
    EXPECT_EQ(r.crash_signal, "SIGSEGV");
    EXPECT_NE(r.detail.find("SIGSEGV"), std::string::npos) << r.detail;
  } else {
    // Sanitizer runtimes intercept fatal signals and exit with their
    // own code; the crash is still contained and structured.
    EXPECT_TRUE(r.crash_signal == "SIGSEGV" || r.exit_code != 0)
        << "exit_code=" << r.exit_code << " signal=" << r.crash_signal;
  }
  EXPECT_NE(r.stderr_tail.find("heap-use-after-free"), std::string::npos)
      << r.stderr_tail;
}

TEST(IsolateTest, SilentExitWithoutResultIsAProcessCrash) {
  const auto r = run_body([](int) { ::_exit(7); });
  EXPECT_EQ(r.verdict, chaos::Verdict::kProcessCrash);
  EXPECT_EQ(r.exit_code, 7);
  EXPECT_TRUE(r.crash_signal.empty()) << r.crash_signal;
  EXPECT_NE(r.detail.find("exited with code 7"), std::string::npos) << r.detail;
}

TEST(IsolateTest, EscapedExceptionIsContainedAsExitCode) {
  const auto r =
      run_body([](int) { throw std::runtime_error{"escaped the trial"}; });
  EXPECT_EQ(r.verdict, chaos::Verdict::kProcessCrash);
  EXPECT_EQ(r.exit_code, 82);
}

TEST(IsolateTest, WallClockDeadlineKillsAHungChild) {
  chaos::IsolateOptions opt;
  opt.timeout_ms = 200;
  const auto r = run_body([](int) {
    while (true) ::pause();
  }, opt);
  EXPECT_EQ(r.verdict, chaos::Verdict::kProcessCrash);
  EXPECT_EQ(r.crash_signal, "SIGKILL");
  EXPECT_NE(r.detail.find("wall-clock deadline"), std::string::npos)
      << r.detail;
}

TEST(IsolateTest, CpuRlimitKillsASpinningChild) {
  chaos::IsolateOptions opt;
  opt.cpu_limit_sec = 1;
  opt.timeout_ms = 30'000;  // the rlimit should fire long before this
  const auto r = run_body([](int) {
    volatile std::uint64_t x = 0;
    while (true) ++x;
  }, opt);
  EXPECT_EQ(r.verdict, chaos::Verdict::kProcessCrash);
  // SIGXCPU at the soft limit; SIGKILL is the kernel's hard backstop.
  EXPECT_TRUE(r.crash_signal == "SIGXCPU" || r.crash_signal == "SIGKILL")
      << r.crash_signal;
}

TEST(IsolateTest, AddressSpaceRlimitContainsRunawayAllocation) {
  if (!chaos::address_space_limit_supported()) {
    GTEST_SKIP() << "RLIMIT_AS cannot be enforced under this sanitizer";
  }
  chaos::IsolateOptions opt;
  opt.memory_limit_mb = 64;
  const auto r = run_body([](int) {
    std::vector<char> hog(512u << 20, 'x');
    std::fprintf(stderr, "allocated %c\n", hog[0]);  // not reached
  }, opt);
  EXPECT_EQ(r.verdict, chaos::Verdict::kProcessCrash);
  // bad_alloc escapes the body (exit 82); some allocators abort instead.
  EXPECT_TRUE(r.exit_code == 82 || !r.crash_signal.empty())
      << "exit_code=" << r.exit_code << " signal=" << r.crash_signal;
}

TEST(IsolateTest, ProgressFramesSurviveACrash) {
  // A child that reports progress and then dies: the crash result still
  // carries how far it got, decoded from the last 'P' frame.
  const auto r = run_body([](int fd) {
    const std::uint64_t events = 123456;
    std::string frame;
    frame.push_back('P');
    frame.append(reinterpret_cast<const char*>(&events), sizeof events);
    (void)!::write(fd, frame.data(), frame.size());
    ::raise(SIGABRT);
  });
  EXPECT_EQ(r.verdict, chaos::Verdict::kProcessCrash);
  EXPECT_EQ(r.crash_signal, "SIGABRT");
  EXPECT_EQ(r.events, 123456u);
  EXPECT_NE(r.detail.find("after ~123456 events"), std::string::npos)
      << r.detail;
}

TEST(IsolateTest, HealthyIsolatedTrialMatchesInProcessBitExact) {
  exp::Scenario spec;
  spec.rate_mbps = 40.0;
  spec.horizon = Time::ms(600);
  sim::Rng rng{7};
  const auto plan = chaos::generate_plan(rng, spec);
  const chaos::TrialOptions opt;
  const auto base = chaos::run_baseline(spec, 7, opt);

  const auto in_process = chaos::run_trial(spec, 7, plan, opt, &base);
  const auto isolated =
      chaos::run_trial_isolated(spec, 7, plan, opt, &base, {});

  EXPECT_EQ(isolated.verdict, in_process.verdict);
  EXPECT_EQ(isolated.detail, in_process.detail);
  EXPECT_EQ(isolated.events, in_process.events);
  EXPECT_EQ(isolated.violations, in_process.violations);
  ASSERT_EQ(isolated.reconverge_latency.has_value(),
            in_process.reconverge_latency.has_value());
  if (isolated.reconverge_latency) {
    EXPECT_EQ(isolated.reconverge_latency->nanoseconds(),
              in_process.reconverge_latency->nanoseconds());
  }
  // Doubles cross the pipe by bit pattern — compare bits, not values.
  EXPECT_EQ(std::memcmp(&isolated.settled_share_mbps,
                        &in_process.settled_share_mbps, sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&isolated.peak_queue_cells,
                        &in_process.peak_queue_cells, sizeof(double)),
            0);
}

}  // namespace
}  // namespace phantom
