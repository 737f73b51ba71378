// Process-teardown regression test: every process-global object a pool
// worker can touch must outlive the workers. The probe program starts
// global_pool() and returns immediately, so exit() runs while workers are
// still starting; a global destroyed under a live worker shows up as a
// crash (double free, heap corruption) or a nonzero exit.
#include <gtest/gtest.h>

#include <spawn.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <string>

extern char** environ;

namespace {

constexpr int kRuns = 200;
constexpr int kConcurrent = 4;

TEST(Teardown, PoolStartThenExitIsCleanUnderLoad) {
  std::string probe = EGEMM_TEARDOWN_PROBE;
  char* argv[] = {probe.data(), nullptr};
  int launched = 0;
  int running = 0;
  int failures = 0;
  std::string first_failure;
  while (launched < kRuns || running > 0) {
    while (running < kConcurrent && launched < kRuns) {
      pid_t pid = 0;
      ASSERT_EQ(posix_spawn(&pid, probe.c_str(), nullptr, nullptr, argv,
                            environ),
                0)
          << "cannot start " << probe;
      ++launched;
      ++running;
    }
    int status = 0;
    ASSERT_GT(waitpid(-1, &status, 0), 0);
    --running;
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) continue;
    if (++failures == 1) {
      first_failure = WIFSIGNALED(status)
                          ? "killed by signal " +
                                std::to_string(WTERMSIG(status))
                          : "exit status " +
                                std::to_string(WEXITSTATUS(status));
    }
  }
  EXPECT_EQ(failures, 0) << failures << " of " << kRuns
                         << " probe runs failed; first: " << first_failure;
}

}  // namespace
