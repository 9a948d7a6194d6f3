// e2e_launch: run one command and report its wall time and the rusage
// wait4() returns for it (the command plus every child it reaped, so a
// `vft run` launcher covers its target).
//
//   e2e_launch -- prog [args...]
//
// The result is the last line on stderr:
//   e2e_launch: wall_s=<s> cpu_s=<user+sys s> maxrss_kb=<KiB> status=<n>
// where status is the exit code, or 128+signal.
//
// Why not os.wait4 from run_e2e.py itself: Linux carries a process's RSS
// high-water mark across fork and exec, so a child forked from a Python
// interpreter starts with the interpreter's peak RSS (~15 MiB) already
// counted and small targets all read alike. This launcher is small, so the
// floor it leaves under the measured peak is ~1-2 MiB for raw and
// instrumented runs alike.
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

namespace {

double now_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3 || std::strcmp(argv[1], "--") != 0) {
    std::fprintf(stderr, "usage: %s -- prog [args...]\n", argv[0]);
    return 2;
  }
  const double t0 = now_s();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("e2e_launch: fork");
    return 2;
  }
  if (pid == 0) {
    execvp(argv[2], argv + 2);
    std::perror("e2e_launch: exec");
    _exit(127);
  }
  int status = 0;
  rusage ru{};
  if (wait4(pid, &status, 0, &ru) != pid) {
    std::perror("e2e_launch: wait4");
    return 2;
  }
  const double wall = now_s() - t0;
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  std::fprintf(stderr, "e2e_launch: wall_s=%.6f cpu_s=%.6f maxrss_kb=%ld status=%d\n",
               wall, seconds(ru.ru_utime) + seconds(ru.ru_stime), ru.ru_maxrss, code);
  return 0;
}
