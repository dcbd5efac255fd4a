/* A sampling profiler in an LD_PRELOAD object: SIGPROF at SAMP_HZ (default
 * 250) of the process's CPU time, one backtrace per tick, raw return
 * addresses and /proc/self/maps written to SAMP_OUT (default samp.out) at
 * exit. ci/prof/report.py turns the file into leaf / inclusive / top-down
 * views. Needs a binary with frame info: CARGO_PROFILE_RELEASE_DEBUG=1.
 *
 *   gcc -O2 -shared -fPIC -o samp.so ci/prof/samp.c
 *   SAMP_OUT=/tmp/p.samp LD_PRELOAD=$PWD/samp.so ./the-binary args...
 *
 * Every process that loads the object samples itself, wrappers included:
 * `timeout` or a shell in front of the binary inherits LD_PRELOAD, waits
 * for its child and exits last. A process that took no sample therefore
 * writes nothing, so a waiting wrapper leaves the child's file alone.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>

#define DEPTH 48
#define MAX_SAMPLES (1 << 17)

static void *frames[MAX_SAMPLES][DEPTH];
static unsigned char depth[MAX_SAMPLES];
static volatile int taken;

static void on_tick(int sig) {
    (void)sig;
    if (taken < MAX_SAMPLES) {
        depth[taken] = (unsigned char)backtrace(frames[taken], DEPTH);
        taken++;
    }
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    if (taken == 0) return;
    const char *path = getenv("SAMP_OUT");
    FILE *out = fopen(path ? path : "samp.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512];
    if (!out || !maps) return;
    while (fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
    for (int s = 0; s < taken; s++) {
        /* Frames 0 and 1 are this handler and the signal trampoline. */
        fputc('S', out);
        for (int f = 2; f < depth[s]; f++) fprintf(out, " %p", frames[s][f]);
        fputc('\n', out);
    }
    fclose(maps);
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    const char *hz_env = getenv("SAMP_HZ");
    long hz = hz_env ? atol(hz_env) : 250;
    void *warm[2];
    backtrace(warm, 2); /* loads libgcc outside the signal handler */
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_tick;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval tick = {{0, 1000000 / hz}, {0, 1000000 / hz}};
    setitimer(ITIMER_PROF, &tick, NULL);
    atexit(dump);
}
