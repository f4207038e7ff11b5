/* A SIGPROF stack sampler, preloaded into a frame-pointer build by
 * scripts/profile.sh (LD_PRELOAD).
 *
 * A process CPU-time timer raises SIGPROF every millisecond of CPU. The
 * handler walks the interrupted thread's frame-pointer chain, reading each
 * frame through process_vm_readv so that a frame without a frame pointer
 * (glibc) ends the walk instead of faulting, and keeps the return
 * addresses in a static buffer. At exit the samples go to SYNCOPT_PROFILE_OUT.<pid>, one sample
 * a line of hex addresses (innermost first), followed by this process's
 * /proc/self/maps, which the report needs to tell modules apart. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define DEPTH 48
#define SAMPLES 200000

static uintptr_t stacks[SAMPLES][DEPTH];
static unsigned char depths[SAMPLES];
static volatile long taken;
static pid_t self;

/* Copies 16 bytes at `fp` into `out`; 0 when `fp` is not readable. */
static int peek(uintptr_t fp, uintptr_t out[2]) {
    struct iovec local = {out, 16}, remote = {(void *)fp, 16};
    return syscall(SYS_process_vm_readv, self, &local, 1, &remote, 1, 0) == 16;
}

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i >= SAMPLES) return;
    const greg_t *r = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    uintptr_t fp = r[REG_RBP], frame[2];
    int d = 0;
    stacks[i][d++] = r[REG_RIP];
    while (d < DEPTH && fp >= (uintptr_t)r[REG_RSP] && fp % 8 == 0 && peek(fp, frame)) {
        if (frame[1] < 4096 || frame[0] <= fp) break;
        stacks[i][d++] = frame[1] - 1; /* the call, not the return point */
        fp = frame[0];
    }
    depths[i] = d;
}

__attribute__((constructor)) static void start(void) {
    self = getpid();
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct sigevent ev = {.sigev_notify = SIGEV_SIGNAL, .sigev_signo = SIGPROF};
    timer_t timer;
    struct itimerspec spec = {{0, 1000000}, {0, 1000000}};
    if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &ev, &timer) == 0) timer_settime(timer, 0, &spec, NULL);
}

__attribute__((destructor)) static void stop(void) {
    signal(SIGPROF, SIG_IGN);
    const char *base = getenv("SYNCOPT_PROFILE_OUT");
    char path[4096], line[512];
    snprintf(path, sizeof path, "%s.%d", base ? base : "profile", (int)self);
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    long n = taken < SAMPLES ? taken : SAMPLES;
    for (long i = 0; i < n; i++) {
        for (int d = 0; d < depths[i]; d++) fprintf(out, d ? " %lx" : "%lx", (unsigned long)stacks[i][d]);
        fputc('\n', out);
    }
    fputs("maps\n", out);
    while (fgets(line, sizeof line, maps)) fputs(line, out);
    fclose(maps);
    fclose(out);
}
