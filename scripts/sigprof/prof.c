/* A SIGPROF sampler as an LD_PRELOAD library: no change to the program,
 * no `perf`. Build and use (see .claude/skills/verify/SKILL.md):
 *
 *   cc -O2 -shared -fPIC -o libprof.so scripts/sigprof/prof.c
 *   SIGPROF_OUT=/tmp/prof LD_PRELOAD=$PWD/libprof.so <program> ...
 *   python3 scripts/sigprof/fold.py /tmp/prof.*
 *
 * The constructor arms ITIMER_PROF (process CPU time, so every thread
 * is sampled in proportion to the CPU it burns; the kernel delivers at
 * ~250 Hz whatever interval is asked for). The handler records the
 * interrupted thread's id and its stack — the pc, then the return
 * addresses up the `rbp` chain, so the program must be built with frame
 * pointers — reading each frame with process_vm_readv(2): a garbage
 * `rbp` (libc keeps none) is an error return, not a fault. The
 * destructor writes `$SIGPROF_OUT.<pid>`: /proc/self/maps ("M" lines),
 * then one "S <tid> <pc> <ret> ..." line per sample. x86-64 Linux only. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

#define DEPTH 48
#define WORDS (1u << 24) /* 128 MiB of address space, touched as used */

static uint64_t *buf;
static uint64_t used; /* words of `buf` claimed */

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    const mcontext_t *m = &((ucontext_t *)ctx)->uc_mcontext;
    uint64_t stack[DEPTH], n = 0, fp = m->gregs[REG_RBP], sp = m->gregs[REG_RSP];
    stack[n++] = m->gregs[REG_RIP];
    pid_t pid = getpid();
    while (n < DEPTH && fp >= sp && (fp & 7) == 0) {
        uint64_t frame[2]; /* saved rbp, return address */
        struct iovec to = {frame, sizeof frame}, from = {(void *)fp, sizeof frame};
        if (process_vm_readv(pid, &to, 1, &from, 1, 0) != (ssize_t)sizeof frame || frame[0] <= fp)
            break;
        stack[n++] = frame[1];
        fp = frame[0];
    }
    uint64_t at = __atomic_fetch_add(&used, n + 2, __ATOMIC_RELAXED);
    if (at + n + 2 > WORDS)
        return;
    buf[at] = (uint64_t)syscall(SYS_gettid);
    buf[at + 1] = n;
    for (uint64_t i = 0; i < n; i++)
        buf[at + 2 + i] = stack[i];
}

__attribute__((constructor)) static void arm(void) {
    buf = calloc(WORDS, sizeof *buf);
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    struct itimerval every = {{0, 2000}, {0, 2000}};
    if (buf && sigaction(SIGPROF, &sa, NULL) == 0)
        setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *prefix = getenv("SIGPROF_OUT");
    char path[4096], line[4096];
    snprintf(path, sizeof path, "%s.%d", prefix ? prefix : "sigprof", (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps || !buf)
        return;
    while (fgets(line, sizeof line, maps))
        fprintf(out, "M %s", line);
    uint64_t end = used < WORDS ? used : WORDS;
    for (uint64_t at = 0; at + 2 <= end && at + 2 + buf[at + 1] <= end; at += 2 + buf[at + 1]) {
        fprintf(out, "S %llu", (unsigned long long)buf[at]);
        for (uint64_t i = 0; i < buf[at + 1]; i++)
            fprintf(out, " %llx", (unsigned long long)buf[at + 2 + i]);
        fputc('\n', out);
    }
    fclose(out);
}
