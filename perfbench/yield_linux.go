package main

import "syscall"

// osYield gives the CPU to any other runnable thread, and returns at once
// when there is none, without ever letting the CPU go idle.
func osYield() {
	_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
}
