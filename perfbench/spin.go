package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// A virtual CPU with nothing to run halts, and waking a halted vCPU goes
// through the host's scheduler: on a busy host that adds milliseconds to
// whichever request arrives at an idle moment, so latency at low rates
// measures the host. While a run measures, one spinner process per CPU
// keeps every vCPU awake. Spinners run under SCHED_IDLE, the kernel's
// lowest class: any runnable program or benchmark thread preempts them at
// once, so they only fill time that would otherwise be spent halted.

// schedIdle is SCHED_IDLE from <linux/sched.h>.
const schedIdle = 5

// spin is the body of a spinner process: pin to cpu, drop to SCHED_IDLE
// and busy-loop until killed.
func spin(cpu int) {
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread()
	pinToCPU(cpu)
	var param [1]int32
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		fmt.Fprintln(os.Stderr, "perfbench: spinner: sched_setscheduler:", errno)
		os.Exit(1)
	}
	for {
	}
}

// startSpinners starts one spinner per CPU; stopAll stops them.
func startSpinners(logDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for cpu := 0; cpu < runtime.NumCPU(); cpu++ {
		if _, err := startProc(self, logDir, fmt.Sprintf("spinner%d", cpu), "", "-spin", fmt.Sprint(cpu)); err != nil {
			return err
		}
	}
	return nil
}
