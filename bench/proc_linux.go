package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
)

// statusMB reads one kB-valued field of /proc/<pid>/status, in MiB; 0
// if /proc cannot say.
func statusMB(pid int, field string) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte(field+":")); ok {
			f := bytes.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			kb, _ := strconv.ParseFloat(string(f[0]), 64)
			return kb / 1024
		}
	}
	return 0
}

// peakRSSMB is VmHWM, the peak resident set of process pid so far.
func peakRSSMB(pid int) float64 { return statusMB(pid, "VmHWM") }

// currentRSSMB is VmRSS, the resident set of process pid now.
func currentRSSMB(pid int) float64 { return statusMB(pid, "VmRSS") }

// cpuModel is the "model name" of the first CPU in /proc/cpuinfo.
func cpuModel() string {
	raw, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("model name")) {
			if _, v, ok := bytes.Cut(line, []byte(":")); ok {
				return string(bytes.TrimSpace(v))
			}
		}
	}
	return "unknown"
}

// killWithParent makes the kernel kill the child if this process dies
// first, so a benchmark killed by a timeout leaves no daemon behind.
func killWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
