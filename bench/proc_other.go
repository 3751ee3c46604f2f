//go:build !linux

package main

import "os/exec"

// The benchmark's numbers are Linux numbers (peak RSS comes from
// /proc); these stand-ins only keep `go build ./...` green elsewhere.

func peakRSSMB(pid int) float64    { return 0 }
func currentRSSMB(pid int) float64 { return 0 }
func cpuModel() string             { return "unknown" }
func killWithParent(cmd *exec.Cmd) {}
