package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// hostInfo identifies the machine and code a result came from, so results
// from different hosts are never compared as if they were one.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source"` // digest of the checkout's sources
}

func host() hostInfo {
	h := hostInfo{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown (not a git checkout)",
		Source:     os.Getenv("PERFBENCH_SOURCE"),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// maxRSSMiB converts a ru_maxrss figure (KiB on Linux) to MiB.
func maxRSSMiB(ru *syscall.Rusage) float64 {
	if ru == nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// selfMaxRSS is this process's peak resident memory so far, in MiB.
func selfMaxRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return maxRSSMiB(&ru)
}

// procMaxRSS is a reaped child's peak resident memory, in MiB.
func procMaxRSS(ps *os.ProcessState) float64 {
	if ps == nil {
		return 0
	}
	ru, _ := ps.SysUsage().(*syscall.Rusage)
	return maxRSSMiB(ru)
}
