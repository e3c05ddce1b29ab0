package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// host identifies the machine and build a report was recorded on.
type host struct {
	NProc  int    `json:"nproc"`
	CPU    string `json:"cpu"`
	Go     string `json:"go"`
	OS     string `json:"os"`
	Commit string `json:"commit"`
}

func hostInfo() host {
	h := host{
		NProc:  runtime.NumCPU(),
		CPU:    "unknown",
		Go:     runtime.Version(),
		OS:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit: "unknown",
	}
	if v, ok := procField("/proc/cpuinfo", "model name"); ok {
		h.CPU = v
	}
	// The go command stamps the commit when it builds inside a git
	// checkout; "+dirty" marks uncommitted changes.
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			h.Commit = rev
			if modified == "true" {
				h.Commit += "+dirty"
			}
		}
	}
	return h
}

// peakRSSMiB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	v, ok := procField("/proc/self/status", "VmHWM")
	if !ok {
		return 0, fmt.Errorf("no VmHWM in /proc/self/status")
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("VmHWM %q: %w", v, err)
	}
	return kb / 1024, nil
}

// cpuTime returns the user plus system CPU time the process has used. A
// shared host's steal time — the time its vCPUs wait for a physical CPU —
// lengthens wall-clock spans but is not charged here.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procField returns the value of the first "key: value" line of a /proc
// file.
func procField(path, key string) (string, bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v), true
		}
	}
	return "", false
}
