package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// hostInfo is the fingerprint embedded in every report, so numbers taken
// on different hosts are never compared by accident.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	L2         string `json:"l2"`
	L3         string `json:"l3"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		L2:         cacheSize(2),
		L3:         cacheSize(3),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The revision is only stamped when the binary was built inside a git
	// work tree; the driver's checkout is not one.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// cacheSize reads cpu0's cache size at the given level from sysfs.
func cacheSize(level int) string {
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lv, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		if strings.TrimSpace(string(lv)) != strconv.Itoa(level) {
			continue
		}
		if sz, err := os.ReadFile(dir + "size"); err == nil {
			return strings.TrimSpace(string(sz))
		}
	}
	return "unknown"
}

// peakRSSMiB is the process's high-water resident set (VmHWM), in MiB.
// On the small workloads it moves by a quarter from run to run with the
// timing of stack growth and garbage collection, so it is printed for
// people and not gated; rssSampler gives the gated figure.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// rssMiB is the resident set right now, from /proc/self/statm.
func rssMiB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssSampler reads the resident set every 20 ms from its own goroutine
// (asleep but for one small read per tick, so it is not a third busy
// goroutine) until stopped; the median of its samples is the memory a
// workload holds while it is being timed.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			s.samples = append(s.samples, rssMiB())
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it and returns the median sample.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return median(s.samples)
}
