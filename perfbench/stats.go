package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Dist summarizes a sample of measurements. Every percentile the
// benchmark prints travels with its sample count N.
type Dist struct {
	N   int
	P50 float64
	P99 float64
	Max float64
}

// summarize returns the nearest-rank p50 and p99 and the maximum of xs.
func summarize(xs []float64) Dist {
	if len(xs) == 0 {
		return Dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Dist{N: len(s), P50: rank(s, 0.50), P99: rank(s, 0.99), Max: s[len(s)-1]}
}

// rank is the nearest-rank q-quantile of the sorted sample s.
func rank(s []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return summarize(xs).P50 }

// String renders the summary with its sample count.
func (d Dist) String() string {
	return fmt.Sprintf("p50=%.4g p99=%.4g max=%.4g (n=%d, %d beyond p99)", d.P50, d.P99, d.Max, d.N, d.N-int(math.Ceil(0.99*float64(d.N))))
}

// selfCPU returns the CPU time (user plus system) this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTick = 100

// procCPU returns the CPU time (utime plus stime) of process pid.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// hostSteal returns the time a hypervisor has run other guests while
// this machine's CPUs had work, averaged over the CPUs: the steal column
// of /proc/stat's cpu line. It reads 0 on bare metal, or when the kernel
// does not report steal.
//
// The benchmark subtracts the steal accrued during a measurement from
// its wall time. On a shared virtual machine steal swings between a few
// and over twenty percent within minutes; uncorrected, that swing alone
// spreads repeated throughput measurements by a quarter.
func hostSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / clockTick / time.Duration(runtime.NumCPU())
}

// peakRSSMB returns the VmHWM (peak resident set size) of process pid,
// or of this process when pid is 0, in MiB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}
