package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// environmentStamp describes the machine and the resolved execution
// shape of the run. Two runs are comparable only when their stamps are
// equal: hier-coord on one core, for instance, resolves to a different
// shard width.
func environmentStamp(o Options, workload map[string]any) map[string]any {
	s := map[string]any{
		"workload":   o.Workload,
		"trace":      o.Trace,
		"cores":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
	}
	for k, v := range workload {
		s[k] = v
	}
	return s
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
